"""Machine-speed reference for scaling wall times on a shared machine.

On a machine shared with other tenants, whole seconds of work run 1.5-2x
slower in CPU time as well as in wall time, and pinning, ASLR or hash seeds
do not change that. A fixed kernel of the closed loop's own mix, small
LAPACK calls and interpreter work, is timed right before and right after
each measured action; the action's wall time is scaled by REF_KERNEL_S over
the kernel's mean time, which maps it to the machine running at full speed.
The kernel never touches sparseppc, so program changes cannot move it.
"""

from time import perf_counter

import numpy as np

# The kernel's time at full speed on the 2-core box the benchmark was
# defined on (its 10th percentile over quiet minutes). It sets the scale
# only: ratios between commits do not depend on it.
REF_KERNEL_S = 0.0141

_RNG = np.random.default_rng(0)
_G = _RNG.standard_normal((40, 8))
_Y = _RNG.standard_normal((400, 40))


def kernel_seconds() -> float:
    t0 = perf_counter()
    acc = 0.0
    for y in _Y:
        q, r = np.linalg.qr(_G)
        c = np.linalg.solve(r, q.T @ y)
        acc += float(c @ c) + sum(i * 0.5 for i in range(40))
    return perf_counter() - t0


class SpeedProbe:
    """Brackets actions with kernel runs; back-to-back actions share one."""

    def __init__(self):
        self._last = None

    def timed(self, action):
        """Run `action()`; return (its result, wall-time scale factor)."""
        before = self._last if self._last is not None else kernel_seconds()
        out = action()
        self._last = kernel_seconds()
        return out, REF_KERNEL_S / (0.5 * (before + self._last))
