"""Erasure-channel dropout generation and the actuator's read schedule.

Traces are binary sequences d(k), 1 = packet lost. Every trace honors the
bounded-dropout contract: d(0) = 0 and no run of consecutive losses longer
than N - 1, so the actuator's read schedule never runs past a packet.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolViolationError, TraceValidationError
from .linalg import finite_real, int_setting, number_array, shown

# Each dropout kind and the DropoutModel fields it reads.
DROPOUT_KEYS = {"iid": {"p_drop"}, "markov": {"p_dd", "p_dg"}, "scripted": {"script"}}


@dataclass(frozen=True)
class DropoutModel:
    """Dropout process description. N is the packet length bounding runs.

    markov: drop probability is p_dd after a drop and p_dg after a
    delivery. iid: each step drops with p_drop, which is the markov chain
    with p_dd = p_dg = p_drop. scripted: replay an explicit bit sequence,
    which must itself be a valid trace.
    """

    kind: str
    N: int
    p_drop: float = 0.3
    p_dd: float = 0.8
    p_dg: float = 0.2
    script: tuple = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in DROPOUT_KEYS):
            raise ConfigError(f"dropout kind must be one of {tuple(DROPOUT_KEYS)}, "
                              f"got {shown(self.kind)}")
        int_setting(self.N, "packet length N", 1)
        for name in ("p_drop", "p_dd", "p_dg"):
            p = getattr(self, name)
            if not (finite_real(p) and 0.0 <= p <= 1.0):
                raise ConfigError(f"{name} must be a number in [0, 1], got {shown(p)}")
        if self.kind == "scripted":
            if self.script is None:
                raise ConfigError("scripted dropout model requires a script")
            bits = number_array(self.script, "dropout script", kinds="iu")
            ChannelTrace(d=bits, N=self.N)
            object.__setattr__(self, "script", tuple(int(b) for b in bits))


@dataclass(frozen=True)
class ChannelTrace:
    """A realized dropout sequence with its bookkeeping.

    Invariants are enforced at construction: d(0) = 0, bits binary, and
    every run of 1s no longer than N - 1. overrides counts losses that the
    generator forced into deliveries to keep the bound.
    """

    d: np.ndarray
    N: int
    overrides: int = 0

    def __post_init__(self):
        d = np.asarray(self.d)
        if d.ndim != 1 or d.size < 1:
            raise TraceValidationError("trace must be a non-empty 1-D bit sequence")
        if not np.all((d == 0) | (d == 1)):
            raise TraceValidationError("trace bits must be 0 or 1")
        d = d.astype(np.int8, copy=False)
        if d[0] != 0:
            raise TraceValidationError("first packet must be delivered: d(0) = 0")
        if delivery_age(d).max() > self.N - 1:
            raise TraceValidationError(
                f"consecutive dropouts exceed the bound {self.N - 1}")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def T(self) -> int:
        return int(self.d.size)

    def gaps(self) -> np.ndarray:
        """Dropout counts m_i = k_(i+1) - k_i - 1 between consecutive deliveries."""
        return np.diff(np.flatnonzero(self.d == 0)) - 1


def delivery_age(d: np.ndarray) -> np.ndarray:
    """k - k_i at each step k, k_i being the latest delivery at or before k.

    d is one trace or a stack of them, time on the last axis. Steps before
    the first delivery count from k = 0; a trace has none.
    """
    k = np.arange(np.shape(d)[-1])
    return k - np.maximum.accumulate(np.where(np.asarray(d) == 0, k, 0), axis=-1)


def generate_trace(model: DropoutModel, T: int, rng) -> ChannelTrace:
    """Realize a length-T trace, forcing deliveries to keep runs <= N - 1.

    A sampled loss that would make an N-th consecutive drop is emitted as a
    delivery and counted in overrides. Random models draw T uniforms from
    rng; a scripted model replays its first T bits and ignores rng.
    """
    T = int_setting(T, "trace length T", 1)
    if model.kind == "scripted":
        if len(model.script) < T:
            raise TraceValidationError(
                f"script has {len(model.script)} bits but {T} are required")
        return ChannelTrace(d=np.array(model.script[:T], dtype=np.int8), N=model.N)

    p_dd, p_dg = (model.p_drop,) * 2 if model.kind == "iid" else (model.p_dd, model.p_dg)
    uniforms = rng.random(T)
    d = np.zeros(T, dtype=np.int8)
    overrides = 0
    run = 0
    cap = model.N - 1
    for k in range(1, T):
        if uniforms[k] < (p_dd if d[k - 1] else p_dg):
            if run == cap:
                overrides += 1
                run = 0
            else:
                d[k] = 1
                run += 1
        else:
            run = 0
    return ChannelTrace(d=d, N=model.N, overrides=overrides)


def actuate(trace: ChannelTrace, N: int):
    """The actuator's read schedule (src, age) over a trace of length-N packets.

    The trace is drawn before its loop runs, so the whole schedule is known:
    at step k the actuator plays element age[k] of the packet computed at
    src[k], the latest delivery at or before k. A burst reading past the
    end of a packet raises ProtocolViolationError.
    """
    N = int_setting(N, "packet length N", 1)
    age = delivery_age(trace.d)
    if age.max() >= N:
        raise ProtocolViolationError(f"buffer age {age.max()} outside [0, {N - 1}]")
    return np.arange(trace.T) - age, age
