"""Synthetic trial failures, for tests and for the golden outputs (tests/golden.py)."""

from dataclasses import replace

import sparseppc.sim as sim_mod
from sparseppc.errors import SolverFailureError
from sparseppc.sim import SWEEP_KEYS


def fail_trials(monkeypatch, failing) -> None:
    """Make each trial that failing(cfg, key) names fail at its first solve.

    key is the (namespace, trial) that trial_inputs drew the trial's inputs
    from, so a trial is named alike whichever run steps it and beside which
    others. A trial's first state is the x0 drawn for it. Every controller
    raises on a block that holds, at some row, the x0 of a trial that
    failing(cfg, key) names for that row's own run config (on a grid, the
    base config at the row's value), so that row fails alone, however many
    rows its block holds: the engine solves a block that raises again row
    by row. monkeypatch (pytest's) patches sparseppc.sim and undoes it.
    """
    real_inputs, real_make, starts = sim_mod.trial_inputs, sim_mod.make_controller, {}

    def inputs(cfg, setup, namespace, trial):
        drawn = real_inputs(cfg, setup, namespace, trial)
        starts[drawn[1].tobytes()] = (namespace, trial)
        return drawn

    def make(cfg, setup, grid=None):
        solve = real_make(cfg, setup, grid)
        runs = [cfg] if grid is None else [
            replace(cfg, **{SWEEP_KEYS[cfg.controller]: nu}) for nu in grid]

        def controller(X, rows):
            if any(failing(runs[r // cfg.trials], starts.get(x.tobytes()))
                   for x, r in zip(X, rows.tolist())):
                raise SolverFailureError("synthetic failure")
            return solve(X, rows)
        return controller

    monkeypatch.setattr(sim_mod, "trial_inputs", inputs)
    monkeypatch.setattr(sim_mod, "make_controller", make)
