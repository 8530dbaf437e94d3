import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseppc as sp
from sparseppc.channel import ChannelTrace, DropoutModel
from sparseppc.errors import (ConfigError, ProtocolViolationError,
                              TraceValidationError)
from sparseppc.sim import SimConfig, build_setup, run_trial

from .oracles import generate_trace_reference, interpret_trace, longest_run, markov_chain_stats


def test_no_drop_trace_is_all_deliveries():
    model = DropoutModel(kind="iid", N=5, p_drop=0.0)
    tr = sp.generate_trace(model, 50, rng=np.random.default_rng(0))
    assert np.all(tr.d == 0)
    assert np.all(tr.gaps() == 0)
    assert tr.overrides == 0


def test_scripted_trace_valid_and_gap_bookkeeping():
    model = DropoutModel(kind="scripted", N=3, script=(0, 1, 1, 0))
    tr = sp.generate_trace(model, 4, rng=None)
    assert np.array_equal(tr.d, [0, 1, 1, 0])
    assert np.array_equal(tr.gaps(), [2])  # bound N - 1 = 2 met exactly


def test_scripted_trace_validation_errors():
    # a script must be a valid trace as a whole, however much of it is played
    with pytest.raises(TraceValidationError):
        DropoutModel(kind="scripted", N=3, script=(1, 0))
    with pytest.raises(TraceValidationError):
        DropoutModel(kind="scripted", N=3, script=(0, 1, 1, 1, 0))
    with pytest.raises(TraceValidationError):
        DropoutModel(kind="scripted", N=3, script=(0, 0, 0, 1, 1, 1))
    with pytest.raises(TraceValidationError):
        DropoutModel(kind="scripted", N=3, script=(0, 256))   # not 0 in int8
    with pytest.raises(TraceValidationError):
        sp.generate_trace(DropoutModel(kind="scripted", N=3, script=(0, 1)), 3, rng=None)
    with pytest.raises(TraceValidationError):
        ChannelTrace(d=np.array([0, 2]), N=3)
    with pytest.raises(ConfigError):
        sp.generate_trace(DropoutModel(kind="iid", N=3), 0, rng=np.random.default_rng(0))


def test_trace_loadable_from_json_array():
    script = json.loads("[0, 1, 0, 1, 1, 0]")
    model = DropoutModel(kind="scripted", N=4, script=script)
    tr = sp.generate_trace(model, 6, rng=None)
    assert tr.T == 6


def test_markov_trace_run_lengths_and_overrides_match_chain():
    p_dd, p_dg, N, T = 0.9, 0.3, 10, 100_000
    model = DropoutModel(kind="markov", N=N, p_dd=p_dd, p_dg=p_dg)
    tr = sp.generate_trace(model, T, rng=np.random.default_rng(7))
    gaps = tr.gaps()
    assert gaps.max() <= N - 1

    pi, override_rate, run_pmf = markov_chain_stats(p_dd, p_dg, N)
    # overrides: binomial around T * rate with 3 sigma tolerance
    expect = T * override_rate
    sigma = np.sqrt(T * override_rate * (1.0 - override_rate))
    assert abs(tr.overrides - expect) <= 3.0 * sigma

    # completed run-length histogram against the analytic distribution
    runs = gaps[gaps > 0]
    n_runs = runs.size
    for m in range(1, N):
        p = run_pmf[m - 1]
        sigma_m = np.sqrt(n_runs * p * (1.0 - p))
        assert abs(np.sum(runs == m) - n_runs * p) <= 3.0 * sigma_m + 1.0


def test_trace_generation_reproducible():
    model = DropoutModel(kind="markov", N=6, p_dd=0.7, p_dg=0.25)
    t1 = sp.generate_trace(model, 5000, rng=np.random.default_rng(99))
    t2 = sp.generate_trace(model, 5000, rng=np.random.default_rng(99))
    assert np.array_equal(t1.d, t2.d)
    assert t1.overrides == t2.overrides


@pytest.mark.parametrize("kind,kwargs", [
    ("iid", {"p_drop": 0.95}),
    ("iid", {"p_drop": 1.0}),
    ("markov", {"p_dd": 0.97, "p_dg": 0.6}),
])
def test_bound_enforced_over_long_traces(kind, kwargs):
    model = DropoutModel(kind=kind, N=4, **kwargs)
    tr = sp.generate_trace(model, 200_000, rng=np.random.default_rng(5))
    assert tr.gaps().max() <= 3
    if kwargs.get("p_drop") == 1.0:
        # deterministic pattern: one delivery then N-1 forced-capped drops
        assert np.array_equal(tr.d[:8], [0, 1, 1, 1, 0, 1, 1, 1])


@settings(max_examples=300, deadline=None)
@given(markov=st.booleans(), N=st.integers(1, 12), T=st.integers(1, 300),
       p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_trace_bound_and_override_count(markov, N, T, p, q, seed):
    model = (DropoutModel(kind="markov", N=N, p_dd=p, p_dg=q) if markov
             else DropoutModel(kind="iid", N=N, p_drop=p))
    tr = sp.generate_trace(model, T, rng=np.random.default_rng(seed))
    d = tr.d
    assert d[0] == 0
    runs = "".join(str(b) for b in d.tolist()).split("0")   # a trailing run too
    assert max(len(r) for r in runs) <= N - 1
    # a sampled loss is overridden exactly when N - 1 losses precede it
    u = np.random.default_rng(seed).random(T)
    forced = 0
    for k in range(max(1, N - 1), T):
        p_k = (p if d[k - 1] else q) if markov else p
        forced += d[k] == 0 and bool(np.all(d[k - N + 1:k] == 1)) and u[k] < p_k
    assert tr.overrides == forced


@settings(max_examples=300, deadline=None)
@given(N=st.integers(1, 12), p=st.floats(0.0, 1.0), T=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_iid_trace_is_the_markov_trace_with_equal_transitions(N, p, T, seed):
    iid = sp.generate_trace(DropoutModel(kind="iid", N=N, p_drop=p), T,
                            rng=np.random.default_rng(seed))
    markov = sp.generate_trace(DropoutModel(kind="markov", N=N, p_dd=p, p_dg=p), T,
                               rng=np.random.default_rng(seed))
    assert np.array_equal(iid.d, markov.d)
    assert iid.overrides == markov.overrides


@settings(max_examples=300, deadline=None)
@given(markov=st.booleans(), N=st.integers(1, 12), T=st.integers(1, 300),
       p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_trace_is_the_numpy_scalar_chains(markov, N, T, p, q, seed):
    model = (DropoutModel(kind="markov", N=N, p_dd=p, p_dg=q) if markov
             else DropoutModel(kind="iid", N=N, p_drop=p))
    got = sp.generate_trace(model, T, rng=np.random.default_rng(seed))
    ref = generate_trace_reference(model, T, np.random.default_rng(seed))
    assert got.d.dtype == np.int8 and np.array_equal(got.d, ref.d)
    assert got.overrides == ref.overrides


def test_buffer_consumes_packet_elements_in_order():
    src, age = sp.actuate(ChannelTrace(d=np.array([0, 1, 1]), N=3), 3)
    assert src.tolist() == [0, 0, 0] and age.tolist() == [0, 1, 2]
    packets = np.array([[10.0, 20.0, 30.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert packets[src, age].tolist() == [10.0, 20.0, 30.0]
    # a fourth loss in a row would read past the end of a 3-element packet
    with pytest.raises(ProtocolViolationError):
        sp.actuate(ChannelTrace(d=np.array([0, 1, 1, 1]), N=4), 3)


def test_buffer_overwrite_on_delivery():
    src, age = sp.actuate(ChannelTrace(d=np.array([0, 0]), N=2), 2)
    packets = np.array([[1.0, 2.0], [5.0, 6.0]])
    assert packets[src[1], age[1]] == 5.0 and age[1] == 0
    assert np.array_equal(packets[src[1]], [5.0, 6.0])


def test_worst_case_burst_consumes_all_ten_elements():
    N = 10
    script = [0] + [1] * (N - 1)
    model = DropoutModel(kind="scripted", N=N, script=script)
    tr = sp.generate_trace(model, N, rng=None)
    packets = np.zeros((N, N))
    packets[0] = np.arange(1.0, N + 1.0)
    src, age = sp.actuate(tr, N)
    assert packets[src, age].tolist() == [float(v) for v in range(1, N + 1)]


def test_buffer_matches_trace_interpreter_oracle(rng):
    N = 6
    for _ in range(200):
        T = int(rng.integers(1, 60))
        trace_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
        model = DropoutModel(kind="markov", N=N, p_dd=0.8, p_dg=0.4)
        tr = sp.generate_trace(model, T, rng=trace_rng)
        packets = np.array([rng.standard_normal(N) for _ in range(T)])
        src, age = sp.actuate(tr, N)
        want = interpret_trace(tr.d, packets)
        assert np.array_equal(packets[src, age], want)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=60), N=st.integers(1, 12))
def test_trace_accepted_iff_longest_loss_run_fits(bits, N):
    d = np.array([0, *bits], dtype=np.int8)
    fits = longest_run(d) <= N - 1
    try:
        ChannelTrace(d=d, N=N)
    except TraceValidationError:
        assert not fits
    else:
        assert fits


def test_run_trial_refuses_a_burst_beyond_the_packet():
    # the trace allows bursts of 11, but the setup's packets hold 10 inputs
    cfg = SimConfig(N=10, steps=30, trials=1)
    setup = build_setup(cfg)
    solves = []

    def controller(X, rows):
        solves.append(X)
        return np.zeros((len(X), 10))

    noise = np.zeros((30, setup.model.n))
    x0 = np.ones(setup.model.n)
    burst = ChannelTrace(d=np.array([0] + [1] * 10 + [0] * 19), N=12)
    with pytest.raises(ProtocolViolationError):
        run_trial(setup, controller, burst, x0, noise)
    assert solves == []   # refused before any solve
    fits = ChannelTrace(d=np.array([0] + [1] * 9 + [0] * 20), N=12)
    res = run_trial(setup, controller, fits, x0, noise)
    assert res.states.shape == (30, setup.model.n) and len(solves) == 30


def test_dropout_model_validation():
    with pytest.raises(ConfigError):
        DropoutModel(kind="bogus", N=3)
    with pytest.raises(ConfigError):
        DropoutModel(kind="iid", N=0)
    with pytest.raises(ConfigError):
        DropoutModel(kind="iid", N=3, p_drop=1.5)
    with pytest.raises(ConfigError):
        DropoutModel(kind="scripted", N=3)
