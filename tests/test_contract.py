"""The public contract: every callable sparseppc exports refuses malformed
input with a package error (a SparsePpcError subclass) and warns about
nothing.

Malformed means numbers or arrays of the wrong shape or kind, values that
are not finite, and a non-integer where an int is meant. A finite input
whose products overflow float64 is refused too, where the rows below
name it: a solver's budget, packet or G'Hx, a horizon cost, a quantizer
index. Objects of the package's own types (a horizon, a design, a setup,
a trace, a codec) are trusted.
"""

import inspect
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sparseppc as sp
from sparseppc.codec import EncodedPacket
from sparseppc.errors import (CodecTrainingError, ConfigError, DecodeError,
                              DesignInfeasibleError, NumericError, QuantizerRangeError,
                              SparsePpcError)

INF, NAN = float("inf"), float("nan")


@pytest.fixture(scope="module")
def w(cessna, cessna_design, cessna_horizon):
    d, hm = cessna_design, cessna_horizon
    q = sp.Quantizer(delta=1e-3)
    W_inf = d.W.copy()
    W_inf[0, 0] = INF
    cfg = sp.SimConfig(trials=1, steps=5, seed=3)
    # a trace without drops, so every packet length is read within bounds
    trace = sp.generate_trace(sp.DropoutModel(kind="scripted", N=10, script=[0] * 5), 5, None)
    return SimpleNamespace(
        m=cessna, d=d, hm=hm, W=d.W, W_inf=W_inf, x=np.array([0.3, -0.2, 0.1, 0.5]),
        X=np.random.default_rng(5).standard_normal((5, 4)), q=q,
        codec=sp.train_codec(np.zeros((3, 10), dtype=np.int64), "dense", q),
        model=sp.DropoutModel(kind="iid", N=10), rng=np.random.default_rng(0), trace=trace,
        setup=sp.build_setup(cfg), cfg=cfg, noise=np.zeros((5, 4)),
        packets=lambda X, rows: np.zeros((len(X), 10)))


# (name, call on the module fixture w, the error it raises); the name
# starts with the exported callable it reaches
CASES = [
    # a packet or state of the wrong length, kind or value
    ("cost_quadratic-u-short", lambda w: sp.cost_quadratic(w.hm, np.zeros(9), w.x), ConfigError),
    ("cost_quadratic-x-long", lambda w: sp.cost_quadratic(w.hm, np.zeros(10), np.zeros(8)),
     ConfigError),
    ("cost_quadratic-u-block", lambda w: sp.cost_quadratic(w.hm, np.zeros((2, 10)), w.x),
     ConfigError),
    ("cost_quadratic-u-strings", lambda w: sp.cost_quadratic(w.hm, ["a"] * 10, w.x),
     ConfigError),
    ("cost_quadratic-u-inf", lambda w: sp.cost_quadratic(w.hm, np.full(10, INF), w.x),
     ConfigError),
    ("check_feasible-u-nan", lambda w: sp.check_feasible(w.hm, w.W, np.full(10, NAN), w.x),
     ConfigError),
    # a budget weight W of the wrong shape, kind or value
    ("check_feasible-W-3x3", lambda w: sp.check_feasible(w.hm, w.W[:3, :3], np.zeros(10), w.x),
     ConfigError),
    ("omp_packet-W-3x3", lambda w: sp.omp_packet(w.hm, w.W[:3, :3], w.x), ConfigError),
    ("omp_packet-W-strings", lambda w: sp.omp_packet(w.hm, [["a"] * 4] * 4, w.x), ConfigError),
    ("exhaustive_l0_packet-W-3x3", lambda w: sp.exhaustive_l0_packet(w.hm, w.W[:3, :3], w.x),
     ConfigError),
    # nu = inf, which once gave NaN packets (l2) or the zero packet (l1)
    ("l2_packet-nu-inf", lambda w: sp.l2_packet(w.hm, w.x, INF), ConfigError),
    ("l2_packet-nu-row-inf", lambda w: sp.l2_packet(w.hm, w.X, [310.0, INF, 310.0, 310.0, 310.0]),
     ConfigError),
    ("l1l2_packet-nu-inf", lambda w: sp.l1l2_packet(w.hm, w.x, INF), ConfigError),
    # a state that is not finite, which once gave NaN or inf packets, or warned
    ("l2_packet-x-nan", lambda w: sp.l2_packet(w.hm, [NAN, 0.0, 0.0, 0.0], 310.0), NumericError),
    ("l2_packet-x-inf", lambda w: sp.l2_packet(w.hm, [INF, 0.0, 0.0, 0.0], 310.0), NumericError),
    ("least_squares_packet-x-nan", lambda w: sp.least_squares_packet(w.hm, [NAN, 0.0, 0.0, 0.0]),
     NumericError),
    ("least_squares_packet-x-inf", lambda w: sp.least_squares_packet(w.hm, [0.0, INF, 0.0, 0.0]),
     NumericError),
    ("omp_packet-x-inf", lambda w: sp.omp_packet(w.hm, w.W, [INF, 0.0, 0.0, 0.0]), NumericError),
    # finite, but x'Wx, K x, G'Hx or the cost overflows: refused without numpy's warning;
    # OMP walks 2^-e x where x'Wx overflows, and refuses where 2^e times its packet does
    ("omp_packet-x-overflow",
     lambda w: sp.omp_packet(w.hm, w.W, [1.7e308, -1.7e308, 1.7e308, 0.0]), NumericError),
    # OMP's scores (C x)_j^2 overflow, and 2^-e x would take an entry below the normal range
    ("omp_packet-x-score-overflow",
     lambda w: sp.omp_packet(w.hm, w.W, 2.0**500 * np.array([1.0, -1.0, 1.0, 2.0**-1030])),
     NumericError),
    ("exhaustive_l0_packet-x-overflow",
     lambda w: sp.exhaustive_l0_packet(w.hm, w.W, 2.0**505 * np.array([1.0, -1.0, 1.0, 0.0])),
     NumericError),
    ("l2_packet-x-overflow", lambda w: sp.l2_packet(w.hm, [1e308, -1e308, 1e308, 0.0], 310.0),
     NumericError),
    ("least_squares_packet-x-overflow",
     lambda w: sp.least_squares_packet(w.hm, [1e308, -1e308, 1e308, 0.0]), NumericError),
    ("l1l2_packet-x-overflow", lambda w: sp.l1l2_packet(w.hm, [1e306, 1e306, 0.0, 0.0], 5300.0),
     NumericError),
    # G'Hx is finite, but the homotopy's correlations or its guess's products overflow
    ("l1l2_packet-x-walk-overflow", lambda w: sp.l1l2_packet(
        w.hm, [-2.080298527609867e301, -3.8139718820534613e301, -1.5458341521736942e302,
               -3.050487858647962e302], 5300.0), NumericError),
    ("l1l2_packet-x-guess-overflow", lambda w: sp.l1l2_packet(
        w.hm, [8.034159875677701e301, 2.2521982253512977e301, -3.556907683998744e300,
               -2.894290154106352e301], 5300.0, guess=np.ones(10)), NumericError),
    ("cost_quadratic-x-overflow",
     lambda w: sp.cost_quadratic(w.hm, np.zeros(10), [1e200, 0.0, 0.0, 0.0]), NumericError),
    # design inputs of the wrong shape or kind
    ("build_design-N-string", lambda w: sp.build_design(w.m, N="a"), ConfigError),
    ("build_design-N-float", lambda w: sp.build_design(w.m, N=2.5), ConfigError),
    ("build_design-eta-string", lambda w: sp.build_design(w.m, eta="a"), ConfigError),
    ("build_design-delta-string", lambda w: sp.build_design(w.m, delta="a"), ConfigError),
    ("build_design-Q-string", lambda w: sp.build_design(w.m, Q="identity"), ConfigError),
    # a reachable plant whose G'G passes the rank test but not Cholesky
    ("build_design-GtG-not-factored",
     lambda w: sp.build_design(sp.resolve_plant({"A": [[9.0]], "B": [5e-05]}), N=4, delta=1),
     DesignInfeasibleError),
    ("solve_dare-Q-strings", lambda w: sp.solve_dare(w.m, [["a"] * 4] * 4), ConfigError),
    ("solve_dare-delta-string", lambda w: sp.solve_dare(w.m, np.eye(4), delta="a"), ConfigError),
    ("lq_gain-P-3x3", lambda w: sp.lq_gain(w.m, np.eye(3)), ConfigError),
    ("lq_gain-P-string", lambda w: sp.lq_gain(w.m, "P"), ConfigError),
    ("build_horizon-P-3x3", lambda w: sp.build_horizon(w.m, w.d.Q, np.eye(3), 10), ConfigError),
    ("build_horizon-Q-3x3", lambda w: sp.build_horizon(w.m, np.eye(3), w.d.P, 10), ConfigError),
    ("build_horizon-N-string", lambda w: sp.build_horizon(w.m, w.d.Q, w.d.P, "a"), ConfigError),
    ("build_horizon-N-float", lambda w: sp.build_horizon(w.m, w.d.Q, w.d.P, 2.5), ConfigError),
    ("build_horizon-N-bool", lambda w: sp.build_horizon(w.m, w.d.Q, w.d.P, True), ConfigError),
    # a packet length or trace length that is no int
    ("DropoutModel-N-string", lambda w: sp.DropoutModel(kind="iid", N="a"), ConfigError),
    ("DropoutModel-N-float", lambda w: sp.DropoutModel(kind="iid", N=2.5), ConfigError),
    ("generate_trace-T-string", lambda w: sp.generate_trace(w.model, "a", w.rng), ConfigError),
    ("generate_trace-T-float", lambda w: sp.generate_trace(w.model, 5.5, w.rng), ConfigError),
    ("generate_trace-T-bool", lambda w: sp.generate_trace(w.model, True, w.rng), ConfigError),
    ("actuate-N-string", lambda w: sp.actuate(w.trace, "a"), ConfigError),
    ("actuate-N-float", lambda w: sp.actuate(w.trace, 2.5), ConfigError),
    # quantizer steps, packets and indices of the wrong kind
    ("Quantizer-delta-string", lambda w: sp.Quantizer("a"), ConfigError),
    ("Quantizer-delta-inf", lambda w: sp.Quantizer(INF), ConfigError),
    ("quantize_packet-strings", lambda w: sp.quantize_packet(w.q, ["a"] * 10), ConfigError),
    ("quantize_packet-complex", lambda w: sp.quantize_packet(w.q, np.ones(10) + 1j),
     ConfigError),
    # finite, but the division by the step overflows
    ("quantize_packet-overflow", lambda w: sp.quantize_packet(w.q, np.full(10, 1e308)),
     QuantizerRangeError),
    ("encode-halves", lambda w: sp.encode(w.codec, np.full(10, 0.5)), ConfigError),
    ("encode-strings", lambda w: sp.encode(w.codec, ["a"] * 10), ConfigError),
    ("encode-int-past-int64", lambda w: sp.encode(w.codec, [2**70] * 10), ConfigError),
    ("train_codec-floats", lambda w: sp.train_codec(np.full((3, 10), 0.5), "dense", w.q),
     ConfigError),
    ("train_codec-strings", lambda w: sp.train_codec([["a"] * 10], "dense", w.q), ConfigError),
    ("train_codec-no-positions", lambda w: sp.train_codec([[]], "dense", w.q),
     CodecTrainingError),
    # a controller whose packets are not (b, N) numbers, and engine arguments
    ("run_trial-controller-shape",
     lambda w: sp.run_trial(w.setup, lambda X, rows: np.zeros((len(X), 3)), w.trace, w.x,
                            w.noise), ConfigError),
    ("run_trial-controller-strings",
     lambda w: sp.run_trial(w.setup, lambda X, rows: [["a"] * 10], w.trace, w.x, w.noise),
     ConfigError),
    ("run_trial-x0-inf", lambda w: sp.run_trial(w.setup, w.packets, w.trace,
                                                [INF, 0.0, 0.0, 0.0], w.noise), NumericError),
    ("run_trial-trial-float", lambda w: sp.run_trial(w.setup, w.packets, w.trace, w.x, w.noise,
                                                     trial=2.5), ConfigError),
    ("monte_carlo-grid-scalar",
     lambda w: sp.monte_carlo(sp.SimConfig(trials=1, steps=5, controller="l2"), grid=5),
     ConfigError),
    # given inputs are phases of (trial, trace, x0, noise) tuples, cfg.trials rows in all
    ("monte_carlo-inputs-flat",
     lambda w: sp.monte_carlo(w.cfg, w.setup, inputs=[(0, w.trace, w.x, w.noise)]), ConfigError),
    ("monte_carlo-inputs-too-many",
     lambda w: sp.monte_carlo(w.cfg, w.setup, inputs=[[(0, w.trace, w.x, w.noise)]] * 2),
     ConfigError),
    ("monte_carlo-inputs-x0-short",
     lambda w: sp.monte_carlo(w.cfg, w.setup, inputs=[[(0, w.trace, w.x[:3], w.noise)]]),
     ConfigError),
    ("monte_carlo-inputs-trace-string",
     lambda w: sp.monte_carlo(w.cfg, w.setup, inputs=[[(0, "d", w.x, w.noise)]]), ConfigError),
    # input that already raised a package error; a W that is not finite
    # was once refused as a state that is not finite
    ("omp_packet-W-inf", lambda w: sp.omp_packet(w.hm, w.W_inf, w.x), ConfigError),
    ("SimConfig-N-float", lambda w: sp.SimConfig(N=2.5), ConfigError),
    ("resolve_plant-A-strings", lambda w: sp.resolve_plant({"A": [["a"]], "B": [1.0]}),
     ConfigError),
    ("build_setup-x0-short", lambda w: sp.build_setup(sp.SimConfig(x0=[1.0, 2.0])), ConfigError),
    ("sweep_regularization-grid-scalar",
     lambda w: sp.sweep_regularization(w.cfg, "l2", 5), ConfigError),
    ("bitrate_experiment-noise-free", lambda w: sp.bitrate_experiment(w.cfg), ConfigError),
    # an encoded packet is bytes plus the bit count they hold, under 8 bits short
    ("decode-bits-unknown", lambda w: sp.decode(w.codec, EncodedPacket("2", 1)), DecodeError),
    ("decode-data-bytearray", lambda w: sp.decode(w.codec, EncodedPacket(bytearray(2), 10)),
     DecodeError),
    ("decode-bit-count-negative", lambda w: sp.decode(w.codec, EncodedPacket(b"", -1)),
     DecodeError),
    ("decode-bit-count-past-data", lambda w: sp.decode(w.codec, EncodedPacket(b"\0", 9)),
     DecodeError),
    ("decode-bit-count-8-pad-bits", lambda w: sp.decode(w.codec, EncodedPacket(b"\0\0", 8)),
     DecodeError),
    ("decode-bit-count-string", lambda w: sp.decode(w.codec, EncodedPacket(b"\0\0", "10")),
     DecodeError),
    # the encoder's 10 bits, b"\0\0", but with the 6 pad bits set
    ("decode-nonzero-padding", lambda w: sp.decode(w.codec, EncodedPacket(b"\0\x3f", 10)),
     DecodeError),
]

# Exported callables that take only objects of the package's own types
TRUSTED = {"lyapunov_audit"}


def _callables():
    return {name for name in dir(sp) if not name.startswith("_")
            and callable(getattr(sp, name)) and not inspect.ismodule(getattr(sp, name))
            and not (inspect.isclass(getattr(sp, name))
                     and issubclass(getattr(sp, name), SparsePpcError))}


def _refused(call, error):
    """call raises error, or a subclass of it, and nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc_info:
            call()
    # a refused packet says where in its bits decoding stopped
    assert not isinstance(exc_info.value, DecodeError) or exc_info.value.bit_offset is not None


def test_every_exported_callable_has_a_row():
    assert {name.split("-")[0] for name, _, _ in CASES} | TRUSTED == _callables()


@pytest.mark.parametrize("call,error", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_raises_a_package_error(w, call, error):
    _refused(lambda: call(w), error)


def test_no_l2_gain_kept_is_not_finite(w):
    for nu in (INF, -INF, NAN, 0.0, -1.0, [310.0, INF, 310.0, 310.0, 310.0]):
        with pytest.raises(ConfigError):
            sp.l2_packet(w.hm, w.X, nu)
    sp.l2_packet(w.hm, w.X, 1e-300)
    sp.l2_packet(w.hm, w.X, 1e300)
    assert w.hm._l2_gains and all(np.isfinite(K).all() for K in w.hm._l2_gains.values())


# every solver as solve(hm, W, X, nu); nu reaches the solvers that take it
SOLVERS = {
    "omp": lambda hm, W, X, nu: sp.omp_packet(hm, W, X),
    "oracle": lambda hm, W, X, nu: sp.exhaustive_l0_packet(hm, W, X),
    "least_squares": lambda hm, W, X, nu: sp.least_squares_packet(hm, X),
    "l2": lambda hm, W, X, nu: sp.l2_packet(hm, X, nu),
    "l1l2": lambda hm, W, X, nu: sp.l1l2_packet(hm, X, nu),
}


def _state_elements(dtype):
    if dtype == np.float64:
        return st.floats(-1e3, 1e3) | st.sampled_from([NAN, INF, -INF])
    if dtype == np.int64:
        return st.integers(-1000, 1000)
    if dtype == np.complex128:
        return st.complex_numbers(max_magnitude=1e3)
    return st.booleans()


@st.composite
def states(draw):
    dtype = draw(st.sampled_from([np.float64, np.float64, np.int64, np.bool_, np.complex128]))
    shape = draw(st.sampled_from([(), (4,), (3,), (5,), (1, 4), (3, 4), (0, 4), (2, 3),
                                  (2, 4, 1), (4, 1)]))
    return draw(hnp.arrays(dtype, shape, elements=_state_elements(dtype)))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SOLVERS)), X=states())
def test_solvers_take_a_state_or_refuse_it(cessna_design, cessna_horizon, name, X):
    well_formed = (X.dtype.kind in "iuf" and X.ndim in (1, 2) and X.shape[-1] == 4 and X.size
                   and np.isfinite(X).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if well_formed:
            pkt = SOLVERS[name](cessna_horizon, cessna_design.W, X, 310.0)
            assert pkt.u.shape == X.shape[:-1] + (10,) and np.isfinite(pkt.u).all()
        else:
            with pytest.raises(ConfigError if X.dtype.kind not in "iuf" or X.ndim not in (1, 2)
                               or X.shape[-1] != 4 or not X.size else NumericError):
                SOLVERS[name](cessna_horizon, cessna_design.W, X, 310.0)


NUS = (st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3) | st.text(max_size=3)
       | st.booleans() | st.none() | st.lists(st.floats(), max_size=4))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["l2", "l1l2"]), nu=NUS)
def test_nu_is_one_finite_positive_number_or_one_per_row(cessna_horizon, name, nu):
    X = np.random.default_rng(7).standard_normal((2, 4))
    arr = np.asarray(nu, dtype=object)
    well_formed = nu is not None and arr.shape in ((), (2,)) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < INF
        for v in arr.ravel())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if well_formed:
            assert np.isfinite(SOLVERS[name](cessna_horizon, None, X, nu).u).all()
        else:
            with pytest.raises(ConfigError):
                SOLVERS[name](cessna_horizon, None, X, nu)
    assert all(np.isfinite(K).all() for K in cessna_horizon._l2_gains.values())


# an int setting that is not an int in its range; no valid int is drawn, so
# nothing is ever built at a large size
NOT_INTS = (st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
            | st.booleans() | st.none() | st.integers(max_value=-1)
            | st.integers(min_value=2**63, max_value=2**70) | st.just([3]))


@settings(max_examples=200, deadline=None)
@given(value=NOT_INTS, where=st.sampled_from(["DropoutModel", "generate_trace", "actuate",
                                              "build_horizon", "SimConfig", "run_trial"]))
def test_an_int_setting_is_an_int_in_its_range(w, value, where):
    calls = {
        "DropoutModel": lambda: sp.DropoutModel(kind="iid", N=value),
        "generate_trace": lambda: sp.generate_trace(w.model, value, w.rng),
        "actuate": lambda: sp.actuate(w.trace, value),
        "build_horizon": lambda: sp.build_horizon(w.m, w.d.Q, w.d.P, value),
        "SimConfig": lambda: sp.SimConfig(steps=value),
        "run_trial": lambda: sp.run_trial(w.setup, w.packets, w.trace, w.x, w.noise, trial=value),
    }
    _refused(calls[where], ConfigError)


def test_zero_is_a_refused_length_and_numpy_ints_are_ints(w):
    _refused(lambda: sp.build_horizon(w.m, w.d.Q, w.d.P, 0), DesignInfeasibleError)
    for call in (lambda: sp.DropoutModel(kind="iid", N=0), lambda: sp.actuate(w.trace, 0),
                 lambda: sp.generate_trace(w.model, 0, w.rng), lambda: sp.SimConfig(N=0)):
        _refused(call, ConfigError)
    assert sp.build_horizon(w.m, w.d.Q, w.d.P, np.int64(10)).N == 10
    assert sp.generate_trace(w.model, np.int32(7), w.rng).T == 7
    assert sp.actuate(w.trace, np.uint8(10))[1].tolist() == [0] * 5
