"""Sparse packetized predictive control over erasure channels.

Core pipeline: discretize a plant, run the stabilizing cost design, build
the horizon operators, solve sparse packets per step, push them through a
lossy channel into the actuator buffer, and account for entropy-coded
bit-rates.
"""

__version__ = "0.1.0"

from .channel import DropoutModel, actuate, generate_trace
from .codec import Quantizer, decode, encode, quantize_packet, train_codec
from .controllers import (check_feasible, exhaustive_l0_packet, l1l2_packet, l2_packet,
                          least_squares_packet, omp_packet)
from .design import build_design, lq_gain, solve_dare
from .errors import (CodecTrainingError, ConfigError, DecodeError,
                     DesignInfeasibleError, FeasibilityError, NumericError,
                     ProtocolViolationError, QuantizerRangeError,
                     SolverFailureError, SparsePpcError, TraceValidationError)
from .horizon import build_horizon, cost_quadratic
from .plant import resolve_plant
from .sim import (SimConfig, bitrate_experiment, build_setup, lyapunov_audit, monte_carlo,
                  run_trial, sweep_regularization)
