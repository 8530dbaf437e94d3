"""Dense linear-algebra kernels used throughout the package.

Everything here targets small matrices (state dimension <= 16, horizon
<= 16), so plain dense numpy routines are used without sparsity tricks.
"""

import math
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, NumericError

# Pade(13) numerator/denominator coefficients for the scaling-and-squaring
# matrix exponential (b[0] multiplies I, b[13] the highest power).
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
# 1-norm bound under which the Pade(13) approximant is accurate to machine
# precision without further scaling.
_PADE13_THETA = 5.371920351148152


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a Pade(13) core."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm expects a square matrix")
    n = M.shape[0]
    norm1 = float(np.max(np.sum(np.abs(M), axis=0))) if n else 0.0
    s = 0
    if norm1 > _PADE13_THETA:
        s = int(np.ceil(np.log2(norm1 / _PADE13_THETA)))
    A = M / (2.0**s)
    I = np.eye(n)
    b = _PADE13_B
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    R = np.linalg.solve(V - U, V + U)
    # overflow during squaring surfaces as non-finite entries; callers that
    # care (e.g. discretization) turn that into a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            R = R @ R
    return R


def number_array(value, name: str, kinds: str = "iuf") -> np.ndarray:
    """value as an array of a numpy dtype kind in kinds, else ConfigError.

    Strings, bools, None and ragged nesting are rejected, so config input
    is checked before any of it is computed with.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in kinds:
        raise ConfigError(f"{name} must hold only numbers, got {shown(value)}")
    return arr


def shown(value) -> str:
    """repr(value) for an error message, cut after 60 characters.

    An int past Python's 4300-digit str() limit, alone or nested, makes
    repr raise; such a value is named by its type instead.
    """
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def finite_real(value) -> bool:
    """Whether value is a number (not a bool) that converts to a finite float.

    An int too large for a float is not: it would overflow once computed with.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Largest value of a signed 64-bit integer, the bound of every int setting.
INT64_MAX = 2**63 - 1


def int_setting(value, name: str, low: int) -> int:
    """value as an int in [low, INT64_MAX], else ConfigError; a bool is no int."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value <= INT64_MAX:
        raise ConfigError(f"{name} must be in [{low}, {INT64_MAX}] and integral, "
                          f"got {shown(value)}")
    return int(value)


RANK_RTOL = 1e-12


def numerical_rank(M: np.ndarray) -> int:
    """Rank by singular values: sigma counts iff sigma > dim * sigma_max * RANK_RTOL."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    tol = max(M.shape) * sv[0] * RANK_RTOL
    return int(np.count_nonzero(sv > tol))


def sym_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (negative dust clipped)."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def square_matrix(M, name: str, n: int = None) -> np.ndarray:
    """M as a finite float (n, n) array, any square one when n is None, else ConfigError."""
    M = number_array(M, name).astype(float, copy=False)
    if M.ndim != 2 or M.shape != (n or len(M),) * 2 or not np.isfinite(M).all():
        raise ConfigError(f"{name} must be a finite {n or 'n'} x {n or 'n'} matrix, got {M.shape}")
    return M


def check_sym_pd(M, name: str = "matrix", n: int = None) -> np.ndarray:
    """M as a square_matrix, checked symmetric positive definite (via Cholesky)."""
    M = square_matrix(M, name, n)
    if not np.allclose(M, M.T, rtol=1e-10, atol=1e-12):
        raise NumericError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{name} must be positive definite") from exc
    return M


def is_sym_pd(M) -> bool:
    try:
        check_sym_pd(M)
    except (ConfigError, NumericError):
        return False
    return True


def pencil_eigvals(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Eigenvalues of the pencil M v = lam S v for symmetric M and PD S.

    Reduces to an ordinary symmetric problem through the Cholesky factor of
    S: the eigenvalues equal those of L^-1 M L^-T, which are real. This is
    how spectra of nonsymmetric products like M S^-1 are evaluated here.
    """
    L = np.linalg.cholesky(0.5 * (S + S.T))
    Y = np.linalg.solve(L, 0.5 * (M + M.T))
    C = np.linalg.solve(L, Y.T).T
    return np.linalg.eigvalsh(0.5 * (C + C.T))

