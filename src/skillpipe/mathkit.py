"""Numerical kernels: ridge least squares, pseudo-inverse, truncated HOSVD,
CMA-ES, and Pearson correlation.

Dense factorizations are delegated to numpy.linalg; everything layered on
top of them (the choice of solver, tolerance-based inversion, a Tucker slice
as a product of matrices, the full CMA-ES update loop) lives here.

Least squares with ridge > 0 solves the regularised normal equations
(A^T A + ridge I) X = A^T B by one LU solve, as scikit-learn's dense Ridge
does.  The solve is backward stable for those equations, so X has a forward
error of order cond(A^T A + ridge I) * eps.  An A or B of Frobenius norm
2^256 or more is first scaled by an exact power of two, and the ridge by
the square of A's, so that A^T A and A^T B cannot overflow.  With
ridge == 0 it returns the minimum-norm solution from the SVD of A.

CMA-ES updates its eigensystem lazily, as Hansen's purecma does
(arXiv:1604.00772): C is factorized once every
max(1, floor(0.5 / ((c_1 + c_mu) n))) generations.  That is 1 for every
n <= 20, where a run is bit for bit the one that factorizes C each
generation, and 7 at the 128 weights of a transfer policy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, _as_array, _as_vector, _floats, _integer, _is_number, _number, _positive

__all__ = [
    "LeastSquaresFit",
    "TuckerFactors",
    "least_squares",
    "pinv",
    "hosvd",
    "reconstruct",
    "cmaes_minimize",
    "pearson",
]

_RANK_TOL = 1e-12
# A and B of squared Frobenius norms below this bound every entry of A^T A
# and A^T B by it, far from overflow
_SAFE_SQUARED_NORM = 2.0**512


def _inverse_singular_values(s: np.ndarray) -> np.ndarray:
    """1/s for singular values s (descending) above _RANK_TOL * s[0], else 0."""
    keep = s > _RANK_TOL * (s[0] if s.size else 0.0)
    return np.divide(1.0, s, out=np.zeros(len(s)), where=keep)


@dataclass(frozen=True, eq=False)
class LeastSquaresFit:
    """Solution of min ||A X - B||^2 + ridge ||X||^2 with diagnostics."""

    x: np.ndarray
    rank_deficient: bool


def least_squares(a, b, ridge: float = 0.0) -> LeastSquaresFit:
    """Solve A X = B in the (ridge) least-squares sense.

    With ridge > 0, the regularised normal equations
    (A^T A + ridge I) X = A^T B are solved by one np.linalg.solve, and X
    has a forward error of order cond(A^T A + ridge I) * eps.  When ridge is
    so small beside A^T A that the sum is singular in floating point, the
    SVD formula V diag(s / (s^2 + ridge)) U^T B gives X instead.  The
    minimiser is unique, and the fit is never flagged rank deficient.  An A
    or B of squared Frobenius norm _SAFE_SQUARED_NORM or more is first
    brought below 1 by an exact power of two, and ridge scaled by the
    square of A's, which changes X by one exact power of two; a smaller
    fit runs unscaled.

    With ridge == 0, the SVD of A gives the minimum-norm solution, and the
    fit is flagged when A has fewer than min(m, n) singular values above
    _RANK_TOL * sigma_max.

    a is a finite matrix, b a finite vector or matrix of as many rows and
    ridge a number >= 0 (the kinds of :mod:`core`).
    """
    a = _as_array(a, "a", 2)
    b = _floats(b, "b")
    squeeze = b.ndim == 1
    b = _as_array(b, "b", 1 if squeeze else 2)
    _number(ridge, "ridge")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge!r}")
    if squeeze:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"b of shape {b.shape} is incompatible with a of shape {a.shape}")
    deficient = False
    if ridge > 0.0:
        ea = eb = 0
        if not np.vdot(a, a) < _SAFE_SQUARED_NORM:   # an overflowing sum reads inf, without a warning
            a, ea = _downscaled(a)
            ridge = math.ldexp(ridge, -2 * ea)   # 0.0 only beside an A^T A 2^1073 times larger
        if not np.vdot(b, b) < _SAFE_SQUARED_NORM:
            b, eb = _downscaled(b)
        try:
            x = np.linalg.solve(a.T @ a + ridge * np.eye(a.shape[1]), a.T @ b)
        except np.linalg.LinAlgError:   # an exactly zero pivot
            x, _ = _svd_solve(a, b, ridge)
        if ea != eb:
            x = np.ldexp(x, eb - ea)
    else:
        x, inv = _svd_solve(a, b, ridge)
        deficient = int(np.count_nonzero(inv)) < min(a.shape)
    if squeeze:
        x = x[:, 0]
    return LeastSquaresFit(x=x, rank_deficient=deficient)


def _downscaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m * 2^-e, e), e the exponent that brings m's largest entry below 1;
    exact but for entries that fall below 2^-1022."""
    e = math.frexp(abs(m).max())[1]
    return np.ldexp(m, -e), e


def _svd_solve(a: np.ndarray, b: np.ndarray, ridge: float):
    """V diag(inv) U^T b from the SVD U diag(s) V^T of a, and inv: the
    ridge filter s / (s^2 + ridge) for ridge > 0, else 1/s with the
    singular values up to _RANK_TOL * sigma_max zeroed."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    inv = s / (s * s + ridge) if ridge > 0.0 else _inverse_singular_values(s)
    return vt.T @ (inv[:, None] * (u.T @ b)), inv


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a finite matrix; singular values up to _RANK_TOL * sigma_max are zeroed."""
    u, s, vt = np.linalg.svd(_as_array(m, "m", 2), full_matrices=False)
    return vt.T @ (_inverse_singular_values(s)[:, None] * u.T)


# ---------------------------------------------------------------------------
# Tucker / HOSVD
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TuckerFactors:
    """Truncated Tucker factorization of a 3-way tensor.

    core has shape (r1, r2, r3); the factor columns are orthonormal.  Rows of
    u3 act as per-slice weight vectors.
    """

    core: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def hosvd(tensor, ranks) -> TuckerFactors:
    """Truncated higher-order SVD of a 3-way tensor.

    Factors are the leading left singular vectors of each unfolding; the core
    is the tensor contracted with the factor transposes.  tensor is a
    finite 3-way array and ranks holds three integers >= 1, none above its
    mode's size.
    """
    t = _as_array(tensor, "tensor", 3)
    try:
        r1, r2, r3 = ranks
    except (TypeError, ValueError):
        raise ValueError(f"ranks must be 3 integers, got {ranks!r:.40}") from None
    for r, dim in zip((r1, r2, r3), t.shape):
        _integer(r, "ranks", 1)
        if r > dim:
            raise ValueError(f"ranks must not exceed the tensor shape {t.shape}, got {ranks!r}")
    factors = []
    for mode, r in enumerate((r1, r2, r3)):
        u, _, _ = np.linalg.svd(_unfold(t, mode), full_matrices=False)
        factors.append(u[:, :r])
    u1, u2, u3 = factors
    core = np.einsum("ijk,ia,jb,kc->abc", t, u1, u2, u3, optimize=True)
    return TuckerFactors(core=core, u1=u1, u2=u2, u3=u3)


def reconstruct(factors: TuckerFactors, weight) -> np.ndarray:
    """One frontal slice: core x1 U1 x2 U2 x3 w^T.

    weight is a finite r3-vector; row k of u3 gives back slice k of the source.
    The slice is a product of matrices, U1 (core . w) U2^T, where core . w
    sums the core's frontal slices weighted by w.
    """
    w = _as_vector(weight, "weight", factors.core.shape[2])
    return factors.u1 @ (factors.core @ w) @ factors.u2.T


# ---------------------------------------------------------------------------
# CMA-ES
# ---------------------------------------------------------------------------

def _rank_value(value) -> float:
    """f's value as CMA-ES ranks it, NaN and +-inf as inf (worst)."""
    if isinstance(value, np.ndarray) and value.shape == ():
        value = value[()]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else math.inf
    if _is_number(value):   # an int in the float range; a bool is none
        return float(value)
    raise ValueError(f"f must return a real number within the float range, got {value!r:.40}")


def _cma_weights(lam: int):
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights**2)
    return mu, weights, mu_eff


def cmaes_minimize(f, x0, sigma0: float, budget: int, seed: int):
    """Minimize f with CMA-ES (rank-one plus rank-mu covariance updates).

    Runs whole generations of 4 + floor(3 ln n) candidates (6 for n = 1)
    while they fit in the evaluation budget.  f must be callable and return
    a real scalar, Python or NumPy, or a 0-d array of one; any other value,
    a bool included, raises ValueError naming f.  Candidates with
    non-finite objective values are ranked worst and the run continues.
    Returns (x_best, f_best, history) where history[i] is the best objective
    value seen after evaluation i+1 (monotone non-increasing).  x0 is a finite
    vector of at least one value, sigma0 a positive number, seed an integer
    >= 0 and budget >= lam.

    The eigendecomposition of C, which samples the candidates and whitens
    the step of the sigma path, is refreshed on generations that are a
    multiple of p = max(1, floor(0.5 / ((c_1 + c_mu) n))) and reused in
    between.  p is purecma's lazy gap of 0.5 lam / ((c_1 + c_mu) n)
    evaluations (arXiv:1604.00772) rounded down to whole generations, so the
    factors are never older than purecma allows.  p is 1 for every n <= 20,
    where runs are unchanged bit for bit; it is 2 at n = 21, 3 at n = 40 and
    7 at n = 128.
    """
    if not callable(f):
        raise ValueError(f"f must be callable, got {f!r:.40}")
    x0 = _as_array(x0, "x0")
    n = x0.shape[0]
    if n == 0:
        raise DimensionError("x0 must have at least 1 value, got shape (0,)")
    sigma = _positive(sigma0, "sigma0")
    _integer(seed, "seed", 0)
    lam = 4 + int(3 * math.log(n)) if n > 1 else 6
    _integer(budget, "budget", lam)
    mu, weights, mu_eff = _cma_weights(lam)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
    period = max(1, int(0.5 / ((c_1 + c_mu) * n)))   # p of the docstring

    mean = x0.copy()
    cov = np.eye(n)
    path_sigma = np.zeros(n)
    path_cov = np.zeros(n)
    generation = 0
    rng = np.random.Generator(np.random.PCG64(seed))

    x_best = x0.copy()
    f_best = math.inf
    history: list[float] = []

    while len(history) + lam <= budget:
        if generation % period == 0:
            # keep the covariance numerically symmetric before factorizing
            cov = 0.5 * (cov + cov.T)
            eigvals, eigvecs = np.linalg.eigh(cov)
            eigvals = np.maximum(eigvals, 1e-20)
            d = np.sqrt(eigvals)
            sqrt_t = (eigvecs * d).T
            inv_sqrt = (eigvecs * (1.0 / d)) @ eigvecs.T

        z = rng.standard_normal((lam, n))
        y = z @ sqrt_t                    # y_i ~ N(0, C)
        xs = mean + sigma * y

        fs = np.empty(lam)
        for i in range(lam):
            fs[i] = _rank_value(f(xs[i]))
            if fs[i] < f_best:
                f_best = float(fs[i])
                x_best = xs[i].copy()
            history.append(f_best)

        order = np.argsort(fs, kind="stable")
        y_sel = y[order[:mu]]
        y_w = weights @ y_sel

        mean = mean + sigma * y_w

        path_sigma = (1.0 - c_sigma) * path_sigma + math.sqrt(
            c_sigma * (2.0 - c_sigma) * mu_eff
        ) * (inv_sqrt @ y_w)
        ps_norm = float(np.linalg.norm(path_sigma))
        denom = math.sqrt(
            1.0 - (1.0 - c_sigma) ** (2.0 * (generation + 1))
        )
        h_sigma = 1.0 if ps_norm / denom < (1.4 + 2.0 / (n + 1.0)) * chi_n else 0.0

        path_cov = (1.0 - c_c) * path_cov + h_sigma * math.sqrt(
            c_c * (2.0 - c_c) * mu_eff
        ) * y_w

        rank_one = np.outer(path_cov, path_cov)
        rank_mu = (y_sel * weights[:, None]).T @ y_sel
        delta_h = (1.0 - h_sigma) * c_c * (2.0 - c_c)
        cov = (
            (1.0 - c_1 - c_mu) * cov
            + c_1 * (rank_one + delta_h * cov)
            + c_mu * rank_mu
        )

        sigma *= math.exp((c_sigma / d_sigma) * (ps_norm / chi_n - 1.0))
        generation += 1

    return x_best, f_best, np.asarray(history)


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def _deviations(v: np.ndarray) -> np.ndarray:
    """v divided by its largest magnitude, then less its mean.  Pearson does
    not change when an input is scaled by a positive factor, and after the
    division a sum of squared deviations neither overflows nor underflows to
    0 unless every deviation is 0."""
    scale = np.max(np.abs(v))
    if scale > 0.0:
        v = v / scale
    return v - v.mean()


def pearson(x, y) -> float:
    """Sample Pearson correlation in [-1, 1].

    Zero variance in either input yields 0.0 with a warning instead of NaN.
    x and y are finite vectors (the kind of :mod:`core`) of any magnitude:
    each is divided by its largest magnitude before it is centred.
    """
    x = _as_array(x, "x")
    y = _as_array(y, "y")
    if x.shape != y.shape:
        raise ValueError("pearson expects two equal-length vectors")
    if x.shape[0] < 2:
        raise ValueError("pearson needs at least 2 samples")
    dx, dy = _deviations(x), _deviations(y)
    if not dx.any() or not dy.any():
        warnings.warn("zero-variance input to pearson; returning 0.0", stacklevel=2)
        return 0.0
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    r = float(np.sum(dx * dy) / (sx * sy))
    return max(-1.0, min(1.0, r))
