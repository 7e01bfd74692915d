import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from skillpipe import mathkit
from skillpipe.core import DimensionError
from skillpipe.mathkit import (
    cmaes_minimize,
    hosvd,
    least_squares,
    pearson,
    pinv,
    reconstruct,
)


def tucker_full(factors):
    """Dense reconstruction of the full tensor from its factorization: the
    oracle of the HOSVD tests."""
    return np.einsum(
        "abc,ia,jb,kc->ijk", factors.core, factors.u1, factors.u2, factors.u3,
        optimize=True,
    )


class TestLeastSquares:
    def test_identity_system(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        fit = least_squares(np.eye(3), b)
        assert np.allclose(fit.x, b)

    def test_recovers_known_solution(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 6))
        x0 = rng.normal(size=(6, 3))
        fit = least_squares(a, a @ x0)
        assert np.allclose(fit.x, x0, atol=1e-8)
        assert not fit.rank_deficient

    def test_residual_orthogonal_to_column_space(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(30, 5))
        b = rng.normal(size=(30, 2))
        fit = least_squares(a, b)
        residual = b - a @ fit.x
        assert np.max(np.abs(a.T @ residual)) < 1e-8

    def test_large_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(10, 2))
        fit = least_squares(a, b, ridge=1e12)
        assert np.max(np.abs(fit.x)) < 1e-8

    def test_rank_deficient_is_flagged_min_norm(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([2.0, 2.0])
        fit = least_squares(a, b)
        assert fit.rank_deficient
        # minimum-norm solution of x1 + x2 = 2
        assert np.allclose(fit.x, [1.0, 1.0])

    def test_matches_normal_equations_when_well_conditioned(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(25, 6))
            b = rng.normal(size=(25,))
            fit = least_squares(a, b)
            x_ne = np.linalg.solve(a.T @ a, a.T @ b)
            assert np.allclose(fit.x, x_ne, atol=1e-6)

    @pytest.mark.parametrize("a, b, ridge, match", [
        (np.eye(3), np.ones(3), -1e-9, "ridge"),
        (np.ones(3), np.ones(3), 0.0, "matrix"),
        (np.ones((3, 2)), np.ones(4), 0.0, "incompatible"),
        # NaN used to give an all-NaN x flagged full rank, and inf all zeros
        (np.eye(3), np.ones(3), math.nan, "ridge"),
        (np.eye(3), np.ones(3), math.inf, "ridge"),
    ], ids=["negative-ridge", "vector-A", "row-mismatch", "nan-ridge", "inf-ridge"])
    def test_bad_inputs_rejected(self, a, b, ridge, match):
        with pytest.raises(ValueError, match=match):
            least_squares(a, b, ridge=ridge)


EPS = np.finfo(float).eps


def svd_ridge_oracle(a, b, ridge):
    """The SVD formula least_squares used for every ridge > 0 before it
    solved the normal equations: V diag(s / (s^2 + ridge)) U^T B."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt.T @ ((s / (s * s + ridge))[:, None] * (u.T @ b))


def svd_min_norm_oracle(a, b):
    """The ridge == 0 formula: V diag(1/s) U^T B, singular values up to
    _RANK_TOL * sigma_max zeroed."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > mathkit._RANK_TOL * (s[0] if s.size else 0.0)
    return vt.T @ (np.divide(1.0, s, out=np.zeros(len(s)), where=keep)[:, None] * (u.T @ b))


def frobenius(v) -> float:
    """||v||_F without overflow: the entries run to 1e200 and beyond."""
    scale = np.max(np.abs(v), initial=0.0)
    return float(scale * np.linalg.norm(v / scale)) if scale > 0.0 else 0.0


@st.composite
def ridge_problems(draw):
    """(A, B, ridge > 0): A of m <= 12 rows and n <= 6 columns scaled 1e-6 to
    1e6 apart, its last column sometimes a multiple of its first, entries
    at most 1e100 in magnitude, so that A^T A is finite; B of 1-3 columns;
    ridge from 1e-14 to 1e2 times ||A||_2^2."""
    m, n, k = draw(st.integers(0, 12)), draw(st.integers(0, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, (m, n)) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    if n > 1 and draw(st.booleans()):
        a[:, -1] = a[:, 0] * rng.uniform(-1.0, 1.0)
    a *= 10.0 ** draw(st.integers(-94, 94))
    b = rng.uniform(-1.0, 1.0, (m, k)) * 10.0 ** draw(st.integers(-100, 100))
    norm = np.linalg.norm(a, 2) if a.size else 0.0
    ratio = 10.0 ** draw(st.floats(-14.0, 2.0))
    return a, b, ratio * norm**2 if norm > 0.0 else ratio


# ridge 1e-300 beside A^T A = [[2, 2], [2, 2]] leaves it singular in floating point
SINGULAR_SUM = (np.ones((2, 2)), np.array([[2.0], [2.0]]), 1e-300)


class TestRidgeLeastSquares:
    """ridge > 0 solves the normal equations (A^T A + ridge I) X = A^T B."""

    @given(problem=ridge_problems())
    @example(problem=SINGULAR_SUM)
    def test_backward_error_of_the_normal_equations(self, problem):
        a, b, ridge = problem
        (m, n), x = a.shape, least_squares(a, b, ridge).x
        norm = np.linalg.norm(a, 2) if a.size else 0.0
        residual = frobenius((a.T @ a) @ x + ridge * x - a.T @ b)
        assert residual <= (m + n) * EPS * ((norm**2 + ridge) * frobenius(x) + norm * frobenius(b))

    @given(problem=ridge_problems())
    def test_agrees_with_the_svd_formula(self, problem):
        # the solve's backward error bounds its distance from the exact X by
        # (m + n) eps cond (||X|| + ||A|| ||B|| / (||A||^2 + ridge)); the
        # SVD formula's own error is of the same order
        a, b, ridge = problem
        (m, n), x = a.shape, least_squares(a, b, ridge).x
        assume(n > 0)
        s = np.linalg.svd(a.T @ a + ridge * np.eye(n), compute_uv=False)
        cond = s[0] / s[-1] if s[-1] > 0.0 else math.inf
        assume(cond <= 1e8)
        want, norm = svd_ridge_oracle(a, b, ridge), np.linalg.norm(a, 2)
        scale = frobenius(want) + norm * frobenius(b) / (norm**2 + ridge)
        assert frobenius(x - want) <= 10.0 * (m + n) * cond * EPS * scale

    @given(problem=ridge_problems())
    @example(problem=(np.array([[1e100, 0.0], [0.0, 2e100], [1e100, 1e100]]),
                      np.array([[1e100], [1e100], [0.0]]), 1e200))
    def test_a_fit_that_neither_overflows_nor_underflows_keeps_its_bits(self, problem):
        # entries run to 1e100, past the norm of 2^256 from which A and B are
        # scaled by exact powers of two, and that leaves every bit of X
        a, b, ridge = problem
        assume(a.size > 0)
        want = np.linalg.solve(a.T @ a + ridge * np.eye(a.shape[1]), a.T @ b)
        assert least_squares(a, b, ridge).x.tobytes() == want.tobytes()

    @given(problem=ridge_problems(), tops=st.tuples(st.integers(257, 500), st.integers(257, 1000)))
    def test_a_fit_past_the_overflow_limit_is_the_fit_scaled_into_range(self, problem, tops):
        # A shifted to a largest entry of 2^ta, where A^T A overflows, B to
        # 2^tb, ridge by A's shift squared: X shifts by B's less A's shift
        a, b, ridge = problem
        assume(a.size > 0 and b.any())
        ka, kb = (top - math.frexp(np.abs(m).max())[1] for top, m in zip(tops, (a, b)))
        with np.errstate(over="ignore"):   # a shifted X out of range is assumed away below
            want = np.ldexp(least_squares(a, b, ridge).x, kb - ka)
        assume(np.all(np.isfinite(want)) and np.all((want == 0.0) | (np.abs(want) >= 2.0**-1022)))
        x = least_squares(np.ldexp(a, ka), np.ldexp(b, kb), math.ldexp(ridge, 2 * ka)).x
        assert x.tobytes() == want.tobytes()

    def test_a_huge_a_is_scaled_instead_of_overflowing(self):
        # A^T A overflowed: x read [nan, nan] with a RuntimeWarning; ridge 1
        # is negligible beside it, so X is the least-squares [1/3, 1/3]
        a = np.array([[1e160, 0.0], [0.0, 2e160], [1e160, 1e160]])
        b = np.array([1e160, 1e160, 0.0])
        fit = least_squares(a, b, ridge=1.0)
        assert fit.x.tolist() == pytest.approx([1.0 / 3.0, 1.0 / 3.0], rel=1e-15)
        assert fit.x.tobytes() == least_squares(a * 2.0**-300, b * 2.0**-300, 2.0**-600).x.tobytes()

    def test_a_singular_sum_falls_back_to_the_svd_formula(self):
        a, b, ridge = SINGULAR_SUM
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a.T @ a + ridge * np.eye(2), a.T @ b)
        fit = least_squares(a, b, ridge)
        assert fit.x.tobytes() == svd_ridge_oracle(a, b, ridge).tobytes()
        assert not fit.rank_deficient

    def test_only_ridge_zero_flags_rank_deficiency(self):
        # two zero columns: under ridge the minimiser is unique, with its
        # last two entries 0; it used to be flagged for their zero singular
        # values
        a = np.zeros((4, 3))
        a[:, 0] = [1.0, 2.0, 3.0, 4.0]
        b = np.array([1.0, 0.0, 2.0, 1.0])
        fit = least_squares(a, b, ridge=1.0)
        assert fit.rank_deficient is False
        assert fit.x.tolist() == pytest.approx([11.0 / 31.0, 0.0, 0.0], rel=1e-15)
        assert least_squares(a, b).rank_deficient is True

    @pytest.mark.parametrize("a, b, shape", [
        (np.zeros((3, 0)), np.ones(3), (0,)),
        (np.zeros((0, 3)), np.ones(0), (3,)),
        (np.zeros((0, 3)), np.ones((0, 2)), (3, 2)),
    ], ids=["no-columns", "no-rows", "no-rows-two-columns-of-b"])
    def test_empty_shapes(self, a, b, shape):
        fit = least_squares(a, b, ridge=1.0)
        assert fit.x.shape == shape and not fit.x.any() and not fit.rank_deficient

    def test_wide_a(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 5)), rng.normal(size=2)
        fit = least_squares(a, b, ridge=0.5)
        assert fit.x.shape == (5,) and not fit.rank_deficient
        assert np.allclose(fit.x, svd_ridge_oracle(a, b[:, None], 0.5)[:, 0], rtol=1e-14, atol=1e-15)

    @given(problem=ridge_problems())
    def test_ridge_zero_is_the_svd_minimum_norm_solution(self, problem):
        a, b, _ = problem
        assert least_squares(a, b).x.tobytes() == svd_min_norm_oracle(a, b).tobytes()


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(4)), np.eye(4))

    def test_diagonal_rule(self):
        m = np.diag([2.0, 0.0])
        assert np.allclose(pinv(m), np.diag([0.5, 0.0]))

    def test_right_inverse_full_row_rank(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(2, 15))
        assert np.allclose(m @ pinv(m), np.eye(2), atol=1e-8)

    def test_moore_penrose_identities_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rows = rng.integers(1, 31)
            cols = rng.integers(1, 31)
            m = rng.normal(size=(rows, cols))
            p = pinv(m)
            assert np.allclose(m @ p @ m, m, atol=1e-8)
            assert np.allclose(p @ m @ p, p, atol=1e-8)
            assert np.allclose((m @ p).T, m @ p, atol=1e-8)
            assert np.allclose((p @ m).T, p @ m, atol=1e-8)

    def test_empty_matrix_gives_its_transpose(self):
        p = pinv(np.zeros((0, 4)))
        assert p.shape == (4, 0)


class TestHosvd:
    def test_rank_one_tensor_exact(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=5)
        v = rng.normal(size=4)
        w = rng.normal(size=3)
        t = np.einsum("i,j,k->ijk", u, v, w)
        factors = hosvd(t, (1, 1, 1))
        assert np.max(np.abs(tucker_full(factors) - t)) < 1e-10

    def test_full_ranks_exact(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=(5, 4, 3))
        factors = hosvd(t, (5, 4, 3))
        assert np.max(np.abs(tucker_full(factors) - t)) < 1e-8

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(6, 5, 4))
        factors = hosvd(t, (3, 2, 2))
        for u in (factors.u1, factors.u2, factors.u3):
            gram = u.T @ u
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    def test_truncation_error_bound(self):
        # ||T - T_hat||^2 <= sum over modes of discarded singular values^2
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = rng.normal(size=(6, 5, 4))
            ranks = (
                int(rng.integers(1, 6)),
                int(rng.integers(1, 5)),
                int(rng.integers(1, 4)),
            )
            factors = hosvd(t, ranks)
            err = np.sum((tucker_full(factors) - t) ** 2)
            bound = 0.0
            for mode, r in enumerate(ranks):
                unfolded = np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)
                s = np.linalg.svd(unfolded, compute_uv=False)
                bound += np.sum(s[r:] ** 2)
            assert err <= bound + 1e-6

    def test_bad_ranks_rejected(self):
        t = np.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            hosvd(t, (4, 1, 1))

    @pytest.mark.parametrize("ranks", [(1, 1), (1, 1, 1, 1), 2, None],
                             ids=["two", "four", "int", "None"])
    def test_ranks_must_be_three(self, ranks):
        # (1, 1) used to fail with a bare unpacking error, 2 with a TypeError
        with pytest.raises(ValueError, match="^ranks must be 3 integers, got "):
            hosvd(np.ones((3, 3, 3)), ranks)


class TestReconstruct:
    def test_slice_matches_source_within_truncation(self):
        rng = np.random.default_rng(10)
        t = rng.normal(size=(6, 5, 4))
        factors = hosvd(t, (6, 5, 4))
        for k in range(4):
            assert np.allclose(reconstruct(factors, factors.u3[k]), t[:, :, k], atol=1e-8)

    def test_zero_weight_gives_zero_layer(self):
        rng = np.random.default_rng(11)
        factors = hosvd(rng.normal(size=(4, 4, 3)), (2, 2, 2))
        assert np.allclose(reconstruct(factors, np.zeros(2)), 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        factors = hosvd(rng.normal(size=(4, 4, 3)), (3, 3, 2))
        w1 = rng.normal(size=2)
        w2 = rng.normal(size=2)
        lhs = reconstruct(factors, w1 + w2)
        rhs = reconstruct(factors, w1) + reconstruct(factors, w2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("ranks", [(8, 16, 3), (1, 1, 1), (2, 3, 2), (8, 5, 4), (3, 16, 1)])
    def test_row_k_of_u3_gives_slice_k_of_the_oracle(self, ranks):
        # the product of matrices agrees with the dense contraction of every
        # factor, at each truncation
        rng = np.random.default_rng(13)
        factors = hosvd(rng.normal(size=(8, 16, 4)), ranks)
        full = tucker_full(factors)
        for k in range(full.shape[2]):
            np.testing.assert_allclose(reconstruct(factors, factors.u3[k]), full[:, :, k], rtol=0, atol=1e-12)


def _oracle_cmaes(f, x0, sigma0, budget, seed, period):
    """cmaes_minimize as it was when it factorized C on every generation,
    copied with its argument checks left out, plus the one guard that
    refreshes the eigensystem every `period` generations.  Period 1 is the
    eager loop."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    sigma = float(sigma0)
    lam = 4 + int(3 * math.log(n)) if n > 1 else 6
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights**2)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

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
            inv_sqrt = (eigvecs * (1.0 / d)) @ eigvecs.T

        z = rng.standard_normal((lam, n))
        y = z @ (eigvecs * d).T           # y_i ~ N(0, C)
        xs = mean + sigma * y

        fs = np.empty(lam)
        for i in range(lam):
            val = f(xs[i])
            fs[i] = val if np.isfinite(val) else math.inf
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


def _scaled_sphere(n, seed):
    """A seeded sphere with log-normal axis scales and a sin(x[0]) ripple,
    and a start drawn from the same stream: the problems of the golden
    digest."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.normal(size=n))
    return (lambda v: float(np.sum(scale * v * v) + np.sin(v[0]))), rng.normal(size=n)


def _same_run(a, b) -> bool:
    """x_best, f_best and history equal bit for bit."""
    return (a[0].tobytes() == b[0].tobytes() and np.float64(a[1]).tobytes() == np.float64(b[1]).tobytes()
            and a[2].tobytes() == b[2].tobytes())


def _counting_eigh(monkeypatch) -> list:
    """Patches np.linalg.eigh with a wrapper that appends to the returned
    list on each call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestCmaes:
    def test_1d_quadratic(self):
        x, f, _ = cmaes_minimize(lambda v: (v[0] - 3.0) ** 2, [0.0], 0.5, 800, seed=1)
        assert abs(x[0] - 3.0) < 1e-6

    def test_constant_objective(self):
        x, f, hist = cmaes_minimize(lambda v: 7.0, np.zeros(3), 1.0, 60, seed=2)
        assert f == 7.0
        assert np.all(hist == 7.0)

    def test_sphere_10d(self):
        x, f, hist = cmaes_minimize(
            lambda v: float(np.sum(v * v)), np.full(10, 2.0), 1.0, 5000, seed=3
        )
        assert f < 1e-8
        assert len(hist) <= 5000

    def test_sphere_10d_golden(self):
        # golden x_best, f_best and history of one seeded run: a change to the
        # sampling or to any update rule moves them
        x, f, hist = cmaes_minimize(
            lambda v: float(np.sum(v * v)), np.full(10, 2.0), 1.0, 50, seed=3
        )
        assert x.tolist() == [
            -0.1617825557456885, 1.5427473599495347, 0.31693998934357914,
            -0.15284188739152305, 0.5930635308939292, 0.4732823973775273,
            -0.5458733743743318, 0.38904382622379685, -0.3351046778850312,
            0.15501355070181638,
        ]
        assert f == 3.6914323763204573
        best = [62.863192382889125, 37.13008202614496, 33.81999065901125,
                24.432257187306593, 13.302706018342741, 12.8755406087211,
                11.096122859750075, 6.479106604849892, 3.6914323763204573]
        runs = [1, 5, 4, 9, 10, 6, 7, 3, 5]   # evaluations each best value held
        assert hist.tolist() == np.repeat(best, runs).tolist()

    def test_runs_match_the_golden_digest(self):
        # sha256 of x_best, f_best and history of each seeded run on a scaled
        # sphere; it pins the bits the 50-evaluation run above leaves free,
        # such as those of inv_sqrt.  The n = 10 digest dates from before
        # cmaes_minimize formed inv_sqrt without np.diag.  The n = 40 and
        # n = 128 digests were recorded when C came to be factorized every 3
        # and 7 generations, after those runs matched _oracle_cmaes
        golden = {
            (10, 600, 3): "a9fb852816e4ce7369adfe83e9ec4c540e4e3951a17053f8f91cd0427e12811d",
            (40, 600, 4): "23670be37031a90d0260855bcd03778fb6d721b39f032eed7c8bbce8da322d24",
            (128, 180, 5): "034a0862c30acc1743c66d8ccbc4d47d787220ff21ebedacf560aa85550d46b3",
        }
        digests = {}
        for n, budget, seed in golden:
            f, x0 = _scaled_sphere(n, seed)
            x, f_best, hist = cmaes_minimize(f, x0, 0.5, budget, seed)
            parts = [x.astype("<f8").tobytes(), np.float64(f_best).astype("<f8").tobytes(),
                     hist.astype("<f8").tobytes()]
            digests[n, budget, seed] = hashlib.sha256(b"".join(parts)).hexdigest()
        assert digests == golden

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 15, 20])
    def test_up_to_20_dimensions_c_is_factorized_every_generation(self, n):
        f, x0 = _scaled_sphere(n, n)
        run = cmaes_minimize(f, x0, 0.5, 300, n)
        assert _same_run(run, _oracle_cmaes(f, x0, 0.5, 300, n, period=1))

    @pytest.mark.parametrize("n, budget, seed, period", [
        (21, 300, 21, 2), (40, 600, 4, 3), (128, 180, 5, 7), (128, 400, 6, 7),
    ])
    def test_from_21_dimensions_c_is_factorized_every_period(self, n, budget, seed, period):
        f, x0 = _scaled_sphere(n, seed)
        run = cmaes_minimize(f, x0, 0.5, budget, seed)
        assert _same_run(run, _oracle_cmaes(f, x0, 0.5, budget, seed, period))
        # the eager loop takes another path, so the match above says something
        assert not _same_run(run, _oracle_cmaes(f, x0, 0.5, budget, seed, period=1))

    @pytest.mark.parametrize("n, period", [
        (1, 1), (3, 1), (10, 1), (20, 1), (21, 2), (40, 3), (64, 4), (128, 7), (256, 12),
    ])
    def test_refresh_period(self, monkeypatch, n, period):
        # C is factorized once in the first `period` generations, and again
        # on the one after
        lam = 4 + int(3 * math.log(n)) if n > 1 else 6
        calls = _counting_eigh(monkeypatch)
        for generations, factorized in ((period, 1), (period + 1, 2)):
            calls.clear()
            cmaes_minimize(lambda v: float(v @ v), np.ones(n), 0.5, generations * lam, 0)
            assert len(calls) == factorized

    def test_a_128_weight_search_factorizes_c_twice(self, monkeypatch):
        # 234 evaluations are 13 generations of 18: factorized on generations
        # 0 and 7, where the eager loop factorized on all 13
        f, x0 = _scaled_sphere(128, 7)
        calls = _counting_eigh(monkeypatch)
        cmaes_minimize(f, x0, 0.5, 234, 7)
        assert len(calls) == 2
        calls.clear()
        _oracle_cmaes(f, x0, 0.5, 234, 7, period=1)
        assert len(calls) == 13

    def test_seed_reproducibility(self):
        def obj(v):
            return float(np.sum((v - 1.5) ** 2))

        r1 = cmaes_minimize(obj, np.zeros(4), 0.7, 400, seed=9)
        r2 = cmaes_minimize(obj, np.zeros(4), 0.7, 400, seed=9)
        assert np.array_equal(r1[0], r2[0])
        assert r1[1] == r2[1]
        assert np.array_equal(r1[2], r2[2])

    def test_history_monotone_nonincreasing(self):
        _, _, hist = cmaes_minimize(
            lambda v: float(np.sum(v**4)), np.full(5, 1.0), 0.5, 600, seed=4
        )
        assert np.all(np.diff(hist) <= 0)

    def test_non_finite_values_survive(self):
        def nasty(v):
            return float("nan") if v[0] > 0 else float(np.sum(v * v))

        x, f, _ = cmaes_minimize(nasty, np.array([-1.0, 0.5]), 0.4, 300, seed=5)
        assert np.isfinite(f)


class TestPearson:
    def test_perfect_correlations(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, x) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        assert pearson(x, 2 * x + 3) == pytest.approx(1.0)

    def test_hand_computed_sample(self):
        # {(1,2),(2,1),(3,3)}: covariance 1, std sqrt(2) each -> r = 0.5
        assert pearson([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    # squares that overflow, that underflow to a false zero variance, and a
    # sum that overflows to a correlation of the wrong sign
    @given(pairs=st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)), min_size=2, max_size=8),
           c=st.sampled_from([1e-300, 1e-150, 1e150, 1e300]))
    @example(pairs=[(1, 1), (3, 3), (2, 2)], c=1e200)
    @example(pairs=[(1, 0), (0, -1), (2, 1)], c=1e-170)
    @example(pairs=[(1, -1), (-1, 2), (0, 3)], c=1e308)
    def test_scaling_an_input_leaves_the_correlation(self, pairs, c):
        x, y = np.array(pairs, dtype=float).T
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        assert pearson(c * x, y) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_zero_variance_flagged(self):
        with pytest.warns(UserWarning):
            r = pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert r == 0.0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError, match="equal-length"):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("x, y, name", [
        ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], "x"),
        ([1.0, 2.0], 3.0, "y"),
    ], ids=["x-2-d", "y-scalar"])
    def test_non_vector_input_refused(self, x, y, name):
        with pytest.raises(DimensionError, match=f"^{name} must be a 1-D vector"):
            pearson(x, y)
