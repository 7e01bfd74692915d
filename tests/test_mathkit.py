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
        # sha256 of x_best, f_best and history of seeded runs on scaled
        # spheres at n = 10, 40 and 128, recorded before cmaes_minimize formed
        # inv_sqrt without np.diag; it pins the bits the 50-evaluation run
        # above leaves free, such as those of inv_sqrt
        parts = []
        for n, budget, seed in ((10, 600, 3), (40, 600, 4), (128, 180, 5)):
            rng = np.random.default_rng(seed)
            scale = np.exp(rng.normal(size=n))
            x, f, hist = cmaes_minimize(
                lambda v: float(np.sum(scale * v * v) + np.sin(v[0])), rng.normal(size=n), 0.5, budget, seed
            )
            parts += [x.astype("<f8").tobytes(), np.float64(f).astype("<f8").tobytes(),
                      hist.astype("<f8").tobytes()]
        digest = hashlib.sha256(b"".join(parts)).hexdigest()
        assert digest == "b4e92a1b03141a09ad9f25314058f8e3c0a6b89548d9d0601e1a8414d5a135d4"

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
