import numpy as np
import pytest

from skillpipe.core import ControllerParams, Outcome, _cubic, _cubic_rate, clamp
from conftest import make_params


class TestCubic:
    # four joints: q = 0, t, t^2 + t^3 and t^3, exact in floating point at
    # these dyadic times
    A1, A2, A3 = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0])
    def test_closed_forms(self, t):
        assert _cubic(self.A1, self.A2, self.A3, t).tolist() == [0.0, t, t * t + t**3, t**3]
        assert _cubic_rate(self.A1, self.A2, self.A3, t).tolist() == [0.0, 1.0, 2 * t + 3 * t * t, 3 * t * t]

    def test_rate_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(20):
            a1, a2, a3 = rng.uniform(-1, 1, (3, 5))
            t = rng.uniform(h, 1.0 - h)
            slope = (_cubic(a1, a2, a3, t + h) - _cubic(a1, a2, a3, t - h)) / (2 * h)
            assert np.allclose(_cubic_rate(a1, a2, a3, t), slope, atol=1e-6)


class TestClamp:
    def test_identity_in_bounds(self):
        theta = make_params([0.5, -0.5, 0.0])
        assert np.array_equal(clamp(theta).values, theta.values)

    def test_projects_below_lower(self):
        theta = make_params([-2.0, 0.0, 0.0])
        assert clamp(theta).values[0] == -1.0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = make_params(rng.uniform(-3, 3, 15))
            once = clamp(theta)
            twice = clamp(once)
            assert np.array_equal(once.values, twice.values)

    def test_projection_never_increases_distance_to_interior_points(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = make_params(rng.uniform(-3, 3, 8))
            interior = rng.uniform(-1, 1, 8)
            before = np.linalg.norm(theta.values - interior)
            after = np.linalg.norm(clamp(theta).values - interior)
            assert after <= before + 1e-12


class TestTypes:
    def test_controller_params_infinite_bounds_allowed(self):
        bounds = [[-np.inf, np.inf], [0.0, np.inf]]
        theta = ControllerParams(values=np.zeros(2), bounds=bounds)
        assert np.array_equal(theta.bounds, bounds)

    def test_invalid_outcome_sentinel(self):
        out = Outcome.invalid(2)
        assert not out.valid
        assert np.array_equal(out.values, np.zeros(2))
