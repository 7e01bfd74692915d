import numpy as np
import pytest

from skillpipe.core import (
    ControllerParams,
    DimensionError,
    Outcome,
    clamp,
    eval_cubics,
)
from conftest import make_params


def cubics(values):
    """Per-joint (a1, a2, a3) rows of a 15-entry coefficient vector."""
    return np.asarray(values, dtype=float).reshape(5, 3)


class TestEvalCubics:
    def test_zero_theta_is_constant_zero(self):
        for t in (0.0, 0.25, 1.0):
            angles, _ = eval_cubics(cubics(np.zeros(15)), t)
            assert np.array_equal(angles, np.zeros(5))

    def test_single_linear_term(self):
        theta = np.zeros(15)
        theta[0] = 1.0  # a1 of joint 0
        angles, _ = eval_cubics(cubics(theta), 1.0)
        assert angles[0] == pytest.approx(1.0)
        assert np.allclose(angles[1:], 0.0)

    def test_quadratic_plus_cubic_oracle(self):
        # q(t) = t^2 + t^3 evaluated directly at t = 0.5
        theta = np.zeros(15)
        theta[1] = 1.0
        theta[2] = 1.0
        angles, _ = eval_cubics(cubics(theta), 0.5)
        assert angles[0] == pytest.approx(0.25 + 0.125)

    def test_constant_trajectory_zero_velocity(self):
        for t in (0.0, 0.7, 1.0):
            _, vel = eval_cubics(cubics(np.zeros(15)), t)
            assert np.allclose(vel, 0.0)

    def test_linear_velocity(self):
        theta = np.zeros(15)
        theta[0] = 1.0
        for t in (0.0, 0.5, 1.0):
            _, vel = eval_cubics(cubics(theta), t)
            assert vel[0] == pytest.approx(1.0)

    def test_cubic_velocity_oracle(self):
        # d/dt t^3 = 3 t^2 -> 0.75 at t = 0.5
        theta = np.zeros(15)
        theta[2] = 1.0
        _, vel = eval_cubics(cubics(theta), 0.5)
        assert vel[0] == pytest.approx(0.75)

    def test_velocity_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(20):
            coeffs = cubics(rng.uniform(-1, 1, 15))
            t = rng.uniform(h, 1.0 - h)
            ang_p, _ = eval_cubics(coeffs, t + h)
            ang_m, _ = eval_cubics(coeffs, t - h)
            _, vel = eval_cubics(coeffs, t)
            assert np.allclose(vel, (ang_p - ang_m) / (2 * h), atol=1e-6)

    def test_array_of_times_matches_each_time(self):
        rng = np.random.default_rng(12)
        coeffs = cubics(rng.uniform(-1, 1, 15))
        limits = np.tile([-0.5, 0.5], (5, 1))
        times = np.linspace(0.0, 1.0, 11)
        angles, vel = eval_cubics(coeffs, times, joint_limits=limits)
        assert angles.shape == vel.shape == (11, 5)
        for k, t in enumerate(times):
            one_angles, one_vel = eval_cubics(coeffs, t, joint_limits=limits)
            assert np.array_equal(angles[k], one_angles)
            assert np.array_equal(vel[k], one_vel)

    def test_batch_of_controllers_matches_each_controller(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(-1, 1, (4, 15))
        times = np.array([0.0, 0.3, 1.0])
        angles, vel = eval_cubics(values.reshape(4, 5, 3), times)
        assert angles.shape == vel.shape == (4, 3, 5)
        for i, row in enumerate(values):
            one_angles, one_vel = eval_cubics(cubics(row), times)
            assert np.array_equal(angles[i], one_angles)
            assert np.array_equal(vel[i], one_vel)

    def test_clamped_joint_zeroes_velocity(self):
        theta = np.zeros(15)
        theta[0] = 1.0  # q0(t) = t
        limits = np.tile([-0.25, 0.25], (5, 1))
        angles, vel = eval_cubics(cubics(theta), 1.0, joint_limits=limits)
        assert angles[0] == pytest.approx(0.25)
        assert vel[0] == 0.0

    def test_two_dimensional_times_rejected(self):
        with pytest.raises(DimensionError, match="t must be"):
            eval_cubics(cubics(np.zeros(15)), np.zeros((2, 3)))


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

    @pytest.mark.parametrize("make", [
        lambda values: ControllerParams(values=values, bounds=np.tile([-1.0, 1.0], (2, 1))),
        lambda values: Outcome(values=values),
    ], ids=["params", "outcome"])
    def test_values_must_be_a_vector(self, make):
        with pytest.raises(DimensionError, match="1-D"):
            make(np.zeros((2, 1)))

    def test_invalid_outcome_sentinel(self):
        out = Outcome.invalid(2)
        assert not out.valid
        assert np.array_equal(out.values, np.zeros(2))
