import numpy as np
import pytest

from skillpipe import sim
from skillpipe.core import ControllerParams, Outcome, clamp
from skillpipe.repertoire import Archive
from conftest import make_params, make_skill

THROW = sim.make_env("throw")


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


class TestRecordsOwnReadOnlyArrays:
    # a record is checked once, when it is made, so no write may change it
    # afterwards, nor the matrices an archive builds from it

    @pytest.mark.parametrize("array", [
        pytest.param(lambda: make_params(np.zeros(3)).values, id="theta.values"),
        pytest.param(lambda: make_params(np.zeros(3)).bounds, id="theta.bounds"),
        pytest.param(lambda: Outcome(np.zeros(2)).values, id="outcome.values"),
        pytest.param(lambda: clamp(make_params(np.full(3, 2.0))).values, id="clamp-values"),
        pytest.param(lambda: sim.theta_bounds(THROW), id="theta_bounds"),
        pytest.param(lambda: sim.NOMINAL_GAP.joint_bias, id="NOMINAL_GAP.joint_bias"),
    ])
    def test_arrays_cannot_be_written(self, array):
        with pytest.raises(ValueError, match="read-only"):
            array()[0] = 0.5

    def test_a_writeable_or_borrowed_input_is_copied(self):
        values, bounds, point = np.zeros(3), np.tile([-1.0, 1.0], (3, 1)), np.zeros(2)
        base, bias = np.zeros(3), np.zeros(5)
        borrowed = base[:]   # read-only, but its data belongs to a writeable array
        borrowed.flags.writeable = False
        theta, outcome = ControllerParams(values, bounds), Outcome(point)
        other, gap = ControllerParams(borrowed, bounds), sim.RealityGap(joint_bias=bias)
        values[0] = bounds[0, 0] = point[0] = base[0] = bias[0] = 0.5   # the caller's arrays stay writeable
        assert theta.values.tolist() == other.values.tolist() == [0.0, 0.0, 0.0]
        assert theta.bounds[0].tolist() == [-1.0, 1.0] and outcome.values.tolist() == [0.0, 0.0]
        assert gap.joint_bias.tolist() == [0.0] * 5

    def test_a_read_only_array_that_owns_its_data_is_shared(self):
        bounds = sim.theta_bounds(THROW)
        theta = ControllerParams(np.zeros(THROW.dim_params), bounds)
        again = ControllerParams(theta.values, bounds)
        assert again.values is theta.values and again.bounds is bounds and clamp(theta).bounds is bounds
        out = sim.execute(THROW, sim.NOMINAL_GAP, theta)
        assert Outcome(out.values).values is out.values

    def test_an_archived_outcome_cannot_go_stale(self):
        arch = Archive(0.1, "throw", 3, 2)
        skills = [make_skill([i, 0, 0], [i, 0.0]) for i in range(2)]
        for skill in skills:
            arch.try_insert(skill)
        assert arch.nearest_outcome([0.9, 0.0]) is skills[1]   # builds the outcome matrix
        with pytest.raises(ValueError, match="read-only"):
            skills[1].outcome.values[0] = 5.0
        assert arch.nearest_outcome([4.9, 0.0]) is skills[1]
        assert arch.outcomes().tolist() == [s.outcome.values.tolist() for s in skills]
