import functools
import hashlib
import math
import sys
import threading
import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillpipe import sim
from skillpipe.core import ControllerParams, DimensionError, Outcome, clamp
from skillpipe.sim import (
    NOMINAL_GAP,
    Obstacle,
    RealityGap,
    collides,
    execute,
    execute_batch,
    make_env,
    quality,
    render_frame,
    transfer_task,
)
from skillpipe.sim import _cubic, _release_rates
from conftest import make_params, new_params, random_params


def zero_theta(env):
    return new_params(env, np.zeros(env.dim_params))


def released(pos, vel):
    """A patch of sim._release under which every throw leaves from pos =
    (x, y, z) at vel = (vx, vy, vz), in _release's layout: ((x, y) rows of
    a (2, B) array, z (B,)) for each."""
    def release(env, gap, values):
        def rows(x, y, z):
            return np.tile([[float(x)], [float(y)]], len(values)), np.full(len(values), float(z))
        return rows(*pos), rows(*vel)
    return mock.patch.object(sim, "_release", release)


class TestCubic:
    # four joints: q = 0, t, t^2 + t^3 and t^3, exact in floating point at
    # these dyadic times
    A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0])
    def test_closed_forms(self, t):
        assert _cubic(self.A, t).tolist() == [0.0, t, t * t + t**3, t**3]
        if t == 1.0:   # the release's time, the one time a rate is taken
            assert _release_rates(self.A).tolist() == [0.0, 1.0, 2.0 + 3.0, 3.0]

    def test_rate_matches_finite_differences(self):
        # the release's rates are the cubic's slope at t = 1
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(20):
            a = rng.uniform(-1, 1, (3, 5))
            slope = (_cubic(a, 1.0 + h) - _cubic(a, 1.0 - h)) / (2 * h)
            assert np.allclose(_release_rates(a), slope, atol=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e150]),
           case=st.sampled_from([((5, 1, 1), 1), ((5, 3, 1), 101), ((5, 3, 1), None), ((4,), None)]))
    def test_bits_match_the_sum_as_written(self, seed, scale, case):
        # coefficients (J, B, 1) at T times, as the arm takes them, or at one
        # float time; the stacked products round each term as a_k * t * ...
        # * t does and add the terms left to right, signed zeros, overflows
        # and underflows included, and leave the coefficients as they were
        (shape, times), rng = case, np.random.default_rng(seed)
        a = rng.uniform(-scale, scale, (3, *shape))
        a[:, 0] *= 0.0
        t = rng.uniform(0.0, 1.0) if times is None else rng.uniform(0.0, 1.0, times)
        kept = a.tobytes()
        with np.errstate(over="ignore", under="ignore"):
            want = a[0] * t + a[1] * t * t + a[2] * t * t * t
            assert _cubic(a, t).tobytes() == want.tobytes()
        assert a.tobytes() == kept

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 308), batch=st.integers(0, 4))
    @example(seed=0, exponent=308, batch=4)
    def test_release_closed_forms_are_the_cubic_at_one(self, seed, exponent, batch):
        # the release is at t = duration = 1.0, the last sample time, where
        # every power of t is exactly 1: (a1 + a2) + a3 and (a1 + 2 a2) + 3
        # a3 give the bits of the cubic and of its rate as written there,
        # signed zeros, and from 1e308 on overflows and the NaNs of inf -
        # inf, included
        assert sim.EnvironmentSpec.duration == 1.0 and sim._SAMPLE_TIMES[-1] == 1.0
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (3, sim.N_JOINTS, batch)) * 10.0**exponent
        zeros = rng.random(a.shape) < 0.2
        a[zeros] = rng.choice([0.0, -0.0], np.count_nonzero(zeros))
        t = np.float64(1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert sim._release_angles(a).tobytes() == _cubic(a, np.array([1.0])).tobytes()
            rate = a[0] + 2.0 * a[1] * t + 3.0 * a[2] * t * t
            assert _release_rates(a).tobytes() == rate.tobytes()


# The relative error the landing-time formula meets over the releases of
# test_landing_time_against_an_exact_root, whose worst is 2.1e-15, at
# gravity_scale 0.5: for a release heading down, vz + sqrt(vz² + 2gz) cancels
LANDING_TIME_RTOL = 3e-15


class TestBallistics:
    def test_landing_formula_height_one(self, throw_env):
        # release at 1 m with horizontal velocity 1 m/s: t* = sqrt(2/g)
        assert sim._landing_time(1.0, 0.0, 9.81) == pytest.approx(math.sqrt(2.0 / 9.81), abs=1e-9)
        with released([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]):
            landing, valid = execute_batch(throw_env, NOMINAL_GAP, np.zeros((1, 15)))
        assert valid[0]
        assert landing[0, 0] == pytest.approx(math.sqrt(2.0 / 9.81), abs=1e-9)
        assert landing[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_below_ground_release_is_invalid(self, throw_env):
        with released([0.5, 0.5, -0.1], [1.0, 1.0, 1.0]):
            landing, valid = execute_batch(throw_env, NOMINAL_GAP, np.zeros((1, 15)))
        assert not valid[0]
        assert np.array_equal(landing, [[0.0, 0.0]])

    def test_upward_release_lands_later(self):
        assert sim._landing_time(1.0, 2.0, 9.81) > sim._landing_time(1.0, 0.0, 9.81)

    def test_landing_time_against_an_exact_root(self, throw_env):
        # the releases of seeded valid throws, most of them heading down,
        # where vz and the square root cancel; each time, from an array as
        # execute takes it and from floats as collides does, is within the
        # bound of a 50-digit root of the same doubles
        values = np.random.default_rng(2005).uniform(-1.0, 1.0, (1000, throw_env.dim_params))
        (_, z), (_, vz) = sim._release(throw_env, NOMINAL_GAP, values)
        z, vz = z[z >= 0], vz[z >= 0]
        assert len(z) > 900 and np.mean(vz < 0) > 0.9
        worst = 0.0
        with localcontext(prec=50):
            for scale in (0.5, 0.8, 1.0, 1.25, 2.0):
                g = throw_env.gravity * scale
                times = sim._landing_time(z, vz, g)
                for zi, vzi, t in zip(z.tolist(), vz.tolist(), times.tolist()):
                    assert sim._landing_time(zi, vzi, g) == t
                    dz, dvz, dg = Decimal(zi), Decimal(vzi), Decimal(g)
                    exact = (dvz + (dvz * dvz + 2 * dg * dz).sqrt()) / dg
                    worst = max(worst, abs(Decimal(t) - exact) / exact)
        assert worst < LANDING_TIME_RTOL


class TestExecuteThrow:
    def test_rest_arm_drops_at_origin(self, throw_env):
        out = execute(throw_env, NOMINAL_GAP, zero_theta(throw_env))
        assert out.valid
        assert np.allclose(out.values, [0.0, 0.0], atol=1e-12)

    def test_pure_function_bit_identical(self, throw_env):
        rng = np.random.default_rng(3)
        theta = random_params(throw_env, rng)
        gap = RealityGap(gravity_scale=1.1, joint_bias=np.full(5, 0.05))
        a = execute(throw_env, gap, theta)
        b = execute(throw_env, gap, theta)
        assert np.array_equal(a.values, b.values) and a.valid == b.valid

    def test_nominal_gap_is_identity(self, throw_env):
        rng = np.random.default_rng(4)
        for _ in range(10):
            theta = random_params(throw_env, rng)
            a = execute(throw_env, NOMINAL_GAP, theta)
            b = execute(throw_env, RealityGap(1.0, np.zeros(5), 1.0), theta)
            assert np.array_equal(a.values, b.values)

    def test_gap_changes_outcome(self, throw_env):
        rng = np.random.default_rng(5)
        gap = RealityGap(gravity_scale=1.1, joint_bias=np.full(5, 0.05))
        moved = 0
        for _ in range(10):
            theta = random_params(throw_env, rng)
            a = execute(throw_env, NOMINAL_GAP, theta)
            b = execute(throw_env, gap, theta)
            if a.valid and b.valid and not np.allclose(a.values, b.values):
                moved += 1
        assert moved >= 5

    def test_a_float32_gap_runs_in_double_precision(self, throw_env):
        # the scales are kept as Python floats: a float32 one made g a float32
        gap = RealityGap(np.float32(1.1), link_scale=np.float32(1.05))
        twin = RealityGap(float(np.float32(1.1)), link_scale=float(np.float32(1.05)))
        assert type(gap.gravity_scale) is float and type(gap.link_scale) is float
        values = np.random.default_rng(6).uniform(-1.0, 1.0, (20, throw_env.dim_params))
        got, want = (execute_batch(throw_env, g, values)[0] for g in (gap, twin))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("call", [
        lambda env, theta: execute(env, NOMINAL_GAP, theta),
        lambda env, theta: collides(env, theta, Obstacle(center=(50.0, 1.0), width=0.5, height=2.0)),
        lambda env, theta: quality(env, theta, Outcome(values=np.zeros(2))),
    ], ids=["execute", "collides", "quality"])
    def test_dimension_mismatch(self, throw_env, call):
        with pytest.raises(DimensionError):
            call(throw_env, make_params(np.zeros(14)))


class TestExecuteJoystick:
    def test_no_contact_gives_zero_valid(self, joystick_env):
        out = execute(joystick_env, NOMINAL_GAP, zero_theta(joystick_env))
        assert out.valid
        assert np.array_equal(out.values, [0.0, 0.0])

    def test_outcome_within_tilt_limits(self, joystick_env):
        rng = np.random.default_rng(7)
        for _ in range(100):
            out = execute(joystick_env, NOMINAL_GAP, random_params(joystick_env, rng))
            assert np.all(np.abs(out.values) <= joystick_env.max_tilt + 1e-12)


class TestCollides:
    def test_obstacle_outside_workspace(self, throw_env):
        wall = Obstacle(center=(50.0, 1.0), width=0.5, height=2.0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = random_params(throw_env, rng)
            assert not collides(throw_env, theta, wall)

    def test_wall_on_flight_path_detected(self, throw_env):
        rng = np.random.default_rng(9)
        tested = 0
        for _ in range(50):
            theta = random_params(throw_env, rng)
            out = execute(throw_env, NOMINAL_GAP, theta)
            if not out.valid or abs(out.values[0]) < 0.5:
                continue
            # place a tall wall halfway to the landing x, spanning the ground
            wall = Obstacle(center=(out.values[0] / 2.0, 1.5), width=0.2, height=3.0)
            pos, _ = _oracle_gripper(
                throw_env, NOMINAL_GAP, *_oracle_joints(throw_env, theta, throw_env.duration)
            )
            crosses = (pos[0] - wall.center[0]) * (out.values[0] - wall.center[0]) < 0
            if crosses:
                assert collides(throw_env, theta, wall)
                tested += 1
        assert tested > 3

    def test_translated_wall_misses(self, throw_env):
        rng = np.random.default_rng(10)
        theta = random_params(throw_env, rng)
        out = execute(throw_env, NOMINAL_GAP, theta)
        wall = Obstacle(center=(out.values[0] / 2.0, 11.5), width=0.2, height=3.0)
        assert not collides(throw_env, theta, wall)

    def test_one_arm_sample_decides(self, throw_env):
        # SWING tilts the arm at 1 rad/s, its tip moving 1 cm per time sample;
        # a 4 mm wall round the tip at the odd sample 51 meets no other
        # sample, and the flight leaves from the far side of the swing
        theta = new_params(throw_env, SWING)
        times = _oracle_times(throw_env)

        def arm(t):
            return _oracle_arm_points(throw_env, NOMINAL_GAP, _oracle_joints(throw_env, theta, t)[0])

        xs, zs = arm(times[51])
        wall = Obstacle(center=(xs[-1], zs[-1]), width=0.004, height=0.004)
        assert [t for t in times if np.any(wall.contains(*arm(t)))] == [times[51]]
        assert collides(throw_env, theta, wall)

    def test_last_flight_sample_decides(self, throw_env):
        # the flight is sampled every step up to the first sample at or past
        # landing; a wall round that sample meets no earlier one, and a wall
        # round the step after it, below ground, meets no sample
        theta = new_params(throw_env, SWING)
        pos, vel = _oracle_gripper(
            throw_env, NOMINAL_GAP, *_oracle_joints(throw_env, theta, throw_env.duration)
        )
        g, step = throw_env.gravity, throw_env.step
        _, t_land = _oracle_landing(pos, vel, g)
        ts = np.arange(0.0, t_land + step + step, step)   # and the step after
        assert ts[-2] >= t_land > ts[-3]
        xs = pos[0] + vel[0] * ts
        zs = pos[2] + vel[2] * ts - 0.5 * g * ts * ts
        size = math.hypot(xs[-2] - xs[-3], zs[-2] - zs[-3]) / 2
        wall = Obstacle(center=(xs[-2], zs[-2]), width=size, height=size)
        assert not np.any(wall.contains(xs[:-2], zs[:-2]))
        assert collides(throw_env, theta, wall)
        after = Obstacle(center=(xs[-1], zs[-1]), width=size, height=size)
        assert zs[-1] < 0 and not np.any(after.contains(xs[:-1], zs[:-1]))
        assert not collides(throw_env, theta, after)

    def test_long_flight_takes_little_memory(self, throw_env):
        # under gravity_scale 1e-5 RISE flies for about 6,350 s, some 635,000
        # samples, which an np.arange over the whole flight held at once, in
        # tens of MB; walls round sample 300,000 and 10 m above it
        gap = RealityGap(gravity_scale=1e-5)
        theta = new_params(throw_env, RISE)
        pos, vel = _oracle_gripper(throw_env, gap, *_oracle_joints(throw_env, theta, throw_env.duration))
        g, t = throw_env.gravity * gap.gravity_scale, 300_000 * throw_env.step
        x, z = pos[0] + vel[0] * t, pos[2] + vel[2] * t - 0.5 * g * t * t
        tracemalloc.start()
        try:
            hit = collides(throw_env, theta, Obstacle((x, z), 0.5, 0.5), gap)
            miss = collides(throw_env, theta, Obstacle((x, z + 10.0), 0.5, 0.5), gap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hit and not miss
        assert peak < 1_000_000

    def test_vertical_flight_beside_the_wall_is_not_scanned(self, throw_env):
        # the zero controller releases the ball at rest at (0, 0, 1.8); under
        # gravity_scale 1e-8 it falls for some 600,000 samples, each at x = 0,
        # none of which a wall 5 m to the side can meet
        gap = RealityGap(gravity_scale=1e-8)
        theta = zero_theta(throw_env)
        beside = Obstacle((5.0, 1.0), 0.5, 2.0)
        with mock.patch.object(Obstacle, "contains", autospec=True, side_effect=Obstacle.contains) as contains:
            assert not collides(throw_env, theta, beside, gap)
        assert contains.call_count == 2   # the arm sweep's base joint and link ends
        # walls across x = 0: one round the arm, one below the base that
        # only the fall reaches
        across, below = Obstacle((0.0, 1.0), 0.5, 0.5), Obstacle((0.0, 0.4), 0.5, 0.5)
        assert collides(throw_env, theta, across, gap) and collides(throw_env, theta, below, gap)
        for wall in (beside, across, below):
            assert collides(throw_env, theta, wall, gap) == _oracle_collides(throw_env, theta, wall, gap)

    def test_flight_below_the_wall_is_not_scanned(self, throw_env):
        # the zero controller's ball falls from (0, 0, 1.8) straight under a
        # wall whose bottom edge is at 4.5 m: 150 contains calls, one per
        # chunk of its samples, when only x windowed the flight
        gap = RealityGap(gravity_scale=1e-8)
        theta = zero_theta(throw_env)
        above = Obstacle((0.0, 5.0), 0.5, 1.0)
        with mock.patch.object(Obstacle, "contains", autospec=True, side_effect=Obstacle.contains) as contains:
            assert not collides(throw_env, theta, above, gap)
        assert contains.call_count == 2   # the arm sweep's base joint and link ends
        assert not _oracle_collides(throw_env, theta, above, gap)

    def test_flight_starts_from_the_release_execute_computes(self, throw_env):
        # collides reads the release from its sweep's last sample; a wall out
        # of reach lets every valid release through to _flight_hits
        values, wall = _golden_release_cases(), Obstacle((50.0, 1.0), 0.5, 2.0)
        for gap in GAPS:
            ((x, _), z), ((vx, _), vz) = sim._release(throw_env, gap, values)
            valid = execute_batch(throw_env, gap, values)[1]
            with mock.patch.object(sim, "_flight_hits", autospec=True, return_value=False) as hits:
                for row in values:
                    assert not collides(throw_env, new_params(throw_env, row), wall, gap)
            starts = [call.args[1:3] for call in hits.call_args_list]
            assert starts == [((x[i], z[i]), (vx[i], vz[i])) for i in np.flatnonzero(valid)]

    @pytest.mark.parametrize("pos, vel, g, wall", [
        # the exact apex lies below the wall's bottom edge, but the computed
        # height of the highest sample rounds up onto the edge
        ((0.847768723006801, 1.5705026599231042), (0.0, 2.9945024932410584), 9.81 * 1e-3,
         Obstacle((0.8140834628501767, 458.9126332209137), 0.4492607853791782, 0.6123771233150193)),
        # under gravity this small the height of the apex overflows
        ((0.0, 1.0), (1.0, 1.0), 9.81 * 1e-322, Obstacle((0.5, 1.5), 0.2, 0.2)),
    ], ids=["apex-rounds-up", "apex-overflows"])
    def test_height_window_keeps_every_sample_in_the_wall(self, pos, vel, g, wall):
        step = 0.01
        with np.errstate(over="ignore"):   # the second flight lands at t = inf
            t_land = float(sim._landing_time(pos[1], vel[1], g))
            assert sim._flight_hits(wall, pos, vel, g, step)
        ts = np.arange(0.0, min(t_land, 1000.0) + step, step)   # np.arange's samples, the first 1,000 s
        assert np.any(wall.contains(pos[0] + vel[0] * ts, pos[1] + vel[1] * ts - 0.5 * g * ts * ts))

    @pytest.mark.parametrize("center", [(0.5,), (0.5, 1.0, 2.0), (), 0.5, ((0.5, 1.0),)],
                             ids=["one", "three", "empty", "scalar", "nested"])
    def test_obstacle_center_must_have_two_values(self, center):
        # one or three values used to fail only inside contains, unpacking
        with pytest.raises(DimensionError, match="^center must have 2 values"):
            Obstacle(center=center, width=0.5, height=3.0)

    @pytest.mark.parametrize("center", [[0.5, 1.0], np.array([0.5, 1.0])], ids=["list", "array"])
    def test_walls_compare_and_hash_by_value(self, center):
        # the center used to be kept as given: an ndarray made == raise, and a
        # list or an ndarray made hash raise
        wall, twin = Obstacle(center, 0.5, 3.0), Obstacle((0.5, 1.0), 0.5, 3.0)
        assert wall == twin and len({wall, twin}) == 1
        assert wall.center == (0.5, 1.0) and all(type(c) is float for c in wall.center)


class TestQuality:
    def test_constant_trajectory_max_quality(self, throw_env):
        theta = zero_theta(throw_env)
        out = execute(throw_env, NOMINAL_GAP, theta)
        assert quality(throw_env, theta, out) == 0.0

    def test_linear_trajectory_zero_acceleration(self, throw_env):
        values = np.zeros(15)
        values[0] = 0.5
        theta = new_params(throw_env, values)
        out = execute(throw_env, NOMINAL_GAP, theta)
        assert quality(throw_env, theta, out) == 0.0

    def test_quadratic_integral_oracle(self, throw_env):
        # q(t) = t^2 on one joint: integral of (2)^2 over [0,1] = 4
        values = np.zeros(15)
        values[1] = 1.0
        theta = new_params(throw_env, values)
        out = execute(throw_env, NOMINAL_GAP, theta)
        assert quality(throw_env, theta, out) == pytest.approx(-4.0)

    def test_matches_numeric_quadrature(self, throw_env):
        rng = np.random.default_rng(12)
        for _ in range(10):
            theta = random_params(throw_env, rng)
            out = execute(throw_env, NOMINAL_GAP, theta)
            if not out.valid:
                continue
            a2 = theta.values.reshape(5, 3)[:, 1]
            a3 = theta.values.reshape(5, 3)[:, 2]
            ts = np.linspace(0, 1, 20001)
            acc = 2 * a2[:, None] + 6 * a3[:, None] * ts[None, :]
            numeric = -np.trapezoid(np.sum(acc**2, axis=0), ts)
            assert quality(throw_env, theta, out) == pytest.approx(numeric, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308]),
                  st.floats(-1e300, 1e300)),
        min_size=15, max_size=15))
    @example(values=[-0.0] * 15)
    @example(values=[0.0, 1e300, 0.0] * 5)   # squares overflow: -inf
    @example(values=[0.0, 1e300, -1e300] * 5)   # terms of both signs overflow: NaN
    def test_throw_quality_is_numpys_bit_for_bit(self, throw_env, values):
        """Throw quality in Python floats has the bits of the NumPy form it
        replaced, the oracle here: ±0.0, subnormals, and under infinite
        bounds magnitudes whose squares overflow, where it reads -inf, and
        NaN when overflowing terms of both signs meet.  Unlike the oracle it
        warns of no overflow, which the suite would raise."""
        theta = ControllerParams(values, np.tile([-np.inf, np.inf], (15, 1)))
        coeffs = theta.values.reshape(5, 3)
        a2, a3, t = coeffs[:, 1], coeffs[:, 2], throw_env.duration
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = -float(np.sum(4*a2*a2*t + 12*a2*a3*t*t + 12*a3*a3*t**3))
        got = quality(throw_env, theta, Outcome(np.zeros(2)))
        assert np.float64(got).tobytes() == np.float64(oracle).tobytes()

    def test_joystick_quality_seeded(self, joystick_env):
        rng = np.random.default_rng(13)
        theta = random_params(joystick_env, rng)
        out = execute(joystick_env, NOMINAL_GAP, theta)
        q1 = quality(joystick_env, theta, out, seed=5)
        q2 = quality(joystick_env, theta, out, seed=5)
        assert q1 == q2
        assert q1 <= 0.0


class TestRenderFrame:
    def test_frame_invariants(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            grid = render_frame(rng.uniform(0.0, 1.0, 2), rng.uniform(0.15, 0.85, 2))
            assert grid.shape == (16, 16)
            assert grid.min() >= 0.0 and grid.max() <= 1.0
            # gripper blob is the brightest content
            assert grid.max() > 0.25


class TestTransferTasks:
    def zero_policy(self):
        return [np.zeros(s) for s in sim._POLICY_SHAPES]

    def test_zero_policy_static_return(self):
        for kind in ("pusherlike", "throwerlike", "strikerlike"):
            ret = transfer_task(kind, self.zero_policy(), seed=21)
            assert ret == pytest.approx(_static_return(kind, 21))

    def test_determinism(self):
        rng = np.random.default_rng(16)
        layers = [rng.normal(size=s) for s in sim._POLICY_SHAPES]
        r1 = transfer_task("strikerlike", layers, seed=3)
        r2 = transfer_task("strikerlike", layers, seed=3)
        assert r1 == r2

    def test_scripted_proportional_beats_zero(self):
        scripted = _scripted_pusher_policy()
        for seed in range(5):
            zero = transfer_task("pusherlike", self.zero_policy(), seed=seed)
            prop = transfer_task("pusherlike", scripted, seed=seed)
            assert prop > zero

    def test_flatten_roundtrip(self):
        rng = np.random.default_rng(17)
        layers = [rng.normal(size=s) for s in sim._POLICY_SHAPES]
        again = sim.unflatten_policy(np.concatenate([w.ravel() for w in layers]))
        for a, b in zip(layers, again):
            assert np.array_equal(a, b)

    def test_unflatten_needs_128_values(self):
        with pytest.raises(DimensionError, match="127"):
            sim.unflatten_policy(np.zeros(127))


def _scripted_pusher_policy():
    # steer the hand to a point slightly behind the puck, seen from the goal
    w1 = np.zeros((6, 16))
    w1[0, 0] = w1[1, 1] = 2.0   # puck - hand
    w1[2, 2] = w1[3, 3] = 2.0   # goal - puck
    w2 = np.zeros((16, 2))
    w2[0, 0] = w2[1, 1] = 1.0
    w2[2, 0] = w2[3, 1] = -0.1
    return [w1, w2]


# ---------------------------------------------------------------------------
# Golden oracles: the per-time-sample loops that execute, quality and
# collides ran before the batched path, copied with the scalar kinematics
# they called, so that they depend on nothing the batched path changed
# ---------------------------------------------------------------------------

def _oracle_joints(env, theta, t):
    coeffs = theta.values.reshape(sim.N_JOINTS, 3)
    a1, a2, a3 = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    angles = np.zeros(sim.N_JOINTS) + a1 * t + a2 * t * t + a3 * t * t * t
    velocities = a1 + 2.0 * a2 * t + 3.0 * a3 * t * t
    limits = env.joint_limits
    clamped = np.clip(angles, limits[:, 0], limits[:, 1])
    return clamped, np.where(clamped == angles, velocities, 0.0)


def _oracle_gripper(env, gap, angles, velocities):
    links = env.link_lengths * gap.link_scale
    q = np.asarray(angles, dtype=float) + gap.joint_bias
    qd = np.asarray(velocities, dtype=float)
    yaw, yaw_d = q[0], qd[0]
    phi = np.cumsum(q[1:])
    phi_d = np.cumsum(qd[1:])
    r = float(np.sum(links * np.sin(phi)))
    z = env.base_height + float(np.sum(links * np.cos(phi)))
    r_d = float(np.sum(links * np.cos(phi) * phi_d))
    z_d = -float(np.sum(links * np.sin(phi) * phi_d))
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    pos = np.array([r * cos_y, r * sin_y, z])
    vel = np.array([r_d * cos_y - r * sin_y * yaw_d, r_d * sin_y + r * cos_y * yaw_d, z_d])
    return pos, vel


def _oracle_arm_points(env, gap, angles):
    links = env.link_lengths * gap.link_scale
    q = np.asarray(angles, dtype=float) + gap.joint_bias
    phi = np.cumsum(q[1:])
    r = np.concatenate([[0.0], np.cumsum(links * np.sin(phi))])
    z = env.base_height + np.concatenate([[0.0], np.cumsum(links * np.cos(phi))])
    return r * math.cos(q[0]), z


def _oracle_landing(pos, vel, gravity):
    if pos[2] < 0:
        return None
    t_land = (vel[2] + math.sqrt(vel[2] * vel[2] + 2.0 * gravity * pos[2])) / gravity
    return np.array([pos[0] + vel[0] * t_land, pos[1] + vel[1] * t_land]), t_land


def _oracle_times(env):
    return np.linspace(0.0, env.duration, int(round(env.duration / env.step)) + 1)


def _oracle_execute(env, gap, theta):
    if env.kind == "throw":
        pos, vel = _oracle_gripper(env, gap, *_oracle_joints(env, theta, env.duration))
        landing = _oracle_landing(pos, vel, env.gravity * gap.gravity_scale)
        if landing is None:
            return Outcome.invalid(2)
        return Outcome(values=landing[0])
    stick = env.joystick_pos
    best_depth = -1.0
    best_disp = None
    for t in _oracle_times(env):
        pos, _ = _oracle_gripper(env, gap, *_oracle_joints(env, theta, t))
        depth = env.joystick_radius - float(np.linalg.norm(pos - stick))
        if depth > best_depth and depth > 0:
            best_depth = depth
            best_disp = pos[:2] - stick[:2]
    if best_disp is None:
        return Outcome(values=np.zeros(2))
    return Outcome(values=env.max_tilt * np.clip(env.joystick_gain * best_disp, -1.0, 1.0))


def _oracle_quality(env, theta, outcome, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    b = theta.bounds
    sigma = env.perturb_sigma * (b[:, 1] - b[:, 0])
    dev = 0.0
    for _ in range(env.perturb_count):
        noisy = clamp(ControllerParams(theta.values + rng.normal(0.0, sigma), theta.bounds))
        out = _oracle_execute(env, NOMINAL_GAP, noisy)
        dev += float(np.linalg.norm(out.values - outcome.values))
    return -dev / env.perturb_count


def _oracle_collides(env, theta, wall, gap):
    for t in _oracle_times(env):
        xs, zs = _oracle_arm_points(env, gap, _oracle_joints(env, theta, t)[0])
        if np.any(wall.contains(xs, zs)):
            return True
    pos, vel = _oracle_gripper(env, gap, *_oracle_joints(env, theta, env.duration))
    g = env.gravity * gap.gravity_scale
    landing = _oracle_landing(pos, vel, g)
    if landing is None:
        return False
    ts = np.arange(0.0, landing[1] + env.step, env.step)
    return bool(np.any(wall.contains(pos[0] + vel[0] * ts, pos[2] + vel[2] * ts - 0.5 * g * ts * ts)))


# A non-nominal gap, as the adaptation benchmark uses
GAP = RealityGap(gravity_scale=1.1, joint_bias=[0.03, -0.03, 0.04, -0.02, 0.02], link_scale=1.05)
GAPS = (NOMINAL_GAP, GAP)

# Joint 1 tilting the whole arm at 1 rad/s from upright: a valid throw
SWING = np.zeros(15)
SWING[3] = 1.0

# Joint 1 at its limit and joint 2 bent on: the throw release is below ground
BELOW_GROUND = np.zeros(15)
BELOW_GROUND[3:6] = 1.0
BELOW_GROUND[6:9] = 0.2

# Joint 1 leaning back at -0.4 rad and swinging forward at 0.8 rad/s: the
# ball leaves upward, at 0.31 m/s, 1.72 m above the ground
RISE = np.zeros(15)
RISE[3], RISE[5] = -1.0, 0.6

# A low gravity, so that a flight spans thousands of samples
LOW_GRAVITY = RealityGap(gravity_scale=0.01)


@functools.lru_cache(maxsize=None)
def _joystick_contacts() -> np.ndarray:
    """Uniform random joystick controllers that touch the stick (about 0.7%: 9 of these 1,000 draws)."""
    env = make_env("joystick")
    draws = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, env.dim_params))
    outs, _ = execute_batch(env, NOMINAL_GAP, draws)
    return draws[np.any(outs != 0.0, axis=1)]


@st.composite
def controllers(draw, kind):
    """Coefficient vectors in the bounds: uniform, or near a joystick contact
    or a throw released below ground, where the outcome changes character,
    or a throw released above ground with joints held at their limits."""
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15)))
    if not draw(st.booleans()):
        return values
    if kind == "throw" and draw(st.booleans()):
        # joints 1 and 2 kept within 0.9 rad, so that the release stays above
        # ground, and some of joints 0, 3 and 4 driven past their 2.5 rad
        # limit by the release, where they are held with rate 0
        values[3:9] *= 0.3
        for joint in draw(st.sets(st.sampled_from([0, 3, 4]), min_size=1)):
            coefficients = draw(st.lists(st.floats(0.84, 1.0), min_size=3, max_size=3))
            values[3 * joint:3 * joint + 3] = draw(st.sampled_from([-1.0, 1.0])) * np.array(coefficients)
        return values
    if kind == "joystick":
        contacts = _joystick_contacts()
        base = contacts[draw(st.integers(0, len(contacts) - 1))]
    else:
        base = BELOW_GROUND
    return np.clip(base + draw(st.sampled_from([0.0, 0.02, 0.1, 0.3])) * values, -1.0, 1.0)


def assert_outcomes_agree(got, want):
    assert got.valid == want.valid
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)


class TestBatchedPathMatchesOracles:
    def test_screen_finds_contacts(self):
        assert len(_joystick_contacts()) >= 5

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_execute(self, data):
        kind = data.draw(st.sampled_from(sim.SKILL_KINDS), label="kind")
        gap = data.draw(st.sampled_from(GAPS), label="gap")
        env = make_env(kind)
        theta = new_params(env, data.draw(controllers(kind), label="values"))
        assert_outcomes_agree(execute(env, gap, theta), _oracle_execute(env, gap, theta))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_time_of_an_array_is_that_time_alone(self, data, throw_env):
        # the poses of three controllers at the drawn times, then at their
        # release, as collides joins them: each column of the kinematics is
        # that column alone, and the rates of the last three are the
        # release's alone; the draws hold joints past their limits, where
        # the rate is 0
        gap = data.draw(st.sampled_from(GAPS), label="gap")
        values = np.array([data.draw(controllers("throw"), label="values") for _ in range(3)])
        times = np.array(data.draw(st.lists(st.floats(0.0, throw_env.duration), min_size=1, max_size=8),
                                   label="times"))
        a = sim._coefficients(values)
        rates = sim._release_rates(a)
        poses = np.concatenate((sim._cubic(a[..., None], times).reshape(sim.N_JOINTS, -1),
                                sim._release_angles(a)), axis=1)
        *swept, qd = sim._arm(throw_env, gap, poses, rates)
        for k in range(poses.shape[1]):
            alone = sim._arm(throw_env, gap, poses[:, k:k + 1])
            for got, want in zip(swept, alone):
                assert got[..., k:k + 1].tobytes() == want.tobytes()
        release = sim._arm(throw_env, gap, poses[:, -3:], rates)
        assert qd.tobytes() == release[-1].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_joystick_quality(self, data, joystick_env):
        gap = data.draw(st.sampled_from(GAPS), label="gap")
        theta = new_params(joystick_env, data.draw(controllers("joystick"), label="values"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        out = execute(joystick_env, gap, theta)
        got = quality(joystick_env, theta, out, seed=seed)
        assert got == pytest.approx(_oracle_quality(joystick_env, theta, out, seed), rel=0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_collides(self, data, throw_env):
        gap = data.draw(st.sampled_from(GAPS + (LOW_GRAVITY,)), label="gap")
        theta = new_params(throw_env, data.draw(controllers("throw"), label="values"))
        wall = Obstacle(
            center=(data.draw(st.floats(-1.5, 1.5)), data.draw(st.floats(-0.5, 2.5))),
            width=data.draw(st.floats(0.01, 1.0)),
            height=data.draw(st.floats(0.01, 3.0)),
        )
        assert collides(throw_env, theta, wall, gap) == _oracle_collides(throw_env, theta, wall, gap)

    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("kind", sim.SKILL_KINDS)
    def test_batch_row_is_execute(self, kind, gap):
        env = make_env(kind)
        rng = np.random.default_rng(18)
        values = rng.uniform(-1.0, 1.0, (40, env.dim_params))
        values[::4, :3] = 0.0   # the base yaw held at 0: a throw may land at y = -0.0
        special = _joystick_contacts()[:5] if kind == "joystick" else np.tile(BELOW_GROUND, (3, 1))
        values = np.concatenate([values[:20], special, values[20:]])
        outcomes, valid = execute_batch(env, gap, values)
        assert outcomes.shape == (len(values), 2) and valid.shape == (len(values),)
        for row, out, ok in zip(values, outcomes, valid):
            one = execute(env, gap, new_params(env, row))
            assert out.tobytes() == one.values.tobytes() and ok == one.valid   # -0.0 too
        if kind == "throw":
            assert not valid[20:23].any() and valid.sum() >= 40
            assert np.array_equal(outcomes[20:23], np.zeros((3, 2)))
        else:
            assert valid.all() and np.any(outcomes[20:25] != 0.0)

    def test_nan_release_is_not_reported_invalid(self, throw_env):
        # a NaN release height is no release below ground: the landing stays
        # valid and NaN, so execute refuses the non-finite outcome, as the
        # scalar path did
        with released([0.0, 0.0, math.nan], [1.0, 0.0, 0.0]):
            landing, valid = execute_batch(throw_env, NOMINAL_GAP, np.zeros((1, 15)))
            with pytest.raises(ValueError, match="non-finite"):
                execute(throw_env, NOMINAL_GAP, zero_theta(throw_env))
        assert valid[0]
        assert np.isnan(landing).all()

    @pytest.mark.parametrize("batch", [0, 1, 64])
    @pytest.mark.parametrize("kind", sim.SKILL_KINDS)
    def test_outcomes_are_rows_in_c_order(self, kind, batch):
        # the throw landing is formed as (x, y) rows: callers still get
        # (B, 2) float rows in C order, not a transposed view
        values = np.random.default_rng(19).uniform(-1.0, 1.0, (batch, 15))
        outcomes, valid = execute_batch(make_env(kind), NOMINAL_GAP, values)
        assert outcomes.dtype == np.float64 and outcomes.shape == (batch, 2) and outcomes.flags.c_contiguous
        assert valid.dtype == np.bool_ and valid.shape == (batch,) and valid.flags.c_contiguous

    @pytest.mark.parametrize("kind", sim.SKILL_KINDS)
    def test_empty_batch(self, kind):
        outcomes, valid = execute_batch(make_env(kind), NOMINAL_GAP, np.empty((0, 15)))
        assert outcomes.shape == (0, 2) and valid.shape == (0,)


# ---------------------------------------------------------------------------
# Golden digest of the sampled sweeps: the joystick outcomes and quality and
# the collides results, as bytes, so that a change to the time grid or to
# the kernels of a sweep must leave every bit of them, sign of zero included
# ---------------------------------------------------------------------------

# Walls within the arm's reach, beyond it, where only a flight can meet
# them, and at the top of the nominal reach, which the longer links of GAP
# cross
SWEEP_WALLS = (
    Obstacle((0.5, 1.2), 0.1, 0.4),
    Obstacle((-0.6, 0.8), 0.2, 0.6),
    Obstacle((1.4, 0.4), 0.6, 0.8),
    Obstacle((-1.4, 0.4), 0.6, 0.8),
    Obstacle((0.0, 1.85), 0.4, 0.1),
)
REACH = 1.05   # the horizontal reach of GAP's links, the longest


def _golden_sweep_cases():
    """(joystick controllers, (controller, outcome) pairs for quality, throw
    controllers) from a fixed seed: uniform draws and draws near a joystick
    contact or a throw released below ground."""
    rng = np.random.default_rng(2005)
    contacts = _joystick_contacts()
    near = contacts[rng.integers(len(contacts), size=100)]
    near = np.clip(near + rng.choice([0.0, 0.02, 0.1, 0.3], (100, 1)) * rng.uniform(-1, 1, (100, 15)), -1, 1)
    joystick = np.concatenate([rng.uniform(-1, 1, (200, 15)), near])
    scored = np.concatenate([joystick[:10], near[:10]])
    outcomes, _ = execute_batch(make_env("joystick"), NOMINAL_GAP, scored)
    below = np.clip(BELOW_GROUND + rng.choice([0.02, 0.1, 0.3], (20, 1)) * rng.uniform(-1, 1, (20, 15)), -1, 1)
    throw = np.concatenate([rng.uniform(-1, 1, (150, 15)), below])
    return joystick, list(zip(scored, outcomes)), throw


@functools.lru_cache(maxsize=None)
def _golden_sweep_results():
    """(joystick outcomes and validity under each gap, joystick quality at
    seeds 0-9, collides of each throw controller at each wall and gap)."""
    joystick_env, throw_env = make_env("joystick"), make_env("throw")
    joystick, scored, throw = _golden_sweep_cases()
    batches = [execute_batch(joystick_env, gap, joystick) for gap in GAPS]
    qualities = [quality(joystick_env, new_params(joystick_env, values), Outcome(out), seed)
                 for seed in range(10) for values, out in scored]
    hits = [[[collides(throw_env, new_params(throw_env, values), wall, gap) for values in throw]
             for wall in SWEEP_WALLS] for gap in GAPS]
    return batches, np.array(qualities), np.array(hits)


def _batch_bytes(batches) -> bytes:
    """The outcomes and validity of (outcomes, valid) pairs, as bytes."""
    return b"".join(array.astype(dtype).tobytes() for outcomes, valid in batches
                    for array, dtype in ((outcomes, "<f8"), (valid, "u1")))


def _sweep_digest(batches, qualities, hits) -> str:
    parts = [_batch_bytes(batches), qualities.astype("<f8").tobytes(), hits.astype("u1").tobytes()]
    return hashlib.sha256(b"".join(parts)).hexdigest()


# sha256 of _golden_sweep_results, recorded while execute_batch and collides
# still evaluated joint velocities at every time sample.  Like the transfer
# digest below, it pins the low bits: a NumPy build that moves them needs a
# new digest, checked first against the oracle properties above.
GOLDEN_SWEEP_SHA256 = "e752ea4c9d26e77081f22c2bc6e92363722528150327dcb544ab7ab8b94fc4e4"


class TestSweepDigest:
    def test_cases_hold_contacts_hits_and_misses(self):
        batches, qualities, hits = _golden_sweep_results()
        for outcomes, valid in batches:
            assert valid.all() and 50 <= np.any(outcomes != 0.0, axis=1).sum() < len(outcomes)
        assert np.any(qualities < 0.0) and np.any(qualities == 0.0)
        beyond = [abs(wall.center[0]) - wall.width / 2 > REACH for wall in SWEEP_WALLS]
        assert hits[:, beyond].any() and hits[:, [not b for b in beyond]].any()
        assert not hits.all(axis=(0, 1)).any() and not hits[:, beyond].all()
        assert (hits[0] != hits[1]).any()   # the gap moves some results

    def test_results_match_the_golden_digest(self):
        assert _sweep_digest(*_golden_sweep_results()) == GOLDEN_SWEEP_SHA256

    def test_sample_times_are_one_read_only_grid(self, joystick_env):
        # every sweep reads the same array, so no caller may write to it
        times = sim._SAMPLE_TIMES
        assert times.tobytes() == _oracle_times(joystick_env).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            times[0] = 0.5


# ---------------------------------------------------------------------------
# Golden digest of the throw release: the landing points and validity of
# execute_batch under every gap, as bytes, sign of zero included
# ---------------------------------------------------------------------------

def _golden_release_cases() -> np.ndarray:
    """Throw controllers from a fixed seed: uniform draws, draws near a
    release below ground, rows with joints held at their limits, and rows
    that move the base yaw alone, whose landings hold signed zeros."""
    rng = np.random.default_rng(2006)
    below = np.clip(BELOW_GROUND + rng.choice([0.0, 0.02, 0.1, 0.3], (60, 1)) * rng.uniform(-1, 1, (60, 15)),
                    -1, 1)
    yaw_only = np.zeros((20, 15))
    yaw_only[:, :3] = rng.uniform(-1, 1, (20, 3))
    return np.concatenate([rng.uniform(-1, 1, (240, 15)), below, rng.choice([-1.0, 0.0, 1.0], (20, 15)),
                           yaw_only])


@functools.lru_cache(maxsize=None)
def _golden_release_results():
    """execute_batch of the release cases under each gap."""
    throw_env = make_env("throw")
    return [execute_batch(throw_env, gap, _golden_release_cases()) for gap in GAPS]


# sha256 of _golden_release_results, recorded while the throw release was
# still evaluated joint-last, one row of joint angles per controller at
# env.duration
GOLDEN_RELEASE_SHA256 = "e8296c810ba18c5ff0a84ea560903db83a3b4500ed4536dee4c5584997a5e0de"


class TestReleaseDigest:
    def test_cases_hold_valid_invalid_and_negative_zero_landings(self):
        for outcomes, valid in _golden_release_results():
            assert 20 <= (~valid).sum() < len(valid) - 200
            assert not outcomes[~valid].any()
        nominal, _ = _golden_release_results()[0]
        assert np.signbit(nominal[nominal == 0.0]).any()

    def test_results_match_the_golden_digest(self):
        digest = hashlib.sha256(_batch_bytes(_golden_release_results())).hexdigest()
        assert digest == GOLDEN_RELEASE_SHA256


# ---------------------------------------------------------------------------
# Golden oracle of the transfer rollout: the NumPy loop transfer_task ran
# before it moved to Python floats, copied with its own _policy_action
# ---------------------------------------------------------------------------

TRANSFER_STEPS, _HAND_STEP, _CONTACT_RADIUS = sim.TRANSFER_STEPS, sim._HAND_STEP, sim._CONTACT_RADIUS


def _policy_action(layers, state) -> np.ndarray:
    h = np.tanh(state @ layers[0])
    return np.tanh(h @ layers[1])


def _oracle_transfer_task(kind, policy_layers, seed=0):
    layers = [np.asarray(w, dtype=float) for w in policy_layers]
    hand, puck, goal = np.array(sim._transfer_start(kind, seed)).reshape(3, 2)
    puck_vel = np.zeros(2)
    struck = False
    for _ in range(TRANSFER_STEPS):
        state = np.concatenate([puck - hand, goal - puck, hand])
        step = _policy_action(layers, state) * _HAND_STEP
        hand = np.clip(hand + step, 0.0, 1.0)
        gap_vec = puck - hand
        gap_norm = float(np.linalg.norm(gap_vec))
        push = np.zeros(2)
        if 0.0 < gap_norm < _CONTACT_RADIUS:
            direction = gap_vec / gap_norm
            push = max(0.0, float(step @ direction)) * direction
        if kind == "pusherlike":
            puck = np.clip(puck + push, 0.0, 1.0)
        elif kind == "throwerlike":
            puck_vel = puck_vel + 0.7 * push
            puck = np.clip(puck + puck_vel, 0.0, 1.0)
            puck_vel *= 0.9
        else:  # strikerlike
            if not struck and np.any(push != 0.0):
                puck_vel = 4.0 * push
                struck = True
            puck = np.clip(puck + puck_vel, 0.0, 1.0)
            puck_vel *= 0.98
    return -float(np.linalg.norm(puck - goal))


def _oracle_states(kind, layers, seed) -> np.ndarray:
    """The (TRANSFER_STEPS, 6) states (puck - hand, goal - puck, hand) the
    oracle's policy sees, one row per step."""
    with mock.patch.object(sys.modules[__name__], "_policy_action", wraps=_policy_action) as spy:
        _oracle_transfer_task(kind, layers, seed)
    return np.array([call.args[1] for call in spy.call_args_list])


def _random_policy(rng, scale):
    return [scale * rng.normal(size=shape) for shape in sim._POLICY_SHAPES]


def _noisy_pusher(rng, noise):
    return [w + noise * rng.normal(size=w.shape) for w in _scripted_pusher_policy()]


def _drive_up_policy():
    # steps the hand at the far wall (+y), where the clip holds it
    w1, w2 = np.zeros((6, 16)), np.zeros((16, 2))
    w1[5, 0], w2[0, 1] = 1.0, 10.0
    return [w1, w2]


def _static_return(kind, seed):
    """The return of a rollout that never moves the puck."""
    _, puck, goal = np.array(sim._transfer_start(kind, seed)).reshape(3, 2)
    return -float(np.linalg.norm(puck - goal))


def _strike_step(kind, layers, seed, states):
    """The step on which a strikerlike rollout strikes the puck, TRANSFER_STEPS
    if it never does.  The states show a strike on any step but the last,
    the return one on the last."""
    moved = np.flatnonzero(np.any(states[1:, 2:4] != states[:-1, 2:4], axis=1))
    if len(moved):
        return int(moved[0])
    if _oracle_transfer_task(kind, layers, seed) != _static_return(kind, seed):
        return TRANSFER_STEPS - 1
    return TRANSFER_STEPS


def _is_fixed(kind, states):
    """True when a pusherlike rollout reaches a state no later step changes:
    its puck has no velocity, so two equal states in a row are one."""
    return kind == "pusherlike" and bool(np.any(np.all(states[1:] == states[:-1], axis=1)))


def _last_step_strike(seed):
    """(layers, states) of the scripted pusher slowed until its strikerlike
    strike comes on the last step, found by bisecting the scale of its
    output layer; None if no scale gives one."""
    w1, w2 = _scripted_pusher_policy()
    slow, fast = 0.0, 1.0   # scales that strike never and before the last step
    for _ in range(30):
        mid = (slow + fast) / 2
        layers = [w1, mid * w2]
        states = _oracle_states("strikerlike", layers, seed)
        step = _strike_step("strikerlike", layers, seed, states)
        if step == TRANSFER_STEPS - 1:
            return layers, states
        if step == TRANSFER_STEPS:
            slow = mid
        else:
            fast = mid
    return None


@functools.lru_cache(maxsize=None)
def _transfer_screen():
    """Rollouts (kind, layers, seed, states) that move the puck, screened
    from random policies, of which about 5-10% touch it, and the scripted
    pusher with noise.  The goal is fixed, so the puck has moved when
    goal - puck changes between steps.

    Cases that exercise strikes and the exit of transfer_task are added:
    the hand driven at the far wall mostly strikes within the first 10
    steps, and on pusherlike reaches a fixed state, mostly after pushing the
    puck; the slowed scripted pusher strikes on the last step."""
    rng = np.random.default_rng(19)
    cases = []
    for kind in sim.TRANSFER_KINDS:
        for i in range(60):
            if i % 3:
                layers = _noisy_pusher(rng, rng.choice([0.05, 0.2, 0.5, 1.0]))
            else:
                layers = _random_policy(rng, 10.0 ** rng.uniform(-1.0, 1.7))
            seed = int(rng.integers(2**32))
            states = _oracle_states(kind, layers, seed)
            if np.any(states[:, 2:4] != states[0, 2:4]):
                cases.append((kind, layers, seed, states))
    for seed in range(8):
        for kind in sim.TRANSFER_KINDS:
            layers = _drive_up_policy()
            cases.append((kind, layers, seed, _oracle_states(kind, layers, seed)))
        if found := _last_step_strike(seed):
            layers, states = found
            cases.append(("strikerlike", layers, seed, states))
    return cases


def _golden_transfer_cases():
    """(kind, layers, seed), 100 per kind from a fixed seed, a quarter each:
    random policies at weight scales of 0.05-50, the scripted pusher with
    noise, the scripted pusher with its output layer scaled by 0.25-8,
    which strikes anywhere from the first steps to never, and the hand
    driven at the far wall."""
    rng = np.random.default_rng(2005)
    cases = []
    for kind in sim.TRANSFER_KINDS:
        for i in range(100):
            if i % 4 == 0:
                layers = _random_policy(rng, 0.05 * 1000.0 ** rng.uniform())
            elif i % 4 == 1:
                layers = _noisy_pusher(rng, rng.choice([0.0, 0.01, 0.1, 0.5]))
            elif i % 4 == 2:
                w1, w2 = _scripted_pusher_policy()
                layers = [w1, 2.0 ** rng.uniform(-2.0, 3.0) * w2]
            else:
                layers = _drive_up_policy()
            cases.append((kind, layers, int(rng.integers(2**32))))
    return cases


# sha256 of the returns of _golden_transfer_cases as little-endian doubles,
# recorded while transfer_task still ran every step of every rollout.  It pins
# the low bits, so a NumPy or BLAS build that moves them needs a new digest,
# checked first against the oracle property.
GOLDEN_RETURNS_SHA256 = "3b5a123b84bcb8d79a6031d7db754f3525de2d55cce4cf1bb102326d0764d172"


@st.composite
def transfer_cases(draw):
    """(kind, layers, seed): a random policy at a weight scale of 0.05-50,
    given as two arrays or, as a search gives its candidates, as the
    unflatten_policy views of one vector; the scripted pusher with noise; or
    a case of the screen."""
    source = draw(st.sampled_from(["random", "flat", "scripted", "screen"]))
    if source == "screen":
        kind, layers, seed, _ = draw(st.sampled_from(_transfer_screen()))
        return kind, layers, seed
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if source == "random":
        layers = _random_policy(rng, draw(st.floats(0.05, 50.0)))
    elif source == "flat":
        layers = sim.unflatten_policy(draw(st.floats(0.05, 50.0)) * rng.normal(size=sim._POLICY_SIZE))
    else:
        layers = _noisy_pusher(rng, draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])))
    return draw(st.sampled_from(sim.TRANSFER_KINDS)), layers, draw(st.integers(0, 2**32 - 1))


class TestTransferRolloutMatchesOracle:
    def test_screen_finds_contacts_strikes_and_clipped_hands(self):
        cases = _transfer_screen()
        # a strikerlike puck moves only when struck
        kinds = [kind for kind, _, _, _ in cases]
        assert all(kinds.count(kind) >= 5 for kind in sim.TRANSFER_KINDS)
        hands = np.concatenate([states[:, 4:6] for _, _, _, states in cases])
        assert np.any(hands == 0.0) and np.any(hands == 1.0)

    @settings(max_examples=150, deadline=None)
    @given(case=transfer_cases())
    def test_transfer_task(self, case):
        got, want = transfer_task(*case), _oracle_transfer_task(*case)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @given(x=st.floats(allow_nan=True, allow_infinity=True))
    def test_clip_unit_is_np_clip(self, x):
        got, want = sim._clip_unit(x), float(np.clip(x, 0.0, 1.0))
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestTransferExits:
    """transfer_task stops the rollout at a fixed state, which must leave
    the return bit for bit, and nowhere else: the policy runs on every step
    before it, also after a strike, so that a rollout's cost does not depend
    on when its puck is struck."""

    def test_screen_holds_early_and_last_step_strikes_and_fixed_states(self):
        cases = _transfer_screen()
        strikes = [_strike_step(*case) for case in cases if case[0] == "strikerlike"]
        assert sum(step < 10 for step in strikes) >= 5
        assert strikes.count(TRANSFER_STEPS - 1) >= 5
        assert sum(_is_fixed(kind, states) for kind, _, _, states in cases) >= 5

    def test_policy_runs_on_every_step_after_a_strike(self):
        cases = [case for case in _transfer_screen() if case[0] == "strikerlike"]
        struck = [case for case in cases if _strike_step(*case) < 10]
        assert struck
        for kind, layers, seed, states in struck:
            with mock.patch.object(sim.np, "tanh", wraps=np.tanh) as tanh:
                transfer_task(kind, layers, seed)
            # a struck puck slides, so the rollout never reaches a fixed state
            assert tanh.call_count == 2 * TRANSFER_STEPS

    def test_returns_match_the_golden_digest(self):
        returns = np.array([transfer_task(*case) for case in _golden_transfer_cases()], dtype="<f8")
        assert hashlib.sha256(returns.tobytes()).hexdigest() == GOLDEN_RETURNS_SHA256


class TestTransferBits:
    """A rollout's return is a function of the layers' values and of nothing
    else: not of their memory layout, and not of a rollout running beside it."""

    def test_returns_do_not_depend_on_the_layout_of_the_layers(self):
        # an F-ordered or transposed layer sends ndarray.dot down another
        # BLAS path (dgemv_t for dgemv_n), with other low bits
        c_order, f_order, transposed = [], [], []
        for kind, layers, seed in _golden_transfer_cases():
            w_in, w_out = (np.ascontiguousarray(w) for w in layers)
            c_order.append(transfer_task(kind, [w_in, w_out], seed))
            f_order.append(transfer_task(kind, [np.asfortranarray(w) for w in (w_in, w_out)], seed))
            transposed.append(transfer_task(kind, [w_in.T.copy().T, w_out], seed))
        want = np.array(c_order, dtype="<f8").tobytes()
        assert np.array(f_order, dtype="<f8").tobytes() == want
        assert np.array(transposed, dtype="<f8").tobytes() == want

    def test_a_rollout_leaves_its_layers_unchanged(self):
        # the policy runs into buffers of the rollout's own: an out= or an
        # in-place tanh on a layer would change the caller's weights, and
        # C-ordered layers and the views of a flat vector reach the rollout
        # uncopied
        for kind, layers, seed in _golden_transfer_cases():
            w_in, w_out = (np.ascontiguousarray(w) for w in layers)
            flat = np.concatenate([w_in.ravel(), w_out.ravel()])
            views = sim.unflatten_policy(flat)
            assert all(np.shares_memory(w, flat) for w in views)
            for given in ([w_in, w_out], [np.asfortranarray(w) for w in (w_in, w_out)], views):
                before = [(w.tobytes(), w.flags.writeable) for w in (*given, flat)]
                transfer_task(kind, given, seed)
                assert [(w.tobytes(), w.flags.writeable) for w in (*given, flat)] == before

    def test_rollouts_in_four_threads_match_the_sequential_ones(self):
        # ndarray.dot lets go of the interpreter lock around its BLAS call,
        # so with threads switching every microsecond another rollout runs
        # while one reads its state: a state shared between calls shows in
        # the returns (two threads showed it only about once in 3,000)
        cases = _golden_transfer_cases()
        want = [transfer_task(*case) for case in cases]
        got = [None] * 4

        def run(i):
            got[i] = [transfer_task(*case) for case in cases]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(got))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * len(got)


class TestShapeChecks:
    @pytest.mark.parametrize("kind", sim.SKILL_KINDS)
    def test_arm_needs_four_link_lengths(self, kind):
        # the geometry is fixed: four read-only link lengths, and neither
        # make_env nor the instance takes another
        env = make_env(kind)
        assert env.link_lengths.shape == (sim.N_JOINTS - 1,)
        with pytest.raises(ValueError, match="read-only"):
            env.link_lengths[0] = 0.5
        with pytest.raises(TypeError):
            make_env(kind, link_lengths=[0.5, 0.3])
        with pytest.raises(AttributeError):
            env.link_lengths = np.array([0.5, 0.3])

    @pytest.mark.parametrize("field", ["duration", "gravity", "perturb_count"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_env_scalars_must_be_positive(self, field, bad):
        # a non-positive duration leaves no motion to sample, and the batched
        # path clamps the landing discriminant, which a non-positive gravity
        # could make negative on a valid release
        env = make_env("throw")
        assert getattr(env, field) > 0
        with pytest.raises(TypeError):
            make_env("throw", **{field: bad})
        with pytest.raises(AttributeError):
            setattr(env, field, bad)
        assert getattr(env, field) > 0
