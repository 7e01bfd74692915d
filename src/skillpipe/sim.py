"""Deterministic analytic environments mapping controllers to outcomes.

Two skill environments share a 5-joint arm (base yaw plus four in-plane
revolute joints, analytic forward kinematics):

* throw    -- a ball held in the gripper is released at the end of the motion
              and integrated ballistically to the ground; outcome = landing (x, y) in m.
* joystick -- the gripper sweep may deflect a stick; outcome = (pitch, roll)
              in rad from a clipped linear response to the deepest penetration.

:func:`render_frame` draws a gripper and a target as a 16x16 frame for
representation learning, and a kinematic point-mass task family (pusherlike /
throwerlike / strikerlike) hosts cross-task policy transfer.  The geometry
and physics are fixed constants of :class:`EnvironmentSpec`, a desk-scale
stand-in chosen for cheap, closed-form evaluation; a :class:`RealityGap`
(gravity scale, joint bias, link scale) is the one way to perturb execution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (COEFFS_PER_JOINT, ControllerParams, DimensionError, Outcome, _as_array,
                   _as_vector, _clamp, _cubic, _cubic_rate, _integer, _positive)

__all__ = [
    "EnvironmentSpec",
    "RealityGap",
    "Obstacle",
    "NOMINAL_GAP",
    "make_env",
    "theta_bounds",
    "execute",
    "execute_batch",
    "collides",
    "quality",
    "render_frame",
    "transfer_task",
    "unflatten_policy",
]

SKILL_KINDS = ("throw", "joystick")
TRANSFER_KINDS = ("pusherlike", "throwerlike", "strikerlike")
KINDS = SKILL_KINDS + TRANSFER_KINDS

N_JOINTS = 5
COEFF_BOUND = 1.0
JOINT_LIMIT = 2.5  # rad, symmetric per joint

FRAME_SIZE = 16


@dataclass(frozen=True, eq=False)
class RealityGap:
    """Systematic perturbation applied at execution time.

    The one way to vary the arm: gravity_scale multiplies the fixed gravity,
    link_scale the fixed link lengths, and joint_bias is added to the joint
    angles.  The nominal gap (scale 1, zero bias) leaves execution
    unchanged.  Both scales are positive numbers and joint_bias a vector of
    N_JOINTS values (the kinds of :mod:`core`).
    """

    gravity_scale: float = 1.0
    joint_bias: np.ndarray = field(default_factory=lambda: np.zeros(N_JOINTS))
    link_scale: float = 1.0

    def __post_init__(self):
        _positive(self.gravity_scale, "gravity_scale")
        _positive(self.link_scale, "link_scale")
        object.__setattr__(self, "joint_bias", _as_vector(self.joint_bias, "joint_bias", N_JOINTS))


NOMINAL_GAP = RealityGap()


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned rectangular wall in the vertical (x, z) plane.

    The wall extends infinitely along y; a point collides when its (x, z)
    coordinates fall inside the rectangle.  Both extents are positive
    numbers and the center a vector of 2 values (the kinds of :mod:`core`),
    stored as a tuple of two floats, so that walls compare and hash by value.
    """

    center: tuple[float, float]
    width: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(map(float, _as_vector(self.center, "center", 2))))
        _positive(self.width, "width")
        _positive(self.height, "height")

    def contains(self, x, z) -> np.ndarray:
        cx, cz = self.center
        return (
            (np.abs(np.asarray(x) - cx) <= self.width / 2.0)
            & (np.abs(np.asarray(z) - cz) <= self.height / 2.0)
        )


@dataclass(frozen=True)
class EnvironmentSpec:
    """Immutable description of one environment instance.

    Only the kind varies.  The arm geometry, the joystick and the physics are
    class constants shared by every instance, the arrays read-only;
    joint_limits holds the [lo, hi] angle limits of each joint, (N_JOINTS, 2),
    and dim_params and dim_outcome the arm's controller and outcome sizes,
    which the functions here read only after refusing a transfer kind.
    A :class:`RealityGap` passed to execution is what perturbs them.
    """

    kind: str
    dim_params: ClassVar[int] = COEFFS_PER_JOINT * N_JOINTS
    dim_outcome: ClassVar[int] = 2
    link_lengths: ClassVar[np.ndarray] = np.array([0.4, 0.3, 0.2, 0.1])
    base_height: ClassVar[float] = 0.8
    joystick_pos: ClassVar[np.ndarray] = np.array([0.5, 0.0, 1.1])
    joystick_radius: ClassVar[float] = 0.15
    joystick_gain: ClassVar[float] = 8.0
    max_tilt: ClassVar[float] = math.pi / 6.0
    gravity: ClassVar[float] = 9.81
    step: ClassVar[float] = 0.01
    duration: ClassVar[float] = 1.0
    perturb_sigma: ClassVar[float] = 0.02   # joystick robustness probe, fraction of range
    perturb_count: ClassVar[int] = 5
    joint_limits: ClassVar[np.ndarray] = np.tile([-JOINT_LIMIT, JOINT_LIMIT], (N_JOINTS, 1))
    link_lengths.flags.writeable = False
    joystick_pos.flags.writeable = False
    joint_limits.flags.writeable = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown environment kind {self.kind!r}")


def make_env(kind: str) -> EnvironmentSpec:
    """The environment of the given kind."""
    return EnvironmentSpec(kind=kind)


def _skill_env(env: EnvironmentSpec, kinds=SKILL_KINDS) -> None:
    """Refuse env, naming it and its kind, unless its kind is one of kinds."""
    if env.kind not in kinds:
        raise ValueError(f"env must be of kind {' or '.join(kinds)}, got {env.kind!r}")


def theta_bounds(env: EnvironmentSpec) -> np.ndarray:
    """Per-dimension [lo, hi] for controller coefficients of a skill env.

    Raises ValueError, naming env, for an env of a transfer kind.
    """
    _skill_env(env)
    b = np.empty((env.dim_params, 2))
    b[:, 0] = -COEFF_BOUND
    b[:, 1] = COEFF_BOUND
    return b


# ---------------------------------------------------------------------------
# Arm kinematics, joint-major: the states of each joint fill one contiguous
# row, so that one NumPy call covers every joint of every controller
# ---------------------------------------------------------------------------

# The T = duration/step + 1 sample times of every sweep, shared read-only
_SAMPLE_TIMES = np.linspace(
    0.0, EnvironmentSpec.duration, int(round(EnvironmentSpec.duration / EnvironmentSpec.step)) + 1
)
_SAMPLE_TIMES.flags.writeable = False


def _arm(env: EnvironmentSpec, gap: RealityGap, values: np.ndarray, t: np.ndarray, rates: bool = False):
    """Joint-major kinematics of B controllers values[B, D] at the T times
    of a 1-D array t, with N = B * T columns per joint: column b * T + k is
    controller b at time t[k].

    Joint 0 is the base yaw; joints 1..4 rotate in the yawed vertical plane,
    angles measured from vertical (rest pose points straight up), so link k
    sits at the cumulative angle of joints 1..k.  Returns the cosine and
    sine of the yaw (N,) and the vertical rise and horizontal reach of each
    link (J - 1, N); with rates also the joint rates (J, B) at t[-1], where
    a release reads them: the yaw rate and the cumulative rates of joints
    1..k, a joint held at its limit counting 0.  Each step is elementwise or
    adds joint rows in np.cumsum's order, so every column is bit for bit the
    joint-last evaluation at its time.
    """
    # (3, J, B) in C order, so that each product below fills whole joint rows
    a1, a2, a3 = values.reshape(len(values), N_JOINTS, COEFFS_PER_JOINT).T.copy()
    angles = _cubic(a1[..., None], a2[..., None], a3[..., None], t)
    n = angles.size // N_JOINTS   # -1 fails on an empty batch
    angles = angles.reshape(N_JOINTS, n)
    q = _clamp(angles, env.joint_limits[:, :1], env.joint_limits[:, 1:])
    states = q + gap.joint_bias[:, None]
    if rates:
        # each joint's angles and rates side by side in one contiguous row, so
        # that one add per joint sums both, and no row is a single element,
        # on which an in-place add costs twice as much; the last of the T
        # times is in columns T - 1, 2T - 1, ...
        last = slice(len(t) - 1, None, len(t))
        joint_rates = np.where(q[:, last] == angles[:, last], _cubic_rate(a1, a2, a3, t[-1]), 0.0)
        states = np.concatenate((states, joint_rates), axis=1)
    _accumulate(states[1:])   # the cumulative link angles (and rates)
    c, s = np.cos(states[:, :n]), np.sin(states[:, :n])
    links = (env.link_lengths * gap.link_scale)[:, None]
    kinematics = c[0], s[0], links * c[1:], links * s[1:]
    return (*kinematics, states[:, n:]) if rates else kinematics


def _accumulate(rows: np.ndarray) -> None:
    """rows.cumsum(axis=0) in place, in the order np.cumsum adds."""
    total, *rest = rows
    for row in rest:
        row += total
        total = row


def _tip(env: EnvironmentSpec, cos_y, sin_y, rise, reach):
    """Gripper position (x, y, z) from the link extents of :func:`_arm`,
    each coordinate (N,); np.sum adds the links in index order, from 0."""
    r = reach.sum(axis=0)
    return r * cos_y, r * sin_y, env.base_height + rise.sum(axis=0)


def _release(env: EnvironmentSpec, gap: RealityGap, values: np.ndarray):
    """Gripper position (x, y, z) and velocity (vx, vy, vz) of B controllers
    values[B, D] at the end of their motion, each coordinate (B,)."""
    cos_y, sin_y, rise, reach, qd = _arm(env, gap, values, _SAMPLE_TIMES[-1:], rates=True)
    x, y, z = _tip(env, cos_y, sin_y, rise, reach)
    yaw_d, phi_d = qd[0], qd[1:]
    r_d = (rise * phi_d).sum(axis=0)
    vel = (r_d * cos_y - y * yaw_d, r_d * sin_y + x * yaw_d, -(reach * phi_d).sum(axis=0))
    return (x, y, z), vel


def _stack(*columns) -> np.ndarray:
    """Equal-shape arrays stacked along a new last axis; np.stack costs
    several times more on the tiny arrays of a single evaluation."""
    out = np.empty(np.shape(columns[0]) + (len(columns),))
    for k, column in enumerate(columns):
        out[..., k] = column
    return out


def _flight(pos, vel, gravity: float):
    """Closed-form landing points (..., 2), landing times (...) and validity
    of projectiles released at pos = (x, y, z) with vel = (vx, vy, vz),
    each coordinate an array (...).

    A release below ground is invalid; its landing point reads (0, 0).
    """
    (x, y, z), (vx, vy, vz) = pos, vel
    below = z < 0   # a NaN release stays valid and so fails as a non-finite Outcome
    disc = np.maximum(vz * vz + 2.0 * gravity * z, 0.0)   # negative only when invalid
    t_land = (vz + np.sqrt(disc)) / gravity
    landing = _stack(x + vx * t_land, y + vy * t_land)
    landing[below] = 0.0
    return landing, t_land, ~below


def _controllers(env: EnvironmentSpec, values) -> np.ndarray:
    """values as a float array (B, env.dim_params).

    Raises DimensionError for any other shape and ValueError when it holds
    non-finite entries.
    """
    values = _as_array(values, "values", 2)
    if values.shape[1] != env.dim_params:
        raise DimensionError(
            f"{env.kind} expects values of shape (B, {env.dim_params}), got {values.shape}"
        )
    return values


def execute_batch(env: EnvironmentSpec, gap: RealityGap, values) -> tuple[np.ndarray, np.ndarray]:
    """Run B controllers at once: values[B, D] -> (outcomes[B, d], valid[B]).

    Row i is what :func:`execute` gives for controller values[i].  Raises
    ValueError, naming env, for an env of a transfer kind, DimensionError
    unless values has shape (B, env.dim_params), and ValueError when it
    holds non-finite entries.

    Both kinds evaluate the arm joint-major: each joint's states over the
    batch fill one contiguous row, so that each step of the cubic, the
    clamp, the joint bias, the cosine, the sine and the link sums takes one
    NumPy call over all joints, and the cumulative link angles one add per
    joint.

    throw: each gripper is evaluated at the end of its motion only, from
    (J, B) joint angles and rates; an invalid row (release below ground)
    reads (0, 0).

    joystick: the joint angles at all T = duration/step + 1 time samples
    form a (J, B, T) array, and the gripper positions from them a (B, T, 3)
    array of offsets from the stick; each row takes the deepest penetration
    of the stick region over T, the first sample when several are equally
    deep, and reads (0, 0) without contact.  Every joystick row is valid.
    """
    _skill_env(env)
    values = _controllers(env, values)
    if env.kind == "throw":
        landing, _, valid = _flight(*_release(env, gap, values), env.gravity * gap.gravity_scale)
        return landing, valid
    x, y, z = _tip(env, *_arm(env, gap, values, _SAMPLE_TIMES))
    stick_x, stick_y, stick_z = env.joystick_pos
    offset = _stack(x - stick_x, y - stick_y, z - stick_z).reshape(len(values), len(_SAMPLE_TIMES), 3)
    # vecdot takes the dot product np.linalg.norm takes of a single vector
    depth = env.joystick_radius - np.sqrt(np.vecdot(offset, offset))   # (B, T)
    rows = np.arange(len(values))
    first = depth.argmax(axis=1)   # the first maximum
    contact = depth[rows, first] > 0
    response = _clamp(env.joystick_gain * offset[rows, first, :2], -1.0, 1.0)
    outcomes = np.where(contact[:, None], env.max_tilt * response, 0.0)
    return outcomes, np.ones(len(values), dtype=bool)


def execute(env: EnvironmentSpec, gap: RealityGap, theta: ControllerParams) -> Outcome:
    """Run a controller and report its outcome; pure and deterministic.

    throw: release the ball at the end of the motion with the gripper's
    position and velocity, integrate ballistic flight analytically, outcome =
    ground contact (x, y).  A release below ground yields an invalid outcome.

    joystick: outcome = (pitch, roll) from the clipped linear response to the
    deepest gripper penetration of the stick region over the time samples,
    the earliest when several tie, and (0, 0) without contact.

    A call of :func:`execute_batch` with B = 1: theta.values of shape (D,)
    gives an outcome of dimension d.  Raises ValueError, naming env, for an
    env of a transfer kind.
    """
    _skill_env(env)   # checked before theta is read
    outcomes, valid = execute_batch(env, gap, theta.values[None, :])
    # a copy, so that a kept Outcome does not hold the batch array as well
    return Outcome(values=outcomes[0].copy(), valid=bool(valid[0]))


def collides(env: EnvironmentSpec, theta: ControllerParams, obstacle: Obstacle, gap: RealityGap = NOMINAL_GAP) -> bool:
    """True when the sampled arm sweep or ballistic path crosses the wall.

    theta.values is read as values.reshape(J, 3), the joint-major (a1, a2,
    a3) of each joint's cubic, through the joint-major kinematics of
    :func:`execute_batch`.  The sweep is the base joint and the end of each
    of the J - 1 links at each of the T time samples execute uses: the
    cumulative link extents form a (J - 1, T) array per coordinate, tested
    in one :meth:`Obstacle.contains` call.  The flight starts from the
    release that execute computes, the gripper's position and velocity at
    env.duration, and is sampled every env.step from release to landing
    (see :func:`_flight_hits`).  Raises ValueError, naming env, for an env of
    any kind but throw (a joystick or transfer kind), and DimensionError
    unless theta has env.dim_params values.
    """
    _skill_env(env, ("throw",))
    values = _controllers(env, theta.values[None, :])
    cos_y, sin_y, rise, reach = _arm(env, gap, values, _SAMPLE_TIMES)
    _accumulate(rise)   # the height and reach of the end of each link
    _accumulate(reach)
    # the base joint, at (0, base_height), and the end of each link
    if obstacle.contains(0.0, env.base_height) or np.any(
            obstacle.contains(reach * cos_y, env.base_height + rise)):
        return True
    pos, vel = _release(env, gap, values)
    g = env.gravity * gap.gravity_scale
    _, t_land, valid = _flight(pos, vel, g)
    if not valid[0]:
        return False
    (x, _, z), (vx, _, vz) = pos, vel
    return _flight_hits(obstacle, (float(x[0]), float(z[0])), (float(vx[0]), float(vz[0])),
                        g, float(t_land[0]), env.step)


_FLIGHT_CHUNK = 4096   # flight samples evaluated at a time


def _flight_hits(obstacle: Obstacle, pos, vel, g: float, t_land: float, step: float) -> bool:
    """True when a sample of the flight from pos = (x, z) at vel = (vx, vz)
    under gravity g lies in the wall.

    The samples are those of np.arange(0.0, t_land + step, step), value for
    value, but only the steps whose x lies within the wall's x-extent,
    widened by one step, are evaluated, and _FLIGHT_CHUNK at a time, so that
    memory stays bounded however long the flight, as under a small
    gravity_scale.  A vertical flight (vx == 0) beside the wall evaluates no
    sample, since each of its samples has the release's x.
    """
    (x, z), (vx, vz), cx = pos, vel, obstacle.center[0]
    if vx == 0.0 and abs(x - cx) > obstacle.width / 2.0:
        return False
    first, stop = 0.0, (t_land + step) / step   # np.arange makes ceil(stop) samples
    speed = vx * step
    if speed != 0.0:
        reach = obstacle.width / 2.0 + abs(speed)
        edges = ((cx - reach - x) / speed, (cx + reach - x) / speed)
        first, stop = max(first, min(edges)), min(stop, max(edges) + 1.0)
    if not first < stop:
        return False
    stop = math.ceil(stop)
    for start in range(math.floor(first), stop, _FLIGHT_CHUNK):
        ts = np.arange(start, min(start + _FLIGHT_CHUNK, stop)) * step   # np.arange's values
        if np.any(obstacle.contains(x + vx * ts, z + vz * ts - 0.5 * g * ts * ts)):
            return True
    return False


def quality(env: EnvironmentSpec, theta: ControllerParams, outcome: Outcome, seed: int = 0) -> float:
    """Quality score of a skill; higher is better, maximum 0.

    throw: negative integral of squared joint accelerations over the motion
    (closed form for the cubics of values.reshape(J, 3)), a kinematic
    stand-in for actuation effort.
    joystick: negative mean outcome deviation over env.perturb_count
    re-executions under NOMINAL_GAP with Gaussian parameter noise, drawn
    from PCG64(seed) as a (perturb_count, D) array and clipped to the
    bounds; the re-executions are one :func:`execute_batch` call.
    Raises ValueError, naming env, for an env of a transfer kind,
    DimensionError unless theta has env.dim_params values and outcome
    env.dim_outcome, and ValueError unless outcome is valid, seed an integer
    >= 0 and, for joystick, the noise scale perturb_sigma * (hi - lo) of
    each of theta's bounds finite.
    """
    if not outcome.valid:
        raise ValueError("quality requires a valid outcome")
    _skill_env(env)
    _integer(seed, "seed", 0)
    if outcome.dim != env.dim_outcome:   # a valid Outcome is a finite vector already
        raise DimensionError(f"outcome must have {env.dim_outcome} values, got {outcome.dim}")
    values = _controllers(env, theta.values[None, :])[0]
    if env.kind == "throw":
        # q''(t) = 2 a2 + 6 a3 t; integral of the square over [0, T]
        coeffs = values.reshape(N_JOINTS, COEFFS_PER_JOINT)
        a2 = coeffs[:, 1]
        a3 = coeffs[:, 2]
        t = env.duration
        total = np.sum(
            4.0 * a2 * a2 * t + 12.0 * a2 * a3 * t * t + 12.0 * a3 * a3 * t**3
        )
        return -float(total)
    b = theta.bounds
    with np.errstate(over="ignore", invalid="ignore"):   # an inf or NaN scale is refused below
        sigma = env.perturb_sigma * (b[:, 1] - b[:, 0])
    if np.count_nonzero(np.isfinite(sigma)) != len(sigma):
        raise ValueError("theta's bounds give the joystick noise a non-finite scale")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = rng.normal(0.0, sigma, size=(env.perturb_count, len(values)))
    noisy = _clamp(values + noise, b[:, 0], b[:, 1])
    outs, _ = execute_batch(env, NOMINAL_GAP, noisy)
    dev = outs - outcome.values
    dist = np.sqrt(np.vecdot(dev, dev))
    return -float(np.add.reduce(dist) / len(dist))   # np.mean's arithmetic, at less overhead


# ---------------------------------------------------------------------------
# Observation frames
# ---------------------------------------------------------------------------

def render_frame(gripper, target) -> np.ndarray:
    """The (16, 16) grayscale grid showing both blobs, by bilinear splatting.

    Gripper mass 1.0 and target mass 0.5 are each spread over the four cells
    around the continuous position, clipped to the unit square; overlaps
    keep the brighter value.  Each position is a vector of 2 values (the
    kind of :mod:`core`).
    """
    gripper = _as_vector(gripper, "gripper", 2)
    target = _as_vector(target, "target", 2)
    grid = np.zeros((FRAME_SIZE, FRAME_SIZE))
    for pos, intensity in ((target, 0.5), (gripper, 1.0)):
        gx = float(np.clip(pos[0], 0.0, 1.0)) * (FRAME_SIZE - 1)
        gy = float(np.clip(pos[1], 0.0, 1.0)) * (FRAME_SIZE - 1)
        ix, iy = int(gx), int(gy)
        fx, fy = gx - ix, gy - iy
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            for dy, wy in ((0, 1.0 - fy), (1, fy)):
                x, y = ix + dx, iy + dy
                if x < FRAME_SIZE and y < FRAME_SIZE:
                    grid[y, x] = max(grid[y, x], intensity * wx * wy)
    return grid


# ---------------------------------------------------------------------------
# Kinematic transfer-task family
# ---------------------------------------------------------------------------

TRANSFER_STATE_DIM = 6
TRANSFER_ACTION_DIM = 2
TRANSFER_HIDDEN = 16
TRANSFER_STEPS = 100
_HAND_STEP = 0.03
_CONTACT_RADIUS = 0.08
# Squared hand-puck distance beyond which no rounding gives a contact.
_NEAR_SQ = (1.001 * _CONTACT_RADIUS) ** 2


# Layer shapes of the shared transfer-task policy (6 -> 16 -> 2, tanh)
_POLICY_SHAPES = ((TRANSFER_STATE_DIM, TRANSFER_HIDDEN), (TRANSFER_HIDDEN, TRANSFER_ACTION_DIM))


def unflatten_policy(flat) -> list[np.ndarray]:
    """The policy layers of a vector of 128 values, the kind of :mod:`core`."""
    flat = _as_vector(flat, "flat", sum(rows * cols for rows, cols in _POLICY_SHAPES))
    layers = []
    idx = 0
    for shape in _POLICY_SHAPES:
        size = shape[0] * shape[1]
        layers.append(flat[idx : idx + size].reshape(shape))
        idx += size
    return layers


def _clip_unit(x: float) -> float:
    """np.clip(x, 0.0, 1.0) for a float: NaN and -0.0 pass through unchanged,
    as they do through np.clip."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


@functools.lru_cache(maxsize=256)
def _transfer_start(kind: str, seed: int) -> tuple[float, ...]:
    """Hand, puck and goal (hx, hy, px, py, gx, gy) of the episode of kind
    and seed, drawn from PCG64(seed), as Python floats."""
    rng = np.random.Generator(np.random.PCG64(seed))
    hand = np.array([0.5, 0.1]) + rng.uniform(-0.05, 0.05, size=2)
    puck = np.array([0.5, 0.35]) + rng.uniform(-0.08, 0.08, size=2)
    goal_y = 0.9 if kind == "strikerlike" else 0.7
    goal = np.array([0.5, goal_y]) + rng.uniform(-0.15, 0.15, size=2)
    return (*hand.tolist(), *puck.tolist(), *goal.tolist())


def transfer_task(kind: str, policy_layers, seed: int = 0) -> float:
    """Roll the policy out for 100 steps; return = -(terminal puck-goal distance).

    Contact transfers only the component of the hand motion directed at the
    puck, pushing it radially away from the hand.
    pusherlike: the puck moves by the transferred displacement.
    throwerlike: the transfer accelerates a sliding puck (drag 0.9).
    strikerlike: a single contact imparts an amplified impulse (drag 0.98);
    afterwards the hand can no longer affect the puck.

    Raises ValueError for an unknown kind, non-finite weights or a seed not an
    integer >= 0, and DimensionError unless the layers fit the 6 -> 16 -> 2 policy.

    The rollout ends at the first step that leaves hand, puck and puck
    velocity as they were: every later step would start from the same state
    and repeat it, so the return is unchanged.  Every other step runs the
    policy, also after a strike, so that a rollout's cost does not depend on
    when its puck is struck.

    The episode's start is drawn from PCG64(seed) once per kind and seed,
    then reused from a bounded cache: every rollout of one search runs the
    same episode.

    Hand, puck, goal and puck velocity are Python floats.  NumPy computes
    only the two tanh layers, the hand-puck distance and the push projection
    (2-vector dots) and the final miss distance: the BLAS dot may fuse
    multiply and add, so writing a dot out as a*a + b*b would change the
    low bits of the return.  Such a sum only screens out the hands well
    beyond the contact radius, which no rounding brings into contact.  The
    layers use ``ndarray.dot``, the BLAS call of ``@`` at less overhead, and
    the hand step is scaled in Python, one rounded multiply either way.
    """
    if kind not in TRANSFER_KINDS:
        raise ValueError(f"unknown transfer kind {kind!r}")
    _integer(seed, "seed", 0)
    layers = tuple(_as_array(w, "policy_layers", 2) for w in policy_layers)
    if (shapes := tuple(w.shape for w in layers)) != _POLICY_SHAPES:
        raise DimensionError(f"policy_layers must have shapes {_POLICY_SHAPES}, got {shapes}")
    w_in, w_out = layers
    hx, hy, px, py, gx, gy = _transfer_start(kind, seed)
    vx = vy = 0.0
    struck = False
    state = np.empty(TRANSFER_STATE_DIM)
    for _ in range(TRANSFER_STEPS):
        before = (hx, hy, px, py, vx, vy)
        state[:] = (px - hx, py - hy, gx - px, gy - py, hx, hy)
        sx, sy = np.tanh(np.tanh(state.dot(w_in)).dot(w_out)).tolist()
        sx, sy = sx * _HAND_STEP, sy * _HAND_STEP
        hx, hy = _clip_unit(hx + sx), _clip_unit(hy + sy)
        push_x = push_y = 0.0
        dx, dy = px - hx, py - hy
        if dx * dx + dy * dy < _NEAR_SQ:
            gap = np.array((dx, dy))
            gap_norm = math.sqrt(gap.dot(gap))   # what np.linalg.norm computes
            if 0.0 < gap_norm < _CONTACT_RADIUS:
                direction = gap / gap_norm
                push = max(0.0, float(np.array((sx, sy)) @ direction))
                push_x, push_y = (push * direction).tolist()
        if kind == "pusherlike":
            px, py = _clip_unit(px + push_x), _clip_unit(py + push_y)
        elif kind == "throwerlike":
            vx, vy = vx + 0.7 * push_x, vy + 0.7 * push_y
            px, py = _clip_unit(px + vx), _clip_unit(py + vy)
            vx, vy = vx * 0.9, vy * 0.9
        else:  # strikerlike
            if not struck and (push_x != 0.0 or push_y != 0.0):
                vx, vy = 4.0 * push_x, 4.0 * push_y
                struck = True
            px, py = _clip_unit(px + vx), _clip_unit(py + vy)
            vx, vy = vx * 0.98, vy * 0.98
        if (hx, hy, px, py, vx, vy) == before:
            break   # every later step would repeat this one
    return -float(np.linalg.norm([px - gx, py - gy]))
