"""Deterministic analytic environments mapping controllers to outcomes.

Two skill environments share a 5-joint arm (base yaw plus four in-plane
revolute joints, analytic forward kinematics):

* throw    -- a ball held in the gripper is released at the end of the motion
              and integrated ballistically to the ground; outcome = landing (x, y) in m.
* joystick -- the gripper sweep may deflect a stick; outcome = (pitch, roll)
              in rad from a clipped linear response to the deepest penetration.

A controller of either is a bounded real vector of polynomial coefficients,
three per joint, read as values.reshape(J, 3): joint-major, each row
(a1, a2, a3) of the cubic q_j(t) = a1*t + a2*t^2 + a3*t^3, which starts at 0
with no rest term.  Evaluation is analytic for both angles and velocities.

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

from .core import (ControllerParams, DimensionError, Outcome, _as_array, _as_vector, _clamp,
                   _frozen, _integer, _positive)

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
COEFFS_PER_JOINT = 3
COEFF_BOUND = 1.0
JOINT_LIMIT = 2.5  # rad, symmetric per joint

FRAME_SIZE = 16


@dataclass(frozen=True, eq=False)
class RealityGap:
    """Systematic perturbation applied at execution time.

    The one way to vary the arm: gravity_scale multiplies the fixed gravity,
    link_scale the fixed link lengths, and joint_bias is added to the joint
    angles.  The nominal gap (scale 1, zero bias) leaves execution
    unchanged.  Both scales are positive numbers, kept as Python floats, and
    joint_bias a vector of N_JOINTS values (the kinds of :mod:`core`), kept
    read-only as a record's arrays are.
    """

    gravity_scale: float = 1.0
    joint_bias: np.ndarray = field(default_factory=lambda: np.zeros(N_JOINTS))
    link_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "gravity_scale", _positive(self.gravity_scale, "gravity_scale"))
        object.__setattr__(self, "link_scale", _positive(self.link_scale, "link_scale"))
        bias = _as_vector(self.joint_bias, "joint_bias", N_JOINTS)
        object.__setattr__(self, "joint_bias", _frozen(bias, "joint_bias"))


NOMINAL_GAP = RealityGap()


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned rectangular wall in the vertical (x, z) plane.

    The wall extends infinitely along y; a point collides when its (x, z)
    coordinates fall inside the rectangle.  Both extents are positive
    numbers and the center a vector of 2 values (the kinds of :mod:`core`),
    stored as Python floats, so that walls compare and hash by value.
    """

    center: tuple[float, float]
    width: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(map(float, _as_vector(self.center, "center", 2))))
        object.__setattr__(self, "width", _positive(self.width, "width"))
        object.__setattr__(self, "height", _positive(self.height, "height"))

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
    """Per-dimension [lo, hi] for controller coefficients of a skill env, a
    new read-only array, which every ControllerParams made with it shares.

    Raises ValueError, naming env, for an env of a transfer kind.
    """
    _skill_env(env)
    b = np.empty((env.dim_params, 2))
    b[:, 0] = -COEFF_BOUND
    b[:, 1] = COEFF_BOUND
    b.flags.writeable = False
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

# The lo and hi columns (J, 1) of EnvironmentSpec.joint_limits, contiguous
# and read-only: a clamp of one controller's (J, 1) angles then takes
# NumPy's same-shape path, not the broadcast one
_JOINT_LO = EnvironmentSpec.joint_limits[:, :1].copy()
_JOINT_HI = EnvironmentSpec.joint_limits[:, 1:].copy()
_JOINT_LO.flags.writeable = _JOINT_HI.flags.writeable = False


def _cubic(a, t):
    """a1 t + a2 t^2 + a3 t^3, elementwise over the coefficient rows
    (a1, a2, a3) = a and times t that broadcast together.

    One product makes every a_k t and two in-place products the higher
    powers, so each term rounds as a_k * t * ... * t does and the terms are
    added in order: three broadcast products where the sum as written
    takes six."""
    terms = a * t
    high = terms[1:]
    high *= t
    top = terms[2]
    top *= t
    total = terms[0] + terms[1]
    total += top
    return total


def _cubic_rate(a, t):
    """The time derivative a1 + 2 a2 t + 3 a3 t^2 of :func:`_cubic`, the
    general form of :func:`_release_rates`."""
    return a[0] + 2.0 * a[1] * t + 3.0 * a[2] * t * t


def _release_angles(a):
    """(a1 + a2) + a3: :func:`_cubic` of the coefficient rows a at t = 1.0,
    bit for bit, in two adds.

    The release happens at t = EnvironmentSpec.duration = 1.0, the last
    sample time, where every power of t is exactly 1: each product by t in
    _cubic and _cubic_rate returns its other factor unchanged, signed zeros,
    overflows and NaNs included, so these sums of the coefficients give the
    bits of the general forms."""
    angles = a[0] + a[1]
    angles += a[2]
    return angles


def _release_rates(a):
    """(a1 + 2 a2) + 3 a3: :func:`_cubic_rate` of the coefficient rows a at
    t = 1.0, bit for bit, in two products and two adds."""
    rates = a[0] + 2.0 * a[1]
    rates += 3.0 * a[2]
    return rates


def _coefficients(values: np.ndarray) -> np.ndarray:
    """The coefficient rows (a1, a2, a3) of B controllers values[B, D], one
    (3, J, B) array in C order, so that each product or add over them fills
    whole joint rows."""
    return values.reshape(len(values), N_JOINTS, COEFFS_PER_JOINT).T.copy()


def _swept_angles(a) -> np.ndarray:
    """The joint angles (J, B * T) of the coefficient rows a (3, J, B) at the
    T sample times: column b * T + k is controller b at _SAMPLE_TIMES[k]."""
    angles = _cubic(a[..., None], _SAMPLE_TIMES)
    return angles.reshape(N_JOINTS, angles.size // N_JOINTS)   # -1 fails on an empty batch


def _arm(env: EnvironmentSpec, gap: RealityGap, angles: np.ndarray, rates: np.ndarray | None = None):
    """Joint-major kinematics of joint angles (J, N), one column per arm
    pose, as :func:`_swept_angles` or :func:`_release_angles` give them.

    Joint 0 is the base yaw; joints 1..4 rotate in the yawed vertical plane,
    angles measured from vertical (rest pose points straight up), so link k
    sits at the cumulative angle of joints 1..k.  Returns the cosine and
    sine of the yaw, the rows of one (2, N) array, and the vertical rise
    and horizontal reach of each link, one (2, J - 1, N) array.  With rates,
    the raw joint rates (J, B) at the poses of the last B columns, as
    :func:`_release_rates` gives them, it also returns the joint rates
    (J, B) a release reads: the yaw rate and the cumulative rates of joints
    1..k, a joint held at its limit counting 0.  Each step is elementwise or
    adds joint rows in np.cumsum's order, so every column is bit for bit the
    joint-last evaluation of its pose.

    The joint states are one (J, N) array, or with rates one (J, N + B)
    array: each joint's biased angles in its first N columns and its rates
    in the last B, side by side in one contiguous row, so that one add per
    joint sums both, and no row is a single element, on which an in-place
    add costs twice as much.  The rates are joined by np.concatenate: at
    B = 1, writing the angles into the strided columns of a preallocated
    buffer costs more.  The cosines and sines of the angles fill one
    (2, J, N) buffer, so that one product with the link lengths gives both
    extents of every link.
    """
    n = angles.shape[1]
    q = _clamp(angles, _JOINT_LO, _JOINT_HI)
    states = q + gap.joint_bias[:, None]
    if rates is not None:
        # np.where keeps a held joint's rate +0.0, where a product with the
        # mask would give -0.0 for a negative rate
        last = slice(n - rates.shape[1], None)
        states = np.concatenate((states, np.where(q[:, last] == angles[:, last], rates, 0.0)), axis=1)
    _accumulate(states[1:])   # the cumulative link angles (and rates)
    trig = np.empty((2, N_JOINTS, n))
    np.cos(states[:, :n], out=trig[0])
    np.sin(states[:, :n], out=trig[1])
    extents = (env.link_lengths * gap.link_scale)[:, None] * trig[:, 1:]
    return (trig[:, 0], extents) if rates is None else (trig[:, 0], extents, states[:, n:])


def _accumulate(rows: np.ndarray) -> None:
    """rows.cumsum(axis=0) in place, in the order np.cumsum adds."""
    total, *rest = rows
    for row in rest:
        row += total
        total = row


def _tip(env: EnvironmentSpec, yaw, extents):
    """Gripper position from the yaw and the link extents of :func:`_arm`:
    its (x, y), the rows of one (2, N) array, and its height z (N,).
    np.add.reduce adds the J - 1 links in index order, from 0, both extents
    in one call, and one product with the reach gives x and y."""
    sums = np.add.reduce(extents, axis=1)   # indexed, as unpacking an array costs more
    return sums[1] * yaw, env.base_height + sums[0]


def _release(env: EnvironmentSpec, gap: RealityGap, values: np.ndarray):
    """Gripper position ((x, y), z) and velocity ((vx, vy), vz) of B
    controllers values[B, D] at the end of their motion, t = duration = 1.0:
    (x, y) and (vx, vy) the rows of a (2, B) array each, z and vz (B,).

    The joint angles and rates come in closed form, :func:`_release_angles`
    and :func:`_release_rates`, bit for bit what the cubic and its rate give
    at the last sample time."""
    a = _coefficients(values)
    return _released(env, *_arm(env, gap, _release_angles(a), _release_rates(a)))


# the signs of the yaw rate in vx and vy, one per row of (y, x)
_TURN_SIGNS = np.array([[1.0], [-1.0]])
_TURN_SIGNS.flags.writeable = False


def _released(env: EnvironmentSpec, yaw, extents, qd):
    """:func:`_release` from what :func:`_arm` gives at t = duration = 1.0,
    for angles and raw rates in the closed form of :func:`_release_angles`
    and :func:`_release_rates`: the yaw's cosine and sine (2, B), the link
    extents (2, J - 1, B) and the joint rates (J, B).

    vx = r_d cos - y yaw_d and vy = r_d sin + x yaw_d keep that order, the
    products first, in four calls over both rows: r_d (cos, sin), then
    (y, x) times the signed rates (yaw_d, -yaw_d), subtracted.  Negating a
    product's factor negates the product exactly, and a - (-b) is a + b, so
    vy has the bits of the sum as written."""
    xy, z = _tip(env, yaw, extents)
    # the rates of the rise and the reach, each link's extent times its cumulative rate
    rates = np.add.reduce(extents * qd[1:], axis=1)
    vxy = rates[0] * yaw
    vxy -= xy[::-1] * (qd[0] * _TURN_SIGNS)
    return (xy, z), (vxy, -rates[1])


def _landing_time(z, vz, g):
    """(vz + sqrt(max(vz^2 + 2 g z, 0))) / g, elementwise over arrays or for
    floats: when a ball released at height z >= 0 with vertical speed vz
    lands under gravity g (the clamp keeps a release below ground real)."""
    return (vz + np.sqrt(np.maximum(vz * vz + 2.0 * g * z, 0.0))) / g


def _width(env: EnvironmentSpec, values: np.ndarray) -> np.ndarray:
    """values (B, D) unchanged; DimensionError unless D is env.dim_params.

    A ControllerParams was checked when it was made, so theta.values[None, :]
    needs only this."""
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
    batch fill one contiguous row of one state array, so that each step of
    the clamp, the joint bias, the cosine and the sine takes one NumPy call
    over all joints, and the cumulative link angles one add per joint.  The
    cosines and sines fill one buffer, whose one product with the link
    lengths gives the rise and reach of every link, and one reduction sums
    the links of both.  Outcomes are a new (B, 2) float array in C order,
    valid a new (B,) bool array.

    throw: each gripper is evaluated at the end of its motion only, t =
    duration = 1.0, where every power of t is exactly 1: its (J, B) joint
    angles are the coefficient sums (a1 + a2) + a3 and its raw joint rates
    (a1 + 2 a2) + 3 a3, bit for bit what the cubic and its rate give there,
    in six NumPy calls where the general forms take twelve.  Its (x, y) and
    (vx, vy) are the rows of one (2, B) array each, and the ball lands at
    (x, y) + (vx, vy) t_land, t_land the time :func:`_landing_time` gives
    for the whole batch at once, written through the transpose of the
    outcomes.  A row released below ground is invalid and reads (0, 0); a
    NaN release stays valid, so that :func:`execute` refuses its non-finite
    outcome.

    joystick: the cubic takes three products over the stacked coefficients
    for the joint angles at all T = duration/step + 1 time samples, a
    (J, B, T) array, and the gripper positions from them fill a (B, T, 3)
    array of offsets from the stick, one coordinate at a time; each row
    takes the deepest penetration of the stick region over T, the first
    sample when several are equally deep, and reads (0, 0) without contact.
    Every joystick row is valid.
    """
    _skill_env(env)
    return _execute(env, gap, _width(env, _as_array(values, "values", 2)))


def _execute(env: EnvironmentSpec, gap: RealityGap, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`execute_batch` of checked controllers values[B, env.dim_params]."""
    if env.kind == "throw":
        (xy, z), (vxy, vz) = _release(env, gap, values)
        t_land = _landing_time(z, vz, env.gravity * gap.gravity_scale)
        landing = np.empty((len(values), 2))
        np.add(xy, vxy * t_land, out=landing.T)   # x + vx t and y + vy t, written by row
        below = z < 0   # a NaN release stays valid and so fails as a non-finite Outcome
        landing[below] = 0.0
        return landing, ~below
    xy, z = _tip(env, *_arm(env, gap, _swept_angles(_coefficients(values))))
    stick = env.joystick_pos
    offset = np.empty((len(values), len(_SAMPLE_TIMES), 3))   # filled by coordinate
    coords = offset.reshape(-1, 3).T
    np.subtract(xy, stick[:2, None], out=coords[:2])
    np.subtract(z, stick[2], out=coords[2])
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
    env of a transfer kind, and DimensionError unless theta has
    env.dim_params values.
    """
    _skill_env(env)   # checked before theta is read
    outcomes, valid = _execute(env, gap, _width(env, theta.values[None, :]))
    return Outcome(values=outcomes[0], valid=bool(valid[0]))


def collides(env: EnvironmentSpec, theta: ControllerParams, obstacle: Obstacle, gap: RealityGap = NOMINAL_GAP) -> bool:
    """True when the sampled arm sweep or ballistic path crosses the wall.

    theta.values is read as values.reshape(J, 3), the joint-major (a1, a2,
    a3) of each joint's cubic, through the joint-major kinematics of
    :func:`execute_batch`.  The sweep is the base joint and the end of each
    of the J - 1 links at each of the T time samples execute uses: the
    cumulative link extents form a (J - 1, T) array per coordinate, tested
    in one :meth:`Obstacle.contains` call.  The flight starts from the
    release that execute computes, the gripper's position and velocity at
    env.duration: the sweep's last sample, at t = 1.0, has the bits of the
    release's joint angles, and the joint rates are the release's closed
    form (:func:`_release_rates`).  A release below ground does not fly;
    any other is handed to :func:`_flight_hits`, which samples it every
    env.step up to the landing time execute uses.  Raises
    ValueError, naming env, for an env of any kind but throw (a joystick or
    transfer kind), and DimensionError unless theta has env.dim_params
    values.
    """
    _skill_env(env, ("throw",))
    a = _coefficients(_width(env, theta.values[None, :]))
    yaw, extents, qd = _arm(env, gap, _swept_angles(a), _release_rates(a))
    # the last sample is the release; keep its link extents before the sums
    release = yaw[:, -1:], extents[..., -1:].copy(), qd
    _accumulate(extents.swapaxes(0, 1))   # the height and reach of the end of each link
    rise, reach = extents
    # the base joint, at (0, base_height), and the end of each link
    if obstacle.contains(0.0, env.base_height) or np.any(
            obstacle.contains(reach * yaw[0], env.base_height + rise)):
        return True
    (xy, z), (vxy, vz) = _released(env, *release)
    if z[0] < 0:   # released below ground: no flight
        return False
    return _flight_hits(obstacle, (float(xy[0, 0]), float(z[0])), (float(vxy[0, 0]), float(vz[0])),
                        env.gravity * gap.gravity_scale, env.step)


_FLIGHT_CHUNK = 4096   # flight samples evaluated at a time


def _flight_hits(obstacle: Obstacle, pos, vel, g: float, step: float) -> bool:
    """True when a sample of the flight from pos = (x, z) at vel = (vx, vz)
    under gravity g lies in the wall; a release below ground (z < 0) is
    the caller's to refuse.

    The samples are those of np.arange(0.0, t_land + step, step), value for
    value, t_land the :func:`_landing_time` execute lands the release at,
    but only the steps in two windows, each widened by one step, are
    evaluated, and _FLIGHT_CHUNK at a time, so that memory stays bounded
    however long the flight, as under a small gravity_scale.  The x window
    holds the steps whose x lies within the wall's x-extent: a vertical
    flight (vx == 0) beside the wall has none, since each of its samples has
    the release's x.  The z window holds the steps between the roots of
    z(t) = the wall's bottom edge, lowered by what rounding can add to a
    computed height: a flight whose apex stays below the wall has none.
    """
    (x, z), (vx, vz), (cx, cz) = pos, vel, obstacle.center
    if vx == 0.0 and abs(x - cx) > obstacle.width / 2.0:
        return False
    # a computed height rounds by a few ulps of its terms, which near the
    # apex sum to |z| + 1.5 vz² / g, and the wall's edge by ulps of its own
    slack = 4.0 * math.ulp(1.0) * (abs(z) + abs(cz) + obstacle.height + 1.5 * vz * vz / g)
    level = cz - obstacle.height / 2.0 - slack
    disc = vz * vz + 2.0 * g * (z - level)
    if not disc >= 0.0:   # the apex lies below the wall
        return False
    first, stop = 0.0, (_landing_time(z, vz, g) + step) / step   # np.arange makes ceil(stop) samples
    if disc < math.inf:   # else vz² or the slack overflowed: the z window is every step
        q = vz + math.copysign(math.sqrt(disc), vz)   # the root that does not cancel
        roots = (q / g, 2.0 * (level - z) / q) if q else (0.0, 0.0)   # q = 0: at rest on the level
        first, stop = max(first, min(roots) / step - 1.0), min(stop, max(roots) / step + 2.0)
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
    stand-in for actuation effort, summed in Python floats: where a term
    overflows it reads -inf (NaN when terms of both signs do), the value
    NumPy gives, without its RuntimeWarning.
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
    values = _width(env, theta.values[None, :])[0]
    if env.kind == "throw":
        # q''(t) = 2 a2 + 6 a3 t; integral of the square over [0, T], each
        # joint's term rounded as NumPy rounds it elementwise and the terms
        # added in index order from 0.0, as np.sum adds 5 values
        t = env.duration
        t3 = t**3
        total = 0.0
        coeffs = values.tolist()
        for a2, a3 in zip(coeffs[1::COEFFS_PER_JOINT], coeffs[2::COEFFS_PER_JOINT]):
            total += 4.0 * a2 * a2 * t + 12.0 * a2 * a3 * t * t + 12.0 * a3 * a3 * t3
        return -total
    b = theta.bounds
    with np.errstate(over="ignore", invalid="ignore"):   # an inf or NaN scale is refused below
        sigma = env.perturb_sigma * (b[:, 1] - b[:, 0])
    if np.count_nonzero(np.isfinite(sigma)) != len(sigma):
        raise ValueError("theta's bounds give the joystick noise a non-finite scale")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = rng.normal(0.0, sigma, size=(env.perturb_count, len(values)))
    noisy = _clamp(values + noise, b[:, 0], b[:, 1])
    outs, _ = _execute(env, NOMINAL_GAP, noisy)   # finite, clipped into finite bounds
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
_W_IN_SIZE = TRANSFER_STATE_DIM * TRANSFER_HIDDEN
_POLICY_SIZE = _W_IN_SIZE + TRANSFER_HIDDEN * TRANSFER_ACTION_DIM


def unflatten_policy(flat) -> list[np.ndarray]:
    """The policy layers of a vector of 128 values, the kind of :mod:`core`:
    two C-ordered views of the checked vector, with no copy."""
    flat = _as_vector(flat, "flat", _POLICY_SIZE)
    return [flat[:_W_IN_SIZE].reshape(_POLICY_SHAPES[0]), flat[_W_IN_SIZE:].reshape(_POLICY_SHAPES[1])]


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

    Raises ValueError for an unknown kind, policy_layers that cannot be
    iterated, weights that are not finite real numbers or a seed not an
    integer >= 0, and DimensionError unless the layers fit the 6 -> 16 -> 2
    policy.

    The rollout ends at the first step that leaves hand, puck and puck
    velocity as they were: every later step would start from the same state
    and repeat it, so the return is unchanged.  Every other step runs the
    policy, also after a strike, so that a rollout's cost does not depend on
    when its puck is struck.

    The episode's start is drawn from PCG64(seed) once per kind and seed,
    then reused from a bounded cache: every rollout of one search runs the
    same episode.

    Hand, puck, goal and puck velocity are Python floats.  NumPy computes only
    the two tanh layers, the hand-puck distance and the push projection
    (2-vector dots) and the final miss, as ``math.sqrt`` of the miss vector's
    dot with itself, which is what ``np.linalg.norm`` computes: the BLAS dot
    may fuse multiply and add, so writing a dot out as a*a + b*b would change
    the low bits of the return.  Such a sum only screens out hands beyond the
    contact radius that no rounding brings into contact.  The layers are read
    in C order by ``ndarray.dot`` (``@`` at less overhead), so the ``dgemv``
    bits do not depend on the caller's layout; the first reads the state,
    written through a memoryview.  The policy runs as four NumPy calls a
    step into two buffers made once per rollout, the hidden 16 and the
    action 2: each layer's ``dot`` writes into its buffer (``out=``), and
    ``np.tanh`` runs in place on it, the same kernels as into a fresh array,
    so the policy allocates no array a step and the return keeps its bits.
    The buffers are the call's own, so rollouts in threads do not share
    them, and no caller's layer is written.  Scaling the hand step in Python
    rounds as NumPy does.
    """
    if kind not in TRANSFER_KINDS:
        raise ValueError(f"unknown transfer kind {kind!r}")
    _integer(seed, "seed", 0)
    try:
        layers = iter(policy_layers)
    except TypeError:
        raise ValueError(f"policy_layers must be a sequence of arrays, got {policy_layers!r:.40}") from None
    layers = tuple(_as_array(w, "policy_layers", 2) for w in layers)
    if (shapes := tuple(w.shape for w in layers)) != _POLICY_SHAPES:
        raise DimensionError(f"policy_layers must have shapes {_POLICY_SHAPES}, got {shapes}")
    w_in, w_out = (np.ascontiguousarray(w) for w in layers)
    hx, hy, px, py, gx, gy = _transfer_start(kind, seed)
    vx = vy = 0.0
    struck = False
    pusher, thrower = kind == "pusherlike", kind == "throwerlike"
    drag = 0.9 if thrower else 0.98
    state = np.empty(TRANSFER_STATE_DIM)
    hidden = np.empty(TRANSFER_HIDDEN)
    action = np.empty(TRANSFER_ACTION_DIM)
    slot, tanh, clip = memoryview(state), np.tanh, _clip_unit
    state_dot, hidden_dot, action_list = state.dot, hidden.dot, action.tolist
    for _ in range(TRANSFER_STEPS):
        before = (hx, hy, px, py, vx, vy)
        slot[0], slot[1], slot[2] = px - hx, py - hy, gx - px
        slot[3], slot[4], slot[5] = gy - py, hx, hy
        state_dot(w_in, hidden)
        tanh(hidden, hidden)
        hidden_dot(w_out, action)
        tanh(action, action)
        sx, sy = action_list()
        sx, sy = sx * _HAND_STEP, sy * _HAND_STEP
        hx, hy = clip(hx + sx), clip(hy + sy)
        push_x = push_y = 0.0
        dx, dy = px - hx, py - hy
        if dx * dx + dy * dy < _NEAR_SQ:
            gap = np.array((dx, dy))
            gap_norm = math.sqrt(gap.dot(gap))   # what np.linalg.norm computes
            if 0.0 < gap_norm < _CONTACT_RADIUS:
                direction = gap / gap_norm
                push = max(0.0, float(np.array((sx, sy)) @ direction))
                push_x, push_y = (push * direction).tolist()
        if pusher:
            px, py = clip(px + push_x), clip(py + push_y)
        else:
            if thrower:
                vx, vy = vx + 0.7 * push_x, vy + 0.7 * push_y
            elif not struck and (push_x != 0.0 or push_y != 0.0):   # strikerlike
                vx, vy = 4.0 * push_x, 4.0 * push_y
                struck = True
            px, py = clip(px + vx), clip(py + vy)
            vx, vy = vx * drag, vy * drag
        if (hx, hy, px, py, vx, vy) == before:
            break   # every later step would repeat this one
    miss = np.array((px - gx, py - gy))
    return -math.sqrt(miss.dot(miss))   # what np.linalg.norm computes
