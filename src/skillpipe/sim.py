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

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import COEFFS_PER_JOINT, ControllerParams, DimensionError, Outcome, eval_cubics

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
    "policy_shapes",
    "unflatten_policy",
]

SKILL_KINDS = ("throw", "joystick")
TRANSFER_KINDS = ("pusherlike", "throwerlike", "strikerlike")
KINDS = SKILL_KINDS + TRANSFER_KINDS

N_JOINTS = 5
COEFF_BOUND = 1.0
JOINT_LIMIT = 2.5  # rad, symmetric per joint

FRAME_SIZE = 16


@dataclass(frozen=True)
class RealityGap:
    """Systematic perturbation applied at execution time.

    The one way to vary the arm: gravity_scale multiplies the fixed gravity,
    link_scale the fixed link lengths, and joint_bias is added to the joint
    angles.  The nominal gap (scale 1, zero bias) leaves execution
    unchanged.  Both scales must be positive and finite, and joint_bias
    finite.
    """

    gravity_scale: float = 1.0
    joint_bias: np.ndarray = field(default_factory=lambda: np.zeros(N_JOINTS))
    link_scale: float = 1.0

    def __post_init__(self):
        for name in ("gravity_scale", "link_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        bias = np.asarray(self.joint_bias, dtype=float)
        if bias.shape != (N_JOINTS,):
            raise DimensionError(f"joint_bias must have shape ({N_JOINTS},), got {bias.shape}")
        if not np.isfinite(bias).all():
            raise ValueError("joint_bias must be finite")
        object.__setattr__(self, "joint_bias", bias)


NOMINAL_GAP = RealityGap()


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned rectangular wall in the vertical (x, z) plane.

    The wall extends infinitely along y; a point collides when its (x, z)
    coordinates fall inside the rectangle.  Both extents must be positive
    and finite, and the center finite.
    """

    center: tuple[float, float]
    width: float
    height: float

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"center must be finite, got {self.center}")

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
    joint_limits holds the [lo, hi] angle limits of each joint, (N_JOINTS, 2).
    A :class:`RealityGap` passed to execution is what perturbs them.
    """

    kind: str
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

    @property
    def dim_params(self) -> int:
        if self.kind in SKILL_KINDS:
            return 3 * N_JOINTS
        raise ValueError(f"{self.kind} has no controller parameterization")

    @property
    def dim_outcome(self) -> int:
        if self.kind in SKILL_KINDS:
            return 2
        raise ValueError(f"{self.kind} has no outcome space")


def make_env(kind: str) -> EnvironmentSpec:
    """The environment of the given kind."""
    return EnvironmentSpec(kind=kind)


def theta_bounds(env: EnvironmentSpec) -> np.ndarray:
    """Per-dimension [lo, hi] for controller coefficients."""
    b = np.empty((env.dim_params, 2))
    b[:, 0] = -COEFF_BOUND
    b[:, 1] = COEFF_BOUND
    return b


# ---------------------------------------------------------------------------
# Arm kinematics, vectorised over any leading axes (controllers, time samples)
# ---------------------------------------------------------------------------

def _joint_states(env: EnvironmentSpec, values: np.ndarray, t):
    """Clamped joint angles and velocities of B controllers values[B, D].

    Shape (B, J) at a scalar time t, (B, T, J) at a 1-D array of T times.
    """
    coeffs = values.reshape(len(values), N_JOINTS, COEFFS_PER_JOINT)
    return eval_cubics(coeffs, t, joint_limits=env.joint_limits)


def _links(env: EnvironmentSpec, gap: RealityGap, angles):
    """Cosine and sine of the base yaw, and the horizontal and vertical
    extent of each link.

    angles has shape (..., J); the yaw terms have shape (...) and the
    extents (..., J - 1).  Joint 0 is the base yaw; joints 1..4 rotate in
    the yawed vertical plane, angles measured from vertical (rest pose
    points straight up), so link k sits at the cumulative angle of joints
    1..k.
    """
    links = env.link_lengths * gap.link_scale
    q = np.asarray(angles, dtype=float) + gap.joint_bias
    yaw = q[..., 0]
    phi = q[..., 1:].cumsum(axis=-1)
    return np.cos(yaw), np.sin(yaw), links * np.sin(phi), links * np.cos(phi)


def _stack(*columns) -> np.ndarray:
    """Equal-shape arrays stacked along a new last axis; np.stack costs
    several times more on the tiny arrays of a single evaluation."""
    out = np.empty(np.shape(columns[0]) + (len(columns),))
    for k, column in enumerate(columns):
        out[..., k] = column
    return out


def _gripper(env: EnvironmentSpec, gap: RealityGap, angles, velocities=None):
    """Gripper position (x, y, z) and velocity (vx, vy, vz) from joint
    states (..., J), each coordinate an array (...).

    The velocity is None when no joint velocities are given.
    """
    cos_y, sin_y, reach, rise = _links(env, gap, angles)
    r = reach.sum(axis=-1)
    x, y = r * cos_y, r * sin_y
    pos = (x, y, env.base_height + rise.sum(axis=-1))
    if velocities is None:
        return pos, None
    qd = np.asarray(velocities, dtype=float)
    yaw_d = qd[..., 0]
    phi_d = qd[..., 1:].cumsum(axis=-1)
    r_d = (rise * phi_d).sum(axis=-1)
    vel = (r_d * cos_y - y * yaw_d, r_d * sin_y + x * yaw_d, -(reach * phi_d).sum(axis=-1))
    return pos, vel


def _arm_points(env: EnvironmentSpec, gap: RealityGap, angles) -> np.ndarray:
    """Joint positions, base to gripper, (..., J, 3) from angles (..., J)."""
    cos_y, sin_y, reach, rise = _links(env, gap, angles)
    start = np.zeros(reach.shape[:-1] + (1,))
    r = np.concatenate([start, reach.cumsum(axis=-1)], axis=-1)
    z = env.base_height + np.concatenate([start, rise.cumsum(axis=-1)], axis=-1)
    return _stack(r * cos_y[..., None], r * sin_y[..., None], z)


def _flight(pos, vel, gravity: float):
    """Closed-form landing points (..., 2), landing times (...) and validity
    of projectiles released at pos = (x, y, z) with vel = (vx, vy, vz),
    each coordinate an array (...).

    A release below ground is invalid; its landing point reads (0, 0).
    """
    (x, y, z), (vx, vy, vz) = pos, vel
    valid = ~(z < 0)   # a NaN release stays valid and so fails as a non-finite Outcome
    disc = np.maximum(vz * vz + 2.0 * gravity * z, 0.0)   # negative only when invalid
    t_land = (vz + np.sqrt(disc)) / gravity
    landing = _stack(x + vx * t_land, y + vy * t_land)
    return np.where(valid[..., None], landing, 0.0), t_land, valid


def _sample_times(env: EnvironmentSpec) -> np.ndarray:
    n = int(round(env.duration / env.step))
    return np.linspace(0.0, env.duration, n + 1)


def _controllers(env: EnvironmentSpec, values) -> np.ndarray:
    """values as a float array (B, env.dim_params).

    Raises DimensionError for any other shape and ValueError when it holds
    non-finite entries.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != env.dim_params:
        raise DimensionError(
            f"{env.kind} expects values of shape (B, {env.dim_params}), got {values.shape}"
        )
    if not np.isfinite(values).all():
        raise ValueError("values contains non-finite entries")
    return values


def execute_batch(env: EnvironmentSpec, gap: RealityGap, values) -> tuple[np.ndarray, np.ndarray]:
    """Run B controllers at once: values[B, D] -> (outcomes[B, d], valid[B]).

    Row i is what :func:`execute` gives for controller values[i].  Raises
    DimensionError unless values has shape (B, env.dim_params), and
    ValueError when it holds non-finite entries.

    throw: each gripper is evaluated at the end of its motion only; an
    invalid row (release below ground) reads (0, 0).

    joystick: the gripper positions at all T = duration/step + 1 time
    samples form a (B, T, 3) array; each row takes the deepest penetration
    of the stick region over T, the first sample when several are equally
    deep, and reads (0, 0) without contact.  Every joystick row is valid.
    """
    if env.kind not in SKILL_KINDS:
        raise ValueError(f"execute not defined for kind {env.kind!r}")
    values = _controllers(env, values)
    if env.kind == "throw":
        pos, vel = _gripper(env, gap, *_joint_states(env, values, env.duration))
        landing, _, valid = _flight(pos, vel, env.gravity * gap.gravity_scale)
        return landing, valid
    angles, _ = _joint_states(env, values, _sample_times(env))
    (x, y, z), _ = _gripper(env, gap, angles)
    stick_x, stick_y, stick_z = env.joystick_pos
    offset = _stack(x - stick_x, y - stick_y, z - stick_z)   # (B, T, 3)
    # vecdot takes the dot product np.linalg.norm takes of a single vector
    depth = env.joystick_radius - np.sqrt(np.vecdot(offset, offset))   # (B, T)
    rows = np.arange(len(values))
    first = depth.argmax(axis=1)   # the first maximum
    contact = depth[rows, first] > 0
    response = np.clip(env.joystick_gain * offset[rows, first, :2], -1.0, 1.0)
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
    gives an outcome of dimension d.
    """
    if env.kind not in SKILL_KINDS:   # checked before theta is read
        raise ValueError(f"execute not defined for kind {env.kind!r}")
    outcomes, valid = execute_batch(env, gap, theta.values[None, :])
    # a copy, so that a kept Outcome does not hold the batch array as well
    return Outcome(values=outcomes[0].copy(), valid=bool(valid[0]))


def collides(env: EnvironmentSpec, theta: ControllerParams, obstacle: Obstacle, gap: RealityGap = NOMINAL_GAP) -> bool:
    """True when the sampled arm sweep or ballistic path crosses the wall.

    theta.values is read as values.reshape(J, 3), the joint-major (a1, a2,
    a3) of each joint's cubic, through the kernel of :func:`execute_batch`.
    The sweep holds the J joint positions at each of the T time samples
    execute uses, a (T, J) array per coordinate tested in one
    :meth:`Obstacle.contains` call; the flight from the release state at
    env.duration is sampled every env.step from release to landing.
    Raises DimensionError unless theta has env.dim_params values.
    """
    if env.kind != "throw":
        raise ValueError("collision checks are defined for the throw environment")
    values = _controllers(env, theta.values[None, :])
    angles, _ = _joint_states(env, values, _sample_times(env))
    pts = _arm_points(env, gap, angles)
    if bool(np.any(obstacle.contains(pts[..., 0], pts[..., 2]))):
        return True
    pos, vel = _gripper(env, gap, *_joint_states(env, values, env.duration))
    g = env.gravity * gap.gravity_scale
    _, t_land, valid = _flight(pos, vel, g)
    if not valid[0]:
        return False
    (x, _, z), (vx, _, vz) = pos, vel
    ts = np.arange(0.0, t_land[0] + env.step, env.step)
    xs = x[0] + vx[0] * ts
    zs = z[0] + vz[0] * ts - 0.5 * g * ts * ts
    return bool(np.any(obstacle.contains(xs, zs)))


def quality(env: EnvironmentSpec, theta: ControllerParams, outcome: Outcome, seed: int = 0) -> float:
    """Quality score of a skill; higher is better, maximum 0.

    throw: negative integral of squared joint accelerations over the motion
    (closed form for the cubics of values.reshape(J, 3)), a kinematic
    stand-in for actuation effort.
    joystick: negative mean outcome deviation over env.perturb_count
    re-executions under NOMINAL_GAP with Gaussian parameter noise, drawn
    from PCG64(seed) as a (perturb_count, D) array and clipped to the
    bounds; the re-executions are one :func:`execute_batch` call.
    Raises DimensionError unless theta has env.dim_params values.
    """
    if not outcome.valid:
        raise ValueError("quality requires a valid outcome")
    if env.kind not in SKILL_KINDS:
        raise ValueError(f"quality not defined for kind {env.kind!r}")
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
    rng = np.random.Generator(np.random.PCG64(seed))
    b = theta.bounds
    sigma = env.perturb_sigma * (b[:, 1] - b[:, 0])
    noise = rng.normal(0.0, sigma, size=(env.perturb_count, len(values)))
    noisy = np.clip(values + noise, b[:, 0], b[:, 1])
    outs, _ = execute_batch(env, NOMINAL_GAP, noisy)
    dev = outs - outcome.values
    return -float(np.mean(np.sqrt(np.vecdot(dev, dev))))


# ---------------------------------------------------------------------------
# Observation frames
# ---------------------------------------------------------------------------

def render_frame(gripper, target) -> np.ndarray:
    """The (16, 16) grayscale grid showing both blobs, by bilinear splatting.

    Gripper mass 1.0 and target mass 0.5 are each spread over the four cells
    around the continuous position, clipped to the unit square; overlaps
    keep the brighter value.  Raises ValueError naming the argument whose
    position is not finite.
    """
    for name, pos in (("gripper", gripper), ("target", target)):
        if not (math.isfinite(pos[0]) and math.isfinite(pos[1])):
            raise ValueError(f"{name} position must be finite, got ({pos[0]}, {pos[1]})")
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


def policy_shapes():
    """Layer shapes of the shared transfer-task policy (6 -> 16 -> 2, tanh)."""
    return [
        (TRANSFER_STATE_DIM, TRANSFER_HIDDEN),
        (TRANSFER_HIDDEN, TRANSFER_ACTION_DIM),
    ]


def unflatten_policy(flat) -> list[np.ndarray]:
    flat = np.asarray(flat, dtype=float)
    total = sum(rows * cols for rows, cols in policy_shapes())
    if flat.shape != (total,):
        raise DimensionError(f"policy vector of shape {flat.shape}, expected ({total},)")
    layers = []
    idx = 0
    for shape in policy_shapes():
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


def _transfer_init(kind: str, rng: np.random.Generator):
    hand = np.array([0.5, 0.1]) + rng.uniform(-0.05, 0.05, size=2)
    puck = np.array([0.5, 0.35]) + rng.uniform(-0.08, 0.08, size=2)
    if kind == "strikerlike":
        goal = np.array([0.5, 0.9]) + rng.uniform(-0.15, 0.15, size=2)
    else:
        goal = np.array([0.5, 0.7]) + rng.uniform(-0.15, 0.15, size=2)
    return hand, puck, goal


def transfer_task(kind: str, policy_layers, seed: int = 0) -> float:
    """Roll the policy out for 100 steps; return = -(terminal puck-goal distance).

    Contact transfers only the component of the hand motion directed at the
    puck, pushing it radially away from the hand.
    pusherlike: the puck moves by the transferred displacement.
    throwerlike: the transfer accelerates a sliding puck (drag 0.9).
    strikerlike: a single contact imparts an amplified impulse (drag 0.98);
    afterwards the hand can no longer affect the puck.

    Raises ValueError for an unknown kind or non-finite weights, and
    DimensionError unless the layers have the shapes of :func:`policy_shapes`.

    The rollout ends at the first step that leaves hand, puck and puck
    velocity as they were: every later step would start from the same state
    and repeat it, so the return is unchanged.  Every other step runs the
    policy, also after a strike, so that a rollout's cost does not depend on
    when its puck is struck.

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
        raise ValueError(f"unknown transfer task {kind!r}")
    layers = [np.asarray(w, dtype=float) for w in policy_layers]
    expected = policy_shapes()
    if [w.shape for w in layers] != expected:
        raise DimensionError(f"policy shapes {[w.shape for w in layers]} != {expected}")
    if not all(np.isfinite(w).all() for w in layers):
        raise ValueError("policy weights contain non-finite entries")
    w_in, w_out = layers
    rng = np.random.Generator(np.random.PCG64(seed))
    hand, puck, goal = _transfer_init(kind, rng)
    (hx, hy), (px, py), (gx, gy) = hand.tolist(), puck.tolist(), goal.tolist()
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
