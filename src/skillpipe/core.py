"""Shared domain types and the cubic motion-primitive encoding.

A controller is a bounded real vector of polynomial coefficients, three per
joint.  Decoding yields per-joint cubics q_j(t) = rest_j + a1*t + a2*t^2 + a3*t^3
over a fixed duration; evaluation is analytic for both angles and velocities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ControllerParams",
    "Outcome",
    "Skill",
    "JointTrajectory",
    "decode",
    "eval_trajectory",
    "eval_cubics",
    "clamp",
]

COEFFS_PER_JOINT = 3


class DimensionError(ValueError):
    """Raised when a vector or matrix has the wrong arity for an operation."""


def _as_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ControllerParams:
    """Bounded coefficient vector parameterizing a motion primitive.

    bounds has shape (D, 2) with rows [lo, hi], lo <= hi, either end possibly
    infinite but not NaN; values are not clamped on construction, use
    :func:`clamp`.
    """

    values: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, "values"))
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.shape != (self.values.shape[0], 2):
            raise DimensionError(
                f"bounds shape {bounds.shape} does not match {self.values.shape[0]} values"
            )
        if not (bounds[:, 0] <= bounds[:, 1]).all():   # False for NaN too
            raise ValueError("bounds rows must satisfy lo <= hi, and not be NaN")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def in_bounds(self, atol: float = 0.0) -> bool:
        return bool(
            np.all(self.values >= self.bounds[:, 0] - atol)
            and np.all(self.values <= self.bounds[:, 1] + atol)
        )

    def with_values(self, values) -> "ControllerParams":
        return ControllerParams(values=values, bounds=self.bounds)


@dataclass(frozen=True)
class Outcome:
    """Point in the low-dimensional outcome space, with a validity flag.

    Invalid outcomes carry an all-zero sentinel vector and must never be
    archived.
    """

    values: np.ndarray
    valid: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, "values"))

    @staticmethod
    def invalid(dim: int) -> "Outcome":
        return Outcome(values=np.zeros(dim), valid=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Skill:
    """Archive element: controller, its outcome, and a quality score (higher is better)."""

    params: ControllerParams
    outcome: Outcome
    quality: float

    def __post_init__(self):
        if not self.outcome.valid:
            raise ValueError("a Skill requires a valid outcome")


@dataclass(frozen=True)
class JointTrajectory:
    """Per-joint cubic trajectories over [0, duration].

    rest holds the fixed constant term of each joint; coeffs has shape
    (n_joints, 3) holding the free coefficients (a1, a2, a3).
    """

    rest: np.ndarray
    coeffs: np.ndarray
    duration: float = 1.0

    def __post_init__(self):
        rest = _as_array(self.rest, "rest")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (rest.shape[0], COEFFS_PER_JOINT):
            raise DimensionError(
                f"coeffs shape {coeffs.shape} does not match {rest.shape[0]} joints"
            )
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        object.__setattr__(self, "rest", rest)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_joints(self) -> int:
        return self.rest.shape[0]

    def flatten(self) -> np.ndarray:
        """Free coefficients in joint-major order; inverse of :func:`decode`."""
        return self.coeffs.reshape(-1).copy()


def decode(theta: ControllerParams, n_joints: int, rest=None, duration: float = 1.0) -> JointTrajectory:
    """Unpack a coefficient vector into per-joint cubics, joint-major order.

    Requires len(theta) == 3 * n_joints.  rest defaults to all zeros.
    """
    if theta.dim != COEFFS_PER_JOINT * n_joints:
        raise DimensionError(
            f"need {COEFFS_PER_JOINT * n_joints} coefficients for {n_joints} joints, got {theta.dim}"
        )
    if rest is None:
        rest = np.zeros(n_joints)
    return JointTrajectory(
        rest=rest,
        coeffs=theta.values.reshape(n_joints, COEFFS_PER_JOINT),
        duration=duration,
    )


def eval_cubics(coeffs, t, rest=None, joint_limits=None):
    """Angles and angular velocities of cubics rest + a1 t + a2 t^2 + a3 t^3.

    coeffs has shape (..., n_joints, 3) holding (a1, a2, a3) per joint, and
    rest (n_joints,) the constant terms, zero when None.  A scalar t gives
    angles and velocities of shape (..., n_joints); a 1-D array of T times
    gives (..., T, n_joints), each time bit for bit as it gives alone.
    Angles are clamped to joint_limits (shape (n_joints, 2)) when given;
    velocities of clamped joints are zeroed so evaluation stays total.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise DimensionError(f"t must be a scalar or a 1-D array, got shape {t.shape}")
    if t.ndim == 1:
        coeffs = coeffs[..., None, :, :]
        t = t[:, None]
    a1 = coeffs[..., 0]
    a2 = coeffs[..., 1]
    a3 = coeffs[..., 2]
    angles = a1 * t if rest is None else rest + a1 * t
    angles = angles + a2 * t * t + a3 * t * t * t
    velocities = a1 + 2.0 * a2 * t + 3.0 * a3 * t * t
    if joint_limits is not None:
        limits = np.asarray(joint_limits, dtype=float)
        # what np.clip computes, at half its cost on the arrays of one controller
        clamped = np.minimum(np.maximum(angles, limits[:, 0]), limits[:, 1])
        velocities = np.where(clamped == angles, velocities, 0.0)
        angles = clamped
    return angles, velocities


def eval_trajectory(traj: JointTrajectory, t, joint_limits=None):
    """Angles and angular velocities at time t, or at each of a 1-D array of times.

    Shapes and clamping as in :func:`eval_cubics`: (n_joints,) for a scalar
    t, (T, n_joints) for T times.
    """
    if np.any(np.less(t, 0) | np.greater(t, traj.duration)):
        raise ValueError(f"t={t} outside [0, {traj.duration}]")
    return eval_cubics(traj.coeffs, t, traj.rest, joint_limits)


def clamp(theta: ControllerParams) -> ControllerParams:
    """Project every value into its [lo, hi] interval; idempotent."""
    clipped = np.clip(theta.values, theta.bounds[:, 0], theta.bounds[:, 1])
    return theta.with_values(clipped)
