"""Shared domain types and the cubic motion-primitive encoding.

A controller is a bounded real vector of polynomial coefficients, three per
joint, read as values.reshape(J, 3): joint-major, each row (a1, a2, a3) of
the cubic q_j(t) = a1*t + a2*t^2 + a3*t^3, which starts at 0 with no rest
term.  Evaluation is analytic for both angles and velocities.

The public API refuses a malformed argument by its kind, each kind checked
by one function here: an integer >= lo (:func:`_integer`), an int or NumPy
integer; a number (:func:`_number`), a finite int, float or NumPy number,
and a positive one (:func:`_positive`); a finite array of ndim dimensions
(:func:`_as_array`) and a vector of n finite values (:func:`_as_vector`).
A bool is neither an integer nor a number.  A refusal is a ValueError, or
its subclass DimensionError for a wrong shape, naming the argument.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "ControllerParams",
    "Outcome",
    "Skill",
    "eval_cubics",
    "clamp",
]

COEFFS_PER_JOINT = 3


class DimensionError(ValueError):
    """Raised when a vector or matrix has the wrong arity for an operation."""


def _integer(value, name: str, lo: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r:.40}")


def _number(value, name: str) -> None:
    # the comparison is exact for an int beyond the float range, and False for NaN
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r:.40}")


def _positive(value, name: str) -> None:
    _number(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r:.40}")


def _as_array(values, name: str, ndim: int = 1) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be a {ndim}-D {'vector' if ndim == 1 else 'matrix'}, "
                             f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_vector(values, name: str, size: int) -> np.ndarray:
    vector = np.asarray(values, dtype=float)
    if vector.shape != (size,):
        raise DimensionError(f"{name} must have {size} values, got shape {vector.shape}")
    return _as_array(vector, name)


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
    """Archive element: controller, its valid outcome, and a quality number (higher is better)."""

    params: ControllerParams
    outcome: Outcome
    quality: float

    def __post_init__(self):
        if not self.outcome.valid:
            raise ValueError("a Skill requires a valid outcome")
        _number(self.quality, "quality")


def _broadcast(coeffs, t):
    """coeffs and t as float arrays whose products have shape (..., n_joints)
    at a scalar t and (..., T, n_joints) at a 1-D array of T times."""
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise DimensionError(f"t must be a scalar or a 1-D array, got shape {t.shape}")
    if t.ndim == 1:
        return coeffs[..., None, :, :], t[:, None]
    return coeffs, t


def _cubic(coeffs, t):
    """a1 t + a2 t^2 + a3 t^3 of each row of coeffs, with coeffs and t as
    :func:`_broadcast` returns them."""
    return coeffs[..., 0] * t + coeffs[..., 1] * t * t + coeffs[..., 2] * t * t * t


def _clamp_angles(angles, joint_limits):
    limits = np.asarray(joint_limits, dtype=float)
    # what np.clip computes, at half its cost on the arrays of one controller
    return np.minimum(np.maximum(angles, limits[:, 0]), limits[:, 1])


def _angles(coeffs, t, joint_limits):
    """The clamped angles of :func:`eval_cubics`, bit for bit, without its velocities."""
    return _clamp_angles(_cubic(*_broadcast(coeffs, t)), joint_limits)


def eval_cubics(coeffs, t, joint_limits=None):
    """Angles and angular velocities of cubics a1 t + a2 t^2 + a3 t^3.

    coeffs has shape (..., n_joints, 3), each row (a1, a2, a3) of one joint,
    as values.reshape(n_joints, 3) gives for a controller; every cubic
    starts at angle 0.  A scalar t gives angles and velocities of shape
    (..., n_joints); a 1-D array of T times gives (..., T, n_joints), each
    time bit for bit as it gives alone.  Angles are clamped to joint_limits
    (shape (n_joints, 2)) when given; velocities of clamped joints are
    zeroed so evaluation stays total.
    """
    coeffs, t = _broadcast(coeffs, t)
    angles = _cubic(coeffs, t)
    velocities = coeffs[..., 0] + 2.0 * coeffs[..., 1] * t + 3.0 * coeffs[..., 2] * t * t
    if joint_limits is not None:
        clamped = _clamp_angles(angles, joint_limits)
        velocities = np.where(clamped == angles, velocities, 0.0)
        angles = clamped
    return angles, velocities


def clamp(theta: ControllerParams) -> ControllerParams:
    """Project every value into its [lo, hi] interval; idempotent."""
    clipped = np.clip(theta.values, theta.bounds[:, 0], theta.bounds[:, 1])
    return ControllerParams(clipped, theta.bounds)
