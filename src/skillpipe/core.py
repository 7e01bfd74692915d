"""Shared domain types: the skill records and the rules for arguments.

The three records below are frozen and slotted, as an archive keeps one
per skill, and each is checked once, when it is made.  Each array they
hold is read-only (:func:`_frozen`): a copy of a writeable or borrowed
input, so that no later write to the caller's array shows, or else the
read-only array given, shared.  NumPy lets the owner of such an array set
its writeable flag back to True, and then a write to it changes every
record that shares it.

The public API refuses a malformed argument by its kind, each kind checked
by one function here: an integer >= lo (:func:`_integer`), an int or NumPy
integer; a number (:func:`_number`), a finite int, float or NumPy number,
and a positive one (:func:`_positive`), both returned as a Python float for
the record to keep; a finite array of ndim dimensions (:func:`_as_array`)
and a vector of n finite values (:func:`_as_vector`).  A bool is neither an
integer nor a number.  An array argument, and each array a record keeps,
must be read by NumPy as real numbers (:func:`_floats`): a string, a
nesting that holds one, a complex value, an object that is no real number,
a bool array, a bool anywhere in a list or tuple or among objects, and a
ragged nesting are refused, although NumPy reads a list mixing bools with
numbers as numbers.  A refusal is a ValueError, or its subclass
DimensionError for a wrong shape, naming the argument.  A ragged nesting is a ValueError, not a
DimensionError: NumPy reads it as no array, so it has no shape to be wrong.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "ControllerParams",
    "Outcome",
    "Skill",
    "clamp",
]


class DimensionError(ValueError):
    """Raised when a vector or matrix has the wrong arity for an operation."""


def _integer(value, name: str, lo: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r:.40}")


def _is_number(value) -> bool:
    # a NumPy float compares as a Python float, since a float32 or float16
    # overflows when NumPy casts float's largest value to its type; the
    # comparison is exact for an int beyond the float range, and False for NaN
    if isinstance(value, np.floating):
        value = float(value)
    return (not isinstance(value, bool) and isinstance(value, (int, float, np.integer))
            and -sys.float_info.max <= value <= sys.float_info.max)


def _number(value, name: str) -> float:
    if not _is_number(value):
        raise ValueError(f"{name} must be a finite number, got {value!r:.40}")
    return float(value)


def _positive(value, name: str) -> float:
    number = _number(value, name)
    if number <= 0:
        raise ValueError(f"{name} must be positive, got {value!r:.40}")
    return number


_FLOAT = np.dtype(float)


def _floats(values, name: str) -> np.ndarray:
    """values as a float ndarray, a float one as it is, else ValueError
    naming name: NumPy must read values as integers or floats, or as
    objects that are each a real number (numbers.Real) but no bool.  Values
    that are no ndarray, a list or a tuple, must also hold no bool, which
    NumPy would read as a number; only they are walked, so an ndarray
    argument costs one type and one dtype check."""
    if type(values) is np.ndarray and values.dtype is _FLOAT:
        return values
    try:
        arr = np.asarray(values)
        kind = arr.dtype.kind
        if (kind in "iuf" and (isinstance(values, np.ndarray) or not _holds_bool(values))
                or kind == "O" and all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool) for x in arr.flat)):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):   # a ragged nesting, an int beyond float
        pass
    raise ValueError(f"{name} must be an array of real numbers, got {values!r:.40}")


def _holds_bool(values) -> bool:
    """Whether a bool, Python's or NumPy's, is among values read as objects."""
    return any(isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat)


def _as_array(values, name: str, ndim: int = 1) -> np.ndarray:
    arr = _floats(values, name)
    if arr.ndim != ndim:
        noun = "vector" if ndim == 1 else "matrix" if ndim == 2 else "array"
        raise DimensionError(f"{name} must be a {ndim}-D {noun}, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:   # cheaper than .all() on a few values
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frozen(values, name: str) -> np.ndarray:
    """values as a read-only float array: a read-only float ndarray that
    owns its data is shared, anything else is read as :func:`_floats` reads
    it and copied, so that a writeable array passed in stays writeable and
    its later writes do not show.  The owner of a shared array can still
    make it writeable again."""
    if not (type(values) is np.ndarray and values.dtype is _FLOAT
            and not values.flags.writeable and values.flags.owndata):
        values = np.array(_floats(values, name))
        values.flags.writeable = False
    return values


def _as_vector(values, name: str, size: int) -> np.ndarray:
    vector = _floats(values, name)
    if vector.shape != (size,):
        raise DimensionError(f"{name} must have {size} values, got shape {vector.shape}")
    return _as_array(vector, name)


@dataclass(frozen=True, eq=False, slots=True)
class ControllerParams:
    """Bounded coefficient vector parameterizing a motion primitive.

    bounds has shape (D, 2) with rows [lo, hi], lo <= hi, either end possibly
    infinite but not NaN; values are not clamped on construction, use
    :func:`clamp`.  Both arrays are read-only (:func:`_frozen`).
    """

    values: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(_frozen(self.values, "values"), "values"))
        bounds = _frozen(self.bounds, "bounds")
        if bounds.shape != (self.values.shape[0], 2):
            raise DimensionError(
                f"bounds shape {bounds.shape} does not match {self.values.shape[0]} values"
            )
        if np.count_nonzero(bounds[:, 0] <= bounds[:, 1]) != len(bounds):   # False for NaN too
            raise ValueError("bounds rows must satisfy lo <= hi, and not be NaN")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False, slots=True)
class Outcome:
    """Point in the low-dimensional outcome space, with a validity flag.

    Invalid outcomes carry an all-zero sentinel vector and must never be
    archived.  values is read-only (:func:`_frozen`).
    """

    values: np.ndarray
    valid: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(_frozen(self.values, "values"), "values"))

    @staticmethod
    def invalid(dim: int) -> "Outcome":
        return Outcome(values=np.zeros(dim), valid=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False, slots=True)
class Skill:
    """Archive element: controller, its valid outcome, and a quality number
    (higher is better), kept as a Python float.

    Skills compare and hash by identity, so that ==, in and list.index find
    the very skill an archive holds.
    """

    params: ControllerParams
    outcome: Outcome
    quality: float

    def __post_init__(self):
        if not self.outcome.valid:
            raise ValueError("a Skill requires a valid outcome")
        object.__setattr__(self, "quality", _number(self.quality, "quality"))


def _clamp(values, lo, hi):
    # what np.clip computes, at half its cost on the arrays of one controller
    return np.minimum(np.maximum(values, lo), hi)


def clamp(theta: ControllerParams) -> ControllerParams:
    """Project every value into its [lo, hi] interval; idempotent."""
    clipped = _clamp(theta.values, theta.bounds[:, 0], theta.bounds[:, 1])
    clipped.flags.writeable = False
    # finite values clipped into theta's checked bounds: the record needs no second check
    clamped = object.__new__(ControllerParams)
    object.__setattr__(clamped, "values", clipped)
    object.__setattr__(clamped, "bounds", theta.bounds)
    return clamped
