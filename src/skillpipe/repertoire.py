"""Skill archive with novelty-gated insertion and quality replacement.

Stored outcomes keep pairwise Euclidean distance >= r_novel.  A candidate
closer than that to existing skills may replace its nearest neighbor when it
has strictly higher quality, but only if removing that neighbor restores the
spacing; otherwise it is rejected.

An archive's one state is its list of skills.  Callers may append to it or
reassign it; entries are replaced only through try_insert.  The outcome and
parameter matrices that the nearest-neighbor queries scan linearly, plenty at
desk scale, are derived from the list, by its identity and length.
"""

from __future__ import annotations

import enum
import json
import math
import os
import sys
import uuid
from dataclasses import dataclass

import numpy as np

from .core import ControllerParams, DimensionError, Outcome, Skill, _as_array

__all__ = [
    "Archive",
    "InsertOutcome",
    "InsertResult",
    "ArchiveFormatError",
    "save",
    "load",
]


_BLOCK = 32   # rows per block of the pairwise distance scans


def _is_count(value) -> bool:
    """True for a non-negative int (bool is not one), the rule for D and d."""
    return type(value) is int and value >= 0


# what each field of a header must hold, so that save writes only what load
# reads: (test, phrase) by the field's kind
_FIELD_RULES = {
    "env": (lambda value: isinstance(value, str), "a string"),
    "count": (_is_count, "a non-negative integer"),
    "seed": (lambda value: type(value) is int, "an integer"),   # bool is no int
}


def _field_faults(fields) -> list[str]:
    """One phrase for each (name, kind, value) whose value breaks the rule of
    its kind in _FIELD_RULES; Archive and load both check by it."""
    faults = []
    for name, kind, value in fields:
        test, phrase = _FIELD_RULES[kind]
        if not test(value):
            faults.append(f"{name} must be {phrase}, got {value!r:.40}")
    return faults


def _query(values, name: str, size: int) -> np.ndarray:
    """values as a vector of size finite floats; DimensionError or ValueError if not."""
    query = _as_array(values, name)
    if query.shape != (size,):
        raise DimensionError(f"{name} must have {size} values, got {query.shape[0]}")
    return query


class ArchiveFormatError(ValueError):
    """Malformed archive file.

    The message starts with ``<path>:<line>:`` naming the offending line (1 is
    the header) and then says what is wrong with it; a header with several
    faults names all of them.
    """


class InsertOutcome(enum.Enum):
    ADDED = "added"
    REPLACED = "replaced"
    REJECTED = "rejected"


@dataclass(frozen=True)
class InsertResult:
    outcome: InsertOutcome
    replaced: Skill | None = None


class Archive:
    """Ordered set of skills unique in outcome space at radius r_novel.

    Every skill has dim_params controller values and dim_outcome outcome
    values.  skills is the archive's one state: the outcome and parameter
    matrices the queries scan follow the list by its identity and length, so
    callers may append to it or reassign it.  Entries are replaced only
    through try_insert; an edit in place that keeps the length, such as
    assigning to an entry, goes unseen.

    The constructor raises ValueError, naming each field, for what load
    would refuse in a saved header: an env_kind that is not a str, a
    dim_params or dim_outcome that is not a non-negative int and a seed
    that is not an int (a bool is neither).
    """

    def __init__(self, r_novel: float, env_kind: str, dim_params: int,
                 dim_outcome: int, seed: int = 0):
        if not (0 < r_novel < math.inf):
            raise ValueError("r_novel must be positive and finite")
        if faults := _field_faults((
            ("env_kind", "env", env_kind),
            ("dim_params", "count", dim_params),
            ("dim_outcome", "count", dim_outcome),
            ("seed", "seed", seed),
        )):
            raise ValueError("; ".join(faults))
        self.r_novel = float(r_novel)
        self.env_kind = env_kind
        self.dim_params = dim_params
        self.dim_outcome = dim_outcome
        self.seed = seed
        self.skills: list[Skill] = []
        self._source = self.skills   # the list the matrices were built from
        self._outcomes = np.empty((0, dim_outcome))
        self._params = np.empty((0, dim_params))

    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Outcome and parameter values of skills, one row per skill.

        Rebuilt when skills is another list than they were built from or their
        row count differs from its length; the stale rows go first, so that
        old and new never take memory together.
        """
        n = len(self.skills)
        if self._source is not self.skills or len(self._outcomes) != n:
            self._source = self.skills
            self._outcomes = np.empty((0, self.dim_outcome))
            self._params = np.empty((0, self.dim_params))
            self._outcomes = np.array([s.outcome.values for s in self.skills]).reshape(n, self.dim_outcome)
            self._params = np.array([s.params.values for s in self.skills]).reshape(n, self.dim_params)
        return self._outcomes, self._params

    def outcomes(self) -> np.ndarray:
        return self._matrices()[0]

    def qualities(self) -> np.ndarray:
        return np.array([s.quality for s in self.skills])

    def try_insert(self, skill: Skill) -> InsertResult:
        """Apply the novelty/quality rule; preserves the spacing invariant.

        Added when no stored outcome is within r_novel; otherwise the nearest
        stored skill is replaced when the candidate has strictly higher
        quality and conflicts with nothing else; otherwise rejected.
        Raises DimensionError, before anything changes, unless the skill has
        dim_params controller values and dim_outcome outcome values, and
        ValueError unless its parameter bounds equal the stored skills'.
        """
        if (skill.params.dim, skill.outcome.dim) != (self.dim_params, self.dim_outcome):
            raise DimensionError(
                f"skill of dimensions (D={skill.params.dim}, d={skill.outcome.dim}) in an "
                f"archive of (D={self.dim_params}, d={self.dim_outcome})"
            )
        if not skill.outcome.valid:
            raise ValueError("cannot insert a skill with an invalid outcome")
        if not math.isfinite(skill.quality):
            raise ValueError("cannot insert a skill with a non-finite quality")
        if self.skills:   # save writes one parameter box for the whole archive
            box, bounds = self.skills[0].params.bounds, skill.params.bounds
            if bounds is not box and not np.array_equal(bounds, box):
                raise ValueError("cannot insert a skill whose parameter bounds differ from "
                                 "the stored skills'")
        outs, params = self._matrices()
        dists = np.linalg.norm(outs - skill.outcome.values, axis=1)
        if dists.min(initial=np.inf) >= self.r_novel:
            self.skills.append(skill)
            return InsertResult(InsertOutcome.ADDED)
        nearest = int(np.argmin(dists))
        old = self.skills[nearest]
        if skill.quality > old.quality and np.count_nonzero(dists < self.r_novel) == 1:
            self.skills[nearest] = skill
            outs[nearest] = skill.outcome.values
            params[nearest] = skill.params.values
            return InsertResult(InsertOutcome.REPLACED, replaced=old)
        return InsertResult(InsertOutcome.REJECTED)

    def nearest_outcome(self, target) -> Skill:
        """Skill whose outcome is Euclidean-nearest to target; ties keep the
        earliest-inserted skill.

        Raises DimensionError unless target has dim_outcome values, and
        ValueError if one is not finite or the archive is empty.
        """
        target = _query(target, "target", self.dim_outcome)
        if not self.skills:
            raise ValueError("archive is empty")
        outs, _ = self._matrices()
        dists = np.linalg.norm(outs - target, axis=1)
        return self.skills[int(np.argmin(dists))]

    def knn_params(self, theta_c, k: int) -> list[Skill]:
        """k skills nearest in parameter space; ties break by insertion order.

        Asking for more neighbors than stored returns everything.  Raises
        DimensionError unless theta_c has dim_params values, and ValueError
        if one is not finite, k is not an integer >= 1 (a NumPy integer is
        one, a bool is not) or the archive is empty.
        """
        if isinstance(theta_c, ControllerParams):
            theta_c = theta_c.values
        query = _query(theta_c, "theta_c", self.dim_params)
        if not self.skills:
            raise ValueError("archive is empty")
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r:.40}")
        _, params = self._matrices()
        dists = np.linalg.norm(params - query, axis=1)
        order = np.argsort(dists, kind="stable")
        return [self.skills[i] for i in order[: min(k, len(self.skills))]]

    def min_pairwise_distance(self) -> float:
        """Smallest outcome-space distance between stored skills (inf if < 2).

        Measured _BLOCK rows at a time against the later rows, in memory
        O(_BLOCK * n * d).
        """
        n = len(self.skills)
        if n < 2:
            return float("inf")
        outs, _ = self._matrices()
        best = np.inf
        for start in range(0, n - 1, _BLOCK):
            rows = outs[start:start + _BLOCK]
            d = np.linalg.norm(rows[:, None, :] - outs[None, start:, :], axis=2)
            d[np.tril_indices(len(rows), m=n - start)] = np.inf   # each pair once
            best = min(best, d.min())
        return float(best)


# ---------------------------------------------------------------------------
# Persistence: one JSON header line, then one JSON object per skill
# ---------------------------------------------------------------------------

def save(archive: Archive, path) -> None:
    """Write the archive as JSON lines (UTF-8, LF).

    The header carries env/D/d/r_novel/seed plus the parameter bounds that
    try_insert makes all skills share (none for an empty archive), so a file
    round-trips without consulting the environment registry.  The lines go to
    a new file beside path, which is flushed to disk and then renamed onto
    path, so a save that fails leaves any previous file as it was.
    """
    header = {
        "env": archive.env_kind,
        "D": archive.dim_params,
        "d": archive.dim_outcome,
        "r_novel": archive.r_novel,
        "seed": archive.seed,
        "bounds": archive.skills[0].params.bounds.tolist() if archive.skills else [],
    }
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(header) + "\n")
            for skill in archive.skills:
                record = {
                    "theta": skill.params.values.tolist(),
                    "outcome": skill.outcome.values.tolist(),
                    "quality": skill.quality,
                }
                fh.write(json.dumps(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


_HEADER_KEYS = ("env", "D", "d", "r_novel", "seed")
_RECORD_KEYS = ("theta", "outcome", "quality")
_NUMBER = (int, float)   # what json.loads gives for a number; bool is not one


def _missing(obj: dict, keys) -> str:
    """'' when obj holds every key, else a phrase naming those it lacks, in order."""
    absent = [key for key in keys if key not in obj]
    if not absent:
        return ""
    return f"missing key{'s' if len(absent) > 1 else ''} " + ", ".join(map(repr, absent))


def _finite(value) -> bool:
    """True for a JSON number that is a finite float (exact for huge integers)."""
    return type(value) in _NUMBER and -sys.float_info.max <= value <= sys.float_info.max


def _vector(value, name: str, size: int) -> np.ndarray:
    """value as a float vector if it is a list of size finite numbers, else ValueError."""
    if not isinstance(value, list) or len(value) != size:
        raise ValueError(f"{name} must be a list of {size} numbers, got {value!r:.40}")
    if not all(map(_finite, value)):
        raise ValueError(f"{name} must hold finite numbers, got {value!r:.40}")
    return np.array(value, dtype=float)


def _header(raw: str) -> tuple[Archive, np.ndarray]:
    """Empty archive and (D, 2) parameter bounds from the header line.

    Raises ValueError naming every fault found in the header.
    """
    try:
        header = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad header JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"header must be a JSON object, got {raw.strip():.40}")
    faults = []
    if missing := _missing(header, _HEADER_KEYS):
        faults.append(f"header {missing}")
    faults += _field_faults((
        ("env", "env", header.get("env", "")),
        ("D", "count", header.get("D", 0)),
        ("d", "count", header.get("d", 0)),
        ("seed", "seed", header.get("seed", 0)),
    ))
    r_novel = header.get("r_novel", 1.0)
    if not (_finite(r_novel) and r_novel > 0):
        faults.append(f"r_novel must be a positive finite number, got {r_novel!r:.40}")
    dim = header.get("D")
    bounds = header.get("bounds", [])
    if _is_count(dim) and bounds != []:
        if not (
            isinstance(bounds, list)
            and len(bounds) == dim
            and all(
                isinstance(row, list) and len(row) == 2
                and all(_finite(v) or v in (-math.inf, math.inf) for v in row)
                for row in bounds
            )
        ):
            faults.append(f"bounds must be D={dim} [lo, hi] rows of numbers, got {bounds!r:.40}")
        elif inverted := [i for i, (lo, hi) in enumerate(bounds, start=1) if lo > hi]:
            faults.append(f"bounds row {inverted[0]} has lo > hi")
    if faults:
        raise ValueError("; ".join(faults))
    archive = Archive(
        r_novel=float(r_novel),
        env_kind=header["env"],
        dim_params=dim,
        dim_outcome=header["d"],
        seed=header["seed"],
    )
    if bounds == []:
        return archive, np.tile([-np.inf, np.inf], (dim, 1))
    return archive, np.array(bounds, dtype=float)


def _record(raw: str, bounds: np.ndarray, dim_outcome: int) -> Skill:
    """Skill from one line, given the archive's parameter bounds; ValueError says what is wrong."""
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise ValueError(f"record must be a JSON object, got {raw.strip():.40}")
    try:
        theta, outcome, quality = rec["theta"], rec["outcome"], rec["quality"]
    except KeyError:
        raise ValueError(f"record {_missing(rec, _RECORD_KEYS)}") from None
    theta = _vector(theta, "theta", len(bounds))
    outcome = _vector(outcome, "outcome", dim_outcome)
    if not _finite(quality):
        raise ValueError(f"quality must be a finite number, got {quality!r:.40}")
    return Skill(ControllerParams(theta, bounds), Outcome(outcome), float(quality))


def _crowded_pair(outcomes: np.ndarray, r_novel: float) -> tuple[int, int] | None:
    """First row closer than r_novel to an earlier row, with that row, or None.

    Squared distances from Gram blocks of 32 rows (memory O(32 n)) screen for
    candidate pairs, with a slack that covers their rounding; each
    candidate is then measured with the same norm :meth:`Archive.try_insert`
    uses, so every file written from a try_insert-built archive passes.
    """
    n, d = outcomes.shape
    # scale by a power of two (exact) so that squared norms cannot overflow
    exponent = np.frexp(np.abs(outcomes).max(initial=0.0))[1]
    x = np.ldexp(outcomes, -exponent)
    sq = np.einsum("ij,ij->i", x, x)
    r2 = np.ldexp(r_novel, -exponent) ** 2
    # |a|^2 + |b|^2 - 2 a.b errs by about (d + 2) eps max|x|^2; the margin is wide
    limit = r2 + 16 * (d + 2) * np.finfo(float).eps * (2 * sq.max(initial=0.0) + r2)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        d2 = x[start:stop] @ x[:stop].T
        d2 *= -2.0
        d2 += sq[:stop]
        d2 += sq[start:stop, None]
        near = np.tril(d2 < limit, k=start - 1)   # earlier rows only
        for i in np.flatnonzero(near.any(axis=1)):
            earlier = np.flatnonzero(near[i])
            dists = np.linalg.norm(outcomes[earlier] - outcomes[start + i], axis=1)
            if dists.min() < r_novel:
                return start + int(i), int(earlier[np.argmin(dists)])
    return None


def load(path) -> Archive:
    """Read an archive written by :func:`save`, validating every line.

    The header (line 1) must be a JSON object with ``env`` (string), ``D`` and
    ``d`` (non-negative integers), ``r_novel`` (positive finite number) and
    ``seed`` (integer); ``bounds``, if present and not empty, must be D rows
    [lo, hi] of numbers with lo <= hi (infinite ends allowed, NaN not). Each
    further non-blank line must be a JSON object whose ``theta`` is D finite
    numbers, whose ``outcome`` is d finite numbers and whose ``quality`` is a
    finite number. Stored outcomes must keep the pairwise spacing
    ``>= r_novel`` that :meth:`Archive.try_insert` keeps; the later line of a
    pair that breaks it is named. Any failure, including bytes that are not
    UTF-8, raises :class:`ArchiveFormatError` starting ``<path>:<line>:``.
    """
    archive = None
    skills, linenos = [], []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if archive is None:
                    archive, bounds = _header(line)
                elif line.strip():
                    skills.append(_record(line, bounds, archive.dim_outcome))
                    linenos.append(lineno)
            except ValueError as exc:   # UnicodeDecodeError included
                raise ArchiveFormatError(f"{path}:{lineno}: {exc}") from None
    if archive is None:
        raise ArchiveFormatError(f"{path}:1: empty archive file")
    archive.skills = skills
    crowded = _crowded_pair(archive.outcomes(), archive.r_novel)
    if crowded is not None:
        later, earlier = crowded
        raise ArchiveFormatError(
            f"{path}:{linenos[later]}: outcome closer than r_novel={archive.r_novel} "
            f"to the outcome on line {linenos[earlier]}"
        )
    return archive
