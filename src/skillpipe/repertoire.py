"""Skill archive with novelty-gated insertion and quality replacement.

Stored outcomes keep pairwise Euclidean distance >= r_novel.  A candidate
closer than that to existing skills may replace its nearest neighbor when it
has strictly higher quality, but only if removing that neighbor restores the
spacing; otherwise it is rejected.  One function measures every distance,
so load refuses exactly the files try_insert could not have written: its
spacing check makes try_insert's call for each stored outcome in turn,
against the ones before it, in memory O(d * n) for n outcomes of d values.

An archive's one state is its list of skills, which callers may edit in
any way.  The nearest-neighbor queries scan an outcome or a parameter
matrix linearly, plenty at desk scale, each derived from the list on the
first read that needs it: a fill, which reads outcomes only, never builds
the parameter matrix.
"""

from __future__ import annotations

import enum
import json
import math
import os
import uuid
from dataclasses import dataclass

import numpy as np

from .core import ControllerParams, DimensionError, Outcome, Skill, _as_vector, _integer, _is_number

__all__ = [
    "Archive",
    "InsertOutcome",
    "InsertResult",
    "ArchiveFormatError",
    "save",
    "load",
]


def _distances(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distances [m, n] from points[d, m] to rows[d, n], both
    dimension-major.

    One broadcast difference (d, m, n) is squared in place and its planes
    are summed one coordinate at a time, in order; for d < 8 that gives the
    bits of np.linalg.norm, which sums in pairs from d = 8 on, as
    np.add.reduce over the coordinate axis would.

    Beyond about 1.3e154 a difference or its square overflows. Only those
    distances are measured again, from the pair's coordinates divided by
    their largest magnitude, so every distance that fits keeps its bits.
    """
    with np.errstate(over="ignore"):
        square = np.subtract(points[:, :, None], rows[:, None, :])
        np.multiply(square, square, out=square)
        total = square[0] if len(square) else np.zeros(square.shape[1:])   # d = 0: all 0 apart
        for k in range(1, len(square)):
            total += square[k]
        np.sqrt(total, out=total)
        far = np.isinf(total)
        if far.any():
            i, j = far.nonzero()
            a, b = points[:, i], rows[:, j]
            scale = np.maximum(np.abs(a).max(axis=0), np.abs(b).max(axis=0))
            total[i, j] = np.linalg.norm(a / scale - b / scale, axis=0) * scale
    return total


def _nearest_earlier(outs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each column of outs[d, n], a dimension-major matrix, the distance
    to its nearest earlier column (inf for the first) and that column's
    index, the earliest of equals.

    Each column is measured against the earlier ones by the call try_insert
    makes for a candidate, in memory O(d * n).
    """
    n = outs.shape[1]
    dist, index = np.full(n, np.inf), np.zeros(n, dtype=int)
    for i in range(1, n):
        row = _distances(outs[:, i:i + 1], outs[:, :i])[0]
        index[i] = row.argmin()
        dist[i] = row[index[i]]
    return dist, index


def _is_count(value) -> bool:
    """True for a non-negative int (bool is not one), the rule for D and d."""
    return type(value) is int and value >= 0


def _same_box(bounds: np.ndarray, box: np.ndarray) -> bool:
    """True when two (D, 2) parameter bounds are equal, as save needs of all skills."""
    return bounds is box or np.array_equal(bounds, box)


# the fields of a file's header, in file order, so that save writes only what
# load reads: (key in a file, Archive attribute, test, phrase)
_HEADER = (
    ("env", "env_kind", lambda value: isinstance(value, str), "a string"),
    ("D", "dim_params", _is_count, "a non-negative integer"),
    ("d", "dim_outcome", _is_count, "a non-negative integer"),
    ("r_novel", "r_novel", lambda value: _is_number(value) and value > 0, "a positive finite number"),
    ("seed", "seed", lambda value: type(value) is int, "an integer"),   # bool is no int
)

# the keys of each record, in file order: a skill's theta, outcome and quality
_RECORD_KEYS = ("theta", "outcome", "quality")


def _field_faults(fields) -> list[str]:
    """One phrase for each (name, value, test, phrase) whose value fails its
    test; Archive and load both pass it the fields of _HEADER."""
    return [f"{name} must be {phrase}, got {value!r:.40}"
            for name, value, test, phrase in fields if not test(value)]


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


class Archive:
    """Ordered set of skills unique in outcome space at radius r_novel.

    Every skill has dim_params controller values and dim_outcome outcome
    values.  skills is the archive's one state, so callers may append to
    it, pop from it, assign to its entries, clear it or reassign it.

    The queries scan one matrix each, one column per skill: try_insert,
    nearest_outcome, min_pairwise_distance and outcomes the outcome matrix,
    knn_params the parameter matrix.  Each is stored dimension-major, (d, n)
    or (D, n) in C order, so that every coordinate of the stored skills is
    one contiguous row.  A matrix is built on its first read after skills
    changed, as seen against a copy of the list taken when the cached
    matrices were built; any read that sees a change drops every matrix
    first, so that no matrix outlives the list it was built from, nor takes
    memory beside the matrix built in its place.

    The constructor raises ValueError, naming each field in file order, for
    what load would refuse in a saved header, by the rules of _HEADER: an
    env_kind that is not a str, a dim_params or dim_outcome that is not a
    non-negative int, an r_novel that is not a positive finite number and a
    seed that is not an int (a bool is neither).
    """

    def __init__(self, r_novel: float, env_kind: str, dim_params: int,
                 dim_outcome: int, seed: int = 0):
        given = locals()   # the arguments by the attribute names of _HEADER
        if faults := _field_faults((attr, given[attr], test, phrase) for _, attr, test, phrase in _HEADER):
            raise ValueError("; ".join(faults))
        self.r_novel = float(r_novel)
        self.env_kind = env_kind
        self.dim_params = dim_params
        self.dim_outcome = dim_outcome
        self.seed = seed
        self.skills: list[Skill] = []
        self._built_from: list[Skill] = []   # a copy of skills when the cached matrices were built
        self._matrices: dict[str, np.ndarray] = {}   # by Skill field, "outcome" or "params"

    def _matrix(self, field: str) -> np.ndarray:
        """The values of skill.<field> for every skill, dimension-major: one
        contiguous row per coordinate, one column per skill."""
        if self._built_from != self.skills:   # skills compare by identity
            self._matrices.clear()
            self._built_from = list(self.skills)
        if field not in self._matrices:
            dim = self.dim_outcome if field == "outcome" else self.dim_params
            rows = [getattr(skill, field).values for skill in self._built_from]
            try:
                matrix = np.array(rows).reshape(len(rows), dim)
            except ValueError:   # a skill of other dimensions, appended directly
                for i, skill in enumerate(self._built_from):
                    self._check_dimensions(skill, f"skill {i}")
                raise
            self._matrices[field] = matrix.T.copy()
        return self._matrices[field]

    def _check_dimensions(self, skill: Skill, name: str) -> None:
        """DimensionError naming the skill as name, unless it has the archive's D and d."""
        if (skill.params.dim, skill.outcome.dim) != (self.dim_params, self.dim_outcome):
            raise DimensionError(f"{name} of dimensions (D={skill.params.dim}, d={skill.outcome.dim}) "
                                 f"in an archive of (D={self.dim_params}, d={self.dim_outcome})")

    def outcomes(self) -> np.ndarray:
        """The stored outcomes, one row per skill, as a read-only view.

        The view stays current only until the archive next changes: a
        REPLACED insert patches it in place, but any other change builds a
        new matrix on the next read and leaves an earlier view stale.
        """
        view = self._matrix("outcome").T
        view.flags.writeable = False
        return view

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
        self._check_dimensions(skill, "skill")
        if self.skills and not _same_box(skill.params.bounds, self.skills[0].params.bounds):
            raise ValueError("cannot insert a skill whose parameter bounds differ from "
                             "the stored skills'")
        dists = _distances(skill.outcome.values[:, None], self._matrix("outcome"))[0]
        if dists.min(initial=np.inf) >= self.r_novel:
            self.skills.append(skill)
            return InsertResult(InsertOutcome.ADDED)
        nearest = int(np.argmin(dists))
        old = self.skills[nearest]
        if skill.quality > old.quality and np.count_nonzero(dists < self.r_novel) == 1:
            self.skills[nearest] = self._built_from[nearest] = skill
            # the read above left only matrices of this list in the cache
            for field, matrix in self._matrices.items():
                matrix[:, nearest] = getattr(skill, field).values
            return InsertResult(InsertOutcome.REPLACED)
        return InsertResult(InsertOutcome.REJECTED)

    def nearest_outcome(self, target) -> Skill:
        """Skill whose outcome is Euclidean-nearest to target; ties keep the
        earliest-inserted skill.

        Raises DimensionError unless target has dim_outcome values, and
        ValueError if one is not finite or the archive is empty.
        """
        target = _as_vector(target, "target", self.dim_outcome)
        if not self.skills:
            raise ValueError("archive is empty")
        dists = _distances(target[:, None], self._matrix("outcome"))[0]
        return self.skills[int(np.argmin(dists))]

    def knn_params(self, theta_c, k: int) -> list[Skill]:
        """k skills nearest in parameter space; ties break by insertion order.

        Asking for more neighbors than stored returns everything.  Raises
        DimensionError unless theta_c has dim_params values, and ValueError
        if one is not finite, k is not an integer >= 1 (the kind of
        :mod:`core`) or the archive is empty.
        """
        if isinstance(theta_c, ControllerParams):
            theta_c = theta_c.values
        query = _as_vector(theta_c, "theta_c", self.dim_params)
        if not self.skills:
            raise ValueError("archive is empty")
        _integer(k, "k", 1)
        dists = _distances(query[:, None], self._matrix("params"))[0]
        k = min(k, len(dists))
        # every index at or below the k-th distance, in index order, then a
        # stable sort of those: the order of argsort(kind="stable")[:k]
        candidates = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        order = candidates[np.argsort(dists[candidates], kind="stable")]
        return [self.skills[i] for i in order[:k]]

    def min_pairwise_distance(self) -> float:
        """Smallest outcome-space distance between stored skills (inf if < 2)."""
        return float(_nearest_earlier(self._matrix("outcome"))[0].min(initial=np.inf))


# ---------------------------------------------------------------------------
# Persistence: one JSON header line, then one JSON object per skill
# ---------------------------------------------------------------------------

def save(archive: Archive, path) -> None:
    """Write the archive as JSON lines (UTF-8, LF).

    The header carries env/D/d/r_novel/seed plus the parameter bounds that
    try_insert makes all skills share (none for an empty archive), so a file
    round-trips without consulting the environment registry.  The lines go to
    a new file beside path, which is flushed to disk and then renamed onto
    path, so a save that fails leaves any previous file as it was.  Raises,
    before any file is made, DimensionError or ValueError naming the first
    skill (appended directly) whose dimensions are not the archive's, or
    whose parameter bounds differ from the first skill's.
    """
    for i, skill in enumerate(archive.skills):
        archive._check_dimensions(skill, f"cannot save skill {i}")
        if not _same_box(skill.params.bounds, archive.skills[0].params.bounds):
            raise ValueError(f"cannot save skill {i}, whose parameter bounds differ from skill 0's")
    header = {key: getattr(archive, attr) for key, attr, _, _ in _HEADER}
    header["bounds"] = archive.skills[0].params.bounds.tolist() if archive.skills else []
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(header) + "\n")
            for skill in archive.skills:
                record = (skill.params.values.tolist(), skill.outcome.values.tolist(), skill.quality)
                fh.write(json.dumps(dict(zip(_RECORD_KEYS, record))) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _missing(obj: dict, keys) -> str:
    """'' when obj holds every key, else a phrase naming those it lacks, in order."""
    absent = [key for key in keys if key not in obj]
    if not absent:
        return ""
    return f"missing key{'s' if len(absent) > 1 else ''} " + ", ".join(map(repr, absent))


def _vector(value, name: str, size: int) -> np.ndarray:
    """value as a float vector if it is a list of size finite numbers, else ValueError."""
    if not isinstance(value, list) or len(value) != size:
        raise ValueError(f"{name} must be a list of {size} numbers, got {value!r:.40}")
    if not all(map(_is_number, value)):
        raise ValueError(f"{name} must hold finite numbers, got {value!r:.40}")
    return np.array(value, dtype=float)


def _object(raw: str, what: str) -> dict:
    """The JSON object on one line, else ValueError naming what the line holds."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad {what} JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {raw.strip():.40}")
    return obj


def _header(raw: str) -> tuple[Archive, np.ndarray | None]:
    """Empty archive and (D, 2) parameter bounds from the header line, None
    for a header without them.

    Raises ValueError naming every fault found in the header.
    """
    header = _object(raw, "header")
    faults = []
    if missing := _missing(header, [key for key, _, _, _ in _HEADER]):
        faults.append(f"header {missing}")
    faults += _field_faults((key, header[key], test, phrase)
                            for key, _, test, phrase in _HEADER if key in header)
    dim = header.get("D")
    bounds = header.get("bounds", [])
    if _is_count(dim) and bounds != []:
        if not (
            isinstance(bounds, list)
            and len(bounds) == dim
            and all(
                isinstance(row, list) and len(row) == 2
                and all(_is_number(v) or v in (-math.inf, math.inf) for v in row)
                for row in bounds
            )
        ):
            faults.append(f"bounds must be D={dim} [lo, hi] rows of numbers, got {bounds!r:.40}")
        elif inverted := [i for i, (lo, hi) in enumerate(bounds, start=1) if lo > hi]:
            faults.append(f"bounds row {inverted[0]} has lo > hi")
    if faults:
        raise ValueError("; ".join(faults))
    archive = Archive(**{attr: header[key] for key, attr, _, _ in _HEADER})
    return archive, None if bounds == [] else np.array(bounds, dtype=float)


def _record(raw: str, archive: Archive, bounds: np.ndarray | None) -> Skill:
    """Skill from one line, given the archive's parameter bounds (None for
    unbounded); ValueError says what is wrong."""
    rec = _object(raw, "record")
    try:
        theta, outcome, quality = [rec[key] for key in _RECORD_KEYS]
    except KeyError:
        raise ValueError(f"record {_missing(rec, _RECORD_KEYS)}") from None
    theta = _vector(theta, "theta", archive.dim_params)
    outcome = _vector(outcome, "outcome", archive.dim_outcome)
    if bounds is None:   # the unbounded box, built only once a theta has shown D values
        bounds = np.tile([-np.inf, np.inf], (len(theta), 1))
    return Skill(ControllerParams(theta, bounds), Outcome(outcome), quality)


def load(path) -> Archive:
    """Read an archive written by :func:`save`, validating every line.

    The header (line 1) must be a JSON object with ``env`` (string), ``D`` and
    ``d`` (non-negative integers), ``r_novel`` (positive finite number) and
    ``seed`` (integer); ``bounds``, if present and not empty, must be D rows
    [lo, hi] of numbers with lo <= hi (infinite ends allowed, NaN not). Each
    further non-blank line must be a JSON object whose ``theta`` is D finite
    numbers, whose ``outcome`` is d finite numbers and whose ``quality`` is a
    finite number. Stored outcomes must keep the pairwise spacing
    ``>= r_novel`` that :meth:`Archive.try_insert` keeps, measured as it
    measures; the first line that breaks it is named, with its nearest earlier
    line; this check takes O(n²) time in the number of records. Any fault in
    the file's contents, including bytes that are not UTF-8, raises
    :class:`ArchiveFormatError` starting ``<path>:<line>:``. An OS error
    from opening or reading the file, such as FileNotFoundError for a
    missing path or IsADirectoryError for a directory, propagates unchanged.
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
                    skills.append(_record(line, archive, bounds))
                    bounds = skills[-1].params.bounds   # one box shared by every skill
                    linenos.append(lineno)
            except ValueError as exc:   # UnicodeDecodeError included
                raise ArchiveFormatError(f"{path}:{lineno}: {exc}") from None
    if archive is None:
        raise ArchiveFormatError(f"{path}:1: empty archive file")
    archive.skills = skills
    dist, index = _nearest_earlier(archive._matrix("outcome"))
    crowded = np.flatnonzero(dist < archive.r_novel)
    if crowded.size:
        later = crowded[0]
        raise ArchiveFormatError(
            f"{path}:{linenos[later]}: outcome closer than r_novel={archive.r_novel} "
            f"to the outcome on line {linenos[index[later]]}"
        )
    return archive
