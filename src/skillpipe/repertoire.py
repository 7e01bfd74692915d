"""Skill archive with novelty-gated insertion and quality replacement.

Stored outcomes keep pairwise Euclidean distance >= r_novel.  A candidate
closer than that to existing skills may replace its nearest neighbor when it
has strictly higher quality, but only if removing that neighbor restores the
spacing; otherwise it is rejected.  load admits each record of a file
through try_insert, in file order, so it refuses exactly the files
try_insert could not have written.  It reads a record's vectors by
:mod:`core`'s vector rule and the header's parameter bounds by its box
rule, so a file holds what a skill's constructors would accept.

An archive's one state is its list of skills, which callers may edit in
any way.  The nearest-neighbor queries scan an outcome or a parameter
matrix linearly, plenty at desk scale, each built from the list on the
first read that needs it: a fill, which reads outcomes only, never builds
the parameter matrix.  try_insert keeps a built matrix current through its
own edits, writing a replaced skill's column and appending an added one in
place, so that a fill reads the list once; any other edit of the list
drops every matrix on the next read.  A skill's arrays are read-only (see
:mod:`core`), so only an edit of the list, or a write to an array whose
owner made it writeable again, can leave a matrix stale.
"""

from __future__ import annotations

import enum
import json
import math
import os
import uuid
from dataclasses import dataclass

import numpy as np

from .core import ControllerParams, DimensionError, Outcome, Skill, _as_box, _as_vector, _integer, _is_number

__all__ = [
    "Archive",
    "InsertOutcome",
    "InsertResult",
    "ArchiveFormatError",
    "save",
    "load",
]


def _distances(point: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distances [n] from point[d] to rows[d, n], dimension-major.

    One broadcast difference (d, n) is squared in place and its rows are
    summed one coordinate at a time, in order; for d < 8 that gives the
    bits of np.linalg.norm, which sums in pairs from d = 8 on, as
    np.add.reduce over the coordinate axis would.

    Beyond about 1.3e154 a difference or its square overflows. Only those
    columns are measured again, from the pair's coordinates divided by
    their largest magnitude, so every distance that fits keeps its bits.
    """
    with np.errstate(over="ignore"):
        square = np.subtract(point[:, None], rows)
        np.multiply(square, square, out=square)
        total = square[0] if len(square) else np.zeros(rows.shape[1])   # d = 0: all 0 apart
        for k in range(1, len(square)):
            total += square[k]
        np.sqrt(total, out=total)
        far = np.flatnonzero(np.isinf(total))
        if len(far):
            b = rows[:, far]
            scale = np.maximum(np.abs(point).max(), np.abs(b).max(axis=0))
            total[far] = np.linalg.norm(point[:, None] / scale - b / scale, axis=0) * scale
    return total


def _is_count(value) -> bool:
    """True for a non-negative int (bool is not one), the rule for D and d."""
    return type(value) is int and value >= 0


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


_GROWTH = 2   # the factor by which a full matrix buffer grows


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
    knn_params the parameter matrix.  Each is the first n columns of a
    dimension-major buffer, (d, capacity) or (D, capacity) in C order, so
    that every coordinate of the stored skills is one contiguous row.  A
    matrix is built on its first read after skills changed, as seen
    against a copy of the list taken when the cached matrices were built;
    any read that sees a change drops every matrix first, so that no matrix
    outlives the list it was built from, nor takes memory beside the matrix
    built in its place.  try_insert edits that copy with the list: a
    REPLACED insert overwrites one column of each cached buffer, and an
    ADDED one writes the next column, first moving a full buffer into one
    _GROWTH times its capacity.

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
        self._matrices: dict[str, np.ndarray] = {}   # buffers by Skill field, "outcome" or "params"

    def _matrix(self, field: str) -> np.ndarray:
        """The values of skill.<field> for every skill, dimension-major: one
        contiguous row per coordinate, one column per skill, a view of the
        first columns of the field's buffer."""
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
        return self._matrices[field][:, :len(self._built_from)]

    def _check_dimensions(self, skill: Skill, name: str) -> None:
        """DimensionError naming the skill as name, unless it has the archive's D and d."""
        if (skill.params.dim, skill.outcome.dim) != (self.dim_params, self.dim_outcome):
            raise DimensionError(f"{name} of dimensions (D={skill.params.dim}, d={skill.outcome.dim}) "
                                 f"in an archive of (D={self.dim_params}, d={self.dim_outcome})")

    def _check_skill(self, skill: Skill, name: str) -> None:
        """Raise naming the skill as name unless the archive may hold it: a
        DimensionError unless it has the archive's D and d, a ValueError
        unless its parameter bounds equal skill 0's, the one box a file keeps."""
        self._check_dimensions(skill, name)
        bounds = skill.params.bounds
        box = self.skills[0].params.bounds if self.skills else bounds
        if not (bounds is box or np.array_equal(bounds, box)):
            raise ValueError(f"{name}, whose parameter bounds differ from skill 0's")

    def outcomes(self) -> np.ndarray:
        """A new array of the stored outcomes, one row per skill."""
        return self._matrix("outcome").T.copy()

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
        self._check_skill(skill, "skill")
        dists = _distances(skill.outcome.values, self._matrix("outcome"))
        # the read above left only buffers of this list in the cache
        nearest = int(dists.argmin()) if len(dists) else -1
        if nearest < 0 or dists[nearest] >= self.r_novel:
            n = len(self.skills)
            self.skills.append(skill)
            self._built_from.append(skill)
            for field, buffer in self._matrices.items():
                if buffer.shape[1] == n:   # full
                    grown = np.empty((len(buffer), max(1, _GROWTH * n)))
                    grown[:, :n] = buffer
                    self._matrices[field] = buffer = grown
                buffer[:, n] = getattr(skill, field).values
            return InsertResult(InsertOutcome.ADDED)
        old = self.skills[nearest]
        if skill.quality > old.quality and np.count_nonzero(dists < self.r_novel) == 1:
            self.skills[nearest] = self._built_from[nearest] = skill
            for field, buffer in self._matrices.items():
                buffer[:, nearest] = getattr(skill, field).values
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
        dists = _distances(target, self._matrix("outcome"))
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
        dists = _distances(query, self._matrix("params"))
        k = min(k, len(dists))
        # every index at or below the k-th distance, in index order, then a
        # stable sort of those: the order of argsort(kind="stable")[:k]
        candidates = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        order = candidates[np.argsort(dists[candidates], kind="stable")]
        return [self.skills[i] for i in order[:k]]

    def min_pairwise_distance(self) -> float:
        """Smallest outcome-space distance between stored skills (inf if < 2)."""
        outs = self._matrix("outcome")
        # each outcome against the earlier ones, by the call try_insert makes for a candidate
        nearest = (_distances(outs[:, i], outs[:, :i]).min() for i in range(1, outs.shape[1]))
        return float(min(nearest, default=math.inf))


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
        archive._check_skill(skill, f"cannot save skill {i}")
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
    """Empty archive and (D, 2) parameter bounds from the header line, read
    by the box rule (:func:`core._as_box`), None for a header without them.

    Raises ValueError naming every fault found in the header.
    """
    header = _object(raw, "header")
    faults = []
    if missing := _missing(header, [key for key, _, _, _ in _HEADER]):
        faults.append(f"header {missing}")
    faults += _field_faults((key, header[key], test, phrase)
                            for key, _, test, phrase in _HEADER if key in header)
    dim, bounds, box = header.get("D"), header.get("bounds", []), None
    if _is_count(dim) and bounds != []:
        try:
            box = _as_box(bounds, dim)
        except ValueError as exc:
            faults.append(str(exc))
    if faults:
        raise ValueError("; ".join(faults))
    archive = Archive(**{attr: header[key] for key, attr, _, _ in _HEADER})
    return archive, box


def _record(raw: str, archive: Archive, bounds: np.ndarray | None) -> Skill:
    """Skill from one line, given the archive's parameter bounds (None for
    unbounded); ValueError says what is wrong."""
    rec = _object(raw, "record")
    try:
        theta, outcome, quality = [rec[key] for key in _RECORD_KEYS]
    except KeyError:
        raise ValueError(f"record {_missing(rec, _RECORD_KEYS)}") from None
    theta = _as_vector(theta, "theta", archive.dim_params)
    outcome = _as_vector(outcome, "outcome", archive.dim_outcome)
    if bounds is None:   # the unbounded box, built only once a theta has shown D values
        bounds = np.tile([-np.inf, np.inf], (len(theta), 1))
    return Skill(ControllerParams(theta, bounds), Outcome(outcome), quality)


def load(path) -> Archive:
    """Read an archive written by :func:`save`, validating every line.

    The header (line 1) must be a JSON object with ``env`` (string), ``D`` and
    ``d`` (non-negative integers), ``r_novel`` (positive finite number) and
    ``seed`` (integer); ``bounds``, if present and not empty, must be D rows
    [lo, hi] with lo <= hi (infinite ends allowed, NaN not), by
    :mod:`core`'s box rule. Each further non-blank line must be a JSON
    object whose ``theta`` is D finite numbers and whose ``outcome`` is d
    finite numbers, each by :mod:`core`'s vector rule, and whose
    ``quality`` is a finite number. Each record is then admitted by
    :meth:`Archive.try_insert`, which must add it: an outcome closer than
    ``r_novel`` to an earlier one is refused, naming the line of the
    earliest of its nearest earlier outcomes. try_insert scans every stored
    outcome, so a file of n records takes O(n²) time. Any fault in the
    file's contents, including bytes that are not UTF-8, raises
    :class:`ArchiveFormatError` starting ``<path>:<line>:`` and naming the
    first faulty line in file order. An OS error
    from opening or reading the file, such as FileNotFoundError for a
    missing path or IsADirectoryError for a directory, propagates unchanged.
    """
    archive = None
    linenos = []   # the line of each stored skill
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if archive is None:
                    archive, bounds = _header(line)
                elif line.strip():
                    skill = _record(line, archive, bounds)
                    bounds = skill.params.bounds   # one box shared by every skill
                    if archive.try_insert(skill).outcome is not InsertOutcome.ADDED:
                        # the skill try_insert measured nearest, the earliest of equals
                        nearest = archive.skills.index(archive.nearest_outcome(skill.outcome.values))
                        raise ValueError(f"outcome closer than r_novel={archive.r_novel} "
                                         f"to the outcome on line {linenos[nearest]}")
                    linenos.append(lineno)
            except ValueError as exc:   # UnicodeDecodeError included
                raise ArchiveFormatError(f"{path}:{lineno}: {exc}") from None
    if archive is None:
        raise ArchiveFormatError(f"{path}:1: empty archive file")
    return archive
