import hashlib
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillpipe import mathkit, repertoire, sim
from skillpipe.core import ControllerParams, DimensionError, Outcome, Skill
from skillpipe.repertoire import (
    Archive,
    ArchiveFormatError,
    InsertOutcome,
    load,
    save,
)
from conftest import make_skill


def fresh_archive(r_novel=0.05, d=2, dim_params=3):
    return Archive(r_novel=r_novel, env_kind="throw", dim_params=dim_params,
                   dim_outcome=d, seed=0)


HEADER = {"env": "throw", "D": 3, "d": 2, "r_novel": 0.05, "seed": 0}
RECORD = {"theta": [0, 0, 0], "outcome": [0.1, 0.2], "quality": 1.0}


def write_archive(tmp_path, header, records):
    """Archive file from a header and records, each a JSON value or a raw line."""
    lines = [h if isinstance(h, str) else json.dumps(h) for h in (header, *records)]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def assert_rejected_at(path, line):
    with pytest.raises(ArchiveFormatError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:{line}: ")


@st.composite
def insert_streams(draw):
    """r_novel, an outcome dimension d of 0-10 and a stream of skills to
    insert, a few integer qualities making ties.

    Coordinates come from a small pool: a grid of r_novel / k, so that
    outcomes land within, at and beyond r_novel of each other, signed
    zeros, large values and a few floats.  An outcome is fresh, an earlier
    one moved by a grid step on some coordinates, or a pair beside an
    earlier one: that outcome with a signed zero on coordinate k, then with
    coordinate k at r_novel or one ulp either side of it, the one
    coordinate in which the two differ.
    """
    r_novel = draw(st.sampled_from([0.05, 0.1, 0.3]), label="r_novel")
    d = draw(st.integers(0, 10), label="d")
    step = r_novel / draw(st.sampled_from([1, 2, 3]), label="k")
    pool = ([step * i for i in range(-6, 7)] + [-0.0] + [s * x for s in (1, -1) for x in (1e8, 1e15, 1e100)]
            + draw(st.lists(st.floats(-1.0, 1.0), max_size=4), label="floats"))
    offsets = [np.nextafter(r_novel, 0.0), r_novel, np.nextafter(r_novel, np.inf)]
    outcomes = []
    for _ in range(draw(st.integers(0, 120), label="n")):
        how = draw(st.sampled_from(["fresh", "moved", "beside"] if outcomes and d else ["fresh"]))
        if how == "fresh":
            outcomes.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d)), float))
            continue
        outcome = outcomes[draw(st.integers(0, len(outcomes) - 1))].copy()
        if how == "moved":
            outcome += step * np.array(draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d)))
        else:
            k = draw(st.integers(0, d - 1))
            outcome[k] = draw(st.sampled_from([0.0, -0.0]))
            outcomes.append(outcome.copy())
            outcome[k] = draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from(offsets))
        outcomes.append(outcome)
    quality = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))
    qualities = draw(st.lists(quality, min_size=len(outcomes), max_size=len(outcomes)), label="qualities")
    return r_novel, d, [make_skill([i, 0, 0], o, q) for i, (o, q) in enumerate(zip(outcomes, qualities))]


def ordered_distances(points, rows):
    """Distances [m, n] from points[m, d] to rows[n, d], with the squares
    summed in coordinate order, as the archive sums them."""
    total = np.zeros((len(points), len(rows)))
    for column, row_column in zip(points.T, rows.T):
        square = np.subtract.outer(column, row_column)
        total += square * square
    return np.sqrt(total)


def insert_checked(arch, skill):
    """arch.try_insert(skill), checked against the rule in its docstring.

    ADDED iff no stored outcome is within r_novel; otherwise REPLACED iff the
    candidate's quality is strictly higher than the nearest skill's and no
    other stored outcome is within r_novel, and then exactly the nearest
    skill is swapped out; otherwise REJECTED, with the skills unchanged.
    """
    before = list(arch.skills)
    dists = ordered_distances(skill.outcome.values[None], arch.outcomes())[0]
    within = int(np.sum(dists < arch.r_novel))
    nearest = int(np.argmin(dists)) if before else None
    if within == 0:
        expected = InsertOutcome.ADDED
    elif within == 1 and skill.quality > before[nearest].quality:
        expected = InsertOutcome.REPLACED
    else:
        expected = InsertOutcome.REJECTED
    result = arch.try_insert(skill)
    assert result.outcome is expected
    if expected is InsertOutcome.ADDED:
        expect_skills = before + [skill]
    elif expected is InsertOutcome.REPLACED:
        expect_skills = before[:nearest] + [skill] + before[nearest + 1:]
    else:
        expect_skills = before
    assert len(arch.skills) == len(expect_skills)
    assert all(a is b for a, b in zip(arch.skills, expect_skills))


class TestTryInsert:
    def test_empty_archive_adds(self):
        arch = fresh_archive()
        res = arch.try_insert(make_skill([0.1, 0.2, 0.3], [0.0, 0.0], 1.0))
        assert res.outcome is InsertOutcome.ADDED
        assert len(arch.skills) == 1

    def test_better_quality_replaces_close_neighbor(self):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        res = arch.try_insert(make_skill([0.1, 0, 0], [0.01, 0.0], 2.0))
        assert res.outcome is InsertOutcome.REPLACED
        assert len(arch.skills) == 1
        assert arch.skills[0].quality == 2.0

    def test_worse_quality_rejected(self):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        res = arch.try_insert(make_skill([0.1, 0, 0], [0.01, 0.0], 0.5))
        assert res.outcome is InsertOutcome.REJECTED
        assert arch.skills[0].quality == 1.0

    def test_equal_quality_rejected_strict_inequality(self):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        res = arch.try_insert(make_skill([0.1, 0, 0], [0.01, 0.0], 1.0))
        assert res.outcome is InsertOutcome.REJECTED

    def test_distant_outcome_added(self):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        res = arch.try_insert(make_skill([0.1, 0, 0], [1.0, 0.0], 0.1))
        assert res.outcome is InsertOutcome.ADDED
        assert len(arch.skills) == 2

    def test_replacement_blocked_when_second_conflict_exists(self):
        # candidate within r_novel of two stored skills: replacing only the
        # nearest would break the pairwise spacing, so it must be rejected
        arch = fresh_archive(r_novel=0.05)
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        arch.try_insert(make_skill([1, 0, 0], [0.06, 0.0], 1.0))
        res = arch.try_insert(make_skill([2, 0, 0], [0.03, 0.0], 5.0))
        assert res.outcome is InsertOutcome.REJECTED
        assert arch.min_pairwise_distance() >= 0.05

    @settings(max_examples=50, deadline=None)
    @given(stream=insert_streams())
    def test_pairwise_invariant_random_stream(self, stream):
        r_novel, d, skills = stream
        arch = fresh_archive(r_novel=r_novel, d=d)
        for skill in skills:
            insert_checked(arch, skill)
            assert arch.min_pairwise_distance() >= r_novel

    @settings(max_examples=50, deadline=None)
    @given(stream=insert_streams())
    def test_max_quality_near_stored_outcomes_never_decreases(self, stream):
        # balls of radius r_novel centered at stored outcomes: replacement may
        # move an outcome, but only for a strictly better-quality skill that
        # stays inside the displaced skill's own ball
        r_novel, d, skills = stream
        arch = fresh_archive(r_novel=r_novel, d=d)

        def ball_max(centers):
            dist = ordered_distances(centers, arch.outcomes())
            return np.where(dist < r_novel, arch.qualities(), -np.inf).max(axis=1, initial=-np.inf)

        for skill in skills:
            centers = arch.outcomes().copy()
            before = ball_max(centers)
            insert_checked(arch, skill)
            assert np.all(ball_max(centers) >= before)

    @pytest.mark.parametrize("first, wrong", [
        pytest.param([], make_skill([0, 0, 0, 0, 0], [0.5, 0.5]), id="theta-of-5-first"),
        pytest.param([], make_skill([0, 0, 0], [0.5, 0.5, 0.5]), id="outcome-of-3-first"),
        pytest.param([make_skill([0, 0, 0], [0.0, 0.0])], make_skill([0, 0], [0.5, 0.5]),
                     id="theta-of-2-after-3"),
    ])
    def test_wrong_dimensions_raise_and_change_nothing(self, first, wrong):
        # D=3, d=2: kept, such a skill would make save write a file load
        # refuses, or the next knn_params fail inside NumPy
        arch = fresh_archive()
        for skill in first:
            arch.try_insert(skill)
        before = list(arch.skills)
        with pytest.raises(DimensionError):
            arch.try_insert(wrong)
        assert len(arch.skills) == len(before)
        assert all(a is b for a, b in zip(arch.skills, before))

    @pytest.mark.parametrize("field", ["dim_params", "dim_outcome"])
    @pytest.mark.parametrize("value", [-1, 2.5, True, "2"])
    def test_dimensions_must_be_non_negative_integers(self, field, value):
        dims = {"dim_params": 3, "dim_outcome": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a non-negative integer"):
            Archive(0.1, "throw", **dims)

    @pytest.mark.parametrize("field, value", [
        ("env_kind", 7), ("env_kind", None), ("env_kind", b"throw"),
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", np.int64(1)),
    ], ids=["env_kind-int", "env_kind-None", "env_kind-bytes",
            "seed-float", "seed-bool", "seed-str", "seed-int64"])
    def test_header_fields_load_would_refuse_are_refused(self, field, value):
        # save used to write these, and load then refused the file at line 1
        fields = {"env_kind": "throw", "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an? (string|integer), got "):
            Archive(0.1, dim_params=3, dim_outcome=2, **fields)

    def test_several_bad_fields_are_named_in_file_order(self):
        with pytest.raises(ValueError) as info:
            Archive(0, 7, 3, 2, seed=True)
        assert str(info.value) == ("env_kind must be a string, got 7; "
                                   "r_novel must be a positive finite number, got 0; "
                                   "seed must be an integer, got True")

    def test_other_parameter_bounds_raise_and_change_nothing(self):
        # save writes one box for the archive: kept, this skill would reload
        # with bounds [-1, 1] around a value of 5
        arch = fresh_archive(dim_params=2)
        arch.try_insert(make_skill([0, 0], [0.0, 0.0]))
        before = list(arch.skills)
        wide = Skill(ControllerParams(values=[5.0, 0.0], bounds=[[-10, 10], [-1, 1]]),
                     Outcome(values=[1.0, 0.0]), 1.0)
        with pytest.raises(ValueError, match="bounds differ"):
            arch.try_insert(wide)
        assert len(arch.skills) == 1 and arch.skills[0] is before[0]
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0]])
        # equal bounds in another array are the same box
        assert arch.try_insert(make_skill([0.5, 0], [1.0, 0.0])).outcome is InsertOutcome.ADDED


class TestQueries:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_min_pairwise_distance_matches_the_naive_form(self, data):
        # the scan against the per-coordinate oracle, bit for bit: coordinates
        # on a small grid make exact ties, repeated points a distance of 0,
        # and from d = 8 on np.linalg.norm would sum the squares in another order
        d = data.draw(st.integers(0, 10), label="d")
        coordinate = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]), st.floats(-10.0, 10.0))
        points = st.lists(coordinate, min_size=d, max_size=d)
        outcomes = data.draw(st.lists(points, max_size=70), label="outcomes")
        if outcomes and data.draw(st.booleans(), label="repeat"):
            outcomes.append(outcomes[data.draw(st.integers(0, len(outcomes) - 1))])
        arch = fresh_archive(d=d)
        arch.skills = [make_skill([0, 0, 0], o) for o in outcomes]
        n = len(outcomes)
        outs = np.array(outcomes, dtype=float).reshape(n, d)
        oracle = ordered_distances(outs, outs)
        assert arch.min_pairwise_distance() == min((oracle[i, :i].min() for i in range(1, n)), default=math.inf)

    def test_skills_compare_by_identity(self):
        arch = fresh_archive(r_novel=0.1)
        for i in range(5):
            arch.try_insert(make_skill([i / 5, 0, 0], [0.2 * i, 0.0], 1.0))
        found = arch.nearest_outcome([0.41, 0.0])
        assert arch.skills.index(found) == 2
        twin = make_skill([0.4, 0, 0], [0.4, 0.0], 1.0)   # the same fields, another skill
        assert found == found and twin != found and twin not in arch.skills
        assert len({*arch.skills, twin}) == 6

    @pytest.mark.parametrize("make", [
        lambda: sim.RealityGap(joint_bias=np.ones(5)),
        lambda: ControllerParams(np.zeros(3), np.tile([-1.0, 1.0], (3, 1))),
        lambda: Outcome(np.zeros(2)),
        lambda: mathkit.least_squares(np.eye(2), np.ones(2)),
        lambda: mathkit.hosvd(np.ones((2, 2, 2)), (1, 1, 1)),
    ], ids=["RealityGap", "ControllerParams", "Outcome", "LeastSquaresFit", "TuckerFactors"])
    def test_values_with_array_fields_compare_by_identity(self, make):
        # == over their ndarray fields would raise, and hash would fail
        value, twin = make(), make()
        assert value == value and twin != value
        assert len({value, twin, value}) == 2

    def test_outcomes_are_a_copy_the_caller_owns(self):
        arch = fresh_archive(r_novel=0.1)
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        arch.try_insert(make_skill([1, 0, 0], [1.0, 0.0], 1.0))
        copy = arch.outcomes()
        assert np.array_equal(copy, [[0.0, 0.0], [1.0, 0.0]])
        copy[0] = [5.0, 5.0]   # writing the copy changes no query
        assert arch.nearest_outcome([0.0, 0.0]) is arch.skills[0]
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0], [1.0, 0.0]])
        # later inserts, replaced or added, show in queries and a new copy only
        better = make_skill([1, 0, 0], [1.05, 0.0], 2.0)
        assert arch.try_insert(better).outcome is InsertOutcome.REPLACED
        assert arch.try_insert(make_skill([2, 0, 0], [2.0, 0.0], 1.0)).outcome is InsertOutcome.ADDED
        assert arch.nearest_outcome([1.1, 0.0]) is better
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0], [1.05, 0.0], [2.0, 0.0]])
        assert np.array_equal(copy, [[5.0, 5.0], [1.0, 0.0]])

    def test_single_skill_archive(self):
        arch = fresh_archive()
        skill = make_skill([0, 0, 0], [0.3, 0.4], 1.0)
        arch.try_insert(skill)
        assert arch.nearest_outcome([99.0, 99.0]) is arch.skills[0]
        assert arch.knn_params(skill.params, 1)[0] is arch.skills[0]

    def test_zero_distance_query(self):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.3, 0.4], 1.0))
        arch.try_insert(make_skill([1, 1, 1], [0.9, 0.9], 1.0))
        hit = arch.nearest_outcome([0.9, 0.9])
        assert np.array_equal(hit.outcome.values, [0.9, 0.9])

    def test_knn_matches_brute_force(self):
        rng = np.random.default_rng(2)
        arch = fresh_archive(r_novel=1e-9, dim_params=5)
        for _ in range(100):
            arch.try_insert(
                make_skill(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 2), float(rng.normal()))
            )
        query = rng.uniform(-1, 1, 5)
        got = arch.knn_params(query, 16)
        dists = [np.linalg.norm(s.params.values - query) for s in arch.skills]
        expect = [arch.skills[i] for i in np.argsort(dists, kind="stable")[:16]]
        assert [id(s) for s in got] == [id(s) for s in expect]

    def test_knn_selection_is_the_stable_sort_on_ties(self):
        # parameters on a 3x3x3 grid, 60 skills: most distances tie, so every
        # k cuts through a run of equal distances
        rng = np.random.default_rng(5)
        arch = fresh_archive()
        arch.skills = [make_skill(rng.integers(-1, 2, 3), [i, 0.0]) for i in range(60)]
        params = np.array([s.params.values for s in arch.skills])
        for query in rng.integers(-1, 2, (8, 3)):
            order = np.argsort(np.linalg.norm(params - query, axis=1), kind="stable")
            for k in range(1, 62):
                got = arch.knn_params(query, k)
                assert [id(s) for s in got] == [id(arch.skills[i]) for i in order[:k]]

    def test_k_larger_than_archive_returns_all(self):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        assert len(arch.knn_params([0.0, 0.0, 0.0], 10)) == 1

    def test_empty_archive_errors(self):
        arch = fresh_archive()
        with pytest.raises(ValueError):
            arch.nearest_outcome([0.0, 0.0])
        with pytest.raises(ValueError):
            arch.knn_params([0.0, 0.0, 0.0], 1)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, False, "2", None, np.float64(2.0), 0, -1, np.int64(0)],
                             ids=["2.5", "2.0", "True", "False", "str", "None", "float64", "0", "-1", "int64-0"])
    def test_k_must_be_an_integer_of_at_least_one(self, k):
        # 2.5 used to fail inside the slicing, and True to return one skill
        arch = fresh_archive()
        for i in range(5):
            arch.try_insert(make_skill([i, 0, 0], [i, 0.0]))
        before = list(arch.skills)
        with pytest.raises(ValueError, match="^k must be an integer >= 1, got "):
            arch.knn_params([0.0, 0.0, 0.0], k)
        assert len(arch.skills) == 5 and all(a is b for a, b in zip(arch.skills, before))
        assert np.array_equal(arch.outcomes(), [[i, 0.0] for i in range(5)])

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)], ids=["int64", "int32", "uint8"])
    def test_numpy_integer_k_is_accepted(self, k):
        arch = fresh_archive()
        for i in range(5):
            arch.try_insert(make_skill([i, 0, 0], [i, 0.0]))
        got = arch.knn_params([0.0, 0.0, 0.0], k)
        assert len(got) == 2 and all(a is b for a, b in zip(got, arch.skills))

    def test_tie_breaks_by_insertion_order(self):
        arch = fresh_archive(r_novel=0.01)
        arch.try_insert(make_skill([0.5, 0, 0], [0.0, 0.0], 1.0))
        arch.try_insert(make_skill([-0.5, 0, 0], [0.5, 0.0], 1.0))
        # both thetas equidistant from the origin query
        got = arch.knn_params([0.0, 0.0, 0.0], 1)
        assert got[0] is arch.skills[0]

    @pytest.mark.parametrize("query, error", [
        pytest.param(lambda a: a.nearest_outcome([0.9]), DimensionError, id="target-of-1"),
        pytest.param(lambda a: a.nearest_outcome([0.9, 0, 0]), DimensionError, id="target-of-3"),
        pytest.param(lambda a: a.nearest_outcome([[0.9, 0]]), DimensionError, id="target-2-d"),
        pytest.param(lambda a: a.nearest_outcome([math.nan, 0.9]), ValueError, id="target-nan"),
        pytest.param(lambda a: a.nearest_outcome([0.9, math.inf]), ValueError, id="target-inf"),
        pytest.param(lambda a: a.knn_params([0.9], 1), DimensionError, id="theta-of-1"),
        pytest.param(lambda a: a.knn_params([0.9, 0, 0, 0], 1), DimensionError, id="theta-of-4"),
        pytest.param(lambda a: a.knn_params([math.nan, 0, 0], 2), ValueError, id="theta-nan"),
    ])
    def test_malformed_queries_raise_and_change_nothing(self, query, error):
        # a query of the wrong length used to broadcast, and a NaN one to
        # answer with the first-inserted skills
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0]))
        arch.try_insert(make_skill([1, 0, 0], [1.0, 0.0]))
        before = list(arch.skills)
        with pytest.raises(ValueError) as info:
            query(arch)
        assert type(info.value) is error
        assert all(a is b for a, b in zip(arch.skills, before)) and len(arch.skills) == 2
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0], [1.0, 0.0]])


class TestDistances:
    """_distances, the one measure of every distance the archive takes."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_squares_are_summed_in_coordinate_order(self, d):
        # and below d = 8 that is np.linalg.norm
        rng = np.random.default_rng(d)
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            points, rows = rng.normal(0.0, scale, (4, d)), rng.normal(0.0, scale, (30, d))
            got = np.array([repertoire._distances(p, rows.T) for p in points])
            assert got.tolist() == ordered_distances(points, rows).tolist()
            if d < 8:
                assert np.array_equal(got, [np.linalg.norm(rows - p, axis=1) for p in points])

    def test_outcomes_too_far_apart_to_square_are_measured(self):
        # their differences square past the largest float; the configured
        # filterwarnings turns an overflow warning into an error
        arch = Archive(0.1, "throw", 3, 2)
        for outcome in ([-1e200, 0.0], [0.5e200, 0.0]):
            assert arch.try_insert(make_skill([0, 0, 0], outcome)).outcome is InsertOutcome.ADDED
        assert arch.nearest_outcome([1e200, 0.0]) is arch.skills[1]
        assert arch.min_pairwise_distance() == pytest.approx(1.5e200, rel=1e-15)

    def test_only_the_columns_too_far_apart_are_measured_again(self):
        # columns 0 and 2 overflow and are measured from scaled coordinates;
        # column 1 between them keeps the bits of the plain sum
        point = np.array([1e200, 0.0])
        rows = np.array([[-1e200, 0.0], [1e200, 0.5], [0.5e200, 0.0]])
        got = repertoire._distances(point, rows.T.copy())
        assert got[1:2].tobytes() == ordered_distances(point[None], rows[1:2])[0].tobytes()
        for j in (0, 2):
            scale = max(np.abs(point).max(), np.abs(rows[j]).max())
            assert got[j] == np.linalg.norm(point / scale - rows[j] / scale) * scale

    def test_without_coordinates_every_point_is_0_apart(self):
        # an archive of dim_outcome 0 measures by it
        got = np.array([repertoire._distances(p, np.zeros((0, 3))) for p in np.zeros((2, 0))])
        assert got.shape == (2, 3) and not got.any()

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(0, 40), size=st.integers(1, 6), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1), many=st.integers(41, 20_000))
    def test_bits_match_the_per_coordinate_loop(self, d, size, scale, seed, many):
        # every entry from a small pool holding signed zeros, so that
        # coordinates tie, and a point among the rows from n = 2 on;
        # ordered_distances loops as the kernel of row-major matrices did,
        # one coordinate at a time.  np.add.reduce over the coordinates
        # would sum in pairs from d = 8 on where n = 1
        rng = np.random.default_rng(seed)
        pool = np.concatenate(([0.0, -0.0], rng.uniform(-scale, scale, size)))
        for m, n in [*itertools.product([1, 2, 33], [0, 1, 2, 40]), (1, many)]:
            points, rows = rng.choice(pool, (m, d)), rng.choice(pool, (n, d))
            if n >= 2:
                rows[n // 2] = points[-1]
            got = np.array([repertoire._distances(p, rows.T.copy()) for p in points])
            assert got.shape == (m, n) and got.tobytes() == ordered_distances(points, rows).tobytes()


# Parameters, outcomes and qualities on small grids, so that inserts at
# r_novel 0.3 replace and reject, and parameter distances tie
GRID_PARAMS = st.lists(st.integers(-1, 1), min_size=3, max_size=3)
GRID_OUTCOMES = st.lists(st.integers(-3, 3).map(lambda i: 0.2 * i), min_size=2, max_size=2)
GRID_SKILLS = st.tuples(GRID_PARAMS, GRID_OUTCOMES, st.integers(-2, 2).map(float))


class TestOneState:
    """skills is the archive's one state: each matrix follows every edit of
    the list, seen against a copy of the list it was built from, and is
    built when a query reads it."""

    def two_apart(self):
        arch = fresh_archive(r_novel=0.1)
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        arch.try_insert(make_skill([1, 0, 0], [1.0, 0.0], 1.0))
        arch.outcomes()   # builds the matrices
        return arch

    def test_direct_append_is_seen(self):
        arch = self.two_apart()
        crowded = make_skill([0.5, 0, 0], [0.05, 0.0], 1.0)
        arch.skills.append(crowded)
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0], [1.0, 0.0], [0.05, 0.0]])
        assert arch.min_pairwise_distance() == 0.05
        assert arch.nearest_outcome([0.05, 0.0]) is crowded
        assert arch.knn_params([0.5, 0.0, 0.0], 1)[0] is crowded

    def test_assigned_entry_is_seen(self):
        # an edit that kept the list's length and last entry used to go
        # unseen, and both matrices kept the replaced skill's values
        arch = self.two_apart()
        arch.knn_params([0.0, 0.0, 0.0], 1)   # builds the parameter matrix
        other = make_skill([0, 1, 0], [5.0, 5.0], 1.0)
        arch.skills[0] = other
        assert np.array_equal(arch.outcomes(), [[5.0, 5.0], [1.0, 0.0]])
        assert arch.nearest_outcome([5.0, 5.0]) is other
        assert arch.knn_params([0.0, 1.0, 0.0], 1)[0] is other

    def test_clear_empties_the_matrices(self):
        arch = self.two_apart()
        arch.skills.clear()
        assert arch.outcomes().shape == (0, 2)
        assert arch.min_pairwise_distance() == math.inf
        with pytest.raises(ValueError, match="empty"):
            arch.nearest_outcome([0.0, 0.0])
        skill = make_skill([0, 0, 0], [0.0, 0.0], 0.5)
        assert arch.try_insert(skill).outcome is InsertOutcome.ADDED
        assert arch.skills == [skill]

    def test_reassigned_skills_are_seen(self):
        arch = self.two_apart()
        moved = [make_skill([0, 0, 0], [5.0, 5.0]), make_skill([1, 0, 0], [6.0, 6.0])]
        arch.skills = list(moved)   # as many skills as before
        assert np.array_equal(arch.outcomes(), [[5.0, 5.0], [6.0, 6.0]])
        assert arch.nearest_outcome([5.0, 5.0]) is moved[0]
        far = make_skill([0, 1, 0], [3.0, 0.0], 1.0)
        arch.skills = [far]
        assert np.array_equal(arch.outcomes(), [[3.0, 0.0]])
        assert arch.nearest_outcome([0.0, 0.0]) is far
        assert arch.knn_params([0.0, 0.0, 0.0], 5) == [far]
        res = arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        assert res.outcome is InsertOutcome.ADDED and len(arch.skills) == 2

    def test_replaced_insert_after_direct_append(self):
        arch = self.two_apart()
        appended = make_skill([0, 0, 1], [2.0, 0.0], 1.0)
        arch.skills.append(appended)
        better = make_skill([0, 0, 0.5], [2.05, 0.0], 2.0)
        res = arch.try_insert(better)
        assert res.outcome is InsertOutcome.REPLACED
        assert arch.skills[2] is better and len(arch.skills) == 3
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0], [1.0, 0.0], [2.05, 0.0]])
        assert arch.knn_params([0.0, 0.0, 0.5], 1)[0] is better

    def test_replaced_insert_drops_a_matrix_built_before_an_append(self):
        # the parameter matrix, built at two skills, is not read again until
        # the list is back to two skills: a REPLACED insert in between must
        # not leave it looking current
        arch = self.two_apart()
        arch.knn_params([0.0, 0.0, 0.0], 1)   # builds the parameter matrix
        arch.skills.append(make_skill([0, 0, 1], [2.0, 0.0], 1.0))
        better = make_skill([-1, -1, -1], [1.05, 0.0], 2.0)
        assert arch.try_insert(better).outcome is InsertOutcome.REPLACED
        arch.skills.pop()
        assert arch.skills[1] is better
        assert arch.knn_params([-1.0, -1.0, -1.0], 1)[0] is better

    @pytest.mark.parametrize("theta, outcome, query", [
        ([0, 0, 0], [2.0, 0.0, 0.0], lambda arch: arch.nearest_outcome([0.0, 0.0])),
        ([0, 0, 0], [2.0, 0.0, 0.0], lambda arch: arch.outcomes()),
        ([0, 0], [2.0, 0.0], lambda arch: arch.knn_params([0.0, 0.0, 0.0], 1)),
    ], ids=["outcome-nearest", "outcome-outcomes", "params-knn"])
    def test_skill_of_other_dimensions_is_named(self, theta, outcome, query, tmp_path):
        # appended directly, such a skill used to fail the queries with NumPy's
        # shape error, naming no skill, and save wrote a file load refused
        arch = self.two_apart()
        arch.skills.append(make_skill(theta, outcome))
        with pytest.raises(DimensionError, match=r"^skill 2 of dimensions \(D=\d, d=\d\) in an archive"):
            query(arch)
        path = tmp_path / "arch.jsonl"
        with pytest.raises(DimensionError, match="^cannot save skill 2 of dimensions"):
            save(arch, path)
        assert list(tmp_path.iterdir()) == []

    def test_added_inserts_build_no_matrix_from_the_list(self, monkeypatch):
        # each ADDED insert used to leave the cached matrices stale, so the
        # next insert rebuilt the outcome matrix from the whole list
        arch = self.two_apart()
        arch.knn_params([0.0, 0.0, 0.0], 1)   # builds the parameter matrix too
        added = [make_skill([i, 0, 1], [2.0 + i, 0.0], 1.0) for i in range(20)]
        built, array = [], np.array

        def counted(*args, **kwargs):
            built.append(args)
            return array(*args, **kwargs)

        monkeypatch.setattr(repertoire.np, "array", counted)
        for skill in added:
            assert arch.try_insert(skill).outcome is InsertOutcome.ADDED
        monkeypatch.undo()
        assert built == []
        assert arch.knn_params([19.0, 0.0, 1.0], 1)[0] is added[-1]
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0], [1.0, 0.0]] + [[2.0 + i, 0.0] for i in range(20)])

    def test_fill_never_builds_the_parameter_matrix(self):
        arch = fresh_archive(r_novel=0.1)
        for i in range(20):
            arch.try_insert(make_skill([i, 0, 0], [0.06 * i, 0.0], float(i)))
        arch.nearest_outcome([0.0, 0.0])
        arch.min_pairwise_distance()
        assert set(arch._matrices) == {"outcome"}

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("insert"), GRID_SKILLS),
        st.tuples(st.just("append"), GRID_SKILLS),
        st.tuples(st.just("pop")),
        st.tuples(st.just("assign"), st.integers(0, 39), GRID_SKILLS),
        st.tuples(st.just("reassign"), st.booleans()),
        st.tuples(st.just("clear")),
        st.tuples(st.just("knn"), GRID_PARAMS, st.integers(1, 6)),
        st.tuples(st.just("nearest"), GRID_OUTCOMES),
        st.tuples(st.just("outcomes")),
    ), max_size=40))
    # the matrices read at two skills, then the first skill swapped out
    @example(ops=[("append", ([0, 0, 0], [0.0, 0.0], 0.0)), ("append", ([1, 0, 0], [1.0, 0.0], 0.0)),
                  ("outcomes",), ("assign", 0, ([0, 1, 0], [0.6, 0.6], 0.0))])
    # both matrices read at one skill, then grown twice by ADDED inserts and
    # patched by a REPLACED one
    @example(ops=[("insert", ([0, 0, 0], [-0.6, -0.6], 0.0)), ("outcomes",), ("knn", [0, 0, 0], 1),
                  ("insert", ([1, 0, 0], [-0.2, -0.6], 0.0)), ("insert", ([0, 1, 0], [0.2, -0.6], 0.0)),
                  ("outcomes",), ("insert", ([0, 0, 1], [0.6, -0.6], 0.0)),
                  ("insert", ([1, 1, 0], [-0.6, -0.2], 0.0)), ("insert", ([-1, 0, 0], [0.6, -0.4], 1.0)),
                  ("knn", [-1, 0, 0], 2), ("nearest", [0.6, -0.4]), ("outcomes",)])
    def test_answers_match_an_archive_rebuilt_from_the_list(self, ops):
        arch = fresh_archive(r_novel=0.3)

        def rebuilt():
            copy = fresh_archive(r_novel=0.3)
            copy.skills = list(arch.skills)
            return copy

        for op, *args in ops:
            if op == "insert":
                skill, reference = make_skill(*args[0]), rebuilt()
                got, want = arch.try_insert(skill), reference.try_insert(skill)
                assert got.outcome is want.outcome
                assert [id(s) for s in arch.skills] == [id(s) for s in reference.skills]
            elif op == "append":
                arch.skills.append(make_skill(*args[0]))
            elif op == "pop" and arch.skills:
                arch.skills.pop()
            elif op == "assign" and arch.skills:
                arch.skills[args[0] % len(arch.skills)] = make_skill(*args[1])
            elif op == "reassign":
                arch.skills = arch.skills[::-1] if args[0] else list(arch.skills)
            elif op == "clear":
                arch.skills.clear()
            elif op == "knn" and arch.skills:
                query, k = args
                got, want = arch.knn_params(query, k), rebuilt().knn_params(query, k)
                assert [id(s) for s in got] == [id(s) for s in want]
            elif op == "nearest" and arch.skills:
                assert arch.nearest_outcome(args[0]) is rebuilt().nearest_outcome(args[0])
            elif op == "outcomes":
                assert np.array_equal(arch.outcomes(), rebuilt().outcomes())
        assert np.array_equal(arch.outcomes(), rebuilt().outcomes())


class TestPersistence:
    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        arch = fresh_archive(r_novel=0.07, dim_params=4)
        for _ in range(50):
            arch.try_insert(
                make_skill(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 2), float(rng.normal()))
            )
        path = tmp_path / "arch.jsonl"
        save(arch, path)
        back = load(path)
        assert back.r_novel == arch.r_novel
        assert back.env_kind == arch.env_kind
        assert back.seed == arch.seed
        assert len(back.skills) == len(arch.skills)
        for a, b in zip(arch.skills, back.skills):
            assert np.array_equal(a.params.values, b.params.values)
            assert np.array_equal(a.outcome.values, b.outcome.values)
            assert a.quality == b.quality

    @pytest.mark.parametrize("quality", [np.float32(0.1), np.int64(-3)], ids=["float32", "int64"])
    def test_a_numpy_quality_survives_save_and_load(self, quality, tmp_path):
        # Skill accepts any NumPy number as its quality, but json writes
        # neither a float32 nor an int64: save used to raise TypeError
        skill = make_skill([0, 0, 0], [0.0, 0.0], quality)
        assert type(skill.quality) is float and skill.quality == quality
        arch = fresh_archive()
        arch.try_insert(skill)
        path = tmp_path / "arch.jsonl"
        save(arch, path)
        assert load(path).skills[0].quality == skill.quality

    def test_save_refuses_bounds_other_than_the_first_skills(self, tmp_path):
        # save writes one box for the archive: a directly appended skill with
        # bounds [-2, 2] used to load back with the first skill's [-1, 1]
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0]))
        path = tmp_path / "arch.jsonl"
        save(arch, path)
        before = path.read_bytes()
        arch.skills.append(make_skill([0, 0, 0], [1.0, 0.0], lo=-2.0, hi=2.0))
        with pytest.raises(ValueError, match="^cannot save skill 1, whose parameter bounds differ"):
            save(arch, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["arch.jsonl"]

    @settings(max_examples=60, deadline=None)
    @given(env_kind=st.text(max_size=12), seed=st.integers(), dims=st.tuples(
        st.integers(0, 4), st.integers(0, 4)))
    def test_accepted_header_fields_survive_save_and_load(self, env_kind, seed, dims):
        arch = Archive(0.1, env_kind, *dims, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "arch.jsonl"
            save(arch, path)
            back = load(path)
        assert (back.env_kind, back.dim_params, back.dim_outcome, back.seed) == (env_kind, *dims, seed)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        path = tmp_path / "arch.jsonl"
        save(arch, path)
        before = path.read_bytes()
        arch.try_insert(make_skill([1, 0, 0], [0.5, 0.0], 2.0))
        arch.try_insert(make_skill([2, 0, 0], [1.0, 0.0], 3.0))
        dumps = json.dumps
        calls = []

        def failing_dumps(obj, *args, **kwargs):
            calls.append(obj)
            if len(calls) == 3:   # the header, the first record, the second record
                raise RuntimeError("disk full")
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(RuntimeError, match="disk full"):
            save(arch, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["arch.jsonl"]

    @pytest.mark.parametrize("skills, text", [
        pytest.param(
            [([0.5, -0.25, 3.0], [0.0, 0.0], -1.5), ([-2.0, 0.125, 10.0], [1.0, 0.0], 0.0),
             ([1e-3, 1.0, 0.0], [0.1, 2.5], 0.3)],
            '{"env": "throw", "D": 3, "d": 2, "r_novel": 1.0, "seed": 7, '
            '"bounds": [[-Infinity, Infinity], [-1.0, 1.0], [0.0, Infinity]]}\n'
            '{"theta": [0.5, -0.25, 3.0], "outcome": [0.0, 0.0], "quality": -1.5}\n'
            '{"theta": [-2.0, 0.125, 10.0], "outcome": [1.0, 0.0], "quality": 0.0}\n'
            '{"theta": [0.001, 1.0, 0.0], "outcome": [0.1, 2.5], "quality": 0.3}\n',
            id="three-skills"),
        pytest.param(
            [], '{"env": "throw", "D": 3, "d": 2, "r_novel": 1.0, "seed": 7, "bounds": []}\n',
            id="empty"),
    ])
    def test_save_writes_the_pinned_text(self, skills, text, tmp_path):
        # the file format, byte for byte: two runs that saved the same archive
        # can be compared as files
        arch = Archive(1, "throw", 3, 2, seed=7)
        bounds = [[-math.inf, math.inf], [-1.0, 1.0], [0.0, math.inf]]
        for theta, outcome, quality in skills:
            skill = Skill(ControllerParams(theta, bounds), Outcome(outcome), quality)
            assert arch.try_insert(skill).outcome is InsertOutcome.ADDED
        path = tmp_path / "arch.jsonl"
        save(arch, path)
        assert path.read_bytes() == text.encode()

    def test_empty_archive_roundtrip(self, tmp_path):
        arch = fresh_archive()
        path = tmp_path / "empty.jsonl"
        save(arch, path)
        assert len(load(path).skills) == 0

    def test_empty_file_names_line_1(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ArchiveFormatError, match="empty archive file"):
            load(path)
        assert_rejected_at(path, 1)

    def test_os_errors_propagate_unchanged(self, tmp_path):
        # only a fault in a file's contents is an ArchiveFormatError
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "missing.jsonl")
        with pytest.raises(IsADirectoryError):
            load(tmp_path)

    def test_missing_header_keys_all_named_in_header_order(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"env": "throw", "D": 3}\n')
        with pytest.raises(ArchiveFormatError) as info:
            load(path)
        assert str(info.value) == f"{path}:1: header missing keys 'd', 'r_novel', 'seed'"

    @pytest.mark.parametrize("header, records", [
        pytest.param("5", [], id="header-not-object"),
        pytest.param("{not json", [RECORD], id="header-not-json"),
        pytest.param(dict(HEADER, D="x"), [], id="D-not-int"),
        pytest.param(dict(HEADER, d="x"), [], id="d-not-int"),
        pytest.param(dict(HEADER, seed="x"), [], id="seed-not-int"),
        pytest.param(dict(HEADER, D=-1), [], id="D-negative"),
        pytest.param(dict(HEADER, env=7), [], id="env-not-string"),
        pytest.param(dict(HEADER, r_novel=0), [], id="r_novel-zero"),
        pytest.param(dict(HEADER, r_novel=math.nan), [], id="r_novel-nan"),
        pytest.param(dict(HEADER, r_novel="0.05"), [], id="r_novel-string"),
        pytest.param(dict(HEADER, bounds=[[-1, 1]] * 2), [RECORD], id="bounds-rows-with-record"),
        pytest.param(dict(HEADER, bounds=[[-1, 1]] * 2), [], id="bounds-rows-empty-archive"),
        pytest.param(dict(HEADER, bounds=[[-1, 1], [1, -1], [-1, 1]]), [RECORD],
                     id="bounds-lo-above-hi"),
        pytest.param(dict(HEADER, bounds=[[-1, 1], [math.nan, 1], [-1, 1]]), [], id="bounds-nan"),
    ])
    def test_header_fault_names_line_1(self, tmp_path, header, records):
        assert_rejected_at(write_archive(tmp_path, header, records), 1)

    def test_header_faults_all_named(self, tmp_path):
        path = write_archive(tmp_path, dict(HEADER, D="x", r_novel=0, seed=None), [])
        with pytest.raises(ArchiveFormatError) as info:
            load(path)
        assert str(info.value) == (f"{path}:1: D must be a non-negative integer, got 'x'; "
                                   "r_novel must be a positive finite number, got 0; "
                                   "seed must be an integer, got None")

    # D = 10**15 parameter bounds would take 16 PB, which NumPy refuses at once
    def test_header_of_a_huge_D_without_records_loads_empty(self, tmp_path):
        # the unbounded box used to be built from the header alone, so this
        # raised NumPy's MemoryError
        arch = load(write_archive(tmp_path, dict(HEADER, D=10**15), []))
        assert (arch.dim_params, arch.skills) == (10**15, [])

    def test_record_short_of_a_huge_D_names_its_line(self, tmp_path):
        path = write_archive(tmp_path, dict(HEADER, D=10**15), [dict(RECORD, theta=[0.0])])
        with pytest.raises(ArchiveFormatError, match="theta") as info:
            load(path)
        assert str(info.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize("record", [
        pytest.param(dict(RECORD, theta=5), id="theta-scalar"),
        pytest.param(dict(RECORD, theta=[[0], [0], [0]]), id="theta-nested"),
        pytest.param(dict(RECORD, theta=[0, "x", 0]), id="theta-string-entry"),
        pytest.param(dict(RECORD, theta=[0, True, 0]), id="theta-bool-entry"),
        pytest.param(dict(RECORD, outcome=[0.5, None]), id="outcome-null-entry"),
        pytest.param(dict(RECORD, outcome=[0.1]), id="outcome-short"),
        pytest.param(dict(RECORD, quality="1.0"), id="quality-string"),
        pytest.param(dict(RECORD, theta=[0, math.nan, 0]), id="theta-nan"),
        pytest.param(dict(RECORD, outcome=[math.inf, 0.2]), id="outcome-inf"),
        pytest.param(dict(RECORD, quality=math.nan), id="quality-nan"),
        pytest.param(dict(RECORD, quality=-math.inf), id="quality-inf"),
        pytest.param('{"theta": [0, 1' + "0" * 400 + ', 0], "outcome": [0.5, 0.2], "quality": 1}',
                     id="theta-integer-beyond-float"),
        pytest.param("not json at all", id="record-not-json"),
        pytest.param([0, 0, 0], id="record-array"),
        pytest.param({"theta": [0, 0, 0]}, id="record-missing-keys"),
    ])
    def test_record_fault_names_its_line(self, tmp_path, record):
        far = dict(RECORD, outcome=[0.5, 0.5])
        assert_rejected_at(write_archive(tmp_path, HEADER, [far, record]), 3)

    def test_bytes_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(
            json.dumps(HEADER).encode() + b"\n" + json.dumps(RECORD).encode() + b"\n\xff\n"
        )
        assert_rejected_at(path, 3)

    def test_crowded_outcomes_name_the_later_line(self, tmp_path):
        near = dict(RECORD, outcome=[0.11, 0.2])   # 0.01 from RECORD's outcome, r_novel 0.05
        path = write_archive(tmp_path, HEADER, [RECORD, near])
        with pytest.raises(ArchiveFormatError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert "line 2" in str(info.value)

    def test_crowded_outcomes_found_across_blocks(self, tmp_path):
        # 150 outcomes a metre apart; the last line crowds the second record,
        # far back in the scan
        grid = [dict(RECORD, outcome=[float(i), 0.0]) for i in range(150)]
        path = write_archive(tmp_path, HEADER, grid + [dict(RECORD, outcome=[1.0, 0.03])])
        with pytest.raises(ArchiveFormatError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}:152: ")
        assert "line 3" in str(info.value)

    def test_nan_bounds_never_reach_a_file(self, tmp_path):
        # save used to write a skill with a NaN bound, which load then refused
        # at line 1; such a skill can no longer be made. Infinite ends still
        # round-trip
        with pytest.raises(ValueError):
            ControllerParams(values=[0.0], bounds=[[math.nan, 1.0]])
        arch = fresh_archive(dim_params=1)
        params = ControllerParams(values=[0.0], bounds=[[-math.inf, math.inf]])
        arch.try_insert(Skill(params, Outcome(values=[0.1, 0.2]), 1.0))
        path = tmp_path / "arch.jsonl"
        save(arch, path)
        back = load(path)
        assert np.array_equal(back.skills[0].params.bounds, params.bounds)
        assert np.array_equal(back.outcomes(), arch.outcomes())

    def test_outcomes_exactly_r_novel_apart_load(self, tmp_path):
        arch = fresh_archive(r_novel=0.05)
        assert arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0)).outcome is InsertOutcome.ADDED
        assert arch.try_insert(make_skill([0, 0, 0], [0.05, 0.0], 1.0)).outcome is InsertOutcome.ADDED
        path = tmp_path / "arch.jsonl"
        save(arch, path)
        assert len(load(path).skills) == 2

    @pytest.mark.parametrize("d", range(1, 11))
    def test_a_pair_r_novel_apart_loads_and_an_ulp_closer_does_not(self, d, tmp_path):
        # r_novel is the archive's own distance between two outcomes: the
        # pair is kept and loads, and at the next float up both refuse it.
        # From d = 8 on np.linalg.norm often differs in the last bit, so a
        # spacing check that measured by it would fail here
        rng = np.random.default_rng(d)
        path = tmp_path / "pair.jsonl"
        for scale in (1e-3, 1.0, 1e3) * 10:
            a, b = (make_skill([0, 0, 0], rng.normal(0.0, scale, d), q) for q in (1.0, 0.0))
            probe = fresh_archive(d=d)
            probe.skills = [a, b]
            apart = probe.min_pairwise_distance()
            for r_novel, kept in ((apart, True), (np.nextafter(apart, np.inf), False)):
                arch = fresh_archive(r_novel=r_novel, d=d)
                arch.try_insert(a)
                expected = InsertOutcome.ADDED if kept else InsertOutcome.REJECTED
                assert arch.try_insert(b).outcome is expected
                arch.skills = [a, b]
                save(arch, path)
                if kept:
                    assert len(load(path).skills) == 2
                else:
                    assert_rejected_at(path, 3)

    def test_the_first_faulty_line_is_named(self, tmp_path):
        # a crowded record before a malformed line: load used to check the
        # spacing only after every line had parsed, and named line 4
        crowded = dict(RECORD, outcome=[0.11, 0.2])   # 0.01 from RECORD's, r_novel 0.05
        path = write_archive(tmp_path, HEADER, [RECORD, crowded, "not json at all"])
        assert_rejected_at(path, 3)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_spacing_check_matches_a_per_line_scan(self, data):
        # the first line closer than r_novel to an earlier one, by the norm
        # try_insert uses, is the line load names; a file without one loads.
        # Grid and offset as in the round-trip property below; distinct cells
        # leave pairs near r_novel, not duplicates, to decide the first line
        d = data.draw(st.integers(1, 3), label="d")
        r_novel = data.draw(st.floats(1e-3, 10.0), label="r_novel")
        step = r_novel / data.draw(st.sampled_from([1, 2, 3, 4]), label="step")
        offset = r_novel * data.draw(st.sampled_from([0.0, 1e3, 1e8]), label="offset")
        cells = data.draw(st.lists(st.tuples(*[st.integers(-8, 8)] * d), unique=True,
                                   min_size=1, max_size=150), label="cells")
        outcomes = offset + step * np.array(cells, float)
        crowded = next((i for i in range(1, len(outcomes))
                        if np.linalg.norm(outcomes[:i] - outcomes[i], axis=1).min() < r_novel), None)
        header = dict(HEADER, D=1, d=d, r_novel=r_novel)
        records = [{"theta": [0.0], "outcome": o.tolist(), "quality": 0.0} for o in outcomes]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_archive(Path(tmp), header, records)
            if crowded is None:
                assert len(load(path).skills) == len(records)
            else:
                # and the earliest of its nearest earlier lines is named
                nearest = np.argmin(np.linalg.norm(outcomes[:crowded] - outcomes[crowded], axis=1))
                with pytest.raises(ArchiveFormatError) as info:
                    load(path)
                assert str(info.value).startswith(f"{path}:{crowded + 2}: ")
                assert str(info.value).endswith(f" on line {nearest + 2}")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_try_insert_archives_roundtrip(self, data):
        # outcomes on a grid of r_novel / step put many pairs at or within a
        # rounding error of r_novel, and an offset far above r_novel leaves
        # their differences few bits. A spacing check that measured otherwise
        # than try_insert would reject a file save wrote; from d = 8 on,
        # np.linalg.norm sums the squares in another order than the archive
        d = data.draw(st.integers(1, 10), label="d")
        r_novel = data.draw(st.floats(1e-3, 10.0), label="r_novel")
        step = r_novel / data.draw(st.sampled_from([1, 2, 3, 4]), label="step")
        offset = r_novel * data.draw(st.sampled_from([0.0, 1e3, 1e8]), label="offset")
        cells = data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=d, max_size=d),
                                   max_size=300), label="cells")
        qualities = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(cells),
                                       max_size=len(cells)), label="qualities")
        arch = fresh_archive(r_novel=r_novel, d=d, dim_params=2)
        for i, (cell, q) in enumerate(zip(cells, qualities)):
            arch.try_insert(make_skill([i * 1e-3, q], offset + step * np.array(cell, float), q))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "arch.jsonl"
            save(arch, path)
            back = load(path)
        assert (back.r_novel, back.env_kind, back.dim_params, back.dim_outcome, back.seed) == (
            arch.r_novel, arch.env_kind, arch.dim_params, arch.dim_outcome, arch.seed)
        assert len(back.skills) == len(arch.skills)
        for a, b in zip(arch.skills, back.skills):
            assert np.array_equal(a.params.values, b.params.values)
            assert np.array_equal(a.outcome.values, b.outcome.values)
            assert a.quality == b.quality
        assert np.array_equal(back.outcomes(), arch.outcomes())
        # the loaded archive keeps applying the same insertion rule
        for i, (cell, q) in enumerate(zip(cells[:20], qualities[:20])):
            outcome = offset + step * (np.array(cell, float) + 0.5)
            skill = make_skill([0.5, i * 1e-3], outcome, q + 1)
            assert arch.try_insert(skill).outcome is back.try_insert(skill).outcome
        assert np.array_equal(back.outcomes(), arch.outcomes())


def _golden_throw_fill():
    """A seeded throw fill of 3,000 evaluations, with its insert results.

    Ten generations of 300 controllers: uniform draws first, then Gaussian
    mutations (sigma 0.1) of uniformly drawn archive members, each
    generation executed in one batch and inserted in order at r_novel 0.02,
    as the benchmark's throw fill spaces its archive.
    """
    env = sim.make_env("throw")
    bounds = sim.theta_bounds(env)
    rng = np.random.default_rng(2020)
    arch = Archive(0.02, "throw", env.dim_params, env.dim_outcome, seed=2020)
    results = []
    for generation in range(10):
        if generation == 0:
            values = rng.uniform(bounds[:, 0], bounds[:, 1], size=(300, env.dim_params))
        else:
            parents = [arch.skills[i].params.values for i in rng.integers(len(arch.skills), size=300)]
            values = np.clip(parents + rng.normal(0.0, 0.1, (300, env.dim_params)),
                             bounds[:, 0], bounds[:, 1])
        outcomes, valid = sim.execute_batch(env, sim.NOMINAL_GAP, values)
        for theta, outcome, ok in zip(values, outcomes, valid):
            if not ok:
                results.append("invalid")
                continue
            params, outcome = ControllerParams(theta, bounds), Outcome(outcome.copy())
            skill = Skill(params, outcome, sim.quality(env, params, outcome))
            results.append(arch.try_insert(skill).outcome.value)
    return arch, results, rng


# sha256 of _golden_throw_fill's insert results, outcome matrix, smallest
# pairwise distance, nearest skill to 200 seeded targets and 8 parameter
# neighbours for 50 seeded queries, recorded before the archive measured
# every distance with one function.  It pins the low bits of the distances
# through the ties and thresholds they decide.
GOLDEN_FILL_SHA256 = "88e5d96b21f54bd8d269aeb6adf3422688b576824135b97a87ec0efaafad7fd8"


class TestGoldenFill:
    def test_throw_fill_matches_the_golden_digest(self):
        arch, results, rng = _golden_throw_fill()
        counts = {r: results.count(r) for r in ("added", "replaced", "rejected", "invalid")}
        assert counts == {"added": 2128, "replaced": 374, "rejected": 497, "invalid": 1}
        index = {id(skill): i for i, skill in enumerate(arch.skills)}
        # targets within r_novel of stored outcomes, where the nearest is close-run
        outs = arch.outcomes()
        targets = outs[rng.integers(len(outs), size=200)] + rng.normal(0.0, 0.02, (200, 2))
        nearest = [index[id(arch.nearest_outcome(t))] for t in targets]
        queries = rng.uniform(-1.0, 1.0, size=(50, arch.dim_params))
        neighbours = [[index[id(s)] for s in arch.knn_params(q, 8)] for q in queries]
        digest = hashlib.sha256()
        digest.update(" ".join(results).encode())
        digest.update(arch.outcomes().astype("<f8").tobytes())
        digest.update(arch.min_pairwise_distance().hex().encode())
        digest.update(np.array(nearest + sum(neighbours, []), dtype="<i8").tobytes())
        assert digest.hexdigest() == GOLDEN_FILL_SHA256
