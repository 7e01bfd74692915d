import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """r_novel and a stream of skills to insert. Outcomes on a grid of
    r_novel / k land within, at and beyond r_novel of each other, and a few
    integer qualities make ties."""
    r_novel = draw(st.sampled_from([0.05, 0.1, 0.3]), label="r_novel")
    step = r_novel / draw(st.sampled_from([1, 2, 3]), label="k")
    outcome = st.one_of(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda c: step * np.array(c, float)),
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(np.array),
    )
    quality = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))
    n = draw(st.integers(0, 120), label="n")
    pairs = draw(st.lists(st.tuples(outcome, quality), min_size=n, max_size=n), label="stream")
    return r_novel, [make_skill([i, 0, 0], o, q) for i, (o, q) in enumerate(pairs)]


def insert_checked(arch, skill):
    """arch.try_insert(skill), checked against the rule in its docstring.

    ADDED iff no stored outcome is within r_novel; otherwise REPLACED iff the
    candidate's quality is strictly higher than the nearest skill's and no
    other stored outcome is within r_novel, and then exactly the nearest
    skill is swapped out; otherwise REJECTED, with the skills unchanged.
    """
    before = list(arch.skills)
    dists = np.linalg.norm(arch.outcomes() - skill.outcome.values, axis=1)
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
        assert result.replaced is before[nearest]
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
        assert res.replaced.quality == 1.0
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

    def test_invalid_outcome_raises(self):
        arch = fresh_archive()
        skill = make_skill([0, 0, 0], [0.0, 0.0], 1.0)
        bad = type(skill).__new__(type(skill))
        object.__setattr__(bad, "params", skill.params)
        object.__setattr__(bad, "outcome", Outcome.invalid(2))
        object.__setattr__(bad, "quality", 0.0)
        with pytest.raises(ValueError):
            arch.try_insert(bad)

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
        r_novel, skills = stream
        arch = fresh_archive(r_novel=r_novel)
        for skill in skills:
            insert_checked(arch, skill)
            assert arch.min_pairwise_distance() >= r_novel

    @settings(max_examples=50, deadline=None)
    @given(stream=insert_streams())
    def test_max_quality_near_stored_outcomes_never_decreases(self, stream):
        # balls of radius r_novel centered at stored outcomes: replacement may
        # move an outcome, but only for a strictly better-quality skill that
        # stays inside the displaced skill's own ball
        r_novel, skills = stream
        arch = fresh_archive(r_novel=r_novel)

        def ball_max(centers):
            dist = np.linalg.norm(centers[:, None, :] - arch.outcomes()[None, :, :], axis=2)
            return np.where(dist < r_novel, arch.qualities(), -np.inf).max(axis=1, initial=-np.inf)

        for skill in skills:
            centers = arch.outcomes().copy()
            before = ball_max(centers)
            insert_checked(arch, skill)
            assert np.all(ball_max(centers) >= before)

    def test_non_finite_quality_raises(self):
        arch = fresh_archive()
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], q))
        assert len(arch.skills) == 0

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

    @pytest.mark.parametrize("r_novel", [0.0, -1.0, math.nan, math.inf])
    def test_r_novel_must_be_positive_and_finite(self, r_novel):
        with pytest.raises(ValueError):
            fresh_archive(r_novel=r_novel)

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
        # up to 70 rows spans three blocks of the blocked scan; repeated
        # points give a distance of 0
        d = data.draw(st.integers(1, 3), label="d")
        points = st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)
        outcomes = data.draw(st.lists(points, max_size=70), label="outcomes")
        if outcomes and data.draw(st.booleans(), label="repeat"):
            outcomes.append(outcomes[data.draw(st.integers(0, len(outcomes) - 1))])
        arch = fresh_archive(d=d)
        arch.skills = [make_skill([0, 0, 0], o) for o in outcomes]
        n = len(outcomes)
        if n < 2:
            assert arch.min_pairwise_distance() == math.inf
            return
        outs = np.array(outcomes, dtype=float)
        naive = np.linalg.norm(outs[:, None, :] - outs[None, :, :], axis=2)
        naive[np.diag_indices(n)] = np.inf
        assert arch.min_pairwise_distance() == naive.min()

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

    def test_k_must_be_positive(self):
        arch = fresh_archive()
        arch.try_insert(make_skill([0, 0, 0], [0.0, 0.0], 1.0))
        with pytest.raises(ValueError, match="k must be"):
            arch.knn_params([0.0, 0.0, 0.0], 0)

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


class TestOneState:
    """skills is the archive's one state: the matrices follow the list by identity and length."""

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
        assert res.outcome is InsertOutcome.REPLACED and res.replaced is appended
        assert arch.skills[2] is better and len(arch.skills) == 3
        assert np.array_equal(arch.outcomes(), [[0.0, 0.0], [1.0, 0.0], [2.05, 0.0]])
        assert arch.knn_params([0.0, 0.0, 0.5], 1)[0] is better


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

    def test_empty_archive_roundtrip(self, tmp_path):
        arch = fresh_archive()
        path = tmp_path / "empty.jsonl"
        save(arch, path)
        assert len(load(path).skills) == 0

    def test_wrong_outcome_arity_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"env": "throw", "D": 3, "d": 2, "r_novel": 0.05, "seed": 0}\n'
            '{"theta": [0, 0, 0], "outcome": [0.1, 0.2], "quality": 1.0}\n'
            '{"theta": [0, 0, 0], "outcome": [0.1], "quality": 1.0}\n'
        )
        with pytest.raises(ArchiveFormatError, match=":3"):
            load(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"env": "throw", "D": 3}\n')
        with pytest.raises(ArchiveFormatError, match="r_novel"):
            load(path)

    def test_garbage_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"env": "throw", "D": 3, "d": 2, "r_novel": 0.05, "seed": 0}\n'
            "not json at all\n"
        )
        with pytest.raises(ArchiveFormatError, match=":2"):
            load(path)

    def test_empty_file_names_line_1(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ArchiveFormatError, match="empty archive file"):
            load(path)
        assert_rejected_at(path, 1)

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
        for key in ("D", "r_novel", "seed"):
            assert f"{key} must be" in str(info.value)

    @pytest.mark.parametrize("record", [
        pytest.param(dict(RECORD, theta=5), id="theta-scalar"),
        pytest.param(dict(RECORD, theta=[[0], [0], [0]]), id="theta-nested"),
        pytest.param(dict(RECORD, theta=[0, "x", 0]), id="theta-string-entry"),
        pytest.param(dict(RECORD, theta=[0, True, 0]), id="theta-bool-entry"),
        pytest.param(dict(RECORD, outcome=[0.5, None]), id="outcome-null-entry"),
        pytest.param(dict(RECORD, quality="1.0"), id="quality-string"),
        pytest.param(dict(RECORD, theta=[0, math.nan, 0]), id="theta-nan"),
        pytest.param(dict(RECORD, outcome=[math.inf, 0.2]), id="outcome-inf"),
        pytest.param(dict(RECORD, quality=math.nan), id="quality-nan"),
        pytest.param(dict(RECORD, quality=-math.inf), id="quality-inf"),
        pytest.param('{"theta": [0, 1' + "0" * 400 + ', 0], "outcome": [0.5, 0.2], "quality": 1}',
                     id="theta-integer-beyond-float"),
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
        # 150 outcomes a metre apart fill several screening blocks; the last
        # line crowds the second record
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
        expected = next(
            (i + 2 for i in range(1, len(outcomes))
             if np.linalg.norm(outcomes[:i] - outcomes[i], axis=1).min() < r_novel),
            None,
        )
        header = dict(HEADER, D=1, d=d, r_novel=r_novel)
        records = [{"theta": [0.0], "outcome": o.tolist(), "quality": 0.0} for o in outcomes]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_archive(Path(tmp), header, records)
            if expected is None:
                assert len(load(path).skills) == len(records)
            else:
                assert_rejected_at(path, expected)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_try_insert_archives_roundtrip(self, data):
        # outcomes on a grid of r_novel / step put many pairs at or within a
        # rounding error of r_novel; an offset far above r_novel makes the
        # screen's squared distances cancel badly. A screen that disagreed with
        # try_insert's norm there would reject a file save wrote
        d = data.draw(st.integers(1, 3), label="d")
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

