"""Tests of the benchmark itself: python -m pytest bench"""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
from pipeline import JOYSTICK_QD, THROW_ADAPT, THROW_QD, TRANSFER, Api  # noqa: E402
from tracing import Tracer, layer_stats, self_times  # noqa: E402

from skillpipe.core import ControllerParams, Outcome, Skill  # noqa: E402
from skillpipe.repertoire import Archive  # noqa: E402

TINY = {
    "throw-qd": replace(THROW_QD, n_screen=20, budget=60),
    "joystick-qd": replace(JOYSTICK_QD, n_screen=40, budget=4),
    "throw-adapt": replace(THROW_ADAPT, fill=replace(THROW_QD, n_screen=20, budget=80), queries=4),
    "transfer": replace(TRANSFER, seeds_per_task=1, train_budget=36, search_budget=36, r3=2),
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tiny_workloads_cover_the_declared_ones():
    declared = [w["name"] for w in DECLARED["workloads"]]
    assert sorted(TINY) == sorted(pipeline.WORKLOADS) == sorted(declared)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_declared_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    monkeypatch.setattr(run, "SETUP_S", 0.0)
    monkeypatch.setattr(run, "MIN_REPEATS", 2)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    for m in declared:
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_self_time_of_hand_built_nested_trace():
    spans = [
        ["bench", 0.0, 10.0, -1],
        ["mathkit.cmaes_minimize", 1.0, 9.0, 0],
        ["sim.transfer_task", 2.0, 4.0, 1],
        ["sim.transfer_task", 5.0, 6.5, 1],
        ["core.clamp", 9.5, 9.75, 0],
    ]
    assert self_times(spans) == pytest.approx([1.75, 4.5, 2.0, 1.5, 0.25])
    stats = layer_stats(spans)
    assert stats["sim.transfer_task"] == pytest.approx(
        {"calls": 2, "total_s": 3.5, "self_s": 3.5, "p50_us": 1.75e6}
    )
    assert stats["mathkit.cmaes_minimize"]["total_s"] == pytest.approx(8.0)
    assert stats["mathkit.cmaes_minimize"]["self_s"] == pytest.approx(4.5)
    twice = layer_stats(spans, spans)
    assert twice["mathkit.cmaes_minimize"]["calls"] == 2
    assert twice["mathkit.cmaes_minimize"]["self_s"] == pytest.approx(9.0)


def test_pass_time_sums_the_median_scaled_repeat_of_each_segment():
    clock = hostspeed.HostClock()
    # speed 1 until a probe runs from 10.0 to 10.5, then 0.5
    clock.probes = [(0.0, 0.0, 1.0), (10.0, 10.5, 0.5)]
    r = run.Run(clock, setups=[(0.0, 2.0), (10.0, 12.0)], evals=19)
    r.passes = [
        (0.0, 6.0, [(1.0, 2.0), (3.0, 5.0)]),         # segments 1, 2, 3
        (10.0, 17.5, [(11.0, 12.5), (13.5, 14.5)]),   # 0.25, 1.25, 2 scaled, probe left out
    ]
    metrics = run.end_to_end(r, {})
    assert metrics["setup_s"] == pytest.approx((2.0 + 0.75) / 2)
    assert metrics["wall_s"] == pytest.approx(0.625 + 1.625 + 2.5)
    assert metrics["evals_per_s"] == pytest.approx(4.0)
    # latencies 1 and 2, then 0.75 and 0.5 scaled: medians 0.875 and 1.25
    assert metrics["query_p50_ms"] == pytest.approx(1.0625e3)


def test_scaled_time_leaves_probes_out():
    clock = hostspeed.HostClock()
    clock.probes = [(0.0, 1.0, 2.0), (5.0, 6.0, 1.0), (8.0, 9.0, 4.0)]
    assert clock.scaled(0.0, 10.0, scale=False) == pytest.approx(4.0 + 2.0 + 1.0)
    assert clock.scaled(0.0, 10.0) == pytest.approx(2 * 4.0 + 1 * 2.0 + 4 * 1.0)
    assert clock.scaled(5.5, 7.0) == pytest.approx(1.0)
    assert clock.scaled(2.0, 3.0) == pytest.approx(2.0)


def test_host_clock_probes_while_running_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * hostspeed.PERIOD_S:
            pass
    assert len(clock.probes) >= 3
    assert all(p[0] < p[1] and p[2] > 0 for p in clock.probes)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_speed_blends_loop_and_archive_speeds(monkeypatch):
    ticks = iter([0.0, 0.02, 1.0, 1.01, 2.0, 2.03, 3.0, 3.04, 4.0, 4.06, 5.0, 5.05])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(hostspeed, "LOOP_S", 0.01)   # the loop runs at speed 1
    monkeypatch.setattr(hostspeed, "ARCHIVE_S", 0.02)   # the archive kernel at speed 0.5
    assert hostspeed.host_speed(0.75) == pytest.approx(1 / (0.25 * 1 + 0.75 * 2))


def test_api_counts_calls_and_the_calls_that_raised():
    api = Api()
    env = api.make_env("pusherlike")
    with pytest.raises(ValueError):
        api.execute(env, pipeline.sim.NOMINAL_GAP, None)
    assert (api.calls, api.raised) == (2, 1)


def test_tracer_links_nested_calls_to_their_parent():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    mid = tracer.wrap("mid", lambda x: leaf(x) + leaf(x))
    root = tracer.wrap("root", lambda: mid(1) + leaf(0))
    assert root() == 5
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("root", -1), ("mid", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0),
    ]
    assert all(start <= end for _, start, end, _ in tracer.spans)
    assert sum(self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1]
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_identical_outcomes(name, tmp_path):
    workload = TINY[name]

    def outcomes(seed, api):
        state = workload.setup(api, seed, tmp_path)
        return workload.summarize(state, workload.run(api, state))

    first = outcomes(5, Api())
    assert outcomes(5, Api()) == first
    assert outcomes(5, Api(Tracer())) == first


def test_seed_changes_the_inputs(tmp_path):
    workload = TINY["throw-qd"]
    summaries = []
    for seed in (5, 6):
        state = workload.setup(Api(), seed, tmp_path)
        summaries.append(workload.summarize(state, workload.run(Api(), state)))
    assert summaries[0] != summaries[1]


def test_archive_check_catches_spacing_and_emptiness():
    assert pipeline.archive_failures(Archive(0.1, "throw", 2, 2)) == ["throw archive is empty"]
    archive = Archive(0.1, "throw", 2, 2)
    bounds = np.tile([-1.0, 1.0], (2, 1))
    for x in (0.0, 0.05):
        archive.skills.append(
            Skill(ControllerParams(np.zeros(2), bounds), Outcome(np.array([x, 0.0])), 0.0)
        )
    assert pipeline.archive_failures(archive) == ["throw archive spacing below r_novel"]


def test_wall_is_hit_by_some_adapted_throws_and_missed_by_others(tmp_path):
    workload = replace(THROW_ADAPT, fill=replace(THROW_QD, budget=300), queries=40)
    api = Api()
    state = workload.setup(api, 1, tmp_path)
    counts = workload.run(api, state).counts
    assert counts["collides"] == 40
    assert 0 < counts["hits"] < counts["collides"]


def test_counts_of_a_pass_include_every_request(tmp_path):
    done = TINY["throw-qd"].run(Api(), TINY["throw-qd"].setup(Api(), 1, tmp_path))
    c = done.counts
    assert c["requests"] == len(done.requests) == 60
    assert c["added"] + c["replaced"] + c["rejected"] + c["invalid"] + c["failed"] == 60


def test_missing_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "throw-qd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
