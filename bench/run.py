"""Benchmark of the skillpipe pipeline, one workload per run.

    python3 bench/run.py --workload throw-qd --seed 1 --seconds 12 --trace 0

Run from the repository root.  After an unmeasured warm-up the run sets the
workload up from the seed for a few seconds, then repeats its measured pass, a
fixed-budget closed loop, until ``--seconds`` have passed; every pass must
give the outcomes of the first.  End-to-end times are scaled to one host
speed (see hostspeed.py).  It prints every metric with its unit, then,
as the last line, one JSON object with the metrics BENCHMARK.json declares:
the end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``,
which traces every other set-up and pass.  It exits with 1 when a correctness
check fails and with 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

WARMUP_S = 1.0     # unmeasured passes first, while the host's clock ramps up
SETUP_S = 2.0      # set-ups repeat for this long, and at least MIN_REPEATS times;
MIN_REPEATS = 3    # passes repeat for --seconds, and at least MIN_REPEATS times

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "archive_size": "count",
    "coverage": "fraction",
    "qd_score": "score",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "adapt_err_before_m": "m",
    "adapt_err_after_m": "m",
    "transfer_return_r3": "return",
    "transfer_return_full": "return",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}
LAYER_STATS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_us": "us"}
# Counters at the layer boundaries: name -> (unit, value from a set-up's plus a pass's counts).
LAYER_COUNTERS = {
    "sim.execute.invalid_ratio": ("fraction", lambda c: _ratio(c["invalid"], c["evals"])),
    "sim.execute.contact_ratio": ("fraction", lambda c: _ratio(c["contacts"], c["evals"])),
    "sim.collides.hit_ratio": ("fraction", lambda c: _ratio(c["hits"], c["collides"])),
    "repertoire.Archive.try_insert.added": ("count", lambda c: c["added"]),
    "repertoire.Archive.try_insert.replaced": ("count", lambda c: c["replaced"]),
    "repertoire.Archive.try_insert.rejected": ("count", lambda c: c["rejected"]),
    "repertoire.Archive.try_insert.accept_ratio": (
        "fraction",
        lambda c: _ratio(c["added"] + c["replaced"], c["added"] + c["replaced"] + c["rejected"]),
    ),
    "repertoire.save.bytes": ("bytes", lambda c: c["save_bytes"]),
    "mathkit.least_squares.rank_deficient": ("count", lambda c: c["rank_deficient"]),
    "mathkit.cmaes_minimize.evals": ("count", lambda c: c["cmaes_evals"]),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


@dataclass
class Run:
    """Timings of one run.

    ``setup_s`` and ``pass_s`` hold measured times, untraced and traced, with
    the host clock's probes left out.  ``setups`` and ``passes`` hold the
    untraced ones' start and end times, and each pass's requests, for
    scaling with ``clock``.
    """

    clock: object
    setup_s: dict = field(default_factory=lambda: {False: [], True: []})
    pass_s: dict = field(default_factory=lambda: {False: [], True: []})
    setups: list = field(default_factory=list)   # (start, end)
    passes: list = field(default_factory=list)   # (start, end, Pass.requests)
    setup_traces: list = field(default_factory=list)    # (wall, tracer) per traced set-up
    pass_traces: list = field(default_factory=list)
    evals: int = 0           # per pass
    calls: int = 0           # package calls attempted in measured set-ups and passes
    raised: int = 0          # of which raised
    peak_rss_mb: float = 0.0
    failures: list = field(default_factory=list)


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, start, time.perf_counter()


def measure(workload, seed: int, seconds: float, trace: bool, workdir) -> tuple[Run, dict, Counter]:
    """Run one workload; returns the timings, the outcomes and one set-up's plus one pass's counts."""
    from hostspeed import HostClock
    from pipeline import Api
    from tracing import Tracer

    modes = (False, True) if trace else (False,)
    run = Run(HostClock(workload.archive_share))

    # Warm-up, unmeasured; its first pass is the reference every later pass must match.
    warm_until = time.perf_counter() + WARMUP_S
    api = Api()
    state = workload.setup(api, seed, workdir)
    reference = workload.run(api, state)
    outcomes = workload.summarize(state, reference)
    run.evals = reference.counts["evals"]
    while time.perf_counter() < warm_until:
        workload.run(api, state)

    def call(fn, traced: bool, traces: list):
        """fn(api), timed: traced in a root span, untraced under the host clock.

        Returns fn's result, its start and end, and its time without probes.
        """
        tracer = Tracer() if traced else None
        api = Api(tracer)
        if traced:
            out, start, end = _timed(lambda: tracer.wrap("bench", fn)(api))
            took = end - start
            traces.append((took, tracer))
        else:
            with run.clock:
                out, start, end = _timed(lambda: fn(api))
            took = run.clock.scaled(start, end, scale=False)
        run.calls += api.calls
        run.raised += api.raised
        return out, start, end, took

    deadline = time.perf_counter() + SETUP_S
    while True:
        for traced in modes:
            state, start, end, took = call(
                lambda a: workload.setup(a, seed, workdir), traced, run.setup_traces
            )
            run.setup_s[traced].append(took)
            if not traced:
                run.setups.append((start, end))
        if len(run.setup_s[False]) >= MIN_REPEATS and time.perf_counter() >= deadline:
            break

    deadline = time.perf_counter() + seconds
    while True:
        for traced in modes:
            done, start, end, took = call(
                lambda a: workload.run(a, state), traced, run.pass_traces
            )
            run.pass_s[traced].append(took)
            if not traced:
                run.passes.append((start, end, done.requests))
            if done.counts != reference.counts or workload.summarize(state, done) != outcomes:
                run.failures.append("a pass differs from the first pass of the same seed")
        if len(run.pass_s[False]) >= MIN_REPEATS and time.perf_counter() >= deadline:
            break
    # Read before the checks, whose pairwise distances would set the peak.
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.failures += workload.check(state, reference)
    return run, outcomes, state.counts + reference.counts


def segments(clock, start: float, end: float, requests) -> tuple[list[float], list[float]]:
    """A pass's scaled segments and scaled request latencies.

    Segments cut the pass at the request starts: the work before the first
    request, then each request with the work up to the next one, such as a
    CMA-ES update.
    """
    marks = [start, *(s for s, _ in requests), end]
    cuts = [clock.scaled(a, b) for a, b in zip(marks, marks[1:])]
    return cuts, [clock.scaled(s, e) for s, e in requests]


def end_to_end(run: Run, outcomes: dict) -> dict[str, float]:
    """Times scaled to the host clock's reference speed, each the median of
    its repeats.

    Every pass does the same work, split the same way into requests.  So a
    request's latency is the median of its repeats across the passes, and
    the pass time is the sum of the medians of its segments.  Scaling takes
    out the host's slow stretches; the median takes out what scaling gets
    wrong, such as a probe that fell in a brief stall.
    """
    cuts, latencies = zip(*(segments(run.clock, *p) for p in run.passes))
    typical = [statistics.median(repeats) for repeats in zip(*latencies)]
    wall = sum(statistics.median(repeats) for repeats in zip(*cuts))
    metrics = {
        "setup_s": statistics.median(run.clock.scaled(*span) for span in run.setups),
        "wall_s": wall,
        "evals_per_s": run.evals / wall,
        "query_p50_ms": statistics.median(typical) * 1e3,
        "query_p99_ms": statistics.quantiles(typical, n=100, method="inclusive")[98] * 1e3,
        "peak_rss_mb": run.peak_rss_mb,
        "error_rate": _ratio(run.raised, run.calls),
    }
    metrics.update(outcomes)
    return metrics


def per_layer(run: Run, counts: Counter) -> dict[str, float]:
    """Per layer: the fastest traced set-up plus the fastest traced pass, in
    measured seconds."""
    from pipeline import LAYERS
    from tracing import layer_stats

    stats = layer_stats(
        *(min(traces, key=lambda t: t[0])[1].spans for traces in (run.setup_traces, run.pass_traces))
    )
    metrics = {}
    for name in LAYERS:
        for stat in LAYER_STATS:
            metrics[f"{name}.{stat}"] = stats.get(name, {}).get(stat, 0)
    for name, (_, value) in LAYER_COUNTERS.items():
        metrics[name] = value(counts)
    metrics["bench.self_s"] = stats["bench"]["self_s"]
    metrics["trace.overhead_s"] = sum(
        min(times[True]) - min(times[False]) for times in (run.setup_s, run.pass_s)
    )
    return metrics


def layer_unit(name: str) -> str:
    if name in LAYER_COUNTERS:
        return LAYER_COUNTERS[name][0]
    return LAYER_STATS.get(name.rsplit(".", 1)[-1], "s")


def result_line(correct: bool, run: Run, metrics: dict, declared: list[dict]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": run.calls,
        "failed": run.raised,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    })


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skillpipe" / "__init__.py").is_file():
        print(f"skillpipe sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import pipeline

    workloads = workloads or pipeline.WORKLOADS
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        run, outcomes, counts = measure(
            workloads[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    metrics = end_to_end(run, outcomes)
    passes = run.pass_s[False]
    speeds = [speed for _, _, speed in run.clock.probes]
    print(f"# {args.workload} seed={args.seed}: {len(run.setup_s[False])} set-ups, "
          f"{len(passes)} passes of {len(run.passes[0][2])} requests, measured "
          f"fastest pass {min(passes):.4g} s, median pass {statistics.median(passes):.4g} s, "
          f"host speed {min(speeds):.3g}-{max(speeds):.3g} over {len(speeds)} probes")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    if args.trace:
        metrics = per_layer(run, counts)
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {layer_unit(name)}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not run.failures
    key = "per_layer" if args.trace else "end_to_end"
    print(result_line(correct, run, metrics, declared[key]))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    sys.exit(main())
