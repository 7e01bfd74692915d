"""The skillpipe pipeline stages, driven the way the benchmark measures them.

The package has no pipeline of its own, so the loops live here: a
quality-diversity (QD) fill of a skill archive, adaptation of archived skills
across a reality gap with local linear models, and policy transfer through a
Tucker factorisation.  Every call into ``skillpipe`` goes through an
:class:`Api`, which wraps it in a span when the run is traced.

A workload is a frozen dataclass of its sizes with four methods, and the
share of a pass it spends inserting into the archive, which the host clock
needs (see hostspeed.py).  ``setup``
turns the seed into inputs (and, for the read-side workloads, into the
archive or policies they read).  ``run`` is one measured pass: a closed loop
in which one caller sends the next request when the previous one has
returned.  A pass starts from the same inputs every time, so every pass of a
run yields the same outcomes.  ``summarize`` and ``check`` read a pass's
product after the clock stops.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from skillpipe import core, mathkit, repertoire, sim

# Every package function or class the pipeline calls.
CALLED = (
    sim.make_env,
    sim.theta_bounds,
    sim.RealityGap,
    sim.Obstacle,
    core.ControllerParams,
    core.Skill,
    core.clamp,
    sim.execute,
    sim.quality,
    sim.collides,
    sim.unflatten_policy,
    sim.transfer_task,
    repertoire.Archive,
    repertoire.Archive.try_insert,
    repertoire.Archive.nearest_outcome,
    repertoire.Archive.knn_params,
    repertoire.save,
    repertoire.load,
    mathkit.least_squares,
    mathkit.pinv,
    mathkit.cmaes_minimize,
    mathkit.hosvd,
    mathkit.reconstruct,
)

# Errors a package call documents; a request that raises one counts as failed.
CALL_ERRORS = (ValueError, ArithmeticError)


def layer_name(fn) -> str:
    """``<module>.<qualified name>``, e.g. ``repertoire.Archive.try_insert``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


LAYERS = tuple(layer_name(fn) for fn in CALLED)


class Api:
    """The package calls of the pipeline, each in a span when traced.

    ``calls`` counts the calls attempted and ``raised`` those that raised.
    """

    def __init__(self, tracer=None):
        self.calls = self.raised = 0
        for fn in CALLED:
            name = layer_name(fn)
            inner = fn if tracer is None else tracer.wrap(name, fn)
            setattr(self, name.rsplit(".", 1)[-1], self._counted(inner))

    def _counted(self, fn):
        def call(*args, **kwargs):
            self.calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised += 1
                raise

        return call


@dataclass
class Pass:
    """What one measured pass did: its product and how it got there."""

    product: object
    requests: list[tuple[float, float]] = field(default_factory=list)  # (start, end) each
    counts: Counter = field(default_factory=Counter)


# ---------------------------------------------------------------------------
# QD fill: random controllers first, then Gaussian mutations of archive
# members, with Archive.try_insert as the gate
# ---------------------------------------------------------------------------

# Fixed outcome grid per environment for coverage: (half-width, cells per axis).
OUTCOME_GRID = {"throw": (2.0, 40), "joystick": (math.pi / 6.0, 20)}
# Quality floor per environment for the QD-score; no controller scores lower.
QUALITY_FLOOR = {"throw": -150.0, "joystick": -2.0}


def _tally(kind: str, outcome, counts: Counter) -> bool:
    """Count one evaluation; True when its controller is worth seeding a fill.

    A joystick controller that misses the stick reads (0, 0), as almost every
    random one does, so only contacts seed the joystick population.
    """
    counts["evals"] += 1
    if not outcome.valid:
        counts["invalid"] += 1
        return False
    if kind == "joystick":
        contact = bool(np.any(outcome.values != 0.0))
        counts["contacts"] += contact
        return contact
    return True


@dataclass
class QDState:
    env: object
    bounds: np.ndarray
    init: list            # controllers that start every fill
    seed: int
    counts: Counter


def archive_summary(archive) -> dict[str, float]:
    half, cells = OUTCOME_GRID[archive.env_kind]
    outs = archive.outcomes()
    idx = np.floor((outs + half) / (2.0 * half) * cells).astype(int)
    inside = np.all((idx >= 0) & (idx < cells), axis=1)
    occupied = {tuple(cell) for cell in idx[inside]}
    return {
        "archive_size": len(archive.skills),
        "coverage": len(occupied) / cells**2,
        "qd_score": float(np.sum(archive.qualities() - QUALITY_FLOOR[archive.env_kind])),
    }


def archive_failures(archive) -> list[str]:
    if not archive.skills:
        return [f"{archive.env_kind} archive is empty"]
    failures = []
    if archive.min_pairwise_distance() < archive.r_novel:
        failures.append(f"{archive.env_kind} archive spacing below r_novel")
    outs = archive.outcomes()
    if not all(s.outcome.valid for s in archive.skills) or not np.all(np.isfinite(outs)):
        failures.append(f"{archive.env_kind} archive holds an invalid or non-finite outcome")
    return failures


@dataclass(frozen=True)
class QDFill:
    kind: str
    n_screen: int    # random controllers screened in set-up
    budget: int      # evaluations per fill, the initial population included
    r_novel: float
    sigma: float       # standard deviation of a mutation, per coefficient
    screen_yaw: float  # share of their range the screen draws base-yaw coefficients from
    archive_share: float = 0.0

    def setup(self, api: Api, seed: int, workdir) -> QDState:
        """Screen seeded random controllers; the useful ones start every fill."""
        env = api.make_env(self.kind)
        bounds = api.theta_bounds(env)
        rng = np.random.default_rng([seed, 0])
        draws = rng.uniform(bounds[:, 0], bounds[:, 1], size=(self.n_screen, env.dim_params))
        draws[:, :3] *= self.screen_yaw   # joint 0, the base yaw, comes first
        init = []
        counts = Counter()
        for values in draws:
            theta = api.ControllerParams(values, bounds)
            if _tally(self.kind, api.execute(env, sim.NOMINAL_GAP, theta), counts):
                init.append(theta)
        if not init:
            init = [api.ControllerParams(draws[0], bounds)]
        return QDState(env, bounds, init, seed, counts)

    def run(self, api: Api, state: QDState) -> Pass:
        env, bounds = state.env, state.bounds
        rng = np.random.default_rng([state.seed, 1])
        archive = api.Archive(self.r_novel, env.kind, env.dim_params, env.dim_outcome, state.seed)
        done = Pass(archive)
        counts, clock = done.counts, time.perf_counter
        for i in range(self.budget):
            start = clock()
            counts["requests"] += 1
            try:
                if i < len(state.init) or not archive.skills:
                    theta = state.init[i % len(state.init)]
                else:
                    parent = archive.skills[rng.integers(len(archive.skills))].params.values
                    noise = rng.normal(0.0, self.sigma, parent.shape)
                    theta = api.clamp(api.ControllerParams(parent + noise, bounds))
                outcome = api.execute(env, sim.NOMINAL_GAP, theta)
                _tally(env.kind, outcome, counts)
                if outcome.valid:
                    q = api.quality(env, theta, outcome, seed=i)
                    result = api.try_insert(archive, api.Skill(theta, outcome, q))
                    counts[result.outcome.value] += 1
            except CALL_ERRORS:
                counts["failed"] += 1
            done.requests.append((start, clock()))
        return done

    def summarize(self, state, done: Pass) -> dict[str, float]:
        return archive_summary(done.product)

    def check(self, state, done: Pass) -> list[str]:
        return archive_failures(done.product)


# ---------------------------------------------------------------------------
# Adaptation: target queries answered by local linear models under a fixed,
# non-nominal reality gap, each ending with a collision check against a wall
# ---------------------------------------------------------------------------

GAP = {"gravity_scale": 1.1, "joint_bias": [0.03, -0.03, 0.04, -0.02, 0.02], "link_scale": 1.05}
# A 1.5 m wall across the landing region, half a metre in front of the arm:
# throws that cross it low hit it, short throws and high lobs do not.
WALL = {"center": (0.5, 0.75), "width": 0.05, "height": 1.5}


@dataclass
class AdaptState:
    env: object
    bounds: np.ndarray
    filled: object        # the archive as the QD fill wrote it
    archive: object       # the same archive after a save/load round trip
    targets: np.ndarray
    gap: object
    wall: object
    counts: Counter


@dataclass(frozen=True)
class Adapt:
    archive_share = 0.0   # it only reads the archive, in 3-4% of a pass
    fill: QDFill
    queries: int
    k: int                # archive neighbours in the local model
    steps: int            # model refits per query
    ridge: float
    target_noise: float   # m, spread of targets around archived outcomes

    def setup(self, api: Api, seed: int, workdir) -> AdaptState:
        fill_state = self.fill.setup(api, seed, workdir)
        filled = self.fill.run(api, fill_state)
        counts = fill_state.counts + filled.counts
        path = os.path.join(workdir, f"archive-{seed}.jsonl")
        api.save(filled.product, path)
        counts["save_bytes"] = os.path.getsize(path)
        archive = api.load(path)
        os.remove(path)
        rng = np.random.default_rng([seed, 2])
        picks = rng.integers(len(archive.skills), size=self.queries)
        noise = rng.normal(0.0, self.target_noise, (self.queries, 2))
        return AdaptState(
            fill_state.env, fill_state.bounds, filled.product, archive,
            archive.outcomes()[picks] + noise, api.RealityGap(**GAP), api.Obstacle(**WALL), counts,
        )

    def query(self, api: Api, state: AdaptState, target, counts: Counter):
        """Errors (m) before and after adapting the nearest skill to target."""
        env, gap = state.env, state.gap
        skill = api.nearest_outcome(state.archive, target)
        neighbours = api.knn_params(state.archive, skill.params, self.k)
        xs = [s.params.values for s in neighbours]
        ys = [s.outcome.values for s in neighbours]
        theta = skill.params
        outcome = api.execute(env, gap, theta)
        if not _tally(env.kind, outcome, counts):
            return math.inf, math.inf
        before = float(np.linalg.norm(outcome.values - target))
        for _ in range(self.steps):
            # outcome ~ J (x - theta) + b around the current controller
            design = np.hstack([np.asarray(xs) - theta.values, np.ones((len(xs), 1))])
            fit = api.least_squares(design, np.asarray(ys), ridge=self.ridge)
            counts["rank_deficient"] += fit.rank_deficient
            step = api.pinv(fit.x[:-1].T) @ (target - outcome.values)
            trial = api.clamp(api.ControllerParams(theta.values + step, state.bounds))
            trial_outcome = api.execute(env, gap, trial)
            if not _tally(env.kind, trial_outcome, counts):
                break
            theta, outcome = trial, trial_outcome
            xs.append(theta.values)
            ys.append(outcome.values)
        after = float(np.linalg.norm(outcome.values - target))
        counts["collides"] += 1
        counts["hits"] += api.collides(env, theta, state.wall, gap)
        return before, after

    def run(self, api: Api, state: AdaptState) -> Pass:
        done = Pass(None)
        counts, clock = done.counts, time.perf_counter
        errors = []
        for target in state.targets:
            start = clock()
            counts["requests"] += 1
            try:
                errors.append(self.query(api, state, target, counts))
            except CALL_ERRORS:
                counts["failed"] += 1
            done.requests.append((start, clock()))
        done.product = np.array(errors).reshape(-1, 2)   # (before, after) per query
        return done

    def summarize(self, state: AdaptState, done: Pass) -> dict[str, float]:
        before, after = np.median(done.product, axis=0) if len(done.product) else (math.nan,) * 2
        return {
            **archive_summary(state.archive),
            "adapt_err_before_m": float(before),
            "adapt_err_after_m": float(after),
        }

    def check(self, state: AdaptState, done: Pass) -> list[str]:
        failures = archive_failures(state.archive)
        same = (
            len(state.archive.skills) == len(state.filled.skills)
            and np.array_equal(state.archive.outcomes(), state.filled.outcomes())
            and np.array_equal(state.archive.qualities(), state.filled.qualities())
            and all(
                np.array_equal(a.params.values, b.params.values)
                for a, b in zip(state.archive.skills, state.filled.skills)
            )
        )
        if not same:
            failures.append("archive changed in the save/load round trip")
        summary = self.summarize(state, done)
        if not all(math.isfinite(summary[k]) for k in ("adapt_err_before_m", "adapt_err_after_m")):
            failures.append("adaptation error is not finite")
        return failures


# ---------------------------------------------------------------------------
# Transfer: CMA-ES policies on two point-mass tasks, stacked and factored by
# HOSVD; the held-out task is searched over the r3 weight of reconstruct and
# over all policy parameters, at the same budget
# ---------------------------------------------------------------------------

POLICY_MATRIX = (16, 8)   # each 128-parameter policy as one frontal slice


@dataclass
class TransferState:
    policies: np.ndarray  # (n_policies, 128)
    episode: int          # seed of the held-out episode
    search_seed: int
    counts: Counter


def _objective(api: Api, kind: str, episode: int, done: Pass, to_policy=None):
    """Negative return of one rollout, timed as one request."""
    clock = time.perf_counter

    def f(x):
        start = clock()
        done.counts["requests"] += 1
        try:
            flat = x if to_policy is None else to_policy(x)
            value = -api.transfer_task(kind, api.unflatten_policy(flat), seed=episode)
            done.counts["evals"] += 1
        except CALL_ERRORS:
            done.counts["failed"] += 1
            value = math.inf
        done.requests.append((start, clock()))
        return value

    return f


@dataclass(frozen=True)
class Transfer:
    archive_share = 0.0
    sources: tuple[str, ...]
    held_out: str
    seeds_per_task: int
    train_budget: int     # rollouts per trained policy
    search_budget: int    # rollouts per held-out search
    r3: int
    sigma0: float

    def setup(self, api: Api, seed: int, workdir) -> TransferState:
        rng = np.random.default_rng([seed, 3])
        training = Pass(None)
        policies = []
        for kind in self.sources:
            for _ in range(self.seeds_per_task):
                f = _objective(api, kind, int(rng.integers(2**31)), training)
                x0 = rng.normal(0.0, self.sigma0, POLICY_MATRIX[0] * POLICY_MATRIX[1])
                x, _, history = api.cmaes_minimize(
                    f, x0, self.sigma0, self.train_budget, seed=int(rng.integers(2**31))
                )
                training.counts["cmaes_evals"] += len(history)
                policies.append(x)
        return TransferState(
            np.array(policies), int(rng.integers(2**31)), int(rng.integers(2**31)), training.counts,
        )

    def run(self, api: Api, state: TransferState) -> Pass:
        done = Pass(None)
        tensor = np.stack([p.reshape(POLICY_MATRIX) for p in state.policies], axis=2)
        factors = api.hosvd(tensor, (*POLICY_MATRIX, self.r3))
        weights = factors.u3

        def from_weight(w):
            return api.reconstruct(factors, w).reshape(-1)

        f_r3 = _objective(api, self.held_out, state.episode, done, from_weight)
        _, best_r3, h_r3 = api.cmaes_minimize(
            f_r3, weights.mean(axis=0), float(weights.std()) + 1e-3, self.search_budget,
            seed=state.search_seed,
        )
        f_full = _objective(api, self.held_out, state.episode, done)
        _, best_full, h_full = api.cmaes_minimize(
            f_full, state.policies.mean(axis=0), self.sigma0, self.search_budget,
            seed=state.search_seed,
        )
        done.counts["cmaes_evals"] += len(h_r3) + len(h_full)
        done.product = {"transfer_return_r3": -best_r3, "transfer_return_full": -best_full}
        return done

    def summarize(self, state, done: Pass) -> dict[str, float]:
        return dict(done.product)

    def check(self, state, done: Pass) -> list[str]:
        if not all(math.isfinite(v) for v in done.product.values()):
            return ["transfer return is not finite"]
        return []


# ---------------------------------------------------------------------------
# The benchmark's workloads at their measured sizes
# ---------------------------------------------------------------------------

# Archive.try_insert takes three quarters of a pass in the traced run.
THROW_QD = QDFill(
    kind="throw", n_screen=300, budget=3000, r_novel=0.02, sigma=0.1, screen_yaw=1.0,
    archive_share=0.75,
)
# A narrow base yaw keeps the sweep near the stick's vertical plane: about 4% of
# these draws touch the stick, against 1.5% of uniform ones, so that no seed is
# left without contacts to start from.
JOYSTICK_QD = QDFill(
    kind="joystick", n_screen=300, budget=30, r_novel=0.05, sigma=0.1, screen_yaw=0.3,
)
# Half the throw-qd budget on the same seeded stream: the archive throw-qd has
# written halfway, so that set-up stays short beside the queries.
THROW_ADAPT = Adapt(
    fill=replace(THROW_QD, budget=1500), queries=400, k=24, steps=5, ridge=1e-3,
    target_noise=0.05,
)
TRANSFER = Transfer(
    sources=("pusherlike", "throwerlike"), held_out="strikerlike", seeds_per_task=2,
    train_budget=180, search_budget=240, r3=3, sigma0=0.3,
)
WORKLOADS = {
    "throw-qd": THROW_QD,
    "joystick-qd": JOYSTICK_QD,
    "throw-adapt": THROW_ADAPT,
    "transfer": TRANSFER,
}
