import importlib
import inspect
import math
import pkgutil
import re
from typing import NamedTuple

import numpy as np
import pytest

import skillpipe
from skillpipe import mathkit, sim
from skillpipe.core import ControllerParams, DimensionError, Outcome, Skill
from skillpipe.repertoire import Archive
from conftest import make_skill

MODULES = sorted(info.name for info in pkgutil.iter_modules(skillpipe.__path__))


def test_modules_found():
    assert {"core", "sim", "repertoire", "mathkit"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"skillpipe.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    # __all__ is the public surface: a public definition outside it escapes
    # the export check above
    module = importlib.import_module(f"skillpipe.{name}")
    defined = [
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


# ---------------------------------------------------------------------------
# The refusal table: the bad values of each argument kind that core's
# docstring names, and for each public callable the kind of each argument.
# A value whose fault is its shape must raise a DimensionError, any other a
# ValueError that is not one; a bad string is quoted in the message.  A
# ragged nesting is a fault of its values: NumPy reads it as no array at all,
# so it has no shape to be wrong
# ---------------------------------------------------------------------------

NAN, INF = math.nan, math.inf
NUMBER = [NAN, INF, -INF, True, "1", None, 10**400]
POSITIVE = NUMBER + [0, 0.0, -1.0]

# How a refusal names its argument: the name in one of the package's
# phrasings below, or followed by the bad value itself ("kind 'flying'"),
# or "a valid <name>".  The name alone as a word would not do: NumPy's own
# messages hold words such as "a" that are one-letter argument names too.
PHRASES = (" must", " contains", " of shape", " of dimensions", " rows must", " shape (", "'s bounds")


def naming(argument, bad):
    """The pattern that a refusal of bad for argument matches."""
    name = re.escape(argument)
    after = "|".join(re.escape(phrase) for phrase in (*PHRASES, f" {bad!r}"))
    return rf"(?<![\w.]){name}(?:{after})|\ba valid {name}\b"


class Misshapen(NamedTuple):
    """A bad value whose fault is its shape."""
    value: object


def misshapen(*values):
    return [Misshapen(value) for value in values]


def unwrap(bad):
    """(the bad value, whether its fault is its shape)"""
    return (bad.value, True) if isinstance(bad, Misshapen) else (bad, False)


def integer(lo=None):
    """Bad values of an integer >= lo; any integer when lo is None."""
    return [True, False, 1.5, 2.0, NAN, INF, "1", None] + ([] if lo is None else [lo - 1])


def unreadable(good):
    """Values that are no array of real numbers: a string, good as nested
    lists with a string for its first number, good as complex numbers, good
    beside itself one row short, a ragged nesting, good as bools, good as
    objects with True for its first number, and, which NumPy would read as
    numbers, good as nested lists with True for its first number and as a
    tuple with NumPy's False for its last."""
    cells, flags, last = good.astype(object), good.astype(object), good.astype(object)
    cells.flat[0], flags.flat[0], last.flat[-1] = "1", True, np.False_
    return ["1", cells.tolist(), good + 1j, [good.tolist(), good[:-1].tolist()], good.astype(bool), flags,
            flags.tolist(), tuple(last.tolist())]


def vector(n=None, also=()):
    """Bad values of a vector of n finite values, any length when n is None,
    with the argument's own bad values also."""
    size = n or 3
    bad = [np.r_[x, np.ones(size - 1)] for x in (NAN, INF, -INF)] + misshapen(np.ones((1, size)), 1.0)
    bad = bad if n is None else bad + misshapen(np.ones(n - 1), np.ones(n + 1))
    return bad + list(also) + unreadable(np.ones(size))


def array(*shape, also=()):
    """Bad values of a finite array of the given shape, two dimensions or
    more, with the argument's own bad values also."""
    bad = [np.full(shape, x) for x in (NAN, INF, -INF)]
    bad += misshapen(np.ones(shape[:-2] + (shape[-2] * shape[-1],)), np.ones((1, *shape)))
    return bad + list(also) + unreadable(np.ones(shape))


def box(n):
    """Bad values of n [lo, hi] parameter bounds."""
    rows = ([NAN, 1.0], [-1.0, NAN], [1.0, -1.0])
    bad = [np.vstack([np.tile([-1.0, 1.0], (n - 1, 1)), row]) for row in rows]
    return bad + misshapen(np.ones((n, 3)), np.tile([-1.0, 1.0], (n + 1, 1)))


def fresh_archive():
    arch = Archive(0.1, "throw", 3, 2)
    for i in range(2):
        arch.try_insert(make_skill([i, 0, 0], [i, 0.0]))
    return arch


THROW, JOYSTICK = sim.make_env("throw"), sim.make_env("joystick")
TRANSFER_ENVS = [sim.make_env(kind) for kind in ("pusherlike", "throwerlike", "strikerlike")]
THETA = ControllerParams(np.zeros(15), sim.theta_bounds(THROW))
ZERO_OUT = Outcome(np.zeros(2))
WALL = sim.Obstacle((5.0, 1.0), 0.5, 2.0)
LAYERS = [np.zeros(shape) for shape in sim._POLICY_SHAPES]
FACTORS = mathkit.hosvd(np.ones((3, 3, 3)), (2, 2, 2))
LAM = 4 + int(3 * math.log(3))   # the CMA-ES population for n = 3


def transfer(**kw):
    return sim.transfer_task(**{"kind": "pusherlike", "policy_layers": LAYERS, "seed": 0, **kw})


def cmaes(**kw):
    args = {"f": lambda x: 0.0, "x0": np.zeros(3), "sigma0": 1.0, "budget": LAM, "seed": 0}
    return mathkit.cmaes_minimize(**{**args, **kw})


# (public callable, argument, its bad values, a good value, call with a value in its place)
ROWS = [
    ("core.ControllerParams", "values", vector(), np.zeros(3),
     lambda v: ControllerParams(v, np.tile([-1.0, 1.0], (3, 1)))),
    ("core.ControllerParams", "bounds", box(3), np.tile([-1.0, 1.0], (3, 1)),
     lambda v: ControllerParams(np.zeros(3), v)),
    ("core.Outcome", "values", vector(), np.zeros(3), Outcome),
    ("core.Skill", "outcome", [Outcome.invalid(2)], ZERO_OUT, lambda v: Skill(THETA, v, 0.0)),
    ("core.Skill", "quality", NUMBER, -1.5, lambda v: Skill(THETA, ZERO_OUT, v)),
    ("sim.EnvironmentSpec", "kind", ["flying", "reach2d", None], "throw", sim.EnvironmentSpec),
    ("sim.make_env", "kind", ["flying", "reach2d", None], "joystick", sim.make_env),
    ("sim.theta_bounds", "env", TRANSFER_ENVS, THROW, sim.theta_bounds),
    ("sim.RealityGap", "gravity_scale", POSITIVE, 1.1, lambda v: sim.RealityGap(gravity_scale=v)),
    ("sim.RealityGap", "link_scale", POSITIVE, 1.1, lambda v: sim.RealityGap(link_scale=v)),
    ("sim.RealityGap", "joint_bias", vector(5, also=misshapen([0.1], np.zeros((5, 1)))), np.ones(5),
     lambda v: sim.RealityGap(joint_bias=v)),
    # a NaN field fails every comparison in contains, so such a wall would
    # report no hit for any controller
    ("sim.Obstacle", "center", vector(2), (0.0, 1.0), lambda v: sim.Obstacle(v, 0.5, 1.0)),
    ("sim.Obstacle", "width", POSITIVE, 0.5, lambda v: sim.Obstacle((0.0, 1.0), v, 1.0)),
    ("sim.Obstacle", "height", POSITIVE, 0.5, lambda v: sim.Obstacle((0.0, 1.0), 1.0, v)),
    ("sim.execute", "env", TRANSFER_ENVS, THROW, lambda v: sim.execute(v, sim.NOMINAL_GAP, THETA)),
    ("sim.execute_batch", "env", TRANSFER_ENVS, THROW,
     lambda v: sim.execute_batch(v, sim.NOMINAL_GAP, np.zeros((2, 15)))),
    ("sim.execute_batch", "values", array(2, 15, also=misshapen(np.ones((2, 14)), np.ones((2, 16)))),
     np.zeros((2, 15)), lambda v: sim.execute_batch(THROW, sim.NOMINAL_GAP, v)),
    ("sim.collides", "env", [JOYSTICK, *TRANSFER_ENVS], THROW, lambda v: sim.collides(v, THETA, WALL)),
    ("sim.quality", "env", TRANSFER_ENVS, THROW, lambda v: sim.quality(v, THETA, ZERO_OUT)),
    *[("sim.quality", "outcome",
       [Outcome.invalid(2), *misshapen(Outcome(np.zeros(1)), Outcome(np.zeros(3)))],
       ZERO_OUT, lambda v, env=env: sim.quality(env, THETA, v)) for env in (THROW, JOYSTICK)],
    *[("sim.quality", "seed", integer(0), 7, lambda v, env=env: sim.quality(env, THETA, ZERO_OUT, v))
      for env in (THROW, JOYSTICK)],
    # the joystick noise scales with each bound's range, which must be finite;
    # [-1e308, 1e308] overflows to an infinite range, [-inf, -inf] gives NaN
    ("sim.quality", "theta", [ControllerParams(np.zeros(15), np.tile(row, (15, 1)))
                              for row in ([-INF, INF], [-1.0, INF], [-1e308, 1e308], [-INF, -INF])],
     THETA, lambda v: sim.quality(JOYSTICK, v, ZERO_OUT)),
    ("sim.render_frame", "gripper", vector(2), (0.5, 0.5), lambda v: sim.render_frame(v, (0.5, 0.5))),
    ("sim.render_frame", "target", vector(2), (0.5, 0.5), lambda v: sim.render_frame((0.5, 0.5), v)),
    ("sim.transfer_task", "kind", ["reacherlike", "throw"], "strikerlike", lambda v: transfer(kind=v)),
    # NaN, inf and -inf in each layer: a NaN weight would make the hand NaN and
    # leave the puck untouched, so the rollout would score as the zero policy;
    # a number is no sequence of layers
    ("sim.transfer_task", "policy_layers",
     [[np.full((6, 16), x), LAYERS[1]] for x in (NAN, INF)] + [[LAYERS[0], np.full((16, 2), -INF)]]
     + misshapen([np.zeros((3, 3)), np.zeros((3, 2))], [np.zeros(96), np.zeros(32)], LAYERS[:1])
     + [[LAYERS[0], np.full((16, 2), x)] for x in (NAN, INF)] + [[np.full((6, 16), -INF), LAYERS[1]], 5],
     LAYERS, lambda v: transfer(policy_layers=v)),
    ("sim.transfer_task", "seed", integer(0), 3, lambda v: transfer(seed=v)),
    ("sim.unflatten_policy", "flat", vector(128), np.zeros(128), sim.unflatten_policy),
    ("repertoire.Archive", "r_novel", POSITIVE, 0.5, lambda v: Archive(v, "throw", 3, 2)),
    ("repertoire.Archive", "env_kind", [7, None, b"throw"], "joystick", lambda v: Archive(0.1, v, 3, 2)),
    ("repertoire.Archive", "dim_params", integer(0), 0, lambda v: Archive(0.1, "throw", v, 2)),
    ("repertoire.Archive", "dim_outcome", integer(0), 0, lambda v: Archive(0.1, "throw", 3, v)),
    ("repertoire.Archive", "seed", integer(), -3, lambda v: Archive(0.1, "throw", 3, 2, v)),
    ("repertoire.Archive.try_insert", "skill",
     misshapen(make_skill([0, 0], [5.0, 0]), make_skill([0, 0, 0], [5.0, 0, 0])),
     make_skill([0, 0, 0], [5.0, 0]), lambda v: fresh_archive().try_insert(v)),
    ("repertoire.Archive.nearest_outcome", "target", vector(2), (0.5, 0.5),
     lambda v: fresh_archive().nearest_outcome(v)),
    ("repertoire.Archive.knn_params", "theta_c", vector(3), np.ones(3), lambda v: fresh_archive().knn_params(v, 1)),
    ("repertoire.Archive.knn_params", "k", integer(1), np.int64(3), lambda v: fresh_archive().knn_params(np.ones(3), v)),
    ("mathkit.least_squares", "a", array(3, 3), np.eye(3), lambda v: mathkit.least_squares(v, np.ones(3))),
    ("mathkit.least_squares", "b", vector(3), np.ones(3), lambda v: mathkit.least_squares(np.eye(3), v)),
    ("mathkit.least_squares", "ridge", [NAN, INF, -INF, True, "1", None, -1e-9], 0,
     lambda v: mathkit.least_squares(np.eye(3), np.ones(3), v)),
    ("mathkit.pinv", "m", array(2, 3), np.ones((2, 3)), mathkit.pinv),
    ("mathkit.hosvd", "tensor", array(3, 3, 3), np.ones((3, 3, 3)), lambda v: mathkit.hosvd(v, (1, 1, 1))),
    ("mathkit.hosvd", "ranks", integer(1), 3, lambda v: mathkit.hosvd(np.ones((3, 3, 3)), (1, v, 1))),
    ("mathkit.reconstruct", "weight", vector(2), np.ones(2), lambda v: mathkit.reconstruct(FACTORS, v)),
    # NumPy could not rank these values of f, and ranked True as 1.0
    ("mathkit.cmaes_minimize", "f",
     [None, *(lambda x, value=value: value for value in (None, "1", 10**400, 1j, True))],
     lambda x: 0.0, lambda v: cmaes(f=v)),
    # a non-finite x0, like a NaN or infinite sigma0, used to spend the budget
    # on non-finite candidates and return x0 with f_best = inf
    ("mathkit.cmaes_minimize", "x0", vector(also=misshapen(np.zeros(0))), np.ones(3), lambda v: cmaes(x0=v)),
    ("mathkit.cmaes_minimize", "sigma0", POSITIVE, 0.5, lambda v: cmaes(sigma0=v)),
    ("mathkit.cmaes_minimize", "budget", integer(LAM), 2 * LAM, lambda v: cmaes(budget=v)),
    ("mathkit.cmaes_minimize", "seed", integer(0), 9, lambda v: cmaes(seed=v)),
    # min(1.0, nan) is 1.0, so a NaN or an infinite x used to give a perfect correlation
    ("mathkit.pearson", "x", vector(), [1.0, 2.0, 4.0], lambda v: mathkit.pearson(v, [1.0, 3.0, 2.0])),
    ("mathkit.pearson", "y", vector(), [1.0, 2.0, 4.0], lambda v: mathkit.pearson([1.0, 3.0, 2.0], v)),
]

# Public names that take no argument a caller can get wrong: exception and
# result types, a constant, functions of values already checked when they
# were made, and save/load, whose file format has its own tests
NO_REFUSABLE_ARGUMENT = {
    "core.DimensionError", "core.clamp", "sim.NOMINAL_GAP",
    "mathkit.LeastSquaresFit", "mathkit.TuckerFactors",
    "repertoire.ArchiveFormatError", "repertoire.InsertOutcome", "repertoire.InsertResult",
    "repertoire.save", "repertoire.load",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_refusal_rows_or_no_refusable_argument(name):
    module = importlib.import_module(f"skillpipe.{name}")
    covered = {row[0] for row in ROWS} | NO_REFUSABLE_ARGUMENT
    assert [export for export in module.__all__ if f"{name}.{export}" not in covered] == []


def test_every_exemption_names_an_export():
    # a name that leaves __all__ must leave the exemptions too
    exports = {f"{name}.{export}" for name in MODULES
               for export in importlib.import_module(f"skillpipe.{name}").__all__}
    assert sorted(NO_REFUSABLE_ARGUMENT - exports) == []


@pytest.mark.parametrize("callable_, argument, good, call", [
    pytest.param(name, arg, good, call, id=f"{name}-{arg}") for name, arg, _, good, call in ROWS
])
def test_good_value_is_accepted(callable_, argument, good, call):
    call(good)


@pytest.mark.parametrize("callable_, argument, good, call", [
    pytest.param(name, arg, good, call, id=f"{name}-{arg}")
    for name, arg, bads, good, call in ROWS if bads is NUMBER or bads is POSITIVE or arg == "ridge"
])
def test_a_float32_number_is_a_number(callable_, argument, good, call):
    # comparing a float32 with float's largest value overflowed in NumPy's
    # cast, a RuntimeWarning that the suite raises
    call(np.float32(good))
    for bad in (np.float32(NAN), np.float32(INF)):
        with pytest.raises(ValueError, match=naming(argument, bad)):
            call(bad)


@pytest.mark.parametrize("callable_, argument, bad, shape_fault, call", [
    pytest.param(name, arg, *unwrap(value), call, id=f"{name}-{arg}-{i}")
    for name, arg, bads, _, call in ROWS for i, value in enumerate(bads)
])
def test_bad_value_is_refused_naming_the_argument(callable_, argument, bad, shape_fault, call):
    # a DimensionError is a ValueError
    with pytest.raises(ValueError, match=naming(argument, bad)) as refusal:
        call(bad)
    assert isinstance(refusal.value, DimensionError) is shape_fault
    if isinstance(bad, str):
        assert repr(bad) in str(refusal.value)
