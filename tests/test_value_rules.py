"""Hostile counts, seeds and lam for every library constructor that takes them.

`data.as_int(value, rule, low, high)` owns "is an integer": a Python or
numpy integer in low..high comes back as a plain int, and anything else, a
bool or `np.bool_` included, raises `ValueError("{rule}, got {value!r}")`.
`LayerSpec`, `pool_spec`, `WorkloadSpec`, `TrainConfig` and
`model.check_seed` call it, so `architecture_specs`, `new_model` and
`ModelGraph` refuse through them; `ModelGraph` also refuses a lam that is
not finite and > 0, for every architecture.

Each count argument meets 1.5, True, np.True_, "2", 0 and -1, and accepts
np.int64(2) as the plain int 2; each seed argument meets -1, 2**63, 1.5 and
True; each lam argument meets nan, inf, 0 and -1.  Every cell raises
`ValueError` with its message or gives its documented result.  `PARENT`
lists the cells that already passed before the rule had one owner.
"""

import inspect
import math

import numpy as np
import pytest

from qocnn import layers, model as model_mod, resources, training
from qocnn.layers import LayerSpec, pool_spec
from qocnn.model import ModelGraph, architecture_specs, new_model
from qocnn.resources import WorkloadSpec
from qocnn.training import TrainConfig

COUNTS = (1.5, True, np.True_, "2", 0, -1)
SEEDS = (-1, 2**63, 1.5, True)
LAMS = (math.nan, math.inf, 0.0, -1.0)
ACCEPTED = np.int64(2)


def got(rule: str):
    """The rule's refusal of a value."""
    return lambda v: f"{rule}, got {v!r}"


def kernel_side(n: int):
    return lambda v: f"kernel side {v} must lie in 1..{n}"


def stack(owner: str, arch: str, **kwargs) -> list[LayerSpec]:
    """The specs of `arch` built by `new_model` or by `architecture_specs`."""
    if owner == "new_model":
        return new_model(arch, **kwargs).specs
    return architecture_specs(arch, **kwargs)


def workload(**counts) -> WorkloadSpec:
    return WorkloadSpec(**{"L": 2, "n": 8, "b": 4, **counts})


# (owner, argument, build(value) -> the stored count, message for a value
# that is not an integer, message for 0 and -1)
COUNT_ROWS = [
    ("LayerSpec", "in_dim", lambda v: LayerSpec("complex_linear", v, 3).in_dim,
     got("complex_linear in_dim must be an integer"), got("complex_linear in_dim must be >= 1")),
    ("LayerSpec", "out_dim", lambda v: LayerSpec("complex_linear", 8, v).out_dim,
     got("complex_linear out_dim must be an integer"), got("complex_linear out_dim must be >= 1")),
    ("LayerSpec", "k", lambda v: LayerSpec("quantum_conv", 8, 8, k=v, s=2).k,
     got("quantum_conv k must be an integer"), kernel_side(8)),
    ("LayerSpec", "s", lambda v: LayerSpec("quantum_conv", 8, 8, k=3, s=v).s,
     got("quantum_conv s must be an integer"), got("stepsize must be >= 1")),
    ("LayerSpec", "w", lambda v: LayerSpec("split_max_pool", 8, 4, w=v, p=2).w,
     got("split_max_pool w must be an integer"), got("pooling window w must be >= 1")),
    ("LayerSpec", "p", lambda v: LayerSpec("split_max_pool", 8, 4, w=2, p=v).p,
     got("split_max_pool p must be an integer"), got("pooling stride p must be >= 1")),
    ("pool_spec", "n", lambda v: pool_spec(v, 2, 2).in_dim,
     got("split_max_pool n must be an integer"), got("split_max_pool in_dim must be >= 1")),
    ("pool_spec", "w", lambda v: pool_spec(8, v, 2).w,
     got("split_max_pool w must be an integer"), got("pooling window w must be >= 1")),
    ("pool_spec", "p", lambda v: pool_spec(8, 2, v).p,
     got("split_max_pool p must be an integer"), got("pooling stride p must be >= 1")),
    *[
        ("WorkloadSpec", name, lambda v, name=name: getattr(workload(**{name: v}), name),
         got(f"{name} must be a positive integer"), got(f"{name} must be a positive integer"))
        for name in ("L", "n", "b")
    ],
    *[
        ("TrainConfig", name, lambda v, name=name: getattr(TrainConfig(**{name: v}), name),
         got(f"{name} must be a positive integer"), got(f"{name} must be a positive integer"))
        for name in ("epochs", "batch_size", "patience")
    ],
    # classes is refused as the out_dim of the linear layer it sizes
    *[
        row
        for owner in ("architecture_specs", "new_model")
        for row in [
            (owner, "in_dim", lambda v, o=owner: stack(o, "onn", in_dim=v)[0].in_dim,
             got("complex_linear in_dim must be an integer"),
             got("complex_linear in_dim must be >= 1")),
            (owner, "hidden", lambda v, o=owner: stack(o, "qonn", hidden=v)[0].out_dim,
             got("hidden must be a positive integer"), got("hidden must be a positive integer")),
            (owner, "classes", lambda v, o=owner: stack(o, "onn", classes=v)[-1].out_dim,
             got("complex_linear out_dim must be an integer"),
             got("complex_linear out_dim must be >= 1")),
            (owner, "conv_k", lambda v, o=owner: stack(o, "qocnn", conv_k=v)[0].k,
             got("quantum_conv k must be an integer"), kernel_side(392)),
            (owner, "conv_s", lambda v, o=owner: stack(o, "qocnn", conv_s=v)[0].s,
             got("quantum_conv s must be an integer"), got("stepsize must be >= 1")),
            (owner, "pool_w", lambda v, o=owner: stack(o, "qocnn", pool_w=v)[1].w,
             got("split_max_pool w must be an integer"), got("pooling window w must be >= 1")),
            (owner, "pool_p", lambda v, o=owner: stack(o, "qocnn", pool_p=v)[1].p,
             got("split_max_pool p must be an integer"), got("pooling stride p must be >= 1")),
        ]
    ],
]

SEED_ROWS = [
    ("check_seed", "seed", model_mod.check_seed),
    ("ModelGraph", "seed", lambda v: ModelGraph(arch="onn", specs=[], params=[], seed=v).seed),
    ("new_model", "seed", lambda v: new_model("onn", seed=v, in_dim=4, hidden=3, classes=2).seed),
    ("TrainConfig", "seed", lambda v: TrainConfig(seed=v).seed),
]
SEED_RULE = got("seed must lie in 0..2**63-1")


def lam_refused(v) -> str:
    return f"lam must be finite and > 0, got {v}"


def sinusoid(v) -> str:
    return "sinusoid requires a finite lam > 0"


ONN_KINDS = ["complex_linear", "mod_softplus", "complex_linear", "mod_squared", "log_softmax"]


def graph(arch: str, lam: float) -> float:
    return ModelGraph(arch=arch, specs=[], params=[], lam=lam).lam


# (owner, architecture or kind, build(lam) -> the result, message for a bad
# lam, result for lam 0.3)
LAM_ROWS = [
    ("ModelGraph", "onn", lambda v: graph("onn", v), lam_refused, 0.3),
    ("ModelGraph", "qocnn", lambda v: graph("qocnn", v), lam_refused, 0.3),
    ("new_model", "onn", lambda v: new_model("onn", lam=v).lam, lam_refused, 0.3),
    ("new_model", "qonn", lambda v: new_model("qonn", lam=v).lam, sinusoid, 0.3),
    ("LayerSpec", "sinusoid", lambda v: LayerSpec("sinusoid", 4, 4, lam=v).lam, sinusoid, 0.3),
    ("architecture_specs", "qocnn", lambda v: architecture_specs("qocnn", lam=v)[3].lam,
     sinusoid, 0.3),
    # built: the onn stack holds no lam, and ModelGraph refuses it in a model
    ("architecture_specs", "onn",
     lambda v: [s.kind for s in architecture_specs("onn", lam=v)], lambda v: ONN_KINDS, ONN_KINDS),
]


def _cases():
    """(owner, argument, label, value, build, message or result)"""
    for owner, arg, build, typed, ranged in COUNT_ROWS:
        for v in COUNTS:
            yield owner, arg, "", v, build, typed(v) if v not in (0, -1) else ranged(v)
        yield owner, arg, "", ACCEPTED, build, 2
    for owner, arg, build in SEED_ROWS:
        for v in SEEDS:
            yield owner, arg, "", v, build, SEED_RULE(v)
        yield owner, arg, "", ACCEPTED, build, 2
    for owner, label, build, refused, accepted in LAM_ROWS:
        for v in LAMS:
            yield owner, "lam", label, v, build, refused(v)
        yield owner, "lam", label, 0.3, build, accepted


CASES = list(_cases())


def _id(owner, arg, label, value) -> str:
    return "-".join(filter(None, (owner, label, arg, repr(value))))


# The cells that passed before `data.as_int` owned the rule.  Each other
# cell raised another message or a TypeError, built what it refuses, or
# (np.int64(2)) kept a numpy integer or refused it.
PARENT = {
    *(f"{owner}-{arg}-{v!r}" for owner, arg in [
        ("LayerSpec", "k"), ("LayerSpec", "s"), ("pool_spec", "p"),
        *((o, a) for o in ("architecture_specs", "new_model")
          for a in ("conv_k", "conv_s", "pool_p")),
    ] for v in (0, -1)),
    *(f"WorkloadSpec-{a}-{v!r}" for a in "Lnb" for v in COUNTS if v is not True),
    *(f"TrainConfig-{a}-{v!r}" for a in ("epochs", "batch_size", "patience") for v in COUNTS),
    *(f"{o}-seed-{v!r}" for o in ("check_seed", "ModelGraph", "TrainConfig") for v in SEEDS),
    "new_model-seed-9223372036854775808",
    "new_model-seed-True",
    "ModelGraph-onn-lam-0.3",
    "ModelGraph-qocnn-lam-0.3",
    "new_model-onn-lam-0.3",
    *(f"{o}-lam-{v!r}" for o in ("new_model-qonn", "LayerSpec-sinusoid",
      "architecture_specs-qocnn", "architecture_specs-onn") for v in (*LAMS, 0.3)),
}


@pytest.mark.parametrize(
    "owner,arg,label,value,build,expected", CASES, ids=[_id(*case[:4]) for case in CASES]
)
def test_hostile_value(owner, arg, label, value, build, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == expected
    else:
        result = build(value)
        assert result == expected
        assert type(result) is type(expected)  # a plain int, not np.int64


def test_the_parent_cells_are_cells():
    assert PARENT <= {_id(*case[:4]) for case in CASES}


def test_a_numpy_count_gives_exact_resource_counts():
    """WorkloadSpec stores the plain int, so the counts do not wrap at 2**63."""
    w = WorkloadSpec(L=np.int64(1), n=np.int64(2**40), b=np.int64(1))
    assert resources.classical_ops(w) == 2**80
    assert type(resources.classical_ops(w)) is int


def test_new_model_checks_the_seed_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed))
    with pytest.raises(ValueError, match="seed must lie"):
        new_model("onn", seed=-1)
    assert drawn == []


RULE_NAMES = {
    "in_dim", "out_dim", "k", "s", "w", "p", "n", "L", "b", "epochs", "batch_size",
    "patience", "hidden", "classes", "conv_k", "conv_s", "pool_w", "pool_p", "seed", "lam",
}

# (function, parameter) -> why it has no row: each takes values a row's owner
# has already checked, or is not a count at all
TRUSTED = {
    ("pooled_len", "n"): "arithmetic on the counts pool_spec and LayerSpec check",
    ("pooled_len", "w"): "arithmetic on the counts pool_spec and LayerSpec check",
    ("pooled_len", "p"): "arithmetic on the counts pool_spec and LayerSpec check",
    ("sinusoid_forward", "lam"): "a kernel: LayerSpec checks lam before layer_forward",
    ("conv_geometry", "k"): "a kernel: LayerSpec checks k before layer_forward",
    ("conv_geometry", "s"): "a kernel: LayerSpec checks s before layer_forward",
    ("build_conv_plan", "k"): "a kernel: LayerSpec checks k before layer_forward",
    ("build_conv_plan", "s"): "a kernel: LayerSpec checks s before layer_forward",
    ("ConvPlan", "k"): "built by build_conv_plan from a checked spec",
    ("ConvPlan", "s"): "built by build_conv_plan from a checked spec",
    ("ConvPlan", "n"): "built by build_conv_plan from a checked spec",
    ("split_max_pool_forward", "w"): "a kernel: LayerSpec checks w before layer_forward",
    ("split_max_pool_forward", "p"): "a kernel: LayerSpec checks p before layer_forward",
    ("epoch_seed", "seed"): "called with a TrainConfig seed, which check_seed passed",
    ("TrainHistory", "epochs"): "the list of epoch numbers a run appends, not a count",
    **{
        (fn, "w"): "a WorkloadSpec, whose L, n and b have rows"
        for fn in (
            "classical_ops", "quantum_ops", "speedup", "classical_params",
            "qubit_estimate", "estimate",
        )
    },
}


def ruled_parameters() -> set[tuple[str, str]]:
    """(function, parameter) for each public function and class of `layers`,
    `model`, `resources` and `training`, and each public method of those
    classes, with a parameter named in RULE_NAMES."""
    found = set()
    for module in (layers, model_mod, resources, training):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            routines = [(name, obj)]
            if inspect.isclass(obj):
                members = [(m, getattr(obj, m)) for m in vars(obj) if not m.startswith("_")]
                routines += [(m, f) for m, f in members if inspect.isroutine(f)]
            elif not inspect.isfunction(obj):
                continue
            for fname, f in routines:
                try:
                    params = inspect.signature(f).parameters
                except ValueError:  # a builtin exception class has no signature
                    continue
                found.update((fname, p) for p in RULE_NAMES & set(params))
    return found


def test_every_ruled_parameter_has_a_row_in_the_matrix():
    found = ruled_parameters()
    assert {("LayerSpec", "k"), ("new_model", "seed"), ("ModelGraph", "lam")} <= found
    rows = {(owner, arg) for owner, arg, *_ in CASES}
    assert sorted(found - rows - set(TRUSTED)) == []
    assert sorted(set(TRUSTED) - found) == []  # no stale exemption
