"""Hostile labels for every function that takes labels or predictions.

`data.class_labels(values, width, what)` owns the class rule: each value
must be a whole number in 0..W-1, whatever its dtype, and a bool array
holds none; the first bad value raises `{what} value V at index I out of
range 0..W-1`.  W is 10 for a `Dataset` (so `Dataset.load` and
`Dataset.from_arrays` too), the model's width for `nll_mean` and
`backward`, `n_classes` for `confusion` and the score columns for
`roc_curve` and `evaluate_predictions`.  `accuracy` has no width: there W
is 2**63, so any whole number >= 0 is a label.  The loss also refuses an
empty batch.  Every cell raises `ValueError` with its message or gives its
documented result.  A cell whose values are a tuple passes them as a Python
sequence, where `np.asarray` would read `(1, True)` as int64: a bool or
`np.bool_` in it is refused too.
"""

import inspect
import math

import numpy as np
import pytest

from conftest import synthetic_images
from qocnn import data, metrics, model as model_mod, training
from qocnn.data import Dataset

BASE = [1, 3, 0, 4]  # the hostile value goes to index 2

# (owner, hostile value, dtype of the label array)
SPLIT_CASES = [
    ("Dataset", 12, np.int64),
    ("Dataset", -1, np.int64),
    ("Dataset", 1.5, np.float64),
    ("from_arrays", 12, np.int64),
    ("from_arrays", -1, np.int64),
    ("from_arrays", 1.5, np.float64),
]


def _split(owner: str, labels: np.ndarray) -> Dataset:
    imgs, _ = synthetic_images(len(labels), seed=61)
    if owner == "Dataset":
        return Dataset(pixels=imgs.reshape(len(labels), 784), labels=labels, split="train")
    return Dataset.from_arrays(imgs, labels, "train")


@pytest.mark.parametrize(
    "owner,value,dtype", SPLIT_CASES, ids=[f"{o}-{v}" for o, v, _ in SPLIT_CASES]
)
def test_split_refuses_a_label_outside_the_classes(owner, value, dtype):
    labels = np.array(BASE, dtype=dtype)
    labels[2] = value
    with pytest.raises(ValueError) as info:
        _split(owner, labels)
    assert str(info.value) == f"label value {value} at index 2 out of range 0..9"


@pytest.mark.parametrize("owner", ["Dataset", "from_arrays"])
def test_split_keeps_whole_float_labels_as_int64(owner):
    ds = _split(owner, np.array(BASE, dtype=np.float64))
    assert ds.labels.dtype == np.int64
    assert ds.labels.tolist() == BASE


def refused(value, index: int = 2, width: int = 10, what: str = "label") -> str:
    return f"{what} value {value} at index {index} out of range 0..{width - 1}"


NAN = math.nan
BOOLS = [True, True, False, True]  # a bool array: its first value is refused
MIXED = (1, 3, True, 4)  # a tuple, so no array: the bool at index 2 is refused
NP_MIXED = (1, 3, np.True_, 4)
ANY = 2**63  # accuracy's width


# (function, the argument that gets the hostile values, the values, and the
# message of the ValueError raised or the documented result).  The other
# argument holds valid values of the same length.  Cells marked "parent"
# already passed before `data.class_labels` owned the rule.
BATCH_CASES = [
    ("backward", "labels", [0, 1, 2, -1], refused(-1, index=3)),
    ("backward", "labels", [10], refused(10, index=0)),
    ("backward", "labels", [], "empty batch"),  # parent
    ("backward", "labels", [1, 3, 1.5, 4], refused(1.5)),
    ("backward", "labels", [1, 3, NAN, 4], refused("nan")),
    ("backward", "labels", BOOLS, refused(True, index=0)),
    ("backward", "labels", MIXED, refused(True)),
    ("nll_mean", "labels", [0, 1, 2, -1], refused(-1, index=3)),
    ("nll_mean", "labels", [10], refused(10, index=0)),
    ("nll_mean", "labels", [], "empty batch"),  # parent
    ("nll_mean", "labels", [1, 3, 1.5, 4], refused(1.5)),
    ("nll_mean", "labels", [1, 3, NAN, 4], refused("nan")),
    ("nll_mean", "labels", BOOLS, refused(True, index=0)),
    ("nll_mean", "labels", NP_MIXED, refused(True)),
    # from_arrays' 1.5 and -1 are SPLIT_CASES
    ("from_arrays", "labels", [1, 3, NAN, 4], refused("nan")),  # parent
    ("from_arrays", "labels", [1, 3, 10, 4], refused(10)),  # parent
    ("from_arrays", "labels", BOOLS, refused(True, index=0)),
    ("from_arrays", "labels", MIXED, refused(True)),
    ("from_arrays", "labels", NP_MIXED, refused(True)),
    ("from_arrays", "labels", (1, 3, 0, 4), ("int64", [1, 3, 0, 4])),  # parent
    ("from_arrays", "labels", [], ("int64", [])),  # parent
    ("accuracy", "labels", [1, 3, 1.5, 4], refused(1.5, width=ANY)),
    ("accuracy", "labels", [1, 3, NAN, 4], refused("nan", width=ANY)),
    ("accuracy", "labels", [1, 3, -1, 4], refused(-1, width=ANY)),
    ("accuracy", "labels", [1, 3, 10, 4], 0.75),  # parent
    ("accuracy", "labels", BOOLS, refused(True, index=0, width=ANY)),
    ("accuracy", "labels", MIXED, refused(True, width=ANY)),
    ("accuracy", "labels", NP_MIXED, refused(True, width=ANY)),
    ("accuracy", "labels", (1, 3, 0, 4), 1.0),  # parent
    ("accuracy", "labels", [], "cannot compute accuracy of zero samples"),  # parent
    ("accuracy", "preds", [1, 3, 1.5, 4], refused(1.5, width=ANY, what="prediction")),
    ("accuracy", "preds", [1, 3, 10, 4], 0.75),  # parent
    ("accuracy", "preds", MIXED, refused(True, width=ANY, what="prediction")),
    ("confusion", "labels", [1, 3, 1.5, 4], refused(1.5)),
    ("confusion", "labels", [1, 3, NAN, 4], refused("nan")),
    ("confusion", "labels", [1, 3, -1, 4], refused(-1)),
    ("confusion", "labels", [1, 3, 10, 4], refused(10)),
    ("confusion", "labels", BOOLS, refused(True, index=0)),
    ("confusion", "labels", MIXED, refused(True)),
    ("confusion", "labels", [], [[0] * 10] * 10),  # parent
    ("confusion", "preds", [1, 3, 1.5, 4], refused(1.5, what="prediction")),
    ("confusion", "preds", [1, 3, 10, 4], refused(10, what="prediction")),
    ("confusion", "preds", NP_MIXED, refused(True, what="prediction")),
    ("roc_curve", "labels", [1, 3, 1.5, 4], refused(1.5)),
    ("roc_curve", "labels", [1, 3, NAN, 4], refused("nan")),
    ("roc_curve", "labels", [1, 3, -1, 4], refused(-1)),
    ("roc_curve", "labels", [1, 3, 10, 4], refused(10)),
    ("roc_curve", "labels", BOOLS, refused(True, index=0)),
    ("roc_curve", "labels", MIXED, refused(True)),
    (
        "roc_curve",
        "labels",
        [],
        "class 1 needs both positives and negatives, got 0 positive and 0 negative samples",
    ),  # parent
    ("evaluate_predictions", "labels", [1, 3, 1.5, 4], refused(1.5)),
    ("evaluate_predictions", "labels", [1, 3, NAN, 4], refused("nan")),
    ("evaluate_predictions", "labels", [1, 3, -1, 4], refused(-1)),
    ("evaluate_predictions", "labels", [1, 3, 10, 4], refused(10)),
    ("evaluate_predictions", "labels", BOOLS, refused(True, index=0)),
    ("evaluate_predictions", "labels", MIXED, refused(True)),
    ("evaluate_predictions", "labels", [], "cannot compute accuracy of zero samples"),  # parent
]


def _call(fn: str, arg: str, values: list):
    hostile = values if isinstance(values, tuple) else np.asarray(values)
    n = len(hostile)
    valid = np.array(BASE[:n], dtype=np.int64)
    preds, labels = (hostile, valid) if arg == "preds" else (valid, hostile)
    if fn in ("nll_mean", "backward"):
        model = model_mod.new_model("onn", seed=3)
        imgs, _ = synthetic_images(n, seed=62)
        x = Dataset.from_arrays(imgs, np.zeros(n, np.uint8), "test").complex_rows(slice(None))
        log_probs, caches = training.model_forward(model, x)
        if fn == "backward":
            return training.backward(model, caches, labels)
        return training.nll_mean(log_probs, labels)
    if fn == "from_arrays":
        ds = Dataset.from_arrays(np.zeros((n, 28, 28), np.uint8), labels, "train")
        return ds.labels.dtype.name, ds.labels.tolist()
    scores = np.full((n, 10), 0.1)
    if fn == "accuracy":
        return metrics.accuracy(preds, labels)
    if fn == "confusion":
        return metrics.confusion(preds, labels).counts.tolist()
    if fn == "roc_curve":
        return metrics.roc_curve(scores, labels, 1)
    return metrics.evaluate_predictions(scores, labels)


def _id(fn: str, arg: str, values: list) -> str:
    return f"{fn}-{values}" if arg == "labels" else f"{fn}-{arg}-{values}"


@pytest.mark.parametrize(
    "fn,arg,values,expected", BATCH_CASES, ids=[_id(*case[:3]) for case in BATCH_CASES]
)
def test_batch_refuses_labels_outside_the_model_width(fn, arg, values, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            _call(fn, arg, values)
        assert str(info.value) == expected
    else:
        assert _call(fn, arg, values) == expected


def labelled_parameters() -> set[tuple[str, str]]:
    """(function, parameter) for each public function of `data`, `training`
    and `metrics`, and each public method of their classes, that has a
    parameter named `labels` or `preds`."""
    found = set()
    for module in (data, training, metrics):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            routines = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                members = [(m, getattr(obj, m)) for m in vars(obj) if not m.startswith("_")]
                routines = [(m, f) for m, f in members if inspect.isroutine(f)]
            for fname, f in routines:
                params = inspect.signature(f).parameters
                found.update((fname, p) for p in ("labels", "preds") if p in params)
    return found


def test_every_labels_parameter_has_a_row_in_the_matrix():
    found = labelled_parameters()
    assert {("from_arrays", "labels"), ("nll_mean", "labels"), ("accuracy", "preds")} <= found
    rows = {(fn, arg) for fn, arg, _, _ in BATCH_CASES}
    assert sorted(found - rows) == []
