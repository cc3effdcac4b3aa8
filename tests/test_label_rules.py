"""Hostile labels for each owner of a label rule, one cell per case.

`Dataset` owns the class rule: every label is one of the integers 0..9,
whatever its dtype, checked before the split casts them to int64.  The IDX
parser takes any byte, so `Dataset.load` and `Dataset.from_arrays` refuse
through the same check.  The loss owns the batch rule: `nll_mean` and
`backward` share one check that a batch is non-empty and its labels lie in
0..W-1 for the model's width W.  Every cell must raise `ValueError` with the
rule's message.
"""

import numpy as np
import pytest

from conftest import synthetic_images
from qocnn import model as model_mod, training
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


# (function, labels, message); nll_mean's cells already passed before the
# two functions shared the check, backward's did not
BATCH_CASES = [
    ("backward", [0, 1, 2, -1], "labels must lie in 0..9"),
    ("backward", [10], "labels must lie in 0..9"),
    ("backward", [], "empty batch"),
    ("nll_mean", [0, 1, 2, -1], "labels must lie in 0..9"),
    ("nll_mean", [10], "labels must lie in 0..9"),
    ("nll_mean", [], "empty batch"),
]


@pytest.mark.parametrize(
    "fn,labels,message", BATCH_CASES, ids=[f"{f}-{l}" for f, l, _ in BATCH_CASES]
)
def test_batch_refuses_labels_outside_the_model_width(fn, labels, message):
    model = model_mod.new_model("onn", seed=3)
    imgs, _ = synthetic_images(len(labels), seed=62)
    x = Dataset.from_arrays(imgs, np.zeros(len(labels), np.uint8), "test").complex_rows(
        slice(None)
    )
    log_probs, caches = training.model_forward(model, x)
    labels = np.array(labels, dtype=np.int64)
    with pytest.raises(ValueError) as info:
        if fn == "backward":
            training.backward(model, caches, labels)
        else:
            training.nll_mean(log_probs, labels)
    assert str(info.value) == message
