"""MNIST IDX ingestion, class labels, and fold encoding into 392-entry complex vectors.

A 28x28 image folds into 392 complex numbers: pixel (x, y) of the top half
becomes the real part and pixel (x+14, y) the imaginary part of entry
(x, y), flattened row-major over the 14x28 top half.  Pixels are scaled
into [0, 1] by division by 255.  A split stays as its uint8 pixels; each
batch is folded when it is read.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


CLASSES = 10  # digits 0..9


def as_int(value, rule: str, low: float = -math.inf, high: float = math.inf) -> int:
    """`value` as a plain int if it is a Python or numpy integer in low..high;
    anything else, a bool too, raises ValueError(f"{rule}, got {value!r}")."""
    if type(value) is not bool and isinstance(value, (int, np.integer)) and low <= value <= high:
        return operator.index(value)
    raise ValueError(f"{rule}, got {value!r}")


def class_labels(values, width: int, what: str) -> np.ndarray:
    """`values` as a new 1-D int64 array of whole numbers in 0..width-1,
    whatever the dtype; a bool, in an array or a list, is none."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"{what}s must be one-dimensional")
    if issubclass(a.dtype.type, np.integer):  # as uint64, a negative lies past width
        good = a.astype(np.int64, copy=False).view(np.uint64) < width
    elif issubclass(a.dtype.type, np.floating):
        good = (a >= 0) & (a < width) & (np.floor(a) == a)
    else:  # bool, complex, text
        good = np.zeros(a.shape, dtype=bool)
    if not isinstance(values, np.ndarray):  # np.asarray([1, True]) is int64
        good &= np.array([not isinstance(v, (bool, np.bool_)) for v in values], bool)
    if not good.all():
        i = int(np.argmin(good))
        raise ValueError(f"{what} value {values[i]} at index {i} out of range 0..{width - 1}")
    return a.astype(np.int64)


class IdxError(ValueError):
    """An IDX file that is short, long or of the wrong magic."""


def _load_idx(data: bytes, magic: int, what: str) -> np.ndarray:
    """The uint8 payload of an IDX file shaped by its header: a view of
    `data`, not a copy, so read-only for `bytes`.

    The magic's low byte is the dimension count: 3 for images, 1 for labels.
    """
    header = 4 + 4 * (magic & 0xFF)
    if len(data) < header:
        raise IdxError(
            f"{what} file: expected at least {header} header bytes, got {len(data)}"
        )
    got, *dims = struct.unpack(f">{header // 4}I", data[:header])
    if got != magic:
        raise IdxError(f"bad {what} magic 0x{got:08x}, expected 0x{magic:08x}")
    size = header + math.prod(dims)
    if len(data) != size:
        raise IdxError(f"{what} file: expected {size} bytes total, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_idx_images(data: bytes) -> np.ndarray:
    """Parse an IDX image file into a uint8 view of `data`, shape (count, rows, cols)."""
    return _load_idx(data, IMAGE_MAGIC, "image")


def load_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into a uint8 view of `data`, shape (count,)."""
    return _load_idx(data, LABEL_MAGIC, "label")


FOLD = 392  # complex entries per image: 14 rows of 28 pixels per half


def _fold_half(pixels: np.ndarray, half: int, out: np.ndarray | None = None) -> np.ndarray:
    """One half (0 top, 1 bottom) of each (n, 784) pixel row, scaled into [0, 1].

    The uint8 -> float64 cast is exact and the division correctly rounded.
    """
    return np.divide(pixels[:, half * FOLD : (half + 1) * FOLD], 255.0, out=out)


@dataclass
class Dataset:
    """One split held as its uint8 pixels, one (n, 784) row per image.

    The first 392 bytes of a row are the top 14 image rows (the real part),
    the last 392 the bottom 14 rows (the imaginary part); batches fold on
    demand through :meth:`complex_rows`.  Each label is one of 0..9, as int64.
    """

    pixels: np.ndarray
    labels: np.ndarray
    split: str

    def __post_init__(self) -> None:
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.ndim != 2 or self.pixels.shape[1] != 2 * FOLD:
            raise ValueError(f"pixels must have shape (n, 784), got {self.pixels.shape}")
        self.labels = class_labels(self.labels, CLASSES, "label")
        if self.labels.shape[0] != self.pixels.shape[0]:
            raise ValueError(f"{self.pixels.shape[0]} images but {self.labels.shape[0]} labels")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def complex_rows(self, rows) -> np.ndarray:
        """The selected rows (an index array or a slice) as complex128 inputs."""
        px = self.pixels[rows]
        x = np.empty((px.shape[0], FOLD), dtype=np.complex128)
        _fold_half(px, 0, out=x.real)
        _fold_half(px, 1, out=x.imag)
        return x

    @property
    def re(self) -> np.ndarray:
        """Real parts of the whole split, (n, 392) float64, folded on each access."""
        return _fold_half(self.pixels, 0)

    @property
    def im(self) -> np.ndarray:
        """Imaginary parts of the whole split, (n, 392) float64, folded on each access."""
        return _fold_half(self.pixels, 1)

    @classmethod
    def from_arrays(cls, images: np.ndarray, labels: np.ndarray, split: str) -> "Dataset":
        """A split from a (n, 28, 28) uint8 image stack and its labels."""
        if images.ndim != 3 or images.shape[1:] != (28, 28):
            raise ValueError(f"expected (n, 28, 28) pixel stack, got {images.shape}")
        return cls(
            pixels=images.reshape(images.shape[0], 2 * FOLD),
            labels=labels,
            split=split,
        )

    @classmethod
    def load(cls, images_path: str | Path, labels_path: str | Path, split: str) -> "Dataset":
        """A split from its two IDX files, each read once into `bytes` and viewed."""
        return cls.from_arrays(
            load_idx_images(Path(images_path).read_bytes()),
            load_idx_labels(Path(labels_path).read_bytes()),
            split,
        )


@dataclass
class Batch:
    """A shuffled slice of a dataset with inputs stacked as complex rows."""

    x: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


def batch_iter(ds: Dataset, batch_size: int, seed: int) -> Iterator[Batch]:
    """Yield one epoch of batches under a seed-determined permutation.

    Every item appears exactly once; the final batch may be short.
    """
    as_int(batch_size, "batch_size must be >= 1", 1)
    order = np.random.default_rng(seed).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield Batch(x=ds.complex_rows(idx), labels=ds.labels[idx])
