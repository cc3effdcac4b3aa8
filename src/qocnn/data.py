"""MNIST IDX ingestion and fold encoding into 392-entry complex vectors.

A 28x28 image folds into 392 complex numbers: pixel (x, y) of the top half
becomes the real part and pixel (x+14, y) the imaginary part of entry
(x, y), flattened row-major over the 14x28 top half.  Pixels are scaled
into [0, 1] by division by 255.  A split stays as its uint8 pixels; each
batch is folded when it is read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised when an IDX header does not match the expected layout."""


class IdxTruncatedError(ValueError):
    """Raised when an IDX payload is shorter or longer than its header claims."""


def _check_payload(data: bytes, expected: int, what: str) -> None:
    if len(data) != expected:
        raise IdxTruncatedError(
            f"{what}: expected {expected} bytes total, got {len(data)}"
        )


def load_idx_images(data: bytes) -> np.ndarray:
    """Parse an IDX image file into a uint8 array of shape (count, rows, cols).

    The result is a view of `data`, not a copy; read-only for `bytes`.
    """
    if len(data) < 16:
        raise IdxTruncatedError(
            f"image file: expected at least 16 header bytes, got {len(data)}"
        )
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(
            f"bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}"
        )
    _check_payload(data, 16 + count * rows * cols, "image file")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows, cols)


def load_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into a uint8 array of shape (count,).

    The result is a view of `data`, not a copy; read-only for `bytes`.
    """
    if len(data) < 8:
        raise IdxTruncatedError(
            f"label file: expected at least 8 header bytes, got {len(data)}"
        )
    magic, count = struct.unpack(">II", data[:8])
    if magic != LABEL_MAGIC:
        raise IdxFormatError(
            f"bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
        )
    _check_payload(data, 8 + count, "label file")
    labels = np.frombuffer(data, dtype=np.uint8, offset=8)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise ValueError(
            f"label value {labels[bad[0]]} at index {bad[0]} out of range 0..9"
        )
    return labels


def read_idx_images(path: str | Path) -> np.ndarray:
    return load_idx_images(Path(path).read_bytes())


def read_idx_labels(path: str | Path) -> np.ndarray:
    return load_idx_labels(Path(path).read_bytes())


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
    demand through :meth:`complex_rows`.
    """

    pixels: np.ndarray
    labels: np.ndarray
    split: str

    def __post_init__(self) -> None:
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.ndim != 2 or self.pixels.shape[1] != 2 * FOLD:
            raise ValueError(f"pixels must have shape (n, 784), got {self.pixels.shape}")
        if self.labels.shape != (self.pixels.shape[0],):
            raise ValueError("labels must have one entry per item")
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
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{images.shape[0]} images but {labels.shape[0]} labels"
            )
        return cls(
            pixels=images.reshape(images.shape[0], 2 * FOLD),
            labels=labels.astype(np.int64),
            split=split,
        )

    @classmethod
    def load(cls, images_path: str | Path, labels_path: str | Path, split: str) -> "Dataset":
        return cls.from_arrays(
            read_idx_images(images_path), read_idx_labels(labels_path), split
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
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield Batch(x=ds.complex_rows(idx), labels=ds.labels[idx])
