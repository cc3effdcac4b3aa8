"""MNIST IDX ingestion and fold encoding into 392-entry complex vectors.

A 28x28 image folds into 392 complex numbers: pixel (x, y) of the top half
becomes the real part and pixel (x+14, y) the imaginary part of entry
(x, y), flattened row-major over the 14x28 top half.  Pixels are scaled
into [0, 1] by division by 255.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .linalg import ComplexVector

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
    """Parse an IDX image file into a uint8 array of shape (count, rows, cols)."""
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
    return pixels.reshape(count, rows, cols).copy()


def load_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into a uint8 array of shape (count,)."""
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
    labels = np.frombuffer(data, dtype=np.uint8, offset=8).copy()
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


@dataclass
class RawImage:
    """One 28x28 grayscale digit with its label."""

    pixels: np.ndarray
    label: int

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        if self.pixels.shape != (28, 28):
            raise ValueError(f"pixels must be 28x28, got {self.pixels.shape}")
        if self.pixels.min() < 0 or self.pixels.max() > 255:
            raise ValueError("pixel values must lie in [0, 255]")
        if not 0 <= self.label <= 9:
            raise ValueError(f"label {self.label} out of range 0..9")


@dataclass
class FoldedInput:
    """Fold-encoded image: 392 complex entries plus the label."""

    vec: ComplexVector
    label: int

    def __post_init__(self) -> None:
        if self.vec.n != 392:
            raise ValueError(f"folded vector must have length 392, got {self.vec.n}")
        if not 0 <= self.label <= 9:
            raise ValueError(f"label {self.label} out of range 0..9")


def fold_encode(img: RawImage) -> FoldedInput:
    """Superimpose the bottom half of the image onto the top half.

    Entry (x, y), flattened row-major over x=1..14, y=1..28, has real part
    pixel(x, y)/255 and imaginary part pixel(x+14, y)/255.
    """
    px = img.pixels.astype(np.float64) / 255.0
    return FoldedInput(
        vec=ComplexVector(px[:14, :].reshape(392), px[14:, :].reshape(392)),
        label=img.label,
    )


def fold_decode(folded: FoldedInput) -> RawImage:
    """Inverse of :func:`fold_encode` for integer-pixel images."""
    pixels = np.empty((28, 28), dtype=np.uint8)
    pixels[:14, :] = np.rint(folded.vec.re * 255.0).reshape(14, 28)
    pixels[14:, :] = np.rint(folded.vec.im * 255.0).reshape(14, 28)
    return RawImage(pixels=pixels, label=folded.label)


def fold_encode_stack(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold a (n, 28, 28) pixel stack into (n, 392) re and im arrays."""
    if images.ndim != 3 or images.shape[1:] != (28, 28):
        raise ValueError(f"expected (n, 28, 28) pixel stack, got {images.shape}")
    px = images.astype(np.float64) / 255.0
    return px[:, :14, :].reshape(-1, 392), px[:, 14:, :].reshape(-1, 392)


@dataclass
class Dataset:
    """Fold-encoded split held as stacked arrays; items index as FoldedInput."""

    re: np.ndarray
    im: np.ndarray
    labels: np.ndarray
    split: str

    def __post_init__(self) -> None:
        if self.re.shape != self.im.shape or self.re.ndim != 2 or self.re.shape[1] != 392:
            raise ValueError("re and im must both have shape (n, 392)")
        if self.labels.shape != (self.re.shape[0],):
            raise ValueError("labels must have one entry per item")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")

    def __len__(self) -> int:
        return self.re.shape[0]

    def complex_rows(self, rows) -> np.ndarray:
        """The selected rows (an index array or a slice) as complex128 inputs."""
        re = self.re[rows]
        x = np.empty(re.shape, dtype=np.complex128)
        x.real = re
        x.imag = self.im[rows]
        return x

    def __getitem__(self, i: int) -> FoldedInput:
        return FoldedInput(
            vec=ComplexVector(self.re[i].copy(), self.im[i].copy()),
            label=int(self.labels[i]),
        )

    @classmethod
    def from_arrays(cls, images: np.ndarray, labels: np.ndarray, split: str) -> "Dataset":
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"{images.shape[0]} images but {labels.shape[0]} labels"
            )
        re, im = fold_encode_stack(images)
        return cls(re=re, im=im, labels=labels.astype(np.int64), split=split)

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
