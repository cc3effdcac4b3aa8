"""Seeded MNIST-shaped synthetic digits and an IDX writer.

Each image is uniform noise in [0, 40) with a bright 8x5 block whose
position encodes the label, so both fold halves carry signal.  The first
ten labels are 0..9, which guarantees every class is present (the ROC sweep
needs positives and negatives for each class).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def images(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(n, 28, 28) uint8 pixels and (n,) uint8 labels from one seed."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(10), rng.integers(0, 10, max(n - 10, 0))])
    labels = labels[:n][rng.permutation(n)].astype(np.uint8)
    imgs = rng.integers(0, 40, size=(n, 28, 28), dtype=np.uint8)
    for i, y in enumerate(labels):
        r, c = divmod(int(y), 5)
        imgs[i, 3 + 12 * r : 11 + 12 * r, 1 + 5 * c : 6 + 5 * c] = 220
    return imgs, labels


def write_idx_pair(
    dirpath: Path, imgs: np.ndarray, labels: np.ndarray, stem: str
) -> tuple[Path, Path]:
    """Write `<stem>-images-idx3-ubyte` and `<stem>-labels-idx1-ubyte`."""
    n, rows, cols = imgs.shape
    img_path = dirpath / f"{stem}-images-idx3-ubyte"
    lbl_path = dirpath / f"{stem}-labels-idx1-ubyte"
    img_path.write_bytes(
        struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + imgs.tobytes()
    )
    lbl_path.write_bytes(struct.pack(">II", LABEL_MAGIC, n) + labels.tobytes())
    return img_path, lbl_path
