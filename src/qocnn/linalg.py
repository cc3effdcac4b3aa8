"""The SVD of a complex matrix with its amplification beta pulled out.

An optical linear layer realises M as beta * V @ diag(sigma) @ U: two
unitary meshes around a diagonal of attenuations with max(sigma) <= 1.
beta > 1 means the layer needs gain.  V and U are the thin factors, with
min(M.shape) orthonormal columns and rows; the two unitary meshes extend
them, so an (n, 1) layer never forms an n x n V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SvdFactors:
    """Factorization M = beta * V @ diag(sigma) @ U into thin factors."""

    V: np.ndarray
    sigma: np.ndarray
    U: np.ndarray
    beta: float


def svd(m: np.ndarray) -> SvdFactors:
    """Thin SVD of a complex matrix, sigma sorted nonincreasing and divided
    by beta: the largest singular value, or 1 for the all-zero matrix."""
    m = np.asarray(m, dtype=np.complex128)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    v, sigma, u = np.linalg.svd(m, full_matrices=False)
    peak = float(sigma.max())
    beta = peak if peak > 0.0 else 1.0
    return SvdFactors(V=v, sigma=sigma / beta, U=u, beta=beta)
