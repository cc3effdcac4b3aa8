"""The SVD of a complex matrix with its amplification beta pulled out.

An optical linear layer realises M as beta * V @ diag(sigma) @ U: two
unitary meshes around a diagonal of attenuations with max(sigma) <= 1.
beta > 1 means the layer needs gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ComplexMatrix:
    """N1 x N2 complex matrix as separate real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self) -> None:
        self.re = np.asarray(self.re, dtype=np.float64)
        self.im = np.asarray(self.im, dtype=np.float64)
        if self.re.ndim != 2 or self.re.shape != self.im.shape:
            raise ValueError(
                f"re and im must be two-dimensional of one shape, got "
                f"{self.re.shape} and {self.im.shape}"
            )

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    @classmethod
    def from_complex(cls, z) -> "ComplexMatrix":
        z = np.asarray(z, dtype=np.complex128)
        return cls(z.real.copy(), z.imag.copy())


@dataclass
class SvdFactors:
    """Factorization M = beta * V @ diag(sigma) @ U with unitary V and U."""

    V: ComplexMatrix
    sigma: np.ndarray
    U: ComplexMatrix
    beta: float = 1.0


def svd(m: ComplexMatrix) -> SvdFactors:
    """Full SVD with unitary factors; singular values sorted nonincreasing.

    Returned factors satisfy V @ diag(sigma) @ U == M (beta is left at 1;
    see :func:`amplification_normalize`).
    """
    if not (np.all(np.isfinite(m.re)) and np.all(np.isfinite(m.im))):
        raise ValueError("matrix entries must be finite")
    v, sigma, u = np.linalg.svd(m.to_complex(), full_matrices=True)
    return SvdFactors(
        V=ComplexMatrix.from_complex(v),
        sigma=sigma,
        U=ComplexMatrix.from_complex(u),
    )


def amplification_normalize(f: SvdFactors) -> SvdFactors:
    """Pull a uniform scale beta out of sigma so that max(sigma) <= 1.

    beta is the largest singular value, or 1 for the all-zero matrix so the
    division is well defined.  The product beta * V @ diag(sigma) @ U is
    unchanged.
    """
    if f.beta != 1.0:
        raise ValueError("factors are already normalized (beta != 1)")
    peak = float(f.sigma.max())
    beta = peak if peak > 0.0 else 1.0
    return SvdFactors(V=f.V, sigma=f.sigma / beta, U=f.U, beta=beta)
