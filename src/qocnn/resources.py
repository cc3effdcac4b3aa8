"""Closed-form quantum-vs-classical resource calculators.

All counts are exact integer arithmetic; constant factors are 1, so the
numbers are order-of-magnitude estimates of the underlying scaling laws,
not hardware predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import FOLD, as_int


@dataclass(frozen=True)
class WorkloadSpec:
    """A network sized for counting: L layers, input size n, batch size b."""

    L: int
    n: int
    b: int

    def __post_init__(self) -> None:
        for name in ("L", "n", "b"):
            count = as_int(getattr(self, name), f"{name} must be a positive integer", 1)
            object.__setattr__(self, name, count)  # exact counts at any size


@dataclass(frozen=True)
class ResourceReport:
    workload: WorkloadSpec
    classical_ops: int
    quantum_ops: int
    speedup: float
    classical_params: int
    qubit_estimate: int


def ceil_log2(x: int) -> int:
    return (as_int(x, "ceil_log2 requires x >= 1", 1) - 1).bit_length()


def classical_ops(w: WorkloadSpec) -> int:
    """Per-layer dense cost b*n^2, summed over L layers."""
    return w.b * w.n * w.n * w.L


def quantum_ops(w: WorkloadSpec) -> int:
    """Per-layer cost n*(n + b), summed over L layers."""
    return w.n * (w.n + w.b) * w.L


def speedup(w: WorkloadSpec) -> float:
    """classical_ops / quantum_ops; the layer count cancels exactly."""
    return classical_ops(w) / quantum_ops(w)


def classical_params(w: WorkloadSpec) -> int:
    """Dense weight count n^2 per layer."""
    return w.n * w.n * w.L


def qubit_estimate(w: WorkloadSpec) -> int:
    """L * (ceil(log2 n) + ceil(log2 b)) qubits across the network."""
    return w.L * (ceil_log2(w.n) + ceil_log2(w.b))


def input_qubits_mnist() -> int:
    """Qubits to hold one folded 28x28 image, one per complex mode."""
    return FOLD


def estimate(w: WorkloadSpec) -> ResourceReport:
    return ResourceReport(
        workload=w,
        classical_ops=classical_ops(w),
        quantum_ops=quantum_ops(w),
        speedup=speedup(w),
        classical_params=classical_params(w),
        qubit_estimate=qubit_estimate(w),
    )


SWEEP_HEADER = "L,n,b,classical_ops,quantum_ops,speedup,classical_params,qubit_estimate"


def sweep_csv(workloads: list[WorkloadSpec]) -> str:
    lines = [SWEEP_HEADER]
    for w in workloads:
        r = estimate(w)
        lines.append(
            f"{w.L},{w.n},{w.b},{r.classical_ops},{r.quantum_ops},"
            f"{r.speedup:.10g},{r.classical_params},{r.qubit_estimate}"
        )
    return "\n".join(lines) + "\n"
