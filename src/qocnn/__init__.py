"""Classically simulated complex-valued optical/quantum-optical neural networks.

Modules: `linalg` (SVD with amplification β),
`data` (fold-encoded MNIST IDX files), `layers` (the seven layer kinds in one
table, with hand-derived backward passes), `model` (layer stacks),
`training` (loss, optimizers, checkpoints, gradient check), `metrics`,
`resources` (quantum-vs-classical arithmetic), `fileio` (atomic writes) and
`cli`.
"""

__version__ = "0.1.0"
