"""Classically simulated complex-valued optical/quantum-optical neural networks.

Modules: `linalg` (SVD with amplification β),
`data` (fold-encoded MNIST IDX files), `layers` (the seven layer kinds in one
table, with hand-derived backward passes), `model` (layer stacks),
`training` (loss, optimizers, checkpoints, gradient check), `metrics`,
`resources` (quantum-vs-classical arithmetic), `fileio` (atomic writes) and
`cli`.  `python -m qocnn` and the `qocnn` script cap the BLAS threads and
run `cli`.
"""

import os

__version__ = "0.1.0"


def blas_threads() -> str:
    """The BLAS thread cap QOCNN_THREADS asks for, as run.log records it.

    Unset (or not a whole number) is 1, which makes checkpoints independent
    of the host's core count; k > 0 is k; 0 or less leaves the library
    defaults.  Reads only the environment, so it can run before numpy loads.
    """
    raw = os.environ.get("QOCNN_THREADS", "").strip()
    try:
        n = int(raw) if raw else 1
    except ValueError:
        n = 1
    return str(n) if n > 0 else "library default"
