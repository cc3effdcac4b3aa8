"""`python -m qocnn` and the `qocnn` script: cap the BLAS threads, then run
the command.  The cap is applied here, before `qocnn.cli` loads numpy, so a
library caller that imports `qocnn.cli` keeps its own BLAS settings."""

import os
import sys

from . import blas_threads

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> str:
    """Set the BLAS thread variables to the QOCNN_THREADS cap and return it;
    the cap takes effect only if numpy has not loaded yet."""
    cap = blas_threads()
    if cap != "library default":
        for var in BLAS_VARS:
            os.environ[var] = cap
    return cap


def entrypoint() -> None:
    cap_threads()
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
