"""Entry point of ``python -m oscnet`` and of the ``oscnet`` console script.

A command is a chain of small dense problems, on which OpenBLAS's worker
threads cost more than they gain, and an idle worker spins on a core.
OpenBLAS reads its thread count once, when it loads, so ``main`` sets
``OPENBLAS_NUM_THREADS=1`` before it imports the CLI (and with it numpy),
unless a thread variable is set already.  scipy's bundled OpenBLAS reads the
same variable when a run loads it.  ``import oscnet`` alone sets nothing.
"""

import os
import sys

from . import _BLAS_THREAD_VARIABLES


def main(argv=None) -> int:
    # Once numpy is loaded its OpenBLAS has read the count; the variable would
    # then only switch off the CLI's own pin (``cli._one_blas_thread``).
    if "numpy" not in sys.modules and not any(
        name in os.environ for name in _BLAS_THREAD_VARIABLES
    ):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
