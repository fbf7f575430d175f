"""``python -m ar1_tstat`` and the ``ar1-tstat`` script.

One worker model: a CLI process runs numpy's BLAS on one thread at every n,
so the --workers pool is its parallelism and no printed bit follows the
host's CPU count. A user's own OPENBLAS_NUM_THREADS, which the manifest
records, is the one way to threaded BLAS. The default must be in the
environment before numpy loads; the pool's workers inherit it.
"""

import os


def entrypoint() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
