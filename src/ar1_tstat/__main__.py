"""``python -m ar1_tstat`` and the ``ar1-tstat`` script.

One worker model (see :mod:`~ar1_tstat.blas`): a process runs numpy's BLAS
on one thread unless the user's own OPENBLAS_NUM_THREADS says otherwise. The
default has to be in the environment before numpy loads, and the pool's
workers inherit it.
"""

from .blas import default_to_one_thread


def entrypoint() -> None:
    default_to_one_thread()
    from .cli import main

    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
