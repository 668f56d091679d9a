"""Process environment for the benchmark: thread caps and the program import.

Nothing here imports numpy, so :func:`cap_threads` can run before the first
numpy import, which is when BLAS and OpenMP read their thread settings.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict[str, str]:
    """Cap every BLAS/OpenMP thread variable at :func:`nproc`; return them."""
    limit = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, limit))
        except ValueError:
            current = limit
        os.environ[var] = str(max(1, min(current, limit)))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_program() -> None:
    """Import ``netspread`` from this checkout's ``src/``, or exit with an error.

    An installed copy elsewhere is refused: the benchmark measures the
    program in the checkout it runs from.
    """
    sys.path.insert(0, str(SRC))
    try:
        import netspread
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import netspread from {SRC}: {exc}")
    location = Path(netspread.__file__).resolve()
    if SRC not in location.parents:
        sys.exit(f"benchmark: netspread was imported from {location}, not from {SRC}")
