"""Process preparation shared by every perfbench entry point.

Import this module and call :func:`prepare` before anything imports
numpy: BLAS threads are read from the environment when numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: The checkout the benchmark measures (the directory holding ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for run records, span dumps and recorded-eval traces.
OUT = ROOT / ".perfbench"
#: Every thread-count variable the common BLAS builds read.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1


def prepare() -> list[str]:
    """Clear ``REPRO_*``, pin BLAS threads and put ``src/`` on the path.

    Returns the names of the ``REPRO_*`` variables that were removed, so
    the default code path is what gets measured. Exits with status 2
    when the checkout holds no program source.
    """
    cleared = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return cleared
