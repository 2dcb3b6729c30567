"""Where the benchmark finds the program: the checkout it sits in.

Imports only the standard library, so the set-up probe can use it before
timing its own imports.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# numpy's BLAS and OpenMP pools read these once, at import; the benchmark
# measures one single-threaded process (a cap of 1 is within nproc).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAPS = {var: "1" for var in THREAD_VARS}


def cap_threads(env=os.environ) -> None:
    env.update(THREAD_CAPS)


class MissingProgram(RuntimeError):
    """The checkout holds no ratsys package under src/."""


def import_ratsys():
    """Import ratsys from this checkout's src/ and nowhere else."""
    package = SRC / "ratsys"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no ratsys package at {package}")
    sys.path.insert(0, str(SRC))
    import ratsys
    if Path(ratsys.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"ratsys was imported from {ratsys.__file__}, not {package}")
    return ratsys
