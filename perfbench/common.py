"""Names and paths shared by the benchmark's scripts."""
from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("survey", "track", "receiver", "verify")

# One BLAS/OpenMP thread in every process the benchmark starts: the
# program's 3x3 linear algebra gains nothing from threads, and idle pool
# threads would add scheduling noise on a two-core host.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """Environment for a child process: pinned threads, `src` importable."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
