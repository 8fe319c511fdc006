"""Locate the checkout the benchmark runs against and put its sources first.

The benchmark measures the package in ``<checkout>/src``, never an installed
copy; without those sources it stops with exit code 2.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output (sweep files, span dumps); listed in the root .gitignore.
OUT = ROOT / ".bench_out"

#: Single-threaded BLAS. The package works on 4x4 matrices, where pool threads
#: only compete with the measured thread: on a 2-core host they made a CLI
#: call 30% slower and its wall time twice as variable.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def require_sources() -> None:
    """Put the checkout's sources first on the path; call before importing numpy."""
    if not (SRC / "sqw" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'sqw'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)
    OUT.mkdir(exist_ok=True)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the same sources and thread settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
