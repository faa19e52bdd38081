"""Process set-up and the environment record attached to every result.

This module imports nothing numeric at load time: `fix_blas_threads`
must run before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

# one BLAS thread: on the 2-core machine the benchmark was tuned on, a
# second thread made an n=100 grid cell about 20% slower, not faster
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fix_blas_threads():
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package(root: Path):
    """Import megmc from root/src and nowhere else; exit if it is missing."""
    pkg = root / "src" / "megmc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no megmc package at {pkg}; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import megmc

    if Path(megmc.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: megmc was imported from {megmc.__file__}, not {pkg}")
    return megmc


def _git_commit(root: Path) -> str:
    """HEAD of root/.git read from its files; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "megmc").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
