"""Where the package under test lives, and what the benchmark runs on.

The benchmark always measures the ``chargelimit`` sources of the checkout
it sits in (``<root>/src``), never an installed copy, and runs numpy with
one BLAS thread so that at most two threads (the ``workers=2`` pool) do
work at any time on a two-core machine.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "chargelimit"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout holds no chargelimit sources to measure."""


def prepare() -> None:
    """Point imports at ``<root>/src`` and pin BLAS to one thread.

    Must run before numpy or chargelimit is imported.  Child
    interpreters inherit both settings through the environment.  Raises
    :class:`SourceMissing` when ``src/chargelimit`` is absent, so the
    benchmark never silently measures some other installed copy.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no package sources at {PACKAGE}")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import chargelimit

    if Path(chargelimit.__file__).resolve().parent != PACKAGE:
        raise SourceMissing(f"chargelimit resolved to {chargelimit.__file__}")


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def describe() -> dict:
    """Machine and software record attached to every result.

    ``commit`` is null outside a git checkout; ``source_sha256`` hashes
    the package sources and identifies the measured code either way.
    Call it after timing: it may start ``git`` and imports numba.
    """
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        "machine": platform.machine(),
    }
