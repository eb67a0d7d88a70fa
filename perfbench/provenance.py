"""Provenance block written into every benchmark result: machine, library
versions, BLAS build, source identity, seed and the thread settings that
change the program's behaviour."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# settings that change how many threads the program or BLAS uses; a run
# with any of them set is not a default run
THREAD_ENV = ("MURMUR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> list[dict]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        out.append(
            {key: _read(index / key) for key in ("level", "type", "size", "shared_cpu_list")}
        )
    return out


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, naming the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, src: Path, seed: int) -> dict:
    env = {name: os.environ.get(name) for name in THREAD_ENV}
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "seed": seed,
        "thread_env": env,
        "default_env": all(v is None for v in env.values()),
    }
