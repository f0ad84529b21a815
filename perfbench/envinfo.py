"""Environment record attached to every benchmark output.

Timings of numpy code depend on the BLAS library, its thread count and the
CPU, so each result carries them. The OpenBLAS thread count is read back from
the loaded library where it exposes the query, so the record shows the count
in effect and not only the one requested.
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_QUERIES = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                   "openblas_get_config")


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_library():
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if os.path.isfile(path):
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def _query(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def environment(blas_threads_set: int) -> dict:
    """numpy/BLAS versions and config, thread counts, nproc, CPU, Python."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    lib = _openblas_library()
    threads_seen = config = None
    if lib is not None:
        threads_seen = _query(lib, _THREAD_QUERIES, ctypes.c_int)
        raw = _query(lib, _CONFIG_QUERIES, ctypes.c_char_p)
        config = raw.decode() if raw else None
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_config": blas.get("openblas configuration"),
        "blas_runtime_config": config,
        "blas_threads_set": blas_threads_set,
        "blas_threads_seen": threads_seen,
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
    }
