"""The host record printed with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

import numpy as np
import scipy

# Thread-count queries exported by the OpenBLAS builds numpy ships with.
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_library() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def blas_threads_in_use():
    """The loaded OpenBLAS's own thread count, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def host_record(pinned_threads: int) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads_pinned": pinned_threads,
        "blas_threads_in_use": blas_threads_in_use(),
    }
