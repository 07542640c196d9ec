"""Thread counts of the OpenBLAS copies that numpy and scipy bundle, read and set through ctypes.

numpy's wheel bundles a 64-bit-integer OpenBLAS (symbols suffixed ``64_``) and scipy's its own
32-bit one, which ARPACK and scipy.linalg call.  Each honours ``OPENBLAS_NUM_THREADS`` at load
and can be changed at run time.  A library is looked up on first use (its file beside the
package, in ``<package>.libs`` or ``<package>/.dylibs``), so importing this module loads
nothing; where a copy is not found, reads give 1 thread and sets do nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os
import threading
from pathlib import Path

_SUFFIX = {"numpy": "64_", "scipy": ""}
_PIN = threading.Lock()  # one pin at a time, so each restores the count it found


@functools.cache
def _openblas(package: str):
    """(get, set) thread-count functions of `package`'s bundled OpenBLAS, or None if not found."""
    root = Path(importlib.import_module(package).__file__).parent
    suffix = _SUFFIX[package]
    candidates = sorted(root.parent.glob(f"{package}.libs/*openblas*")) + sorted(root.glob(".dylibs/*openblas*"))
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by the package: the same handle
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def usable_cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def openblas_threads(package: str) -> int:
    """The thread count of `package`'s bundled OpenBLAS (1 when it is not found)."""
    lib = _openblas(package)
    return lib[0]() if lib else 1


def thread_budget() -> int:
    """Threads a native loop may use: scipy's OpenBLAS count, capped at the usable cores.

    It follows ``OPENBLAS_NUM_THREADS`` and, in a ``run_scenario`` pool child, the share
    `set_openblas_threads` gave it, so the loop and the BLAS that ARPACK calls use one budget.
    """
    return max(1, min(openblas_threads("scipy"), usable_cores()))


def set_openblas_threads(count: int) -> None:
    """Set both bundled OpenBLAS copies to `count` threads (a pool initializer)."""
    for package in _SUFFIX:
        lib = _openblas(package)
        if lib:
            lib[1](count)


@contextlib.contextmanager
def one_numpy_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then restore its count.

    Nothing changes where that library is not found.
    """
    lib = _openblas("numpy")
    if lib is None:
        yield
        return
    with _PIN:
        count = lib[0]()
        lib[1](1)
        try:
            yield
        finally:
            lib[1](count)
