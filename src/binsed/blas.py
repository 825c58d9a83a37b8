"""Single-threaded BLAS inside binsed calls.

The only BLAS calls on the inference path are the frontend's filterbank
product and the im2col matmul of ``conv2d_fixed``.  Both are small, and the
executor's own ``threads=`` workers are the package's only parallelism, so
OpenBLAS worker threads there only compete for the same cores.
``single_thread()`` lowers the OpenBLAS that numpy loaded to one thread and
restores the previous count when the last concurrent holder exits.  Other
BLAS builds are not limited: the scope is then a no-op.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# OpenBLAS builds rename their exports: plain, 64-bit-integer (``64_``/``_64``)
# and scipy-openblas (``scipy_`` prefix, as bundled with numpy wheels).
_SYMBOL_PREFIXES = ("", "scipy_")
_SYMBOL_SUFFIXES = ("", "64_", "_64")


@dataclass(frozen=True)
class OpenBlas:
    """The thread-count entry points of one loaded OpenBLAS library."""

    path: str
    set_symbol: str
    set_num_threads: Callable[[int], None]
    get_num_threads: Callable[[], int]


def _loaded_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process.

    Reads the process's memory map where the platform has one, and otherwise
    looks in the directories numpy wheels bundle their libraries in.
    """
    paths = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                parts = line.split(maxsplit=5)
                path = parts[5].strip() if len(parts) == 6 else ""
                if "openblas" in Path(path).name:
                    paths.append(path)
    except OSError:
        pkg = Path(np.__file__).resolve().parent
        for libdir in (pkg.parent / "numpy.libs", pkg / ".dylibs"):
            paths += sorted(str(p) for p in libdir.glob("*openblas*"))
    return list(dict.fromkeys(paths))


def _bind(path: str) -> OpenBlas | None:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            set_name = f"{prefix}openblas_set_num_threads{suffix}"
            get_name = f"{prefix}openblas_get_num_threads{suffix}"
            set_fn = getattr(lib, set_name, None)
            get_fn = getattr(lib, get_name, None)
            if set_fn is None or get_fn is None:
                continue
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return OpenBlas(path, set_name, set_fn, get_fn)
    return None


@functools.cache
def find_openblas() -> OpenBlas | None:
    """The OpenBLAS numpy loaded, or None; searched once, on first use."""
    for path in _loaded_libraries():
        found = _bind(path)
        if found is not None:
            log.debug("BLAS thread limit: %s via %s", found.path, found.set_symbol)
            return found
    log.debug("BLAS thread limit: no OpenBLAS loaded, single_thread() is a no-op")
    return None


_lock = threading.Lock()
_holders = 0
_saved_threads = 0


@contextmanager
def single_thread():
    """Run the block with OpenBLAS limited to one thread.

    Reentrant and safe across threads: the first holder saves the current
    count and sets one thread, the last holder to exit restores the count,
    also when the block raises.
    """
    global _holders, _saved_threads
    blas = find_openblas()
    if blas is None:
        yield
        return
    with _lock:
        if _holders == 0:
            _saved_threads = blas.get_num_threads()
            blas.set_num_threads(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                blas.set_num_threads(_saved_threads)
