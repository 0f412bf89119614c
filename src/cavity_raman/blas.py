"""One BLAS thread while a command runs.

Every matrix the package factors is small: stacks of 16x16 generators,
photon-ladder generators up to 225x225, stacks of 5x5 exponentials.  A
second OpenBLAS thread adds only its wake-up and contention to each call:
on a 2 vCPU machine, ``validate`` took 0.14 s (median of 10 runs) at
OpenBLAS's default of two threads and 0.05 s at one.  :func:`one_thread`
limits every loaded OpenBLAS library to one thread and gives each its
earlier count back when it closes.

The libraries are found among the process's mapped files
(``/proc/self/maps``) and opened with ``RTLD_NOLOAD``, so nothing is
loaded only to be limited.  Where there is no OpenBLAS, or no such map,
nothing is done.  scipy brings its own OpenBLAS, which loads at the first
``import scipy.linalg``; the module that makes that import calls
:func:`adopt` after it, so a library that loads inside an open scope is
limited before its first call.  The thread count is state of the process,
so the record of what to give back is too.
"""
from __future__ import annotations

import contextlib
import os
import threading

# (get, set) thread-count functions of the OpenBLAS builds numpy and scipy
# ship (the numpy build renames its symbols with a 64_ suffix), then of a
# plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_libraries: dict[str, tuple] | None = None  # path -> (get, set) once looked for
_open = 0  # scopes open now, in any thread
_restore: dict[str, int] = {}  # path -> count to give back when the last scope closes


def _controls(path: str) -> tuple | None:
    """The (get, set) pair of a loaded OpenBLAS, or None."""
    import ctypes

    try:
        library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:  # not loaded, or not a library
        return None
    for get_name, set_name in _SYMBOLS:
        get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _find() -> None:
    """Add every OpenBLAS mapped into the process to ``_libraries``."""
    global _libraries
    if _libraries is None:
        _libraries = {}
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            # address, permissions, offset, device, inode, path
            entries = [line.split(maxsplit=5) for line in maps if "openblas" in line]
    except OSError:
        return
    for path in {entry[5].rstrip("\n") for entry in entries if len(entry) == 6}:
        if path not in _libraries and "openblas" in os.path.basename(path):
            controls = _controls(path)
            if controls is not None:
                _libraries[path] = controls


def _limit() -> None:
    for path, (get, set_) in _libraries.items():
        if path not in _restore:
            _restore[path] = get()
            set_(1)


@contextlib.contextmanager
def one_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    Scopes may nest and may be open in several threads at once; the counts
    are given back when the last one closes, also when its body raises."""
    global _open
    with _lock:
        if _libraries is None:
            _find()
        if _open == 0:
            _limit()
        _open += 1
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if _open == 0:
                for path, count in _restore.items():
                    _, set_ = _libraries[path]
                    set_(count)
                _restore.clear()


def adopt() -> None:
    """Look again for OpenBLAS libraries, after an import that may load one;
    inside an open scope, limit those found to one thread."""
    with _lock:
        _find()
        if _open:
            _limit()
