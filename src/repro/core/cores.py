"""Both cores on the default path: a call's work split across the CPUs.

APNN-TC's tiling heuristic puts parallelism first whenever a problem
cannot fill the device (§4.3.2).  On the host the same holds for the
CPUs this process may use: the kernels and epilogue ops each split
their output into contiguous parts with :func:`split` -- one part per
usable CPU, the first on the calling thread and the others on one
persistent pool of threads.  numpy ufuncs and copies, BLAS and cffi
calls release the GIL, so the parts run in parallel.  No part reduces
across another part's elements, so each computes exactly the elements
the serial call would, and outputs are byte-identical at any CPU count.

While any part runs, numpy's bundled OpenBLAS is held at one thread
(:func:`hold_blas`): a BLAS call inside a part must not fan out over the
CPUs the other parts use, and after a multi-threaded call OpenBLAS's
idle workers spin in user space on the core the next split needs.  The
thread control is found among the shared objects the process has
loaded, the way threadpoolctl finds it, on the first hold.

A split runs as one part, inline, when one CPU is usable, when the call
is already inside a part, when a part would get less than
:data:`MIN_PART_US` of modeled work, or when the BLAS control is not
found.  One part is the serial path; there is no other.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["ELEMENT_US", "MIN_PART_US", "hold_blas", "split", "usable_cpus"]

#: The least modeled work, in microseconds, a part must get for a call
#: to split.  Waking a pool thread and collecting its part costs 7 µs
#: back to back and about 40 µs after the thread has idled, on a 2-vCPU
#: x86-64 Xeon VM; there a 2-way split of a float64 multiply gains from
#: about 70 µs of serial work (131,072 elements: 73 -> 51 µs).
MIN_PART_US = 50.0

#: Modeled microseconds of one numpy ufunc pass over one float64
#: element, for pricing an epilogue op's parts: a multiply over 262,144
#: elements takes 0.7 ns per element on that VM, more on fresh pages.
ELEMENT_US = 1e-3

#: The thread control of numpy's bundled OpenBLAS (scipy-openblas,
#: 64-bit integers): ``(get, set)`` symbol names.
_BLAS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)

_Control = tuple[Callable[[], int], Callable[[int], None]]
#: The ``(get, set)`` control once looked up; None when not found.
_blas: _Control | None = None
_blas_looked_up = False
_lock = threading.Lock()  # guards the lookup, _holds and _saved
_holds = 0
_saved = 1
_local = threading.local()  # .inside: this thread is running a part
#: The pool: one task queue per daemon thread, or None before the first
#: split that has more than one part.
_pool: list[queue.SimpleQueue] | None = None


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _DLPhdrInfo(ctypes.Structure):
    # the leading fields of glibc's struct dl_phdr_info
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_DLPhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def _loaded_objects() -> list[str]:
    """Paths of the shared objects loaded in this process."""
    paths: list[str] = []

    def visit(info: Any, size: int, data: Any) -> int:
        name = info.contents.dlpi_name
        if name:
            paths.append(os.fsdecode(name))
        return 0

    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError):  # not an ELF platform
        return paths
    iterate(_PHDR_CALLBACK(visit), None)
    return paths


def _find_blas() -> _Control | None:
    """The ``(get, set)`` thread control of a loaded OpenBLAS, or None."""
    get_name, set_name = _BLAS_SYMBOLS
    for path in _loaded_objects():
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except (AttributeError, OSError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _blas_control() -> _Control | None:
    global _blas, _blas_looked_up
    with _lock:
        if not _blas_looked_up:
            _blas, _blas_looked_up = _find_blas(), True
        return _blas


@contextmanager
def hold_blas() -> Iterator[None]:
    """Hold numpy's OpenBLAS at one thread for the ``with`` body.

    Holds nest and may be taken from any thread: they are counted under
    a lock, and the outermost one to end restores the count it found.
    Without the control this does nothing.
    """
    global _holds, _saved
    control = _blas_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _lock:
        if _holds == 0:
            _saved = get()
            if _saved != 1:
                set_(1)
        _holds += 1
    try:
        yield
    finally:
        with _lock:
            _holds -= 1
            if _holds == 0 and _saved != 1:
                set_(_saved)


def _serve(tasks: queue.SimpleQueue) -> None:
    _local.inside = True  # a pool thread only ever runs parts
    while True:
        fn, index, lo, hi, done = tasks.get()
        error = None
        try:
            fn(lo, hi)
        except BaseException as exc:  # the splitting thread re-raises it
            error = exc
        done.put((index, error))


def _parts(n: int, us: float) -> int:
    """How many parts :func:`split` runs ``range(n)`` in."""
    if n < 2 or getattr(_local, "inside", False):
        return 1
    parts = min(usable_cpus(), n)
    if parts < 2 or us / parts < MIN_PART_US or _blas_control() is None:
        return 1
    return parts


def split(n: int, fn: Callable[[int, int], object], us: float) -> None:
    """Run ``fn(lo, hi)`` over contiguous parts covering ``range(n)``.

    ``us`` is the modeled serial time of ``fn(0, n)``.  Parts are as
    equal as ``n`` allows, one per usable CPU, and each writes only its
    own slice of the caller's output.  The first part runs on the
    calling thread, the rest on the pool, all under :func:`hold_blas`.
    If a part raises, the first part's exception in part order is
    re-raised once every part has finished.
    """
    parts = _parts(n, us)
    with hold_blas():
        if parts == 1:
            fn(0, n)
            return
        workers = _get_pool()[:parts - 1]
        parts = len(workers) + 1
        bounds = [n * i // parts for i in range(parts + 1)]
        done: queue.SimpleQueue = queue.SimpleQueue()
        for index, tasks in enumerate(workers, 1):
            tasks.put((fn, index, bounds[index], bounds[index + 1], done))
        errors: list[BaseException | None] = [None] * parts
        _local.inside = True
        try:
            fn(bounds[0], bounds[1])
        except BaseException as exc:  # re-raised after the other parts
            errors[0] = exc
        finally:
            _local.inside = False
        for _ in range(parts - 1):
            index, error = done.get()
            errors[index] = error
    first = next((error for error in errors if error is not None), None)
    if first is not None:
        raise first


def _get_pool() -> list[queue.SimpleQueue]:
    """The pool's task queues: one daemon thread per usable CPU but the
    caller's, started once."""
    global _pool
    with _lock:
        if _pool is None:
            _pool = [queue.SimpleQueue() for _ in range(max(1, usable_cpus() - 1))]
            for index, tasks in enumerate(_pool):
                threading.Thread(
                    target=_serve, args=(tasks,), name=f"repro-cores-{index}",
                    daemon=True,
                ).start()
        return _pool


def _after_fork_in_child() -> None:
    # the pool's threads do not exist in a forked child, and a lock some
    # other thread held at the fork would stay held: start both afresh
    global _pool, _lock
    _pool = None
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)
