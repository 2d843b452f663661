"""Native settings of a synthesis job: the C library's allocator and the
BLAS library's threads.

`pin_mmap_threshold` fixes how the allocator places and keeps large blocks
for the whole process; `trim_heap` returns the heap's free pages to the
system. Both do nothing under another C library. `pin_blas_threads` runs
OpenBLAS on the calling thread alone; it does nothing under another BLAS.
"""
from __future__ import annotations

import ctypes
import functools

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
MMAP_THRESHOLD = 16 << 20


@functools.cache
def _glibc():
    """The process's C library when it has mallopt and malloc_trim, else None."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    return libc


@functools.cache
def pin_mmap_threshold() -> bool:
    """Give every block of MMAP_THRESHOLD bytes or more its own mapping, and
    let every thread allocate from the one main arena.

    glibc raises its mmap threshold to the size of each mapped block it
    frees, up to 32 MiB. After one job has freed its scenario arrays, the
    arrays and temporaries of the next jobs come from the heap, which keeps
    their pages resident once they are freed, so a job's peak memory then
    depends on which jobs ran before it in the process. The thresholds are
    pinned where glibc's own adjustment would put them for a 16 MiB block.

    Scenario sampling runs one thread per region. By default glibc gives
    each of those threads an arena of its own. Freed batches at the top of
    such an arena stay resident after the thread ends: `trim_heap` does not
    return them, and the main thread's later allocations cannot reuse them.
    On the `certify` benchmark that raised the peak of a pass from 296 to
    326 MB. With one arena, `trim_heap` after sampling returns them.

    True when the allocator took the settings (glibc only)."""
    libc = _glibc()
    if libc is None:
        return False
    return bool(
        libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and libc.mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
        and libc.mallopt(_M_ARENA_MAX, 1)
    )


# OpenBLAS thread setters, by build: numpy's and scipy's bundled ILP64 builds,
# a plain ILP64 build, then the LP64 build of most distributions
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_paths() -> list[str]:
    """The files of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            names = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return []
    return sorted(n for n in names if n.startswith("/") and "openblas" in n.rsplit("/", 1)[-1])


@functools.cache
def pin_blas_threads() -> bool:
    """Run every loaded OpenBLAS on the calling thread alone.

    numpy's OpenBLAS starts a worker thread at import. The first product big
    enough to split over threads, such as a job's step image of 40,000
    states, gives that worker a GEMM buffer of about 30 MB, which it holds for
    the life of the process: on the `certify` benchmark it raised the pass's
    peak from 226 to 263 MB. A job's own threads already use the cores, and
    OpenBLAS splits a product over rows and columns, never over the inner
    dimension, so every product keeps its bits. Call it before the first
    large product: a buffer that exists is not given back.

    True when a thread setter ran (OpenBLAS only)."""
    pinned = False
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, n) for n in _BLAS_SETTERS if hasattr(lib, n)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            pinned = True
    return pinned


def trim_heap() -> None:
    """Return every free page of the heap to the system (malloc_trim(0)),
    not only those above the trim threshold at the top of the heap."""
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)
