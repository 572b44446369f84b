"""The BLAS thread policy: client training runs on one BLAS thread.

numpy's wheels bundle OpenBLAS (``numpy.libs/libscipy_openblas64_*.so``),
which by default spreads every GEMM over all CPUs.  Client training is many
small GEMMs, often in several processes at once (distributed workers next
to the driver), so extra BLAS threads only contend for cores.  Their count
also changes how some GEMMs and long dot products split their sums, so a
client's update bytes would depend on the host's thread setting.

:data:`single_threaded` pins OpenBLAS to one thread for the duration of a
scope; :func:`repro.federated.client.local_train` and
:func:`~repro.federated.client.local_train_batched` run inside it, so every
training path trains identically on every host.  Work outside the scope —
defenses, attack set-up, evaluation, folds — keeps the thread count the
process was started with (``OPENBLAS_NUM_THREADS`` or the library default).
The library is reached through ``ctypes``; without it the scope does nothing.

The thread count is one setting for the whole process, so BLAS work that
another thread runs while a client trains runs on one thread too.  To keep
results independent of timing, that work must never overlap training: the
``thread`` backend runs driver-side work only while its pool is idle, a
:class:`~repro.experiments.suite.Suite` runs inside the scope from start to
end (its cells may run on concurrent threads), and the sharded aggregator's
threads only do elementwise folds.  Code that runs experiments on threads
of its own should likewise run them inside :data:`single_threaded`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import platform
import threading
from collections.abc import Callable
from typing import NamedTuple

import numpy as np


class _OpenBLAS(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    config: Callable[[], bytes]


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """numpy's bundled OpenBLAS entry points, or ``None`` when absent."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        return _OpenBLAS(get_threads, set_threads, config)
    return None


class _SingleThreaded(contextlib.ContextDecorator):
    """Reference-counted scope: the outermost enter saves the thread count
    and pins it to 1, the outermost exit restores it.  Re-entrant, and safe
    when several threads train at once (the ``thread`` backend)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore: Callable[[], None] | None = None

    @property
    def active(self) -> bool:
        """Whether some thread is inside the scope."""
        return self._depth > 0

    def __enter__(self) -> _SingleThreaded:
        with self._lock:
            lib = _openblas()
            if self._depth == 0 and lib is not None:
                self._restore = functools.partial(lib.set_threads, lib.get_threads())
                lib.set_threads(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                self._restore()
                self._restore = None

    def _after_fork(self) -> None:
        # A child forked while another thread held the lock would otherwise
        # block in its first scope.  Scopes other threads held at the fork
        # never exit in the child, which keeps training on one thread.
        self._lock = threading.Lock()


#: The process-wide single-thread BLAS scope (a context manager and
#: decorator).
single_threaded = _SingleThreaded()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=single_threaded._after_fork)


def num_threads() -> int | None:
    """OpenBLAS's current thread count, or ``None`` when it is not found."""
    lib = _openblas()
    return None if lib is None else int(lib.get_threads())


def fingerprint() -> dict:
    """The numeric environment training runs under, for perf records."""
    lib = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_config": None if lib is None else lib.config().decode().strip(),
        "blas_threads": num_threads(),
        "training_scope_active": single_threaded.active,
    }
