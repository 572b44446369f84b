"""Machine and environment fingerprint carried by every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

#: Variables that pin a thread count in BLAS or OpenMP runtimes.  Inherited
#: values are removed before a run, so the library picks its own default.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def scrubbed_environment(env: dict) -> tuple[dict, dict]:
    """``env`` without thread-count variables, and the variables removed."""
    removed = {key: env[key] for key in THREAD_VARIABLES if key in env}
    return {k: v for k, v in env.items() if k not in removed}, removed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas() -> dict:
    """numpy's BLAS build and the thread count it actually runs with.

    The count is read through ``ctypes`` from the OpenBLAS bundled with
    numpy wheels; other builds report ``None``.
    """
    import numpy as np

    build = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {
        "name": build.get("name"),
        "version": build.get("version"),
        "config": None,
        "threads": None,
    }
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = lib.scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        info["threads"] = int(get_threads())
        info["config"] = get_config().decode().strip()
        break
    return info


def process() -> dict:
    """Fingerprint of the current process and the machine it runs on."""
    import numpy as np

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }
