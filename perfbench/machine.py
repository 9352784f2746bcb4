"""Machine facts recorded with every benchmark result.

Everything here only reads: core counts, interpreter and library versions,
the BLAS builds NumPy and SciPy were linked against, the thread count each
loaded OpenBLAS reports at run time, and any BLAS/OpenMP environment
variables. The benchmark sets no thread variables itself, so a thread
policy added to the program shows up in these numbers.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "BLIS_", "GOTO_")

_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_GETTERS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    paths = set()
    for line in maps.read_text().splitlines():
        path = line.split(maxsplit=5)[-1]
        if "openblas" in Path(path).name and ".so" in path:
            paths.add(path)
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_runtime() -> list[dict]:
    """Per loaded OpenBLAS: library file, its config string and the thread
    count it reports now (read only, nothing is set)."""
    out = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call(lib, _CONFIG_GETTERS, ctypes.c_char_p)
        out.append({
            "library": Path(path).name,
            "config": config.decode().strip() if config else None,
            "threads": _call(lib, _THREAD_GETTERS, ctypes.c_int),
        })
    return out


def _build_blas(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": {"numpy": _build_blas(numpy), "scipy": _build_blas(scipy)},
        "blas_runtime": blas_runtime(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(THREAD_ENV_PREFIXES)},
    }
