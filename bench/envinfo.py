"""Environment record attached to every benchmark result.

Numbers from this benchmark are only comparable between runs that share the
record: CPU and caches, Python/numpy/scipy builds, the BLAS library and its
default thread count, numpy's SIMD dispatch for the transcendental kernels
the Monte Carlo code leans on, and effdim's block-size constants. The BLAS
thread count is read, never set.
"""

import ctypes
import os
import platform
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Data/unified cache sizes by level, as the kernel reports them for cpu0."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads():
    """Default thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _simd_dispatch() -> dict:
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return {"exp": "unavailable", "log1p": "unavailable"}
    info = opt_func_info(func_name="^(exp|log1p)$", signature="float64")
    return {name: {sig: d["current"] for sig, d in sigs.items()} for name, sigs in info.items()}


def environment() -> dict:
    import numpy as np
    import scipy

    from effdim import sampling

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_default_threads": _blas_threads(),
        "simd": _simd_dispatch(),
        "sampling": {
            "FLAT_BLOCK": sampling.FLAT_BLOCK,
            "NESTED_OUTER_BLOCK": sampling.NESTED_OUTER_BLOCK,
            "NESTED_INNER_CHUNK": sampling.NESTED_INNER_CHUNK,
        },
    }
