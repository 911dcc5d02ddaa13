"""Environment record stamped on every result.

The BLAS thread count matters for comparisons: some of the program's
outputs differ in their last digits between thread counts, so results
taken at different counts are not compared (see compare.py).

Run as a script it prints the record as one JSON line; the CLI workload
uses that because its own process never imports numpy.
"""

import ctypes
import json
import os
import platform
import sys
from pathlib import Path

_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _blas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "seed": seed,
    }


if __name__ == "__main__":
    print(json.dumps(environment(int(sys.argv[1]))))
