"""Pin BLAS and OpenMP to one thread, and check that the pin took.

``pin()`` must run before numpy is first imported: OpenBLAS reads these
variables once, when it loads.
"""

from __future__ import annotations

import ctypes
import os

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin() -> None:
    for var in PIN_VARS:
        os.environ[var] = "1"


def blas_threads() -> dict:
    """Ask the loaded OpenBLAS how many threads it will use.

    Reads this process's own memory map to find the library numpy loaded.
    Raises RuntimeError when the count is not 1 or cannot be read.
    """
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is None:
                continue
            getter.restype = ctypes.c_int
            threads = int(getter())
            if threads != 1:
                raise RuntimeError(f"BLAS uses {threads} threads despite {PIN_VARS[0]}=1")
            return {"library": os.path.basename(path), "threads": threads}
    raise RuntimeError("no OpenBLAS thread-count getter found; cannot verify the BLAS pin")
