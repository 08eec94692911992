"""Byte-compile the package and report the numeric stack as one JSON line.

Usage: python3 perfbench/env_probe.py SRC_DIR
"""

import compileall
import json
import os
import platform
import sys

if __name__ == "__main__":
    compileall.compile_dir(sys.argv[1], quiet=1)
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }, sort_keys=True))
