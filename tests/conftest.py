"""Pin BLAS and OpenMP to one thread before any test imports numpy.

The getzler layer multiplies 2x2 matrices and calls `expm` on them;
extra BLAS threads only add start-up and contention.  Variables already
set in the environment are kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
