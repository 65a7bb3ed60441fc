"""Pin BLAS to one thread before NumPy loads, so tree parents (a float32
matmul's argmax) and the golden digests pinned from them do not depend on
the host's core count."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
