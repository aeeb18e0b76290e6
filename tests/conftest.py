"""Pin BLAS to one thread before numpy is first imported.

The generators' LAPACK calls (QR, the matrix 2-norm, eigvalsh, the Newton
solves) give different bits under different BLAS thread counts, so the golden
fixtures hold only under the thread count that wrote them. tests/test_golden.py
imports this module first, so that `--regenerate` runs pinned as well.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
