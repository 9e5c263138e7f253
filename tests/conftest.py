"""One BLAS thread per test process, set before numpy loads.

numpy's BLAS pool uses every core by default; two test runs on one small
machine then oversubscribe it, and BLAS-heavy tests (the Lanczos gap's dot
products and projections) slow down many-fold.  A value already in the
environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
