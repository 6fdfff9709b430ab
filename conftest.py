"""Session-wide test settings, loaded before any test module imports numpy.

BLAS is held to one thread, the setting ``bench/run.py`` runs under: some
LAPACK routines (``np.linalg.solve`` among them) round differently under one
and two OpenBLAS threads, and the recorded digests must not depend on the
host's core count. The thread count is read when numpy loads, so it is set
here, not in a fixture.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
