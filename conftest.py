"""Test-session set-up shared by tests/ and perfbench/tests/.

BLAS runs single-threaded unless the caller chose otherwise: the
learners eigendecompose matrices of size at most a few hundred, where a
second OpenBLAS thread costs more than it gains (an n=60 grid cell took
3.4 s with one thread and 4.1-5.5 s with two on a 2-core machine). The
variables must be set before numpy is first imported, which is why they
live here and not in a test module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
