"""Test-session set-up shared by tests/ and perfbench/tests/.

BLAS runs single-threaded unless the caller chose otherwise: the
learners eigendecompose matrices of size at most a few hundred, where a
second OpenBLAS thread costs more than it gains (an n=60 grid cell took
3.4 s with one thread and 4.1-5.5 s with two on a 2-core machine). The
variables must be set before numpy is first imported, which is why they
live here and not in a test module. For the same reason the
LinAlgWarning filter is added in pytest_configure and not listed in
pyproject.toml: naming scipy's class there makes pytest import scipy, and
with it numpy, while it reads its configuration, before this file runs.
"""

import os
import sys

# True if numpy was loaded before this file, so that the variables below
# come too late to bind; a test checks that it stays False
NUMPY_IMPORTED_FIRST = "numpy" in sys.modules

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_configure(config):
    # an ill-conditioned factorization in package code is a failure, as an
    # overflow or invalid operation (pyproject.toml) is
    config.addinivalue_line("filterwarnings", "error::scipy.linalg.LinAlgWarning")
