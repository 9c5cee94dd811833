"""Test-session setup, run by pytest before any test module is imported."""

import os
import sys

# One BLAS/OpenMP thread, set before numpy is imported: threaded BLAS may
# split a GEMM's rows by the row count, and then window_mfcc's 250-frame
# blocks end in other last bits than a whole window's 998 frames.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
