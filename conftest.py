"""Test setup: BLAS runs on one thread, as in perfbench.

On a small host, a BLAS worker thread started by the sparse core's
per-tile products can leave a call descheduled for milliseconds, and the
timed criteria then measure the scheduler. This file loads before numpy,
so the settings take effect; a value already set in the environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
