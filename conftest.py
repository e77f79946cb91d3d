"""Shared pytest setup for ``tests/`` and ``perfbench/tests/``.

Loaded before any test module imports numpy, so BLAS starts with one
thread: the suite's many small matrix products gain nothing from more,
and on a busy host oversubscribed threads slow it several-fold.  A value
already set in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
