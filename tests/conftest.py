"""One OpenBLAS thread, as CI runs, so that the acceptance tests' wall-clock
budgets do not depend on what else shares the machine. Set before any test
module imports numpy; an explicit OPENBLAS_NUM_THREADS wins."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
