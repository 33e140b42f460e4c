import os

# pin BLAS pools before numpy ever loads: keeps runs single-threaded and
# bitwise reproducible regardless of the host's core count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import threading  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread running which was not running before it:
    every worker a training call starts must be joined before the call returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
