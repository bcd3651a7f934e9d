"""Test-session set-up shared by ``tests/`` and ``perfbench/tests``.

The whole session runs BLAS on one thread, as the CLI does: multi-threaded
OpenBLAS kernels round differently, so without the pin the fixture priors,
and the numbers the acceptance gates compare, would depend on the
machine's core count.

Property tests draw the same examples on every run, with no deadline (the
machine's speed must not decide a result) and no example database, so a
run leaves no ``.hypothesis/`` directory behind.
"""

import pytest
from hypothesis import settings

from latent_awaken.numerics import one_blas_thread

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")


@pytest.fixture(autouse=True, scope="session")
def _one_blas_thread():
    with one_blas_thread():
        yield
