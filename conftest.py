"""Test-session set-up shared by ``tests/`` and ``perfbench/tests``.

The whole session runs BLAS on one thread, as the CLI does: multi-threaded
OpenBLAS kernels round differently, so without the pin the fixture priors,
and the numbers the acceptance gates compare, would depend on the
machine's core count.
"""

import pytest

from latent_awaken.numerics import one_blas_thread


@pytest.fixture(autouse=True, scope="session")
def _one_blas_thread():
    with one_blas_thread():
        yield
