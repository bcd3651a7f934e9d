"""Test-session set-up shared by ``tests/`` and ``perfbench/tests``.

One BLAS thread, set before numpy is first imported, as the CLI does:
multi-threaded OpenBLAS kernels round differently, so without the pin the
fixture priors, and the numbers the acceptance gates compare, would depend
on the machine's core count.  Only OpenBLAS reads this variable.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
