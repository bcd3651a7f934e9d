"""Record the VS outputs that the animate workload is checked against.

    python3 perfbench/make_reference.py

Builds the prior and the item pool exactly as the benchmark does, runs the
full method on every pool item and stores a sketch of each output (its norm
and eight random unit projections) in ``reference/animate_vs.json``, with
the recipe it depends on and the tolerance.  Rerun only when the recipe in
``workloads.py`` changes; a program change must pass against the file as is.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as w  # noqa: E402
from latent_awaken.proxy import SyntheticProvider  # noqa: E402

# Largest sketch deviation accepted, as a share of the output's norm.
# Measured on a 2-core x86-64 box with OpenBLAS 0.3.31: summation reordering
# moves the outputs by at most 2e-16 of their norm (layer 1 split into two
# matmuls, in inference and throughout prior training; 2 BLAS threads
# instead of 1; every weight nudged by one ulp).  Wrong arithmetic moves
# them far more: one w2 weight scaled by 1 + 1e-6 gives 6e-11, a float32
# forward pass 3e-9, a time embedding off by one step 2e-5.
TOLERANCE = 1e-11


def main() -> int:
    model = w.build_prior()
    provider = SyntheticProvider(w.PROXY_PARAMS)
    sketches = []
    for j, sample in enumerate(w.pool_samples()):
        sketches.append([float(v) for v in w.sketch(w.animate_vs(sample, j, model, provider).frames)])
    rows = ",\n".join(json.dumps(s) for s in sketches)
    w.REFERENCE.parent.mkdir(exist_ok=True)
    w.REFERENCE.write_text(
        f'{{"recipe": {json.dumps(w.recipe())},\n"tolerance": {TOLERANCE!r},\n"sketches": [\n{rows}\n]}}\n'
    )
    print(f"wrote {len(sketches)} sketches to {w.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
