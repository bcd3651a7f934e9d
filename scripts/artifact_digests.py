"""Run the CLI matrix into a directory and print a digest of every artifact.

    python3 scripts/artifact_digests.py OUT [--tree DIR] > digests.txt

Runs the CLI of the source tree ``DIR`` (default: this repository) on a
small config: ``train``, ``animate`` for each pipeline variant, and
``ablate`` for each list of ``ROWS``: the variants, a ``p`` sweep, the
curves, a mixed list with repeats, and three rows that name one run.
Every file is written under ``OUT``, which must not exist yet.  Prints
``sha256  path`` for every file except ``run.log``, which holds timings.
For each ``result.json`` and ``ablation.json`` it also prints
``sha256  path#payload``, the digest of its JSON without ``config`` and
``config_hash``, so a change to the settings record alone leaves those
lines equal.  Compare two trees with ``diff`` of
two outputs; run it under ``taskset -c 0`` for the one-CPU case.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("Baseline", "V", "S", "VU", "VS")
# ablate output directory -> ablate.rows
ROWS = {
    "variants": "Baseline, V, S, VU, VS",
    "p": "0.2, 0.4, 0.6, 0.8, 1.0",
    "curves": "LD, SD, SI, LI",
    "mixed": "vs, 0.4, ld, Baseline, 0.40, LD",
    # VS at the default vsds.p = 0.6 and vsds.curve = SD, three times over
    "repeats": "VS, 0.6, SD",
}
CONFIG = """\
seed = 42
dataset.n = 16
schedule.steps = 40
schedule.beta_end = 0.25
denoiser.hidden = 32
train.epochs = 3
"""
# An input image: the condition frame of the first clip the config draws.
IMAGE = """\
import sys
from latent_awaken.config import load_config
from latent_awaken.numerics import write_ltn1
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import generate_dataset
cfg = load_config(sys.argv[1])
sample = generate_dataset(1, cfg.dataset_params(), seed=stream(7, "artifact-digests")).samples[0]
write_ltn1(sys.argv[2], sample.cond.image.grid)
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="directory to create for the artifacts")
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree whose src/ is run")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(args.tree.resolve() / "src"))

    def run(*command: str) -> None:
        subprocess.run([sys.executable, *command], env=env, check=True, stdout=subprocess.DEVNULL)

    def cli(*command: str) -> None:
        run("-m", "latent_awaken.cli", *command)

    for name, rows in ROWS.items():
        (out / f"{name}.cfg").write_text(CONFIG + f"ablate.rows = {rows}\n")
    cfg, ckpt, image = str(out / "variants.cfg"), str(out / "train"), str(out / "image.ltn1")
    run("-c", IMAGE, cfg, image)
    cli("train", "--config", cfg, "--out", ckpt)
    for variant in VARIANTS:
        cli("animate", "--config", cfg, "--ckpt", ckpt, "--image", image, "--label", "right",
            "--variant", variant, "--out", str(out / "animate" / variant))
    for name in ROWS:
        cli("ablate", "--config", str(out / f"{name}.cfg"), "--ckpt", ckpt, "--n", "3",
            "--out", str(out / "ablate" / name))

    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run.log"):
        name, data = path.relative_to(out).as_posix(), path.read_bytes()
        print(f"{sha256(data)}  {name}")
        if path.name in ("result.json", "ablation.json"):
            payload = {k: v for k, v in json.loads(data).items() if k not in ("config", "config_hash")}
            print(f"{sha256(json.dumps(payload, sort_keys=True).encode())}  {name}#payload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
