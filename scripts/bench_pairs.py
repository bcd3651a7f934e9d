"""Compare two commits on the perfbench benchmark and write a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 6 --out BENCH_22.json

For each workload of ``BENCHMARK.json`` it runs ``--pairs`` pairs of
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds``, one run
of ``--parent`` and one of ``HEAD`` (the change) per pair, with seed
``SEED + pair`` for both runs of a pair and the side that runs first
alternating from pair to pair.  Each side runs from the committed files of
its revision, exported with ``git archive`` into a temporary directory, so
neither the working tree nor the repository's ``.git`` is touched.  The file
is rewritten after every run, so an interrupted comparison keeps the pairs
it finished.

Per workload and end-to-end metric the summary gives each side's median and
quartiles (linear interpolation, ``numpy.percentile``), the number of pairs
the change won (ties count for neither side), the relative change of the
median, and whether that change stays inside the metric's bound.  ``runs``
keeps every run with its exit code and the JSON result line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 2000


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """One benchmark run in ``tree``: its record and its environment block."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    # A run that crashed leaves no JSON result line: it is recorded without one.
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
        print(proc.stderr, file=sys.stderr)
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"exit": proc.returncode, "wall_s": wall_s, "result": result}, env


def summarize(runs: list[dict], bench: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            value = {m: v["value"] for m, v in r["result"]["metrics"].items()} if r["result"] else None
            pairs.setdefault(r["pair"], {})[r["side"]] = value
        complete = [p for p in pairs.values() if len(p) == 2 and None not in p.values()]
        row = summary[workload] = {
            "pairs": len(complete),
            "all_correct": all(r["result"] is not None and r["result"]["correct"] for r in mine),
            "all_exit_0": all(r["exit"] == 0 for r in mine),
        }
        if not complete:
            continue
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            sides = {side: np.array([p[side][name] for p in complete]) for side in SIDES}
            stats = {
                side: dict(zip(("median", "q1", "q3"), (float(np.median(v)), *np.percentile(v, [25, 75]).tolist())))
                for side, v in sides.items()
            }
            change = (stats["change"]["median"] - stats["parent"]["median"]) / stats["parent"]["median"]
            row[name] = {
                **stats,
                "change_wins": int((sign * (sides["change"] - sides["parent"]) < 0).sum()),
                "median_change": change,
                "within_bound": sign * change <= metric["bound"],
            }
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="revision of the parent commit")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--workload", action="append", choices=names, help="default: every workload")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    seconds = bench["run_seconds"]
    revs = {side: git("rev-parse", "--short", rev).decode().strip() for side, rev in zip(SIDES, (args.parent, "HEAD"))}
    workloads = args.workload or names
    report = {
        "what": "perfbench end-to-end runs of the parent commit and of the change, alternating which side runs "
        "first, same seed within a pair; quartiles by linear interpolation (numpy.percentile).",
        **revs,
        "command": f"{' '.join(bench['command'])} --workload <w> --seed <s> --seconds {seconds:g} --trace 0; "
        f"seeds {SEED}-{SEED + args.pairs - 1} for each workload",
        "host": f"{platform.platform()}, {os.cpu_count()} CPUs",
        "env": None,
        "summary": {},
        "runs": [],
    }
    affinity = f"{len(os.sched_getaffinity(0))} CPUs"
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        for workload in workloads:
            for pair in range(args.pairs):
                seed = SEED + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    record, env = run_once(trees[side], bench["command"], workload, seed, seconds)
                    report["env"] = report["env"] or env
                    report["runs"].append(
                        {"workload": workload, "pair": pair, "seed": seed, "side": side,
                         "ran_first": side == order[0], "affinity": affinity, **record}
                    )
                    report["summary"] = summarize(report["runs"], bench)
                    args.out.write_text(json.dumps(report, indent=2) + "\n")
                    value = record["result"]["metrics"]["item_ms_p50"]["value"] if record["result"] else None
                    print(f"{workload} pair {pair} {side}: exit {record['exit']}, item_ms_p50 {value}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
