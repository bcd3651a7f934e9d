"""Benchmark of latent_awaken: one workload per run, timed or traced.

    python3 perfbench/run.py --workload animate --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation.  ``--trace 1`` runs each operation twice, untraced
and then with spans around every layer, and reports the per-layer metrics;
the spans go to
``perfbench/.out/trace-<workload>.jsonl``.  Human-readable lines come first;
the last line of standard output is the JSON result.  The exit code is 1
when an output check failed and 0 otherwise; failed operations are counted,
not fatal.  See ``perfbench/README.md`` for the metrics.
"""

import os
import sys

# Thread counts are fixed before numpy loads, so the caller's shell cannot
# change the result.  One thread each: on a small shared machine BLAS
# threads make the figures faster but far less steady.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "LATENT_AWAKEN_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END_UNITS = {
    "item_ms_p50": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}
WARMUP_OPS = 1


@dataclass
class Tally:
    """Operations attempted and failed, with reasons, plus output problems."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def run_ops(workload, ks, tally, deadline=None, tracer=None):
    """Run operations ``ks`` in order; return (ks run, seconds of each success)."""
    done, seconds = [], []
    for k in ks:
        if deadline is not None and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.item = k
        done.append(k)
        tally.attempted += 1
        t0 = perf_counter()
        try:
            result = workload.op(k)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted and the run goes on
            tally.failed += 1
            tally.reasons[f"{type(exc).__name__}: {exc}"] += 1
            continue
        seconds.append(perf_counter() - t0)
        tally.problems.extend(workload.check(k, result))
    return done, seconds


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        **{var: os.environ[var] for var in THREADS},
        "seed": seed,
    }


def tail_latency(per_item):
    """p90 when at least ten samples lie beyond it, as animate's do; ablate
    and train complete too few items in a run for any tail percentile."""
    if len(per_item) < 100:
        return f"item_ms_p90 not measurable from {len(per_item)} items"
    return f"item_ms_p90 = {statistics.quantiles(per_item, n=10)[8] * 1e3!r} ms over {len(per_item)} items"


def end_to_end(workload, setup_s, seconds, tally):
    per_item = [s / workload.items_per_op for s in seconds]
    values = {
        "item_ms_p50": statistics.median(per_item) * 1e3,
        "items_per_s": len(seconds) * workload.items_per_op / sum(seconds),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("animate", "ablate", "train"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "latent_awaken" / "__init__.py").is_file():
        print(f"error: no latent_awaken package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    from workloads import WORKLOADS

    env = environment(args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()

    setup_s = []
    for _ in range(workload.setup_repeats):
        t0 = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - t0)
    run_ops(workload, range(WARMUP_OPS), tally)

    deadline = perf_counter() + args.seconds
    if args.trace:
        # Each operation runs untraced, then again traced; the pairs give the
        # tracer's overhead free of the machine's drift in speed.
        tracer = tracing.Tracer()
        done, seconds, traced = [], [], []
        for k in count(WARMUP_OPS):
            if perf_counter() >= deadline:
                break
            done.append(k)
            _, plain = run_ops(workload, [k], tally)
            with tracing.traced(workload, tracer) as unmeasured:
                _, spanned = run_ops(workload, [k], tally, tracer=tracer)
            if plain and spanned:
                seconds += plain
                traced += spanned
    else:
        done, seconds = run_ops(workload, count(WARMUP_OPS), tally, deadline=deadline)
    if not seconds:
        print(f"error: no {args.workload} operation succeeded: {dict(tally.reasons)}", file=sys.stderr)
        return 1

    if args.trace:
        overhead = sum(traced) / sum(seconds) - 1.0
        metrics = tracing.layer_metrics(tracer, len(done) * workload.items_per_op, overhead, unmeasured)
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl", {"workload": args.workload, "env": env})
        if unmeasured:
            print(f"unmeasured layers (no call site left): {', '.join(unmeasured)}")
    else:
        # animate and ablate require the same bytes from the same inputs.
        run_ops(workload, done[:1], tally)
        metrics = end_to_end(workload, setup_s, seconds, tally)

    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload}: {len(seconds)} timed operations of {workload.items_per_op} item(s); "
        f"failed_ops_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted}; "
        + tail_latency([s / workload.items_per_op for s in seconds])
    )
    for reason, n in tally.reasons.most_common():
        print(f"  failed x{n}: {reason}")
    for problem in tally.problems:
        print(f"  check failed: {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    correct = not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
