"""Shared fixtures for the test suite.

The trained priors and the benchmark runs are the expensive pieces (tens of
seconds each), so they are built once per session from the frozen recipe in
``fixture_recipe.py`` — the same recipe ``scripts/freeze_fixtures.py`` used
to record the committed thresholds.  Each heavy fixture also reports how long
it took, so the acceptance tests can charge that cost against their runtime
budgets honestly.  The two priors train together, so each test that uses
either is charged the wall time of both.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import fixture_recipe as recipe
from latent_awaken.metrics import FeatureStats, video_features
from latent_awaken.pipeline import PipelineVariant, _animate_items, _score_run
from latent_awaken.proxy import SyntheticProvider

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def sched():
    return recipe.schedule()


@pytest.fixture(scope="session")
def priors():
    """(moving-blob prior, static-blob prior, wall seconds), trained side by
    side on two threads: each prior has the bytes it has when trained alone,
    and the pair is ready sooner than one after the other."""
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        motion = pool.submit(recipe.train_motion_model)
        static = pool.submit(recipe.train_static_model)
        models = motion.result()[0], static.result()[0]
    return (*models, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def motion_model(priors):
    """(moving-blob prior, wall seconds of training both priors)."""
    return priors[0], priors[2]


@pytest.fixture(scope="session")
def static_model(priors):
    """(static-blob prior, wall seconds of training both priors)."""
    return priors[1], priors[2]


@pytest.fixture(scope="session")
def thresholds():
    return json.loads((FIXTURES / "acceptance_thresholds.json").read_text())


@pytest.fixture(scope="session")
def held_out_runs(motion_model, static_model, sched):
    """VS (motion prior) and Baseline (static prior) outputs per held-out item,
    from the recipe's held-out runs."""
    m_model, train_secs = motion_model
    s_model, _ = static_model  # trained in the same seconds
    t0 = time.perf_counter()
    vs_outputs, base_outputs = recipe.held_out_runs(m_model, s_model, sched)
    return {
        "vs": vs_outputs,
        "baseline": base_outputs,
        "run_seconds": time.perf_counter() - t0,
        "train_seconds": train_secs,
    }


@pytest.fixture(scope="session")
def bench_runs(motion_model, sched):
    """Baseline/VU/VS outputs over the 50-item benchmark, motion prior only,
    and each variant's ``run_ablation`` report (``_score_run``) against the
    benchmark clips.

    All variants of item i share seed BENCH_RUN_SEED + i, so they see the
    same noise streams and differ only in pipeline structure.
    """
    model, train_secs = motion_model
    bench = recipe.motion_benchmark()
    items = [(s.cond.image, s.cond) for s in bench.samples]
    runs = [(v, recipe.VSDS_CFG) for v in (PipelineVariant.BASELINE, PipelineVariant.VU, PipelineVariant.VS)]
    t0 = time.perf_counter()
    results, _ = _animate_items(
        items, runs, model, sched, recipe.BENCH_RUN_SEED,
        fusion_cfg=recipe.FUSION_CFG, proxy_provider=SyntheticProvider(recipe.PROXY_PARAMS),
    )
    outputs = recipe.outputs_in_order(results, runs)
    run_seconds = time.perf_counter() - t0
    gt_stats = FeatureStats.from_features(np.stack([video_features(s.video) for s in bench.samples]))
    rows = {v: _score_run(outputs[v], items, gt_stats)[0] for v in outputs}
    return {"bench": bench, "outputs": outputs, "rows": rows, "run_seconds": run_seconds, "train_seconds": train_secs}
