"""Shared fixtures for the test suite.

The trained priors and the benchmark runs are the expensive pieces (tens of
seconds each), so they are built once per session from the frozen recipe in
``fixture_recipe.py`` — the same recipe ``scripts/freeze_fixtures.py`` used
to record the committed thresholds.  Each heavy fixture also reports how long
it took, so the acceptance tests can charge that cost against their runtime
budgets honestly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import fixture_recipe as recipe
from latent_awaken.metrics import FeatureStats, video_features
from latent_awaken.pipeline import PipelineVariant, _animate_items, _score_outputs
from latent_awaken.proxy import SyntheticProvider

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def sched():
    return recipe.schedule()


@pytest.fixture(scope="session")
def motion_model():
    """(moving-blob prior, training wall seconds)."""
    return recipe.train_motion_model()


@pytest.fixture(scope="session")
def static_model():
    """(static-blob prior, training wall seconds)."""
    return recipe.train_static_model()


@pytest.fixture(scope="session")
def thresholds():
    return json.loads((FIXTURES / "acceptance_thresholds.json").read_text())


@pytest.fixture(scope="session")
def held_out_runs(motion_model, static_model, sched):
    """VS (motion prior) and Baseline (static prior) outputs per held-out item,
    from the recipe's held-out runs."""
    m_model, m_secs = motion_model
    s_model, s_secs = static_model
    t0 = time.perf_counter()
    vs_outputs, base_outputs = recipe.held_out_runs(m_model, s_model, sched)
    return {
        "vs": vs_outputs,
        "baseline": base_outputs,
        "run_seconds": time.perf_counter() - t0,
        "train_seconds": m_secs + s_secs,
    }


@pytest.fixture(scope="session")
def bench_runs(motion_model, sched):
    """Baseline/VU/VS outputs over the 50-item benchmark, motion prior only,
    and each variant's ``_score_outputs`` report against the benchmark clips.

    All variants of item i share seed BENCH_RUN_SEED + i, so they see the
    same noise streams and differ only in pipeline structure.
    """
    model, train_secs = motion_model
    bench = recipe.motion_benchmark()
    items = [(s.cond.image, s.cond) for s in bench.samples]
    variants = (PipelineVariant.BASELINE, PipelineVariant.VU, PipelineVariant.VS)
    t0 = time.perf_counter()
    results, _ = _animate_items(
        items, variants, model, sched, recipe.BENCH_RUN_SEED, vsds_cfg=recipe.VSDS_CFG,
        fusion_cfg=recipe.FUSION_CFG, proxy_provider=SyntheticProvider(recipe.PROXY_PARAMS),
    )
    outputs = recipe.outputs_in_order(results, len(items), variants)
    run_seconds = time.perf_counter() - t0
    gt_stats = FeatureStats.from_features(np.stack([video_features(s.video) for s in bench.samples]))
    scored = {v: [(out, cond, image) for out, (image, cond) in zip(outputs[v], items)] for v in variants}
    rows = {v: _score_outputs(v.value, scored[v], gt_stats, 0).report for v in variants}
    return {"bench": bench, "outputs": outputs, "rows": rows, "run_seconds": run_seconds, "train_seconds": train_secs}
