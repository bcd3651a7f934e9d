"""Config parsing, validation, canonical hashing, typed views."""

import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_awaken.config import ConfigError, load_config, parse_config, parse_enum
from latent_awaken.diffusion import NoiseSchedule
from latent_awaken.fusion import FusionConfig
from latent_awaken.motion import MOTION_LABELS
from latent_awaken.pipeline import PipelineVariant, ablation_runs
from latent_awaken.proxy import SyntheticProviderParams
from latent_awaken.toydenoiser import DatasetParams, ToyDenoiser, train
from latent_awaken.vsds import CurveKind, VsdsConfig, WeightCurve


def test_defaults():
    cfg = parse_config("")
    assert cfg["seed"] == 42
    assert cfg["vsds.p"] == 0.6
    assert cfg["schedule.steps"] == 1000
    assert [v.value for v in cfg["ablate.rows"]] == ["Baseline", "V", "S", "VU", "VS"]
    assert cfg.vsds_config().curve.kind is CurveKind.STEPWISE_DECREASING


def test_defaults_are_the_librarys_own():
    # Each default is written twice, in the schema and in the library; the
    # views of an empty config must build what the library builds alone.
    cfg = parse_config("")
    assert cfg.dataset_params() == DatasetParams()
    assert np.array_equal(cfg.schedule().betas, NoiseSchedule.linear().betas)
    assert cfg.vsds_config() == VsdsConfig()
    assert cfg.fusion_config() == FusionConfig()
    assert cfg.proxy_params() == SyntheticProviderParams()
    model_defaults = inspect.signature(ToyDenoiser).parameters
    assert cfg["denoiser.hidden"] == model_defaults["hidden"].default
    assert cfg["denoiser.t_embed"] == model_defaults["t_embed"].default
    train_defaults = inspect.signature(train).parameters
    assert cfg["train.epochs"] == train_defaults["epochs"].default
    assert cfg["train.lr"] == train_defaults["lr"].default
    assert cfg["train.batch"] == train_defaults["batch_size"].default


def test_parse_comments_blanks_and_lists():
    text = """
# run settings
seed = 7

dataset.labels = right, left   # inline comment
schedule.steps = 500
"""
    cfg = parse_config(text)
    assert cfg["seed"] == 7
    assert cfg["dataset.labels"] == ("right", "left")
    assert cfg["schedule.steps"] == 500


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("seed = 1\n\nfoo.bar = 1\n")
    assert "line 3" in str(err.value)
    assert "foo.bar" in str(err.value)


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("seed 42\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config("seed = forty-two\n")


@pytest.mark.parametrize(
    "line,needle",
    [
        ("vsds.p = 1.5", "vsds.p"),
        ("dataset.frames = 1", "dataset.frames"),
        ("vsds.omega = sqrt", "'vsds.omega'"),
        ("pipeline.resume_from = mid", "pipeline.resume_from"),
        ("denoiser.t_embed = 3", "'denoiser.t_embed'"),
        ("denoiser.t_embed = 0", "'denoiser.t_embed'"),
        ("denoiser.hidden = 0", "'denoiser.hidden'"),
        ("train.epochs = 0", "train.epochs"),
        ("train.epochs = 0", "config key 'train.epochs': must be >= 1, got 0"),
        ("train.batch = 0", "config key 'train.batch': must be >= 1, got 0"),
        ("train.lr = -0.5", "train.lr"),
        ("vsds.curve = zigzag", "unknown weight curve"),
        ("fusion.mode = slerp", "unknown config key 'fusion.mode'"),
        ("fusion.angle_scope = global", "unknown config key 'fusion.angle_scope'"),
        ("vsds.curve = constant", "unknown weight curve"),
        ("vsds.omega = one", "unknown config key 'vsds.omega'"),
        ("vsds.shared_noise = true", "unknown config key 'vsds.shared_noise'"),
        ("pipeline.resume_from = T", "unknown config key 'pipeline.resume_from'"),
        ("dataset.shapes = triangle", "unknown shape kind"),
        ("dataset.shapes = triangle", "config key 'dataset.shapes'"),
        ("dataset.labels = right, foo", "config key 'dataset.labels'"),
        # the four keys that ablate.rows replaced are refused by name
        ("ablate.sweep = widths", "ablate.sweep"),
        ("ablate.p_grid = 0.0, 0.5", "ablate.p_grid"),
        ("ablate.curve_grid = LD, bogus", "ablate.curve_grid"),
        ("pipeline.variants = VS", "unknown config key 'pipeline.variants'"),
        ("ablate.rows = Baseline, XX", "config key 'ablate.rows': 'XX' is not a pipeline variant"),
        ("ablate.rows = 0.0, 0.5", "config key 'ablate.rows': p must be in (0, 1], got 0.0"),
        ("ablate.rows = VS, 1.5", "config key 'ablate.rows': p must be in (0, 1], got 1.5"),
        ("ablate.rows = LD, bogus", "config key 'ablate.rows': 'bogus' is not"),
        ("ablate.rows = nan", "config key 'ablate.rows': 'nan' is not"),
        ("proxy.strength = 1.5", "proxy.strength"),
        ("dataset.blob_sigma = 1.0", "blob_sigma"),
        ("dataset.blob_sigma = 1.0, 2.0, 3.0", "blob_sigma"),
        ("dataset.blob_sigma = 3.0, 2.0", "blob_sigma"),
        ("dataset.blob_sigma = 0.0, 0.0", "blob_sigma"),
        ("dataset.square_half = -3", "square_half"),
        ("dataset.velocities = 1.0, -0.5", "velocities"),
        ("dataset.grow_rate = 0.0", "grow_rate"),
        ("dataset.height = 1", "'dataset.height'"),
        ("dataset.channels = 0", "'dataset.channels'"),
        ("vsds.p = 0.0", "config key 'vsds.p': p must be in (0, 1]"),
        ("fusion.epsilon_theta = nan", "config key 'fusion.epsilon_theta': expected a finite number"),
        ("fusion.epsilon_theta = inf", "config key 'fusion.epsilon_theta': expected a finite number"),
        ("fusion.epsilon_theta = 2.0", "config key 'fusion.epsilon_theta': epsilon_theta must be in (0, pi/2)"),
        ("dataset.grow_rate = nan", "config key 'dataset.grow_rate': expected a finite number"),
        ("dataset.grow_rate = inf", "config key 'dataset.grow_rate': expected a finite number"),
        ("dataset.velocities = nan", "config key 'dataset.velocities': expected a finite number"),
        ("train.lr = nan", "config key 'train.lr': expected a finite number"),
        ("vsds.w_hi = inf", "config key 'vsds.w_hi': expected a finite number"),
    ],
)
def test_validation_errors_name_the_problem(line, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(line + "\n")
    assert needle in str(err.value)
    key = line.split(" = ")[0]
    if key == f"dataset.{needle}":  # a refusal of one dataset field names its full key
        assert f"config key '{key}'" in str(err.value)


def test_parse_variant_case_insensitive():
    # The config key and the CLI's --variant go through one parser.
    for text, variant in [("baseline", PipelineVariant.BASELINE), ("  vs ", PipelineVariant.VS),
                          ("Vu", PipelineVariant.VU)]:
        assert parse_enum(PipelineVariant, text) is variant
        assert parse_config(f"ablate.rows = {text}\n")["ablate.rows"] == (variant,)
    with pytest.raises(ValueError) as err:
        parse_enum(PipelineVariant, "VX")
    with pytest.raises(ConfigError) as cfg_err:
        parse_config("ablate.rows = VX\n")
    for known in ("Baseline", "V", "S", "VU", "VS"):
        assert known in str(err.value)
        assert known in str(cfg_err.value)
    # a row that is neither kind of name nor a number lists both kinds' names
    for known in ("LD", "SD", "SI", "LI"):
        assert known in str(cfg_err.value)


def test_parse_curve_kind_aliases():
    # Only the CurveKind values are accepted, in any case, with spaces trimmed.
    for text, kind in [("LD", CurveKind.LINEAR_DECREASING), ("sd", CurveKind.STEPWISE_DECREASING),
                       ("Si", CurveKind.STEPWISE_INCREASING), (" li ", CurveKind.LINEAR_INCREASING)]:
        assert parse_enum(CurveKind, text) is kind
        assert parse_config(f"vsds.curve = {text}\n")["vsds.curve"] is kind
        assert parse_config(f"ablate.rows = {text}\n")["ablate.rows"] == (kind,)
    for name in ("stepwise-decreasing", "const", "constant", "CONSTANT", "quadratic"):
        with pytest.raises(ValueError, match="unknown weight curve"):
            parse_enum(CurveKind, name)
        with pytest.raises(ConfigError, match="unknown weight curve"):
            parse_config(f"vsds.curve = {name}\n")


@pytest.mark.parametrize(
    "key, a, b",
    [
        ("vsds.curve", "sd", "SD"),
        ("ablate.rows", "vs, baseline", "VS, Baseline"),
        ("ablate.rows", "ld, sd", "LD, SD"),
        ("ablate.rows", "vu, li, 0.4", "VU, LI, 0.4"),
    ],
)
def test_enum_names_hash_in_canonical_spelling(key, a, b):
    # Enum names are matched ignoring case and spacing, and written back as
    # the enum's value, so one setting has one hash however it is spelled.
    first, second = parse_config(f"{key} = {a}\n"), parse_config(f"{key} = {b}\n")
    assert first.canonical() == second.canonical()
    assert first.config_hash() == second.config_hash()
    assert f"{key} = {b.replace(' ', '')}" in first.canonical().splitlines()


def test_variant_list_is_canonical_in_row_order():
    # The ablation runs each listed row once, in the order listed, so the
    # canonical text keeps that order and drops repeats: rows that run the
    # same way have one canonical text and one hash.
    texts = ("VS, Baseline", "VS, Baseline, VS", "vs, BASELINE")
    cfgs = [parse_config(f"ablate.rows = {text}\n") for text in texts]
    assert all(cfg["ablate.rows"] == (PipelineVariant.VS, PipelineVariant.BASELINE) for cfg in cfgs)
    assert len({cfg.canonical() for cfg in cfgs}) == 1
    assert len({cfg.config_hash() for cfg in cfgs}) == 1
    assert "ablate.rows = VS,Baseline" in cfgs[0].canonical().splitlines()
    assert list(ablation_runs(cfgs[0]["ablate.rows"], cfgs[0].vsds_config())) == ["VS", "Baseline"]
    assert parse_config("").canonical() == parse_config("ablate.rows = Baseline,V,S,VU,VS\n").canonical()
    # another order is another setting
    assert parse_config("ablate.rows = Baseline, VS\n").config_hash() != cfgs[0].config_hash()


def test_sweep_grids_run_each_value_once():
    # A repeated row would run the same row twice; the first-listed order is
    # kept, whatever mix of variants, curves and stop fractions is listed.
    cfg = parse_config("ablate.rows = vs, 0.4, ld, Baseline, 0.40, LD\n")
    assert cfg["ablate.rows"] == (PipelineVariant.VS, 0.4, CurveKind.LINEAR_DECREASING, PipelineVariant.BASELINE)
    assert "ablate.rows = VS,0.4,LD,Baseline" in cfg.canonical().splitlines()
    assert cfg.config_hash() == parse_config("ablate.rows = VS, 0.4, LD, Baseline\n").config_hash()


def test_ablation_rows_run_vs_with_each_curve_or_p():
    # A variant row runs with the configured settings; a curve row or a p
    # row runs VS with only that setting changed.
    cfg = parse_config("vsds.p = 0.5\nvsds.curve = SI\nvsds.w_hi = 3.0\nablate.rows = VU, LD, 0.8\n")
    base = cfg.vsds_config()
    assert ablation_runs(cfg["ablate.rows"], base) == {
        "VU": (PipelineVariant.VU, base),
        "LD": (PipelineVariant.VS, VsdsConfig(p=0.5, curve=WeightCurve(CurveKind.LINEAR_DECREASING, w_hi=3.0))),
        "0.8": (PipelineVariant.VS, VsdsConfig(p=0.8, curve=base.curve)),
    }


def test_config_hash_ignores_formatting():
    a = parse_config("seed = 7\nvsds.p = 0.4\n")
    b = parse_config("# comment\nvsds.p = 0.4\n\nseed = 7   # same settings\n")
    assert a.config_hash() == b.config_hash()
    c = parse_config("seed = 8\nvsds.p = 0.4\n")
    assert a.config_hash() != c.config_hash()


unit_interval = st.floats(0.0, 1.0, exclude_min=True)
positive = st.floats(1e-9, 1e3)

# Valid override lines for a spread of keys, one strategy per key; each
# draws the value's text as a user would write it.
override_lines = st.fixed_dictionaries({}, optional={
    "seed": st.integers(0, 2**31).map(str),
    "dataset.labels": st.lists(st.sampled_from(MOTION_LABELS), min_size=1, unique=True).map(", ".join),
    "dataset.velocities": st.lists(positive, min_size=1, max_size=3).map(lambda xs: ", ".join(map(repr, xs))),
    "train.lr": positive.map(repr),
    "vsds.p": unit_interval.map(repr),
    "vsds.curve": st.sampled_from(["LD", "SD", "SI", "LI", " li "]),
    "fusion.epsilon_theta": st.floats(1e-9, np.pi / 2, exclude_max=True).map(repr),
    "proxy.strength": st.floats(0.0, 1.0).map(repr),
    "ablate.rows": st.lists(
        st.sampled_from(["Baseline", "vs", "VU", "ld", "SI"]) | unit_interval.map(repr), min_size=1, max_size=6
    ).map(", ".join),
})


@settings(max_examples=100)
@given(overrides=override_lines)
def test_canonical_is_sorted_and_parseable(overrides):
    cfg = parse_config("".join(f"{key} = {text}\n" for key, text in overrides.items()))
    text = cfg.canonical()
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)
    # canonical text round-trips through the parser to the same values and hash
    again = parse_config(text)
    assert again.values == cfg.values
    assert again.config_hash() == cfg.config_hash()


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 11\n")
    assert load_config(path)["seed"] == 11
    with pytest.raises(ConfigError, match="nope.cfg"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_refuses_a_directory(tmp_path):
    with pytest.raises(ConfigError, match=f"config file is not a regular file: {re.escape(str(tmp_path))}$"):
        load_config(tmp_path)


def test_typed_views():
    cfg = parse_config(
        "seed = 9\nschedule.steps = 120\nschedule.beta_end = 0.08\n"
        "dataset.labels = right\nproxy.strength = 0.75\nablate.rows = VS, Baseline\n"
    )
    sched = cfg.schedule()
    assert sched.steps == 120
    assert cfg.dataset_params().labels == ("right",)
    assert cfg.proxy_params().motion_hint_strength == 0.75
    assert cfg["ablate.rows"] == (PipelineVariant.VS, PipelineVariant.BASELINE)
