"""Config parsing, validation, canonical hashing, typed views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_awaken.config import ConfigError, load_config, parse_config, with_overrides
from latent_awaken.fusion import AngleScope
from latent_awaken.pipeline import PipelineVariant
from latent_awaken.toydenoiser import MOTION_LABELS
from latent_awaken.vsds import CurveKind


def test_defaults():
    cfg = parse_config("")
    assert cfg.seed == 42
    assert cfg["vsds.p"] == 0.6
    assert cfg["schedule.steps"] == 1000
    assert cfg["pipeline.variants"] == ("Baseline", "V", "S", "VU", "VS")
    assert cfg.vsds_config().curve.kind is CurveKind.STEPWISE_DECREASING
    assert cfg.fusion_config().angle_scope is AngleScope.GLOBAL
    assert cfg.resume_from == "tau"


def test_parse_comments_blanks_and_lists():
    text = """
# run settings
seed = 7

dataset.labels = right, left   # inline comment
vsds.shared_noise = yes
schedule.steps = 500
"""
    cfg = parse_config(text)
    assert cfg.seed == 7
    assert cfg["dataset.labels"] == ("right", "left")
    assert cfg["vsds.shared_noise"] is True
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
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("vsds.shared_noise = maybe\n")


@pytest.mark.parametrize(
    "line,needle",
    [
        ("vsds.p = 1.5", "vsds.p"),
        ("dataset.frames = 1", "dataset.frames"),
        ("pipeline.resume_from = mid", "pipeline.resume_from"),
        ("ablate.sweep = widths", "ablate.sweep"),
        ("train.epochs = 0", "train.epochs"),
        ("train.lr = -0.5", "train.lr"),
        ("vsds.curve = zigzag", "unknown weight curve"),
        ("fusion.angle_scope = diagonal", "diagonal"),
        ("fusion.mode = slerp", "unknown config key 'fusion.mode'"),
        ("dataset.shapes = triangle", "unknown shape kind"),
        ("pipeline.variants = Baseline, XX", "unknown pipeline variant"),
        ("ablate.p_grid = 0.0, 0.5", "ablate.p_grid"),
        ("ablate.curve_grid = LD, bogus", "ablate.curve_grid"),
        ("proxy.strength = 1.5", "proxy.strength"),
    ],
)
def test_validation_errors_name_the_problem(line, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(line + "\n")
    assert needle in str(err.value)


def test_with_overrides():
    cfg = parse_config("")
    out = with_overrides(cfg, vsds__p=0.3, seed=9)
    assert out["vsds.p"] == 0.3
    assert out.seed == 9
    assert cfg["vsds.p"] == 0.6  # original untouched
    with pytest.raises(ConfigError, match="unknown config key"):
        with_overrides(cfg, nop__nope=1)
    with pytest.raises(ConfigError, match="vsds.p"):
        with_overrides(cfg, vsds__p=1.5)


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
    "vsds.curve": st.sampled_from(["LD", "SD", "SI", "LI", "constant"]),
    "vsds.shared_noise": st.sampled_from(["true", "no", "1", "off"]),
    "fusion.angle_scope": st.sampled_from(["global", "per_frame", " Per_Frame "]),
    "fusion.epsilon_theta": positive.map(repr),
    "proxy.strength": st.floats(0.0, 1.0).map(repr),
    "pipeline.variants": st.lists(st.sampled_from(["Baseline", "V", "S", "VU", "VS"]), min_size=1).map(",".join),
    "pipeline.resume_from": st.sampled_from(["tau", "T"]),
    "ablate.p_grid": st.lists(unit_interval, min_size=1, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
})


@settings(max_examples=100, deadline=None)
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
    assert load_config(path).seed == 11
    with pytest.raises(ConfigError, match="nope.cfg"):
        load_config(tmp_path / "nope.cfg")


def test_typed_views():
    cfg = parse_config(
        "seed = 9\nschedule.steps = 120\nschedule.beta_end = 0.08\n"
        "dataset.labels = right\nproxy.strength = 0.75\npipeline.variants = VS, Baseline\n"
    )
    assert cfg.vsds_config().seed == 9  # refinement streams key off the run seed
    sched = cfg.schedule()
    assert sched.steps == 120
    assert cfg.dataset_params().labels == ("right",)
    assert cfg.proxy_params().motion_hint_strength == 0.75
    assert cfg.variants() == [PipelineVariant.VS, PipelineVariant.BASELINE]
