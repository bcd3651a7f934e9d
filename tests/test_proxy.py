"""Procedural proxy synthesis and the file-based proxy loaders."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_awaken.diffusion import Condition, FrameLatent
from latent_awaken.motion import DIRECTIONS, MOTION_LABELS, label_id
from latent_awaken.numerics import write_ltn1
from latent_awaken.proxy import (
    FileProvider,
    SyntheticProvider,
    SyntheticProviderParams,
    load_proxy,
    max_displacement,
    read_pgm,
    synthesize_proxy,
    write_pgm,
)
from latent_awaken.rng import stream
from latent_awaken.toydenoiser import DatasetParams, generate_dataset


def probe_image(seed=0, side=16):
    grid = stream(seed, "proxy-test").uniform(-0.9, 0.9, (1, side, side))
    return FrameLatent(grid)


def cond_for(label):
    return Condition(probe_image(), label_id(label))


# ---------------------------------------------------------------------------
# synthetic provider
# ---------------------------------------------------------------------------


def test_strength_zero_is_identity():
    image = probe_image()
    for label in MOTION_LABELS:
        out = synthesize_proxy(image, Condition(image, label_id(label)), SyntheticProviderParams(0.0))
        assert np.array_equal(out.grid, image.grid)


def test_static_label_only_sharpens():
    image = probe_image()
    out = synthesize_proxy(image, cond_for("static"), SyntheticProviderParams(1.0))
    assert np.array_equal(out.grid, np.clip(image.grid * 1.2, -1.0, 1.0))


@pytest.mark.parametrize("label", ["right", "left", "up", "down"])
def test_full_strength_rolls_by_max_displacement(label):
    image = probe_image()
    cells = max_displacement(16, 16)
    assert cells == 4
    ux, uy = DIRECTIONS[label]
    expected = np.clip(
        np.roll(image.grid, shift=(int(cells * uy), int(cells * ux)), axis=(1, 2)) * 1.2,
        -1.0,
        1.0,
    )
    out = synthesize_proxy(image, cond_for(label), SyntheticProviderParams(1.0))
    assert np.array_equal(out.grid, expected)


def test_intermediate_strength_rounds_displacement():
    # strength 0.5 of a max displacement 4 lands on 2 whole cells
    image = probe_image()
    out = synthesize_proxy(image, cond_for("right"), SyntheticProviderParams(0.5))
    expected = np.clip(np.roll(image.grid, shift=(0, 2), axis=(1, 2)) * 1.1, -1.0, 1.0)
    assert np.array_equal(out.grid, expected)


def test_output_stays_in_range():
    # saturated input: sharpening must clamp, not escape [-1, 1]
    grid = np.where(stream(1, "proxy-test").uniform(size=(1, 8, 8)) > 0.5, 0.99, -0.99)
    out = synthesize_proxy(FrameLatent(grid), Condition(FrameLatent(grid), label_id("right")), SyntheticProviderParams(1.0))
    assert out.grid.min() >= -1.0
    assert out.grid.max() <= 1.0


def test_proxy_correlates_with_blob_input():
    # Mild displacement keeps the proxy structurally similar to the input.
    data = generate_dataset(6, DatasetParams(shapes=("blob",), labels=("right", "up")), seed=2)
    for sample in data.samples:
        image = sample.cond.image
        for strength in (0.25, 0.5):
            out = synthesize_proxy(image, sample.cond, SyntheticProviderParams(strength))
            corr = np.corrcoef(out.grid.ravel(), image.grid.ravel())[0, 1]
            assert corr >= 0.0


def test_provider_is_deterministic():
    image = probe_image()
    provider = SyntheticProvider(SyntheticProviderParams(0.7))
    a = provider.synthesize(image, cond_for("left"))
    b = provider.synthesize(image, cond_for("left"))
    assert np.array_equal(a.grid, b.grid)


def test_unknown_label_rejected():
    image = probe_image()
    with pytest.raises(ValueError, match="unknown motion label"):
        synthesize_proxy(image, Condition(image, 17), SyntheticProviderParams(0.5))


def test_params_validation():
    with pytest.raises(ValueError):
        SyntheticProviderParams(-0.1)
    with pytest.raises(ValueError):
        SyntheticProviderParams(1.1)


def test_max_displacement_examples():
    assert max_displacement(16, 16) == 4
    assert max_displacement(8, 16) == 2
    assert max_displacement(3, 3) == 0


# ---------------------------------------------------------------------------
# file loading: LTN1
# ---------------------------------------------------------------------------


def test_load_proxy_ltn1_round_trip(tmp_path):
    arr = stream(3, "proxy-test").uniform(-1.0, 1.0, (1, 5, 7))
    path = tmp_path / "proxy.ltn1"
    write_ltn1(path, arr)
    out = load_proxy(path)
    assert np.array_equal(out.grid, arr)


def test_load_proxy_promotes_rank_2(tmp_path):
    arr = stream(4, "proxy-test").uniform(-1.0, 1.0, (5, 7))
    path = tmp_path / "proxy.ltn1"
    write_ltn1(path, arr)
    out = load_proxy(path)
    assert out.shape == (1, 5, 7)
    assert np.array_equal(out.grid[0], arr)


def test_load_proxy_rejects_other_ranks(tmp_path):
    path = tmp_path / "proxy.ltn1"
    write_ltn1(path, np.zeros((2, 1, 5, 7)))
    with pytest.raises(ValueError, match="rank"):
        load_proxy(path)


def test_load_proxy_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="no-such"):
        load_proxy(tmp_path / "no-such.ltn1")


def test_load_proxy_refuses_a_directory(tmp_path):
    with pytest.raises(ValueError, match=f"proxy file is not a regular file: {re.escape(str(tmp_path))}$"):
        load_proxy(tmp_path)


def test_file_provider_ignores_condition(tmp_path):
    arr = stream(5, "proxy-test").uniform(-1.0, 1.0, (1, 16, 16))
    path = tmp_path / "proxy.ltn1"
    write_ltn1(path, arr)
    provider = FileProvider(str(path))
    out = provider.synthesize(probe_image(), cond_for("right"))
    assert np.array_equal(out.grid, arr)
    # but the stored proxy must match the run's image dimensions
    small = FrameLatent(np.zeros((1, 4, 4)))
    with pytest.raises(ValueError, match="does not match"):
        provider.synthesize(small, cond_for("right"))


# ---------------------------------------------------------------------------
# file loading: PGM
# ---------------------------------------------------------------------------


def test_read_pgm_value_mapping(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 2\n255\n" + bytes([0, 255, 128, 64, 10, 20, 30, 40]))
    out = read_pgm(path)
    assert out.shape == (1, 2, 4)
    assert out.grid[0, 0, 0] == -1.0
    assert out.grid[0, 0, 1] == 1.0
    assert abs(out.grid[0, 0, 2] - (2.0 * 128.0 / 255.0 - 1.0)) < 1e-15


def test_read_pgm_skips_comments(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 2\n# another note\n255\n" + bytes([0, 64, 128, 255]))
    out = read_pgm(path)
    assert out.shape == (1, 2, 2)
    assert out.grid[0, 1, 1] == 1.0


def test_read_pgm_rejects_wrong_depth(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="8-bit"):
        read_pgm(path)


def test_read_pgm_rejects_truncated(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(8))
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_read_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(path)


@st.composite
def byte_images(draw):
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return np.array(draw(st.lists(st.integers(0, 255), min_size=height * width, max_size=height * width)),
                    dtype=np.float64).reshape(height, width)


@settings(max_examples=60)
@given(ks=byte_images(), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_pgm_round_trip_on_byte_lattice(ks, cut):
    # values that sit exactly on the 8-bit grid survive write/read unchanged,
    # and any cut into the payload is reported as truncation
    grid = (2.0 * ks / 255.0 - 1.0)[None]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img.pgm"
        write_pgm(path, FrameLatent(grid))
        out = read_pgm(path)
        assert np.array_equal(out.grid, grid)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - ks.size + int(cut * ks.size)])
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)


def test_load_proxy_reads_pgm_too(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(range(16)))
    out = load_proxy(path)
    assert out.shape == (1, 4, 4)
