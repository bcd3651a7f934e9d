import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from latent_awaken.numerics import (
    angle_between,
    principal_axis_stats,
    read_ltn1,
    spearman_rho,
    sqrtm_psd,
    write_ltn1,
)
from latent_awaken.rng import stream


def test_angle_identical_vectors():
    v = np.array([0.3, -1.2, 0.5])
    assert angle_between(v, v) == pytest.approx(0.0, abs=1e-7)


def test_angle_orthogonal_and_antipodal():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert angle_between(e0, e1) == pytest.approx(np.pi / 2, abs=1e-12)
    assert angle_between(e0, -e0) == pytest.approx(np.pi, abs=1e-12)


def test_angle_scale_invariant():
    g = stream(2, "angle")
    for _ in range(20):
        v = g.standard_normal(9)
        k = float(g.uniform(0.01, 100.0))
        assert angle_between(v, k * v) == pytest.approx(0.0, abs=1e-6)


def test_angle_rejects_zero_norm():
    with pytest.raises(ValueError):
        angle_between(np.zeros(4), np.ones(4))


def test_principal_axis_collinear_points():
    ts = np.linspace(-2.0, 3.0, 11)
    pts = np.outer(ts, np.array([1.0, 2.0, -0.5]))
    ratio, proj = principal_axis_stats(pts)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    # Projections recover the 1-d parameterization up to sign and offset.
    order = np.argsort(proj)
    assert np.array_equal(order, np.arange(11)) or np.array_equal(order, np.arange(11)[::-1])


def test_principal_axis_isotropic_cloud():
    # 10k standard-normal points in 2-d: the leading axis holds about half
    # the variance, with O(1/sqrt(n)) fluctuation.
    pts = stream(3, "iso").standard_normal((10_000, 2))
    ratio, _ = principal_axis_stats(pts)
    assert abs(ratio - 0.5) < 0.03


def test_principal_axis_repeated_point_degenerate():
    pts = np.full((5, 3), 0.7)
    ratio, proj = principal_axis_stats(pts)
    assert ratio == 0.0
    assert np.array_equal(proj, np.zeros(5))


def test_principal_axis_rotation_invariant():
    g = stream(4, "rot")
    pts = g.standard_normal((60, 6)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
    q, _ = np.linalg.qr(g.standard_normal((6, 6)))
    r0, _ = principal_axis_stats(pts)
    r1, _ = principal_axis_stats(pts @ q.T)
    assert r1 == pytest.approx(r0, abs=1e-9)


def test_principal_axis_needs_two_points():
    with pytest.raises(ValueError):
        principal_axis_stats(np.ones((1, 4)))


# Few distinct values make ties, and both signs of zero must share a rank.
tie_prone = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
sample_values = st.one_of(tie_prone, st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))


@st.composite
def paired_samples(draw):
    n = draw(st.integers(2, 49))
    x = draw(st.lists(sample_values, min_size=n, max_size=n))
    # The linearity metric ranks against the frame index.
    y = draw(st.one_of(st.just(list(range(n))), st.lists(sample_values, min_size=n, max_size=n)))
    return np.array(x), np.array(y)


@pytest.mark.filterwarnings("ignore:An input array is constant")
@settings(max_examples=300, deadline=None)
@given(pair=paired_samples())
@example(pair=(np.array([0.0, -0.0, 1.0, -0.0]), np.arange(4)))
@example(pair=(np.full(5, 2.0), np.arange(5)))
@example(pair=(np.array([3.0, 1.0, 2.0]), np.zeros(3)))
def test_spearman_rho_is_scipys_bit_for_bit(pair):
    x, y = pair
    ours, ref = spearman_rho(x, y), float(stats.spearmanr(x, y).statistic)
    if np.isnan(ref):  # a constant input
        assert np.isnan(ours)
    else:
        assert ours.hex() == ref.hex()


def test_spearman_rho_needs_paired_1d_samples():
    with pytest.raises(ValueError):
        spearman_rho(np.arange(4.0), np.arange(5.0))
    with pytest.raises(ValueError):
        spearman_rho(np.ones((2, 3)), np.ones((2, 3)))


def test_sqrtm_psd_squares_back():
    g = stream(5, "sqrtm")
    a = g.standard_normal((6, 6))
    m = a @ a.T + 0.1 * np.eye(6)
    s = sqrtm_psd(m)
    assert np.allclose(s @ s, m, atol=1e-10)
    assert np.allclose(s, s.T, atol=1e-12)


def test_sqrtm_psd_rejects_asymmetric():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sqrtm_psd(m)


def test_sqrtm_psd_rejects_negative_definite():
    with pytest.raises(ValueError):
        sqrtm_psd(np.diag([1.0, -0.5]))


def test_ltn1_round_trip_bit_identical(tmp_path):
    g = stream(6, "ltn1")
    arr = g.standard_normal((3, 4, 5))
    path = tmp_path / "t.ltn1"
    write_ltn1(path, arr)
    back = read_ltn1(path)
    assert back.shape == (3, 4, 5)
    assert back.tobytes() == arr.tobytes()


def test_ltn1_bad_magic_names_file(tmp_path):
    path = tmp_path / "bad.ltn1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad.ltn1"):
        read_ltn1(path)


def test_ltn1_truncated_payload(tmp_path):
    path = tmp_path / "cut.ltn1"
    write_ltn1(path, np.ones((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(ValueError):
        read_ltn1(path)


def test_ltn1_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_ltn1(tmp_path / "nan.ltn1", np.array([1.0, np.nan]))
