import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import latent_awaken
from latent_awaken import numerics
from latent_awaken.numerics import (
    angle_between,
    blas_threads,
    one_blas_thread,
    principal_axis_stats,
    read_ltn1,
    spearman_rho,
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
@settings(max_examples=300)
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


def test_ltn1_round_trip_bit_identical(tmp_path):
    g = stream(6, "ltn1")
    arr = g.standard_normal((3, 4, 5))
    path = tmp_path / "t.ltn1"
    write_ltn1(path, arr)
    back = read_ltn1(path)
    assert back.shape == (3, 4, 5)
    assert back.tobytes() == arr.tobytes()


# Ranks 0-4, zero-length dimensions included.
ltn1_shapes = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)
finite_f64 = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


@settings(max_examples=200)
@given(arr=hnp.arrays(np.float64, ltn1_shapes, elements=finite_f64))
@example(arr=np.array(-0.0))
@example(arr=np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.finfo(np.float64).max]))
@example(arr=np.zeros((2, 0, 3)))
def test_ltn1_round_trip_property(arr):
    # Every finite float64 array, -0.0 and subnormals included, comes back
    # with its shape and every bit.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ltn1"
        write_ltn1(path, arr)
        back = read_ltn1(path)
    assert back.dtype == np.float64
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=100)
@given(
    arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=4), elements=finite_f64),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.integers(0, 2**16),
)
def test_ltn1_refuses_non_finite_on_write(arr, bad, where):
    arr = arr.copy()
    arr.flat[where % arr.size] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.ltn1"
        with pytest.raises(ValueError, match="non-finite"):
            write_ltn1(path, arr)
        assert not path.exists()


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


# ---------------------------------------------------------------------------
# one BLAS thread
# ---------------------------------------------------------------------------


class FakeBlas:
    """A BLAS thread count with its (get, set) pair; records each set."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    """Installs a fake (get, set) pair at a given count, or no thread
    control for None, with no pin active: the test session runs inside a
    pin of its own, set aside here."""
    monkeypatch.setattr(numerics, "_pins", 0)
    monkeypatch.setattr(numerics, "_restore", None)

    def install(threads):
        blas = FakeBlas(threads)
        monkeypatch.setattr(numerics, "_blas_thread_control", lambda: (blas.get, blas.set) if threads else None)
        return blas

    return install


def test_one_blas_thread_sets_one_and_restores(fake_blas):
    blas = fake_blas(4)
    with one_blas_thread():
        assert blas_threads() == 1
    assert blas.sets == [1, 4]


def test_one_blas_thread_restores_after_an_error(fake_blas):
    blas = fake_blas(4)
    with pytest.raises(RuntimeError), one_blas_thread():
        raise RuntimeError("inside the pin")
    assert blas.sets == [1, 4]
    with one_blas_thread():  # the count of active pins is back to zero
        pass
    assert blas.sets == [1, 4, 1, 4]


def test_nested_pins_set_nothing(fake_blas):
    blas = fake_blas(4)
    with one_blas_thread():
        with one_blas_thread():
            pass
        assert blas.threads == 1
    assert blas.sets == [1, 4]


def test_concurrent_pins_set_nothing(fake_blas):
    blas = fake_blas(4)
    inside = threading.Barrier(2)

    def pinned():
        with one_blas_thread():
            inside.wait(timeout=10)  # both threads hold a pin here

    threads = [threading.Thread(target=pinned) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert blas.sets == [1, 4]


def test_pins_from_many_threads_keep_one_thread_inside(fake_blas):
    # More threads than cores entering and leaving with a short switch
    # interval: a lost update to the pin count would leave a thread inside
    # at the caller's count, or set or restore twice in a row.
    blas = fake_blas(4)
    seen = []

    def worker():
        for _ in range(200):
            with one_blas_thread():
                seen.append(blas.threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 1600 and set(seen) == {1}
    assert blas.threads == 4
    assert blas.sets == [1, 4] * (len(blas.sets) // 2)


def test_one_thread_already_is_left_alone(fake_blas):
    blas = fake_blas(1)
    with one_blas_thread():
        pass
    assert blas.sets == []


def test_pin_is_a_no_op_without_thread_control(fake_blas):
    fake_blas(None)
    with one_blas_thread():
        assert blas_threads() is None
    assert blas_threads() is None


def test_session_runs_on_one_blas_thread():
    # numpy's wheels bundle OpenBLAS; the lookup must find its functions.
    assert blas_threads() in (1, None)


# numpy is loaded before the package, under the caller's thread count.
NUMPY_FIRST = """
import hashlib, json
import numpy as np
from latent_awaken.diffusion import NoiseSchedule
from latent_awaken.numerics import blas_threads
from latent_awaken.pipeline import PipelineVariant, animate, run_ablation
from latent_awaken.toydenoiser import DatasetParams, ToyDenoiser, generate_dataset, train

# Two training steps: after one, the bytes at two threads still agreed.
data = generate_dataset(16, DatasetParams(labels=("right", "up")), seed=1)
sched = NoiseSchedule.linear(40, 1e-4, 0.25)
model = ToyDenoiser(frames=16, channels=1, height=16, width=16, hidden=600, t_embed=16, seed=0)
threads = [blas_threads()]
model, result = train(model, data, sched, epochs=1, seed=0)
threads.append(blas_threads())
sample = data.samples[0]
video = animate(sample.cond.image, sample.cond, PipelineVariant.VS, model, sched, seed=3).output
threads.append(blas_threads())
benchmark = [(s.cond.image, s.cond) for s in data.samples[:2]]
report = run_ablation(benchmark, [PipelineVariant.BASELINE, PipelineVariant.VS], model, sched,
                      reference_videos=[s.video for s in data.samples[:2]])
threads.append(blas_threads())
params = b"".join(a.tobytes() for a in model.parameters().values())
digests = [hashlib.sha256(b).hexdigest() for b in (
    params, result.losses.tobytes(), video.frames.tobytes(), report.to_csv().encode())]
print(json.dumps({"threads": threads, "digests": digests}))
"""


def test_library_calls_do_not_depend_on_the_callers_blas_threads():
    # train, animate and run_ablation pin one BLAS thread themselves, so a
    # caller that loaded numpy at two threads gets the bytes of one thread,
    # and its own count back after each call.
    src = str(Path(latent_awaken.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_FIRST],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout)
    if runs["2"]["threads"][0] != 2:
        pytest.skip(f"OpenBLAS did not start at two threads here: {runs['2']['threads'][0]}")
    assert runs["1"]["threads"] == [1] * 4
    assert runs["2"]["threads"] == [2] * 4
    assert runs["1"]["digests"] == runs["2"]["digests"]


def test_only_the_library_pins_blas_threads():
    # The pin is one_blas_thread's alone: no module, script or test set-up
    # names the OpenBLAS variable in code (environ[...] =, update, putenv).
    root = Path(latent_awaken.__file__).parents[2]
    files = [root / "conftest.py", *(root / "src").rglob("*.py"), *(root / "scripts").rglob("*.py")]
    offenders = [
        str(path.relative_to(root))
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and node.value == "OPENBLAS_NUM_THREADS")
        or (isinstance(node, ast.keyword) and node.arg == "OPENBLAS_NUM_THREADS")
    ]
    assert offenders == []
