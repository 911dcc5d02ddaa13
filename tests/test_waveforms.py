import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from aperture_forge import waveforms
from aperture_forge.waveforms import (
    LfmChirp,
    adc_snr_ideal_db,
    ambiguity_surface,
    lfm_ambiguity_closed_form,
    matched_filter,
    rmmse_compress,
    sample_lfm,
)


# ---------------------------------------------------------------- LFM chirp


def test_chirp_derived_quantities():
    c = LfmChirp(fc=1e9, bandwidth=10e6, duration=10e-6)
    assert c.rate == pytest.approx(1e12)
    assert c.tbp == pytest.approx(100.0)
    with pytest.raises(ValueError):
        LfmChirp(fc=1e9, bandwidth=-1.0, duration=1e-6)
    with pytest.raises(ValueError):
        LfmChirp(fc=1e9, bandwidth=1e3, duration=1e-6)  # TBP < 1


def test_sample_lfm_center_and_sweep():
    c = LfmChirp(fc=0.0, bandwidth=10e6, duration=10e-6)
    f_s = 30.1e6  # odd sample count puts one sample exactly at t = 0
    s = sample_lfm(c, f_s)
    assert s.size == 301
    assert s[150] == pytest.approx(1.0 + 0.0j)
    # instantaneous frequency K*t sweeps -B/2 .. B/2
    phase = np.unwrap(np.angle(s))
    inst_f = np.diff(phase) / (2 * np.pi) * f_s
    assert inst_f[0] == pytest.approx(-5e6, rel=0.02)
    assert inst_f[-1] == pytest.approx(5e6, rel=0.02)


def test_sample_lfm_conjugate_symmetry():
    c = LfmChirp(fc=0.0, bandwidth=4e6, duration=5e-6)
    f_s = 20e6
    s = sample_lfm(c, f_s)
    n = s.size
    t = (np.arange(n) - (n - 1) / 2.0) / f_s
    down = np.exp(-1j * np.pi * c.rate * t ** 2)  # rate sign flip
    assert_allclose(np.conj(s), down, atol=1e-12)


def test_sample_lfm_rejects_undersampling():
    c = LfmChirp(fc=0.0, bandwidth=10e6, duration=10e-6)
    with pytest.raises(ValueError):
        sample_lfm(c, 15e6)


# ----------------------------------------------------------- matched filter


def test_matched_filter_unit_energy_peak():
    s = sample_lfm(LfmChirp(0.0, 5e6, 20e-6), 25e6)
    s = s / np.sqrt(np.sum(np.abs(s) ** 2))
    out = matched_filter(s, s)
    assert abs(out[s.size - 1]) == pytest.approx(1.0, abs=1e-12)


def test_matched_filter_delay_recovery():
    ref = sample_lfm(LfmChirp(0.0, 5e6, 10e-6), 25e6)
    sig = np.concatenate([np.zeros(17, dtype=complex), ref])
    out = matched_filter(sig, ref)
    assert np.argmax(np.abs(out)) == ref.size - 1 + 17


def test_matched_filter_compressed_width():
    b = 10e6
    f_s = 500e6
    s = sample_lfm(LfmChirp(0.0, b, 20e-6), f_s)
    out = np.abs(matched_filter(s, s)) ** 2
    half = out.max() / 2.0
    above = np.flatnonzero(out >= half)
    lo, hi = above[0], above[-1]
    # linear interpolation of the half-power crossings
    frac_lo = (out[lo] - half) / (out[lo] - out[lo - 1])
    frac_hi = (out[hi] - half) / (out[hi] - out[hi + 1])
    width = (hi + frac_hi - lo + frac_lo) / f_s
    assert width == pytest.approx(0.886 / b, rel=0.03)


def test_matched_filter_phase_invariance():
    ref = sample_lfm(LfmChirp(0.0, 2e6, 10e-6), 10e6)
    rot = ref * np.exp(1j * 1.234)
    assert_allclose(
        np.abs(matched_filter(rot, ref)), np.abs(matched_filter(ref, ref)), atol=1e-9
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_matched_filter_rejects_non_finite(bad):
    s = np.ones(16, dtype=complex)
    y = np.ones(64, dtype=complex)
    y[10] = bad
    with pytest.raises(ValueError, match="finite"):
        matched_filter(y, s)
    s[2] = bad
    with pytest.raises(ValueError, match="finite"):
        matched_filter(np.ones(64, dtype=complex), s)


def test_matched_filter_rejects_empty():
    with pytest.raises(ValueError):
        matched_filter(np.array([]), np.array([1.0]))


# --------------------------------------------------------- ambiguity surface


def test_ambiguity_peak_is_one():
    env = sample_lfm(LfmChirp(0.0, 1e6, 10e-6), 80e6)
    surf = ambiguity_surface(env, [0.0], [0.0], 80e6)
    assert surf.values[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_ambiguity_matches_closed_form():
    chirp = LfmChirp(0.0, 1e6, 10e-6)
    f_s = 80e6
    env = np.conj(sample_lfm(chirp, f_s))  # falling sweep, the ridge the closed form describes
    delays = (np.arange(-10, 11) * 16) / f_s
    dopplers = np.linspace(-2e5, 2e5, 21)
    surf = ambiguity_surface(env, delays, dopplers, f_s)
    want = lfm_ambiguity_closed_form(
        chirp, surf.delays[:, None], surf.dopplers[None, :]
    )
    assert np.max(np.abs(surf.values - want)) < 1e-3


def test_ambiguity_volume_near_unity():
    chirp = LfmChirp(0.0, 1e6, 10e-6)
    f_s = 80e6
    env = sample_lfm(chirp, f_s)
    delays = (np.arange(-50, 51) * 16) / f_s  # covers [-T, T]
    dopplers = np.linspace(-1.5e6, 1.5e6, 301)
    surf = ambiguity_surface(env, delays, dopplers, f_s)
    assert surf.volume() == pytest.approx(1.0, abs=0.05)


def _ambiguity_loop_oracle(envelope, delays, dopplers, f_s):
    """The ambiguity surface with its lag products filled one lag at a
    time, each lag's overlapping support sliced by the sign of the lag."""
    u = np.asarray(envelope, dtype=complex)
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    dopplers = np.atleast_1d(np.asarray(dopplers, dtype=float))
    dt = 1.0 / f_s
    u = u / np.sqrt(float(np.sum(np.abs(u) ** 2) * dt))
    n = u.size
    lags = np.round(delays * f_s).astype(int)
    t = (np.arange(n) - (n - 1) / 2.0) * dt
    products = np.zeros((lags.size, n), dtype=complex)
    for i, lag in enumerate(lags):
        if abs(lag) >= n:
            continue
        if lag >= 0:
            products[i, : n - lag] = u[: n - lag] * np.conj(u[lag:])
        else:
            products[i, -lag:] = u[-lag:] * np.conj(u[: n + lag])
    kernel = np.exp(1j * 2.0 * np.pi * t[:, None] * dopplers[None, :])
    return lags * dt, np.abs(dt * (products @ kernel)) ** 2


@pytest.mark.parametrize("lags", [
    np.arange(-7, 8),
    [0, 39, -39, 40, -40, 41, -41, 1000, -1000, 5, -3],  # n = 40: +-(n - 1), +-n and beyond
    [0],
    [-52],
    list(np.round(np.linspace(-32, 32, 101))),  # the scenario's +-0.8 T grid
], ids=["seven", "edges", "zero", "beyond", "default-grid"])
def test_ambiguity_lag_products_match_the_per_lag_loop(lags):
    f_s = 4e6
    env = np.conj(sample_lfm(LfmChirp(0.0, 1e6, 10e-6), f_s))
    assert env.size == 40
    delays = np.asarray(lags, dtype=float) / f_s
    dopplers = np.linspace(-1.5e5, 1.5e5, 13)
    surf = ambiguity_surface(env, delays, dopplers, f_s)
    want_delays, want_values = _ambiguity_loop_oracle(env, delays, dopplers, f_s)
    assert np.array_equal(surf.delays, want_delays)
    assert np.array_equal(surf.values, want_values)


def test_ambiguity_rejects_empty_grid():
    env = sample_lfm(LfmChirp(0.0, 1e6, 10e-6), 4e6)
    with pytest.raises(ValueError):
        ambiguity_surface(env, [], [0.0], 4e6)


def test_closed_form_special_points():
    chirp = LfmChirp(0.0, 2e6, 20e-6)
    assert lfm_ambiguity_closed_form(chirp, 0.0, 0.0) == pytest.approx(1.0)
    # along the ridge f_d = -K*tau the sinc argument vanishes
    tau = 5e-6
    ridge = lfm_ambiguity_closed_form(chirp, tau, -chirp.rate * tau)
    assert ridge == pytest.approx((1.0 - tau / chirp.duration) ** 2, rel=1e-12)
    assert lfm_ambiguity_closed_form(chirp, chirp.duration, 12345.0) == 0.0
    assert lfm_ambiguity_closed_form(chirp, 2 * chirp.duration, 0.0) == 0.0


# ---------------------------------------------------------------- ADC metrics


def test_adc_frozen_values():
    assert adc_snr_ideal_db(12) == pytest.approx(74.0, abs=1e-9)


def test_adc_low_bit_caveat():
    assert adc_snr_ideal_db(1) == pytest.approx(7.78)
    with pytest.raises(ValueError):
        adc_snr_ideal_db(0)


@given(bits=st.integers(1, 24))
def test_adc_affine_in_bits(bits):
    lo = adc_snr_ideal_db(bits)
    hi = adc_snr_ideal_db(bits + 1)
    assert hi - lo == pytest.approx(6.02, abs=1e-12)


# ----------------------------------------------------------- RMMSE compression


def _noiseless_one_target():
    s = sample_lfm(LfmChirp(0.0, 5e6, 4e-6), 10e6)  # 40 samples
    x = np.zeros(160, dtype=complex)
    x[60] = 1.0
    return np.convolve(x, s), s


def test_rmmse_rejects_underflowing_default_floor():
    # |x|^2 of a 1e-170 return underflows to 0, so 1e-6 * peak power is 0
    # and empty bins would get an all-zero, singular covariance
    y, s = _noiseless_one_target()
    with pytest.raises(ValueError, match="underflows"):
        rmmse_compress(1e-170 * y, s)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rmmse_rejects_overflowing_peak_power():
    # |x|^2 of a 1e160 return overflows to inf, which would fill the
    # covariances with inf and NaN
    y, s = _noiseless_one_target()
    with pytest.raises(ValueError, match="overflows"):
        rmmse_compress(1e160 * y, s)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_rmmse_rejects_overflowing_covariance():
    # |x|^2 of a 1e154 return is finite, but the sum of 2M-1 shifted
    # products in a bin's covariance overflows; with one iteration no
    # later peak-power check would see the NaN bins it leaves
    y, s = _noiseless_one_target()
    with pytest.raises(ValueError, match="covariance sums overflow"):
        rmmse_compress(1e154 * y, s, iterations=1)


def test_rmmse_zero_input():
    s = sample_lfm(LfmChirp(0.0, 5e6, 4e-6), 10e6)
    out = rmmse_compress(np.zeros(120, dtype=complex), s)
    assert out.shape == (120 - s.size + 1,)
    assert np.all(out == 0)


def test_rmmse_unmasks_weak_scatterer():
    rng = np.random.default_rng(11)
    s = sample_lfm(LfmChirp(0.0, 5e6, 4e-6), 10e6)  # 40 samples
    n_bins = 160
    x = np.zeros(n_bins, dtype=complex)
    x[60] = 1.0
    x[90] = 10 ** (-40 / 20.0)  # 40 dB below
    noise = 10 ** (-80 / 20.0)
    y = np.convolve(x, s)
    y = y + noise * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    out = rmmse_compress(y, s, iterations=3)
    p = 20 * np.log10(np.abs(out) + 1e-300)
    weak = p[90]
    # residual floor measured away from both mainlobes
    mask = np.ones(n_bins, dtype=bool)
    mask[55:66] = False
    mask[85:96] = False
    assert weak - p[mask].max() >= 20.0
    assert abs(p[60]) < 1.0  # strong target amplitude preserved


def test_rmmse_validates_arguments():
    s = np.ones(8, dtype=complex)
    with pytest.raises(ValueError):
        rmmse_compress(np.ones(4, dtype=complex), s)
    with pytest.raises(ValueError):
        rmmse_compress(np.ones(40, dtype=complex), s, iterations=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_rmmse_rejects_non_finite_input(bad):
    s = sample_lfm(LfmChirp(0.0, 5e6, 4e-6), 10e6)
    y = np.ones(120, dtype=complex)
    y[70] = bad
    with pytest.raises(ValueError, match="finite"):
        rmmse_compress(y, s)
    s_bad = s.copy()
    s_bad[3] = bad
    with pytest.raises(ValueError, match="finite"):
        rmmse_compress(np.ones(120, dtype=complex), s_bad)


def _shift_rows(s):
    """Rows s_k for k = -(M-1)..(M-1): s shifted by k and zero-filled."""
    m = s.size
    src = np.arange(m)[None, :] - np.arange(-(m - 1), m)[:, None]
    return np.where((src >= 0) & (src < m), s[np.clip(src, 0, m - 1)], 0.0)


def _rmmse_dense_oracle(y, s, iterations):
    """RMMSE with each bin's covariance taken from the full (2M-1, M, M)
    stack of shifted outer products s_k s_k^H."""
    m = s.size
    n_bins = y.size - m + 1
    shifts = _shift_rows(s)
    outers = (shifts[:, :, None] * np.conj(shifts[:, None, :])).reshape(2 * m - 1, m * m)
    windows = np.lib.stride_tricks.sliding_window_view(y, m)
    x_hat = (windows @ np.conj(s)) / np.sum(np.abs(s) ** 2)
    for _ in range(iterations):
        rho = np.abs(x_hat) ** 2
        rho_pad = np.concatenate([np.zeros(m - 1), rho, np.zeros(m - 1)])
        rho_windows = np.lib.stride_tricks.sliding_window_view(rho_pad, 2 * m - 1)
        cov = (rho_windows @ outers).reshape(n_bins, m, m) + 1e-6 * rho.max() * np.eye(m)
        w = np.linalg.solve(cov, np.broadcast_to(s, (n_bins, m))[..., None])[..., 0]
        x_hat = np.sum(np.conj(rho[:, None] * w) * windows, axis=1)
    return x_hat


def _oracle_scene(scene, m=40):
    rng = np.random.default_rng(21)
    s = sample_lfm(LfmChirp(0.0, 5e6, m * 1e-7), 10e6)  # m samples
    if scene == "dense":
        x = (rng.standard_normal(160) + 1j * rng.standard_normal(160)) / np.sqrt(2)
        noise = 1e-2
    else:
        x = np.zeros(160, dtype=complex)
        x[60] = 1.0
        x[90] = 10 ** (-40 / 20.0)
        noise = 10 ** (-80 / 20.0)
    y = np.convolve(x, s)
    y = y + noise * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)) / np.sqrt(2)
    return y, s


@pytest.mark.parametrize("scene", ["dense", "two-point"])
def test_rmmse_matches_dense_outer_product_oracle(scene):
    y, s = _oracle_scene(scene)
    out = rmmse_compress(y, s, iterations=3)
    assert_allclose(out, _rmmse_dense_oracle(y, s, iterations=3), rtol=1e-12, atol=0.0)


# A Hermitian fill (one triangle of the table, then its mirror) would
# change bits: numpy's complex multiply uses FMA, so a*conj(b) is not
# bitwise conj(b*conj(a)), and s*conj(s) has a nonzero imaginary part.
@pytest.mark.parametrize("m", [1, 2, 3, 7, 40, 41])
def test_outer_product_table_holds_every_shifted_product(m):
    rng = np.random.default_rng(m)
    s = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    shifts = _shift_rows(s)
    band = waveforms._outer_product_band(s)
    assert band.shape == (3 * m - 2, 2 * m - 1)
    in_a_slice = np.zeros(band.shape, dtype=bool)
    for i in range(m):
        rows, cols = slice(m - 1 - i, 3 * m - 2 - i), slice(m - 1 - i, 2 * m - 1 - i)
        got = band[rows, cols]
        want = shifts[:, i, None] * np.conj(shifts)  # [k, j]
        live = np.broadcast_to(shifts[:, i, None] != 0, want.shape)
        assert got[live].tobytes() == want[live].tobytes()
        assert np.all(got[~live] == 0)
        in_a_slice[rows, cols] = True
    assert np.all(band[~in_a_slice] == 0)


def _record_solves(monkeypatch, fail_on=None):
    """Record the batch size of every np.linalg.solve call; the call
    numbered ``fail_on`` (from 1) raises LinAlgError instead."""
    solve = np.linalg.solve
    sizes = []

    def recording(a, b):
        sizes.append(a.shape[0])
        if len(sizes) == fail_on:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return sizes


# (bins per budget, chunk sizes of one iteration) for the 160-bin, M = 40
# oracle scenes: one chunk, two, three uneven ones, and the smallest chunks
# (a budget of one bin still fills two at a time)
CHUNK_LAYOUTS = [(160, [160]), (80, [80, 80]), (54, [53, 53, 54]), (1, [2] * 80)]


@pytest.mark.parametrize("budget_bins,layout", CHUNK_LAYOUTS)
@pytest.mark.parametrize("scene", ["dense", "two-point"])
def test_rmmse_chunk_layout_changes_no_bits(monkeypatch, scene, budget_bins, layout):
    y, s = _oracle_scene(scene)
    want = rmmse_compress(y, s)  # one chunk under the default budget
    monkeypatch.setattr(waveforms, "_COV_BUDGET_BYTES", budget_bins * s.size ** 2 * 16)
    sizes = _record_solves(monkeypatch)
    got = rmmse_compress(y, s)
    assert sizes == layout * 3
    assert np.array_equal(got, want)


def test_rmmse_chunk_layout_changes_no_bits_at_one_blas_thread(tmp_path):
    # an even and an odd pulse; three uneven chunks and the two-bin layout
    # against one chunk
    for m in (40, 41):
        y, s = _oracle_scene("dense", m)
        assert s.size == m
        np.save(tmp_path / f"y{m}.npy", y)
        np.save(tmp_path / f"s{m}.npy", s)
    code = ("import sys\n"
            "import numpy as np\n"
            "from aperture_forge import waveforms\n"
            "budget = waveforms._COV_BUDGET_BYTES\n"
            "for m in (40, 41):\n"
            "    y = np.load(f'{sys.argv[1]}/y{m}.npy')\n"
            "    s = np.load(f'{sys.argv[1]}/s{m}.npy')\n"
            "    waveforms._COV_BUDGET_BYTES = budget  # one chunk\n"
            "    one = waveforms.rmmse_compress(y, s)\n"
            "    for bins in (54, 1):\n"
            "        waveforms._COV_BUDGET_BYTES = bins * s.size ** 2 * 16\n"
            "        print(np.array_equal(waveforms.rmmse_compress(y, s), one))\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"))
    assert done.stdout.split() == ["True"] * 4


def test_rmmse_default_budget_layout_changes_no_bits_at_two_blas_threads():
    # the shipped budget at the default pulse (M = 250) and 200 bins: three
    # chunks of 66/67/67 bins, against one chunk of all 200
    code = ("import numpy as np\n"
            "from aperture_forge import waveforms\n"
            "s = waveforms.sample_lfm(waveforms.LfmChirp(1e9, 10e6, 10e-6), 25e6)\n"
            "rng = np.random.default_rng(4)\n"
            "y = np.convolve(rng.standard_normal(200) + 1j * rng.standard_normal(200), s)\n"
            "solve, sizes = np.linalg.solve, []\n"
            "def recording(a, b):\n"
            "    sizes.append(a.shape[0])\n"
            "    return solve(a, b)\n"
            "np.linalg.solve = recording\n"
            "chunked = waveforms.rmmse_compress(y, s, iterations=1)\n"
            "print(s.size, y.size - s.size + 1, *sizes)\n"
            "waveforms._COV_BUDGET_BYTES = 200 * s.size ** 2 * 16\n"
            "print(np.array_equal(waveforms.rmmse_compress(y, s, iterations=1), chunked))\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2"))
    sizes, same = done.stdout.splitlines()
    assert sizes.split() == ["250", "200", "66", "67", "67"]
    assert same == "True"


def test_rmmse_singular_chunk_loads_every_chunk(monkeypatch):
    # one singular bin reloads the whole iteration, whatever chunk holds it
    y, s = _oracle_scene("dense")
    plain = rmmse_compress(y, s)
    with monkeypatch.context() as one_chunk:
        _record_solves(one_chunk, fail_on=1)
        want = rmmse_compress(y, s)
    monkeypatch.setattr(waveforms, "_COV_BUDGET_BYTES", 54 * s.size ** 2 * 16)
    sizes = _record_solves(monkeypatch, fail_on=3)  # the chunk holding the last bin
    got = rmmse_compress(y, s)
    assert sizes == [53, 53, 54] * 4
    assert not np.array_equal(want, plain)
    assert np.array_equal(got, want)


def test_rmmse_peak_memory_excludes_outer_product_tensor():
    rng = np.random.default_rng(8)
    s = sample_lfm(LfmChirp(0.0, 5e6, 10e-6), 10e6)
    m, n_bins = s.size, 100
    assert m == 100
    y = np.convolve(rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins), s)
    tracemalloc.start()
    try:
        rmmse_compress(y, s, iterations=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the covariance stack, the (3M-2) x (2M-1) outer-product band and a
    # few (n_bins + 2M, M) vectors: the weights and the profile's temporaries
    budget = (n_bins * m * m * 16 + (3 * m - 2) * (2 * m - 1) * 16
              + 3 * (n_bins + 2 * m) * m * 16)
    assert peak < budget


def test_rmmse_chunked_peak_memory_excludes_full_stack(monkeypatch):
    rng = np.random.default_rng(8)
    s = sample_lfm(LfmChirp(0.0, 5e6, 10e-6), 10e6)
    m, n_bins, chunk = s.size, 400, 25
    y = np.convolve(rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins), s)
    monkeypatch.setattr(waveforms, "_COV_BUDGET_BYTES", chunk * m * m * 16)
    tracemalloc.start()
    try:
        rmmse_compress(y, s, iterations=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk's stack, the (3M-2) x (2M-1) outer-product band and a few
    # (n_bins + 2M, M) vectors: the weights and the profile's temporaries
    budget = (chunk * m * m * 16 + (3 * m - 2) * (2 * m - 1) * 16
              + 3 * (n_bins + 2 * m) * m * 16)
    assert peak < budget
    assert peak < n_bins * m * m * 16 // 4
