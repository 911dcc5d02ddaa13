import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from aperture_forge.core import C_LIGHT
from aperture_forge.waveforms import LfmChirp
from aperture_forge.sar import (
    CaponProblem,
    LinearPhaseSteering,
    PhaseHistory,
    QsarParams,
    SarGeometry,
    Scatterer,
    apply_speckle,
    backproject,
    capon_image,
    chirp_scaling_focus,
    conventional_image,
    curvature_factor,
    detection_error_probabilities,
    lee_filter,
    matched_image,
    omega_k_focus,
    project_image,
    qsar_metrics,
    range_distortion,
    sar_resolutions,
    simulate_phase_history,
    slant_range_history,
    synthesize_capon_data,
    tomographic_reconstruct,
)
from aperture_forge.sar.capon import _steering_matrix
from aperture_forge.sar.focus import _interp_complex, _range_compress
from aperture_forge.sar.tomo import _bilinear

F_S = 200e6
DR_CELL = C_LIGHT / (2 * F_S)          # 0.7495 m range bin
CHIRP = LfmChirp(fc=10e9, bandwidth=150e6, duration=2.005e-6)
N_C = 401                              # odd sample count: exact on-grid alignment


def on_grid_range(r):
    return round(r / DR_CELL) * DR_CELL


@functools.lru_cache(maxsize=None)
def point_history():
    """64-pulse broadside collection of one on-grid point target."""
    r0 = on_grid_range(1000.0)
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.16, r1=r0, wavelength=0.03)
    scene = [Scatterer(0.0, r0)]
    return simulate_phase_history(scene, geom, CHIRP, F_S), r0


@functools.lru_cache(maxsize=None)
def five_scatterer_history():
    r0 = on_grid_range(1000.0)
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.16, r1=r0, wavelength=0.03)
    scene = [
        Scatterer(0.0, r0),
        Scatterer(-3.0, r0 - 11.3, reflectivity=0.8),
        Scatterer(2.5, r0 + 7.7, reflectivity=1.2),
        Scatterer(5.0, r0 - 4.2, reflectivity=0.6 + 0.4j),
        Scatterer(-4.5, r0 + 13.9, reflectivity=1.0j),
    ]
    return simulate_phase_history(scene, geom, CHIRP, F_S), r0


def ncc(u, v):
    u = u - u.mean()
    v = v - v.mean()
    return float(np.sum(u * v) / np.sqrt(np.sum(u * u) * np.sum(v * v)))


def width_at_half_power(axis, profile):
    """Distance between the -3 dB (amplitude 1/sqrt2) crossings around
    the profile peak, with linear interpolation between samples."""
    pk = int(np.argmax(profile))
    level = profile[pk] / np.sqrt(2.0)
    left = right = None
    for i in range(pk, 0, -1):
        if profile[i - 1] < level <= profile[i]:
            frac = (level - profile[i - 1]) / (profile[i] - profile[i - 1])
            left = axis[i - 1] + frac * (axis[i] - axis[i - 1])
            break
    for i in range(pk, len(profile) - 1):
        if profile[i + 1] < level <= profile[i]:
            frac = (profile[i] - level) / (profile[i] - profile[i + 1])
            right = axis[i] + frac * (axis[i + 1] - axis[i])
            break
    assert left is not None and right is not None, "no -3 dB crossing found"
    return right - left


# ---------------------------------------------------------------- scene

def test_zero_velocity_constant_range():
    r0 = on_grid_range(800.0)
    geom = SarGeometry(v=0.0, prf=400.0, t_coh=0.16, r1=r0, wavelength=0.03)
    sc = Scatterer(0.0, r0)
    ranges = slant_range_history(sc, geom)
    assert np.all(ranges == r0)
    ph = simulate_phase_history([sc], geom, CHIRP, F_S)
    # every pulse identical: no platform motion, no Doppler
    ref = ph.data[:, 0]
    assert np.allclose(ph.data, ref[:, None])


def test_closest_approach_zero_doppler():
    ph, r0 = point_history()
    geom = ph.geometry
    sc = Scatterer(0.0, r0)
    dt = 1e-5
    g = SarGeometry(v=geom.v, prf=1.0 / dt, t_coh=3.0 * dt, r1=r0, wavelength=0.03)
    r_hist = slant_range_history(sc, g)  # three pulses straddling t = 0
    f_d = (2.0 / g.wavelength) * (r_hist[2] - r_hist[0]) / (2.0 * dt)
    assert abs(f_d) < 1e-6


def test_matched_filter_peaks_trace_hyperbola():
    from aperture_forge.sar.focus import _range_compress

    r0 = on_grid_range(500.0)
    geom = SarGeometry(v=200.0, prf=4000.0, t_coh=0.5, r1=r0, wavelength=0.03)
    sc = Scatterer(0.0, r0)
    ph = simulate_phase_history([sc], geom, CHIRP, F_S)
    rc, tau_c0 = _range_compress(ph)
    peaks = np.argmax(np.abs(rc), axis=0)
    measured = (tau_c0 + peaks / F_S) * C_LIGHT / 2.0
    truth = slant_range_history(sc, geom)
    # migration spans ~3 range bins over the aperture; the argmax must
    # quantize onto the true hyperbola, never jump a whole bin
    assert truth.max() - truth.min() > 2.0 * DR_CELL
    assert np.max(np.abs(measured - truth)) <= 0.5 * DR_CELL + 1e-9


def test_simulate_rejects_bad_inputs():
    r0 = on_grid_range(1000.0)
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.16, r1=r0, wavelength=0.03)
    scene = [Scatterer(0.0, r0)]
    with pytest.raises(ValueError, match="at least one scatterer"):
        simulate_phase_history([], geom, CHIRP, F_S)
    with pytest.raises(ValueError):
        simulate_phase_history(scene, geom, CHIRP, f_s=100e6)  # < bandwidth
    fast = SarGeometry(v=100.0, prf=150e3, t_coh=64 / 150e3, r1=r0, wavelength=0.03)
    with pytest.raises(ValueError):
        simulate_phase_history(scene, fast, CHIRP, F_S)  # range ambiguous


def test_phase_history_rejects_bad_samples():
    ph, _ = point_history()
    good = dict(data=ph.data, tau0=ph.tau0, f_s=ph.f_s, chirp=ph.chirp, geometry=ph.geometry)
    nan_data = ph.data.copy()
    nan_data[3, 2] = np.nan
    inf_data = ph.data.copy()
    inf_data[0, 0] = np.inf
    for bad in (dict(data=ph.data[:, 0]), dict(data=nan_data), dict(data=inf_data),
                dict(f_s=0.0), dict(f_s=-F_S), dict(f_s=np.nan), dict(tau0=np.nan)):
        with pytest.raises(ValueError):
            PhaseHistory(**{**good, **bad})
    PhaseHistory(**good)


def test_noise_is_seeded():
    ph, r0 = point_history()
    geom = ph.geometry
    scene = [Scatterer(0.0, r0)]
    a = simulate_phase_history(scene, geom, CHIRP, F_S, noise_sigma=0.5, seed=9)
    b = simulate_phase_history(scene, geom, CHIRP, F_S, noise_sigma=0.5, seed=9)
    c = simulate_phase_history(scene, geom, CHIRP, F_S, noise_sigma=0.5, seed=10)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_resolution_calculator_values():
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=1.0, r1=10e3, wavelength=0.03)
    chirp = LfmChirp(fc=10e9, bandwidth=150e6, duration=2e-6)
    res = sar_resolutions(geom, chirp)
    assert res["range_resolution_m"] == pytest.approx(0.999308, abs=1e-5)
    assert res["cross_range_resolution_m"] == pytest.approx(1.5, rel=1e-12)


# ----------------------------------------------------------- backprojection

def test_backprojection_peak_at_true_pixel():
    ph, r0 = point_history()
    x_grid = np.arange(-4.0, 4.0 + 1e-9, 0.25)
    r_grid = r0 + np.arange(-8, 9) * DR_CELL
    img = backproject(ph, x_grid, r_grid)
    pk = img.peak_index()
    assert x_grid[pk[0]] == 0.0
    assert r_grid[pk[1]] == pytest.approx(r0, abs=1e-9)


def test_backprojection_zero_input_zero_image():
    ph, r0 = point_history()
    zero = PhaseHistory(np.zeros_like(ph.data), ph.tau0, ph.f_s, ph.chirp, ph.geometry)
    img = backproject(zero, np.array([-1.0, 0.0, 1.0]), r0 + np.arange(3) * DR_CELL)
    assert np.all(img.pixels == 0.0)


def test_backprojection_energy_bookkeeping():
    # short aperture keeps range migration tiny so interpolation loss
    # stays far inside the 1% budget
    r0 = on_grid_range(1000.0)
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.0625, r1=r0, wavelength=0.03)
    ph = simulate_phase_history([Scatterer(0.0, r0)], geom, CHIRP, F_S)
    img = backproject(ph, np.array([-0.5, 0.0, 0.5]), r0 + np.arange(-1, 2) * DR_CELL)
    peak = np.abs(img.pixels[1, 1])
    expected = geom.n_pulses * N_C  # pulses x chirp sample energy
    assert peak == pytest.approx(expected, rel=0.01)


def test_backprojection_rejects_out_of_swath_grid():
    ph, r0 = point_history()
    with pytest.raises(ValueError):
        backproject(ph, np.array([0.0, 1.0]), np.array([r0 + 500.0, r0 + 501.0]))


def test_backprojection_rejects_bad_pixel_grids():
    ph, r0 = point_history()
    r_ok = r0 + np.arange(3) * DR_CELL
    for x_grid in ([0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 3.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="x_grid"):
            backproject(ph, np.array(x_grid), r_ok)
    with pytest.raises(ValueError, match="r_grid"):
        backproject(ph, np.array([0.0, 1.0]), np.array([r0, np.nan]))


SHORT_CHIRP = LfmChirp(fc=10e9, bandwidth=150e6, duration=0.205e-6)  # 41 samples


def _lattice_history(r_step, reflectivities):
    """Phase history of a 3 x 4 lattice of scatterers, 8 pulses of the
    short chirp; the lattice's (x, r) grids come with it."""
    r0 = on_grid_range(1000.0)
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.02, r1=r0, wavelength=0.03)
    x_grid = np.array([-1.0, 0.0, 1.0])
    r_grid = r0 + np.arange(-1, 3) * r_step
    pixels = [(x, r) for x in x_grid for r in r_grid]
    scene = [Scatterer(x, r, rho) for (x, r), rho in zip(pixels, reflectivities)]
    return simulate_phase_history(scene, geom, SHORT_CHIRP, F_S), x_grid, r_grid


def _history_adjoint(ph, x_grid, r_grid):
    """S^H of simulate_phase_history as a (pixels, samples) matrix: row k
    is the conjugated unit echo of the scatterer at pixel k, written out
    from the stop-and-hop model."""
    tau = ph.tau0 + np.arange(ph.data.shape[0]) / ph.f_s
    t, geom, chirp = ph.geometry.slow_times(), ph.geometry, ph.chirp
    rows = []
    for x in x_grid:
        for r in r_grid:
            big_r = np.sqrt(r ** 2 + (geom.v * t - x) ** 2)
            arg = tau[:, None] - 2.0 * big_r[None, :] / C_LIGHT
            echo = (np.abs(arg) <= chirp.duration / 2.0) \
                * np.exp(-1j * np.pi * chirp.rate * arg ** 2) \
                * np.exp(-1j * 4.0 * np.pi * big_r[None, :] / geom.wavelength)
            rows.append(np.conj(echo).ravel())
    return np.array(rows)


@pytest.mark.parametrize("r_step", [DR_CELL, 1.3 * DR_CELL])
def test_simulate_phase_history_dot_product(r_step):
    # <S rho, d> = <rho, S^H d> with a test-local S^H; S is linear in the
    # reflectivities of scatterers at fixed positions
    rng = np.random.default_rng(4)
    rho = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    ph, x_grid, r_grid = _lattice_history(r_step, rho)
    d = rng.standard_normal(ph.data.shape) + 1j * rng.standard_normal(ph.data.shape)
    lhs = np.vdot(ph.data, d)
    rhs = np.vdot(rho, _history_adjoint(ph, x_grid, r_grid) @ d.ravel())
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ph.data) * np.linalg.norm(d)


@pytest.mark.parametrize("r_step,low,high", [(DR_CELL, 0.0, 2e-3),
                                             (1.3 * DR_CELL, 0.20, 0.22)])
def test_backproject_against_the_phase_history_adjoint(r_step, low, high):
    # backproject's docstring: ||S^H - c B|| / ||S^H|| at the best scale c
    # is 0.0010 on sample-aligned ranges and 0.21 between samples
    ph, x_grid, r_grid = _lattice_history(r_step, np.ones(12))
    s_h = _history_adjoint(ph, x_grid, r_grid)
    b = np.empty_like(s_h)
    for k in range(ph.data.size):
        unit = np.zeros(ph.data.size, dtype=complex)
        unit[k] = 1.0
        data = PhaseHistory(unit.reshape(ph.data.shape), ph.tau0, ph.f_s, ph.chirp, ph.geometry)
        b[:, k] = backproject(data, x_grid, r_grid).pixels.ravel()
    c = np.vdot(b, s_h) / np.vdot(b, b)
    assert low <= np.linalg.norm(s_h - c * b) / np.linalg.norm(s_h) <= high


def test_cross_range_width_tracks_aperture_law():
    # -3 dB width of the uniform-aperture response is 0.886 of the
    # lambda R / 2L law; both are asserted to track across a sweep
    r0 = on_grid_range(1000.0)
    for t_coh in (0.08, 0.128, 0.16):
        geom = SarGeometry(v=100.0, prf=400.0, t_coh=t_coh, r1=r0, wavelength=0.03)
        ph = simulate_phase_history([Scatterer(0.0, r0)], geom, CHIRP, F_S)
        law = geom.wavelength * r0 / (2.0 * geom.aperture_length)
        x_grid = np.arange(-2.5 * law, 2.5 * law + 1e-9, law / 10.0)
        img = backproject(ph, x_grid, np.array([r0, r0 + DR_CELL]))
        width = width_at_half_power(x_grid, np.abs(img.pixels[:, 0]))
        assert 0.80 <= width / law <= 0.97


def test_range_width_tracks_bandwidth_law():
    # f_s well above B: the -3 dB crossing is read off linearly
    # interpolated samples, so coarse range bins bias the width low
    f_s = 600e6
    dr = C_LIGHT / (2 * f_s)
    r0 = round(1000.0 / dr) * dr
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.08, r1=r0, wavelength=0.03)
    for bw in (100e6, 150e6, 200e6):
        chirp = LfmChirp(fc=10e9, bandwidth=bw, duration=2.005e-6)
        ph = simulate_phase_history([Scatterer(0.0, r0)], geom, chirp, f_s)
        law = C_LIGHT / (2.0 * bw)
        r_grid = r0 + np.arange(-25, 26) * (law / 10.0)
        img = backproject(ph, np.array([0.0, 0.5]), r_grid)
        width = width_at_half_power(r_grid, np.abs(img.pixels[0, :]))
        assert 0.80 <= width / law <= 0.97


# ----------------------------------------------------------------- omega-k

def test_omega_k_point_target_matches_backprojection():
    ph, r0 = point_history()
    img = omega_k_focus(ph)
    assert img.zeroed_bins == 0
    x = img.x
    z = img.r
    pk = img.peak_index()
    # on-axis (kx = 0) Stolt mapping is the identity, so the range cell
    # is exact; the even-length pulse grid has no x = 0 sample, so the
    # azimuth peak sits half a cell off center
    assert abs(z[pk[1]] - r0) < 1e-6
    assert abs(x[pk[0]]) <= ph.geometry.v / ph.geometry.prf / 2 + 1e-9

    zi = int(np.argmin(np.abs(z - (r0 - 6.0))))
    sel = slice(zi, zi + 17)
    bp = backproject(ph, x, z[sel])
    bp_pk = bp.peak_index()
    assert abs(bp_pk[0] - pk[0]) <= 1
    assert abs((sel.start + bp_pk[1]) - pk[1]) <= 1


def test_omega_k_five_scatterers_agree_with_backprojection():
    ph, r0 = five_scatterer_history()
    img = omega_k_focus(ph)
    x = img.x
    z = img.r
    zi = int(np.argmin(np.abs(z - (r0 - 20.0))))
    sel = slice(zi, zi + 56)
    bp = backproject(ph, x, z[sel])
    rho = ncc(np.abs(bp.pixels), np.abs(img.pixels[:, sel]))
    assert rho >= 0.9


def test_omega_k_reports_evanescent_bins():
    # slow platform + high PRF pushes the kx grid past the smallest k_r
    lam = C_LIGHT / 1e9
    chirp = LfmChirp(fc=1e9, bandwidth=150e6, duration=2.005e-6)
    r0 = on_grid_range(300.0)
    geom = SarGeometry(v=50.0, prf=1000.0, t_coh=0.064, r1=r0, wavelength=lam)
    ph = simulate_phase_history([Scatterer(0.0, r0)], geom, chirp, F_S)
    img = omega_k_focus(ph)
    assert img.zeroed_bins > 0
    assert np.all(np.isfinite(img.pixels))


def test_omega_k_peak_memory_at_sar_point_defaults():
    # sar-point's defaults: 64 pulses of 2407 compressed samples, 2.35 MiB
    # a frame.  One frame is held: the range-compressed data, which every
    # transform and the Stolt map overwrite in place.  Allow 1 MB beside it
    # for the compression's 23 rows of padding and the per-column vectors.
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.16, r1=999.75, wavelength=0.03)
    chirp = LfmChirp(fc=C_LIGHT / 0.03, bandwidth=150e6, duration=2.005e-6)
    ph = simulate_phase_history([Scatterer(0.0, 999.75)], geom, chirp, 600e6)
    frame = omega_k_focus(ph).pixels.nbytes
    assert frame == 2407 * 64 * 16
    tracemalloc.start()
    try:
        omega_k_focus(ph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < frame + 1e6


# ----------------------------------------------------------- chirp scaling

def test_curvature_and_distortion_vanish_at_zero_doppler():
    assert curvature_factor(0.0, 100.0, 0.03) == 0.0
    assert range_distortion(0.0, 100.0, 0.03) == 0.0


def test_curvature_factor_is_nonnegative_migration():
    f = np.linspace(-6000.0, 6000.0, 101)
    c_s = curvature_factor(f, 100.0, 0.03)
    assert np.all(c_s >= 0.0)
    r = 800.0
    assert np.all(r * (1.0 + c_s) >= r)  # migrated range never shrinks
    with pytest.raises(ValueError):
        curvature_factor(6667.0, 100.0, 0.03)
    with pytest.raises(ValueError):
        range_distortion(7000.0, 100.0, 0.03)


def test_chirp_scaling_point_at_reference_matches_backprojection():
    ph, r0 = point_history()
    img = chirp_scaling_focus(ph)
    assert img.zeroed_bins == 0
    x = img.x
    z = img.r
    pk = img.peak_index()
    assert abs(z[pk[1]] - r0) < DR_CELL / 2
    zi = int(np.argmin(np.abs(z - (r0 - 6.0))))
    sel = slice(zi, zi + 17)
    bp = backproject(ph, x, z[sel])
    bp_pk = bp.peak_index()
    assert abs(bp_pk[0] - pk[0]) <= 1
    assert abs((sel.start + bp_pk[1]) - pk[1]) <= 1


def test_chirp_scaling_five_scatterers_agree_with_backprojection():
    ph, r0 = five_scatterer_history()
    img = chirp_scaling_focus(ph)
    x = img.x
    z = img.r
    zi = int(np.argmin(np.abs(z - (r0 - 20.0))))
    sel = slice(zi, zi + 56)
    bp = backproject(ph, x, z[sel])
    rho = ncc(np.abs(bp.pixels), np.abs(img.pixels[:, sel]))
    assert rho >= 0.9


def test_chirp_scaling_reports_clamped_doppler_bins():
    # PRF wide enough that edge Doppler bins exceed 2V/lambda
    r0 = on_grid_range(1000.0)
    geom = SarGeometry(v=100.0, prf=15000.0, t_coh=32 / 15000.0, r1=r0, wavelength=0.03)
    ph = simulate_phase_history([Scatterer(0.0, r0)], geom, CHIRP, F_S)
    img = chirp_scaling_focus(ph)
    assert img.zeroed_bins > 0
    assert np.all(np.isfinite(img.pixels))


# ------------------------------------- in-place forms keep their bits
# The echo simulation, omega-k and chirp scaling write their full-size
# temporaries in place.  Below are the expression forms they replaced: the
# oracles the in-place forms must match bit for bit.

def _echoes_as_expressions(scene, ph):
    tau = ph.tau0 + np.arange(ph.data.shape[0]) / ph.f_s
    half = ph.chirp.duration / 2.0
    data = np.zeros(ph.data.shape, dtype=complex)
    for scat in scene:
        r_of_t = slant_range_history(scat, ph.geometry)
        arg = tau[:, None] - (2.0 * r_of_t / C_LIGHT)[None, :]
        pulse = (np.abs(arg) <= half) * np.exp(-1j * np.pi * ph.chirp.rate * arg ** 2)
        data += scat.reflectivity * pulse * np.exp(
            -1j * 4.0 * np.pi * r_of_t[None, :] / ph.geometry.wavelength)
    return data


def _omega_k_as_expressions(ph):
    rc, tau_c0 = _range_compress(ph)
    n_z, n_x = rc.shape
    f_b = np.fft.fftfreq(n_z, d=1.0 / ph.f_s)
    spec = np.fft.fft(rc, axis=0) * np.exp(-1j * 2.0 * np.pi * f_b * tau_c0)[:, None]
    spec = np.fft.fft(spec, axis=1)
    k_x = 2.0 * np.pi * np.fft.fftfreq(n_x, d=ph.geometry.v / ph.geometry.prf)
    order = np.argsort(f_b)
    spec = spec[order, :]
    k_r = 4.0 * np.pi * (C_LIGHT / ph.geometry.wavelength + f_b[order]) / C_LIGHT
    stolt = np.zeros_like(spec)
    for j in range(n_x):
        rad_sq = k_r ** 2 - k_x[j] ** 2
        ok = rad_sq > 0.0
        if ok.sum() >= 2:
            kz_meas = np.sqrt(rad_sq[ok])
            col = spec[ok, j] * np.exp(1j * kz_meas * ph.geometry.r1)
            stolt[:, j] = _interp_complex(k_r, kz_meas, col)
    stolt *= np.exp(1j * k_r * (C_LIGHT * tau_c0 / 2.0 - ph.geometry.r1))[:, None]
    return np.fft.ifft(np.fft.ifft(stolt, axis=0), axis=1).T


def _chirp_scaling_as_expressions(ph):
    r_ref = ph.geometry.r1
    n_fast, n_pulses = ph.data.shape
    lam, v = ph.geometry.wavelength, ph.geometry.v
    tau = ph.tau0 + 1.0 / ph.f_s * np.arange(n_fast)
    f_dop = np.fft.fftfreq(n_pulses, d=1.0 / ph.geometry.prf)
    ok = np.abs(lam * f_dop / (2.0 * v)) < 1.0
    c_s = np.zeros_like(f_dop)
    alpha = np.zeros_like(f_dop)
    c_s[ok] = curvature_factor(f_dop[ok], v, lam)
    alpha[ok] = range_distortion(f_dop[ok], v, lam)
    root = 1.0 / (1.0 + c_s)
    k_s_ref = 1.0 / (1.0 / ph.chirp.rate + r_ref * alpha)
    rd = np.fft.fft(ph.data, axis=1)
    rd[:, ~ok] = 0.0
    tau_ref = (2.0 / C_LIGHT) * r_ref * (1.0 + c_s)
    rd *= np.exp(-1j * np.pi * k_s_ref[None, :] * c_s[None, :]
                 * (tau[:, None] - tau_ref[None, :]) ** 2)
    spec2 = np.fft.fft(rd, axis=0)
    f_tau = np.fft.fftfreq(n_fast, d=1.0 / ph.f_s)
    spec2 *= np.exp(
        -1j * np.pi * f_tau[:, None] ** 2 / (k_s_ref * (1.0 + c_s))[None, :]
    ) * np.exp(1j * (4.0 * np.pi / C_LIGHT) * f_tau[:, None] * (r_ref * c_s)[None, :])
    rd = np.fft.ifft(spec2, axis=0)
    theta_delta = ((4.0 * np.pi / C_LIGHT ** 2) * k_s_ref[None, :] * (1.0 + c_s)[None, :]
                   * c_s[None, :] * (C_LIGHT * tau / 2.0 - r_ref)[:, None] ** 2)
    rd *= np.exp(-1j * (2.0 * np.pi / lam) * (C_LIGHT * tau)[:, None] * (1.0 - root)[None, :]
                 + 1j * theta_delta)
    return np.fft.ifft(rd, axis=1).T


def _focus_cases():
    r0 = on_grid_range(1000.0)
    scene = [Scatterer(0.0, r0), Scatterer(-3.0, r0 - 11.3, reflectivity=0.8),
             Scatterer(5.0, r0 - 4.2, reflectivity=0.6 + 0.4j)]
    # r1 lies off every scatterer, so chirp scaling references off-centre
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.16, r1=r0 + 7.7, wavelength=0.03)
    # the second is omega-k's evanescent case, the third chirp scaling's clamped one
    r1 = on_grid_range(300.0)
    slow = SarGeometry(v=50.0, prf=1000.0, t_coh=0.064, r1=r1, wavelength=C_LIGHT / 1e9)
    wide = SarGeometry(v=100.0, prf=15000.0, t_coh=32 / 15000.0, r1=r0, wavelength=0.03)
    return [(scene, geom, CHIRP), ([Scatterer(0.0, r1)], slow, LfmChirp(1e9, 150e6, 2.005e-6)),
            ([Scatterer(0.0, r0)], wide, CHIRP)]


@pytest.mark.parametrize("case", range(3))
def test_in_place_focusing_matches_the_expression_forms_bitwise(case):
    scene, geom, chirp = _focus_cases()[case]
    ph = simulate_phase_history(scene, geom, chirp, F_S)
    assert np.array_equal(ph.data, _echoes_as_expressions(scene, ph))
    assert np.array_equal(omega_k_focus(ph).pixels, _omega_k_as_expressions(ph))
    assert np.array_equal(chirp_scaling_focus(ph).pixels,
                          _chirp_scaling_as_expressions(ph))


# -------------------------------------------------------------- tomography

def disc_projections(radius, s, n_angles):
    row = 2.0 * np.sqrt(np.maximum(radius ** 2 - s ** 2, 0.0))
    return np.tile(row, (n_angles, 1)), np.arange(n_angles) * np.pi / n_angles


def test_tomo_centered_point_peaks_at_center():
    n_s = 65
    s_step = 0.1
    s = (np.arange(n_s) - (n_s - 1) / 2) * s_step
    pulse = np.exp(-s ** 2 / (2 * (2 * s_step) ** 2))
    angles = np.arange(36) * np.pi / 36
    projections = np.tile(pulse, (36, 1))
    for method in ("polar-interp", "filtered-backprojection"):
        img = tomographic_reconstruct(projections, angles, s_step, method)
        assert np.unravel_index(np.argmax(img), img.shape) == (32, 32)


def test_tomo_disc_phantom_both_methods():
    n_s = 129
    s_step = 0.05
    s = (np.arange(n_s) - (n_s - 1) / 2) * s_step
    projections, angles = disc_projections(1.2, s, 180)
    u1, u2 = np.meshgrid(s, s, indexing="ij")
    truth = (np.hypot(u1, u2) <= 1.2).astype(float)
    images = {}
    for method in ("polar-interp", "filtered-backprojection"):
        img = tomographic_reconstruct(projections, angles, s_step, method)
        rmse = np.sqrt(np.mean((img - truth) ** 2))
        assert rmse < 0.10  # dynamic range of the phantom is 1
        images[method] = img
    rho = ncc(images["polar-interp"], images["filtered-backprojection"])
    assert rho >= 0.95


def _argsort_polar_interp(projections, angles, s_step):
    """The polar-interp route as it read with argsort permutations: the
    oracle for the fftshift reordering."""
    n_angles, n_s = projections.shape
    s0 = -(n_s - 1) / 2.0 * s_step
    omega = 2.0 * np.pi * np.fft.fftfreq(n_s, d=s_step)
    slices = s_step * np.exp(-1j * omega * s0)[None, :] * np.fft.fft(projections, axis=1)
    order = np.argsort(omega)
    omega_asc = omega[order]
    slices = slices[:, order]
    theta = np.concatenate([angles, [angles[0] + np.pi]])
    slices = np.vstack([slices, slices[0, ::-1]])
    w1, w2 = np.meshgrid(omega_asc, omega_asc, indexing="ij")
    rho = np.hypot(w1, w2)
    phi = np.arctan2(w2, w1)
    neg = phi < 0.0
    phi = np.where(neg, phi + np.pi, phi)
    rho = np.where(neg, -rho, rho)
    at_pi = phi >= theta[-1]
    phi = np.where(at_pi, phi - np.pi, phi)
    rho = np.where(at_pi, -rho, rho)
    ja = np.clip(np.searchsorted(theta, phi.ravel(), side="right") - 1, 0, n_angles - 1)
    ta = np.clip((phi.ravel() - theta[ja]) / (theta[ja + 1] - theta[ja]), 0.0, 1.0)
    d_omega = omega_asc[1] - omega_asc[0]
    jr = (rho.ravel() - omega_asc[0]) / d_omega
    inside = (jr >= 0.0) & (jr <= n_s - 1) & (np.abs(rho.ravel()) <= np.max(np.abs(omega_asc)))
    jr_lo = np.clip(np.floor(jr).astype(int), 0, n_s - 2)
    tr = np.clip(jr - jr_lo, 0.0, 1.0)
    val = _bilinear(slices, ja, jr_lo, ta, tr)
    val[~inside] = 0.0
    back = np.argsort(order)
    spectrum = val.reshape(n_s, n_s)[back, :][:, back]
    phase = np.exp(1j * omega * s0)
    return (np.fft.ifft2(spectrum * phase[:, None] * phase[None, :]) / s_step ** 2).real


@pytest.mark.parametrize("n_s", [2, 3, 16, 17, 64, 65])
def test_polar_interp_matches_argsort_oracle_bitwise(n_s):
    rng = np.random.default_rng(n_s)
    for n_angles in (2, 8, 90):
        projections = rng.standard_normal((n_angles, n_s))
        angles = np.sort(rng.uniform(0.0, np.pi, n_angles))
        got = tomographic_reconstruct(projections, angles, 0.3, "polar-interp")
        assert np.array_equal(got, _argsort_polar_interp(projections, angles, 0.3))


def test_tomo_input_validation():
    n_s = 33
    projections = np.ones((1, n_s))
    with pytest.raises(ValueError):
        tomographic_reconstruct(projections, np.array([0.1]), 0.1)
    two = np.ones((2, n_s))
    with pytest.raises(ValueError):
        tomographic_reconstruct(two, np.array([0.0, np.pi]), 0.1)  # out of range
    with pytest.raises(ValueError):
        tomographic_reconstruct(two, np.array([0.5, 0.2]), 0.1)  # not ascending
    with pytest.raises(ValueError):
        tomographic_reconstruct(two, np.array([0.0, 0.5]), 0.1, method="algebraic")
    with pytest.raises(ValueError):
        tomographic_reconstruct(two, np.array([0.0, 0.5]), -0.1)
    with pytest.raises(ValueError):
        tomographic_reconstruct(two, np.array([0.2, 0.2]), 0.1)  # repeated
    with pytest.raises(ValueError, match="angles must be finite"):
        tomographic_reconstruct(two, np.array([0.2, np.nan]), 0.1)
    with pytest.raises(ValueError, match="matching angles"):
        tomographic_reconstruct(two, np.array([[0.5], [0.2]]), 0.1)  # a column


def _project_transpose(proj, n, angles, s_step):
    """P^T of project_image: each projection sample, times s_step,
    scattered back through the bilinear weights of every on-grid rotated
    pixel that summed into it."""
    s = (np.arange(n) - (n - 1) / 2.0) * s_step
    u1, u2 = np.meshgrid(s, s, indexing="ij")
    out = np.zeros((n, n))
    for row, th in zip(proj, angles):
        g1 = (u1 * np.cos(th) - u2 * np.sin(th) - s[0]) / s_step
        g2 = (u1 * np.sin(th) + u2 * np.cos(th) - s[0]) / s_step
        on = (g1 >= 0) & (g1 <= n - 1) & (g2 >= 0) & (g2 <= n - 1)
        g1, g2 = g1[on], g2[on]
        i1 = np.minimum(np.floor(g1).astype(int), n - 2)
        i2 = np.minimum(np.floor(g2).astype(int), n - 2)
        t1, t2 = g1 - i1, g2 - i2
        w = np.broadcast_to(row[:, None] * s_step, (n, n))[on]
        np.add.at(out, (i1, i2), w * (1 - t1) * (1 - t2))
        np.add.at(out, (i1 + 1, i2), w * t1 * (1 - t2))
        np.add.at(out, (i1, i2 + 1), w * (1 - t1) * t2)
        np.add.at(out, (i1 + 1, i2 + 1), w * t1 * t2)
    return out


@pytest.mark.parametrize("n,n_angles,seed", [(15, 12, 1), (32, 7, 2), (5, 4, 3)])
def test_project_image_dot_product(n, n_angles, seed):
    # <y, P x> = <P^T y, x> with a test-local P^T
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, np.pi, n_angles))
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n_angles, n))
    px = project_image(x, angles, 0.3)
    lhs = np.vdot(y, px)
    rhs = np.vdot(_project_transpose(y, n, angles, 0.3), x)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(px) * np.linalg.norm(y)


def test_forward_projector_matches_analytic_disc():
    n = 129
    s_step = 0.05
    s = (np.arange(n) - (n - 1) / 2) * s_step
    u1, u2 = np.meshgrid(s, s, indexing="ij")
    disc = (np.hypot(u1, u2) <= 1.2).astype(float)
    angles = np.array([0.0, 0.35, np.pi / 4, 1.9])
    proj = project_image(disc, angles, s_step)
    analytic = 2.0 * np.sqrt(np.maximum(1.2 ** 2 - s ** 2, 0.0))
    for row in proj:
        err = row - analytic
        assert np.sqrt(np.mean(err ** 2)) < 0.05
        assert np.max(np.abs(err)) < 0.2


# ------------------------------------------------------------------- capon

CAPON_KW = dict(f_c=10e9, d_u=0.15, d_f=2e6, r_ref=1000.0)


def capon_case(noise_sigma, seed, loading, sources=((3.0, -2.0, 1.0),)):
    steering = LinearPhaseSteering(**CAPON_KW)
    z = synthesize_capon_data(list(sources), steering, 32, 32, noise_sigma=noise_sigma,
                              seed=seed)
    return CaponProblem(z, steering, loading=loading)


def direct_ramp(x, y, shape):
    """Unit-norm two-way phase ramp exp(j(wx p + wy l)) / sqrt(P L) of one
    pixel, flattened row-major over (p, l), written out from the model."""
    wx = 4.0 * np.pi * CAPON_KW["f_c"] * CAPON_KW["d_u"] * x / (C_LIGHT * CAPON_KW["r_ref"])
    wy = -4.0 * np.pi * CAPON_KW["d_f"] * y / C_LIGHT
    p, l = shape
    ramp = np.exp(1j * (wx * np.arange(p)[:, None] + wy * np.arange(l)[None, :]))
    return ramp.ravel() / np.sqrt(p * l)


def test_capon_identity_covariance_gives_unit_power():
    # constant-modulus 4x4 data has 1x1 blocks, which makes the sample
    # covariance exactly the identity, so the estimate is 1 everywhere
    rng = np.random.default_rng(0)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4)))
    prob = CaponProblem(z, LinearPhaseSteering(**CAPON_KW), loading=0.0)
    assert prob.block_shape == (1, 1)
    img = capon_image(prob, np.linspace(-5, 5, 7), np.linspace(-5, 5, 7))
    assert np.allclose(img, 1.0, atol=1e-12)


def test_capon_peak_and_width_vs_conventional():
    prob = capon_case(noise_sigma=0.1, seed=11, loading=1e-3)
    xg = np.arange(-12.0, 12.01, 0.5)
    yg = np.arange(-10.0, 10.01, 0.5)
    cap = capon_image(prob, xg, yg)
    conv = conventional_image(prob, xg, yg)
    pk = np.unravel_index(np.argmax(cap), cap.shape)
    assert (xg[pk[0]], yg[pk[1]]) == (3.0, -2.0)
    w_cap = width_at_half_power(xg, cap[:, pk[1]])
    pk_c = np.unravel_index(np.argmax(conv), conv.shape)
    w_conv = width_at_half_power(xg, conv[:, pk_c[1]])
    assert w_cap < w_conv


def test_capon_large_loading_recovers_matched_argmax():
    prob = capon_case(noise_sigma=0.1, seed=11, loading=1e6)
    xg = np.arange(-12.0, 12.01, 0.5)
    yg = np.arange(-10.0, 10.01, 0.5)
    cap = capon_image(prob, xg, yg)
    mat = matched_image(prob, xg, yg)
    conv = conventional_image(prob, xg, yg)
    assert np.unravel_index(np.argmax(cap), cap.shape) == \
        np.unravel_index(np.argmax(mat), mat.shape)
    assert np.unravel_index(np.argmax(cap), cap.shape) == \
        np.unravel_index(np.argmax(conv), conv.shape)


def test_capon_argmax_invariant_to_data_scaling():
    xg = np.arange(-12.0, 12.01, 0.5)
    yg = np.arange(-10.0, 10.01, 0.5)
    prob = capon_case(noise_sigma=0.1, seed=4, loading=1e-3)
    scaled = CaponProblem(prob.z * 3.7, prob.steering, loading=1e-3)
    a = np.unravel_index(np.argmax(capon_image(prob, xg, yg)), (len(xg), len(yg)))
    b = np.unravel_index(np.argmax(capon_image(scaled, xg, yg)), (len(xg), len(yg)))
    assert a == b


def test_capon_rank_deficiency_points_to_loading():
    prob = capon_case(noise_sigma=0.0, seed=None, loading=0.0)
    with pytest.raises(ValueError, match="loading"):
        capon_image(prob, np.array([0.0, 3.0]), np.array([0.0, -2.0]))


def test_capon_problem_validation():
    steer = LinearPhaseSteering(**CAPON_KW)
    with pytest.raises(ValueError):
        CaponProblem(np.ones((2, 2), dtype=complex), steer)
    with pytest.raises(ValueError):
        CaponProblem(np.ones((8, 8), dtype=complex), steer, loading=-1.0)


def test_steering_columns_are_the_two_way_phase_ramp():
    prob = CaponProblem(np.ones((20, 24), dtype=complex), LinearPhaseSteering(**CAPON_KW))
    assert prob.block_shape == (5, 6)
    xg = np.array([-7.5, 0.0, 3.0])
    yg = np.array([-2.0, 4.25])
    v = _steering_matrix(prob, xg, yg)
    for i, x in enumerate(xg):
        for j, y in enumerate(yg):
            assert_allclose(v[:, i * len(yg) + j], direct_ramp(x, y, (5, 6)),
                            rtol=1e-12, atol=0.0)


def test_capon_scans_match_the_expression_form_bitwise():
    # the scans conjugate the steering matrix and multiply in place
    prob = capon_case(noise_sigma=0.1, seed=5, loading=1e-2,
                      sources=((3.0, -2.0, 1.0), (-4.0, 5.0, 0.5)))
    xg, yg = np.linspace(-8.0, 8.0, 21), np.linspace(-6.0, 7.0, 13)
    v = _steering_matrix(prob, xg, yg)
    r_hat = prob.sample_covariance()
    r_inv = np.linalg.inv(r_hat + prob.loading * np.eye(len(r_hat)))

    def scan(r):
        return np.sum(np.conj(v) * (r @ v), axis=0).real.reshape(21, 13)

    assert np.array_equal(capon_image(prob, xg, yg), 1.0 / scan(r_inv))
    assert np.array_equal(conventional_image(prob, xg, yg), scan(r_hat))


def test_capon_data_sums_full_size_ramps():
    sources = ((3.0, -2.0, 1.0), (-4.0, 5.5, 0.5 - 0.25j))
    z = synthesize_capon_data(sources, LinearPhaseSteering(**CAPON_KW), 12, 14)
    want = sum(amp * np.sqrt(12 * 14) * direct_ramp(x, y, (12, 14)) for x, y, amp in sources)
    assert_allclose(z, want.reshape(12, 14), rtol=1e-12, atol=1e-12)


def test_capon_scans_match_per_pixel_oracle():
    # noisy two-source scene scanned on a non-square grid
    prob = capon_case(noise_sigma=0.1, seed=5, loading=1e-2,
                      sources=((3.0, -2.0, 1.0), (-4.0, 5.0, 0.5)))
    xg = np.linspace(-9.0, 9.0, 13)
    yg = np.linspace(-7.0, 8.0, 10)
    p, l = prob.block_shape
    m, n = prob.z.shape
    r_hat = prob.sample_covariance()
    r_inv = np.linalg.inv(r_hat + prob.loading * np.eye(p * l))
    cap = np.empty((len(xg), len(yg)))
    conv = np.empty_like(cap)
    mat = np.empty_like(cap)
    for i, x in enumerate(xg):
        for j, y in enumerate(yg):
            v = direct_ramp(x, y, (p, l))
            cap[i, j] = 1.0 / np.vdot(v, r_inv @ v).real
            conv[i, j] = np.vdot(v, r_hat @ v).real
            v_full = direct_ramp(x, y, (m, n)).reshape(m, n)
            mat[i, j] = np.abs(np.sum(prob.z * np.conj(v_full))) ** 2
    assert_allclose(capon_image(prob, xg, yg), cap, rtol=1e-12, atol=0.0)
    assert_allclose(conventional_image(prob, xg, yg), conv, rtol=1e-12, atol=0.0)
    assert_allclose(matched_image(prob, xg, yg), mat, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m,n,n_x,n_y,seed", [(32, 32, 7, 5, 1), (12, 20, 3, 9, 2),
                                                (9, 4, 1, 1, 3)])
def test_capon_data_matched_field_dot_product(m, n, n_x, n_y, seed):
    # <F a, z> = <a, F^H z>, with F a the noiseless data of one source per
    # pixel (synthesize_capon_data) and F^H z = sqrt(m n) A_x^H z conj(A_y),
    # the matched field before matched_image takes its modulus, both from
    # the same LinearPhaseSteering.ramps
    steering = LinearPhaseSteering(**CAPON_KW)
    rng = np.random.default_rng(seed)
    xg = rng.uniform(-9.0, 9.0, n_x)
    yg = rng.uniform(-7.0, 8.0, n_y)
    a = rng.standard_normal((n_x, n_y)) + 1j * rng.standard_normal((n_x, n_y))
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    sources = [(x, y, a[i, j]) for i, x in enumerate(xg) for j, y in enumerate(yg)]
    fa = synthesize_capon_data(sources, steering, m, n, noise_sigma=0.0)
    a_x, a_y = steering.ramps(xg, yg, (m, n))
    fh_z = np.sqrt(m * n) * (a_x.conj().T @ z @ a_y.conj())
    lhs = np.vdot(fa, z)
    rhs = np.vdot(a, fh_z)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(fa) * np.linalg.norm(z)


def test_capon_image_certifies_against_per_pixel_solves():
    # sar-capon's defaults at seed 1: 1 / Re(v^H (R + alpha I)^-1 v) with
    # a linear solve per pixel, not the one inverse capon_image forms;
    # they agree to 3.1e-14 relative
    steering = LinearPhaseSteering(f_c=10e9, d_u=0.1, d_f=1e6, r_ref=1000.0)
    z = synthesize_capon_data([(0.0, 0.0, 1.0), (3.0, -2.0, 0.5)], steering, 32, 32,
                              noise_sigma=0.05, seed=1)
    prob = CaponProblem(z, steering, loading=0.01 * float(np.mean(np.abs(z) ** 2)))
    grid = np.linspace(-8.0, 8.0, 41)
    r_hat = prob.sample_covariance()
    loaded = r_hat + prob.loading * np.eye(len(r_hat))
    a_x, a_y = steering.ramps(grid, grid, prob.block_shape)
    want = np.empty((41, 41))
    for i in range(41):
        for j in range(41):
            v = np.kron(a_x[:, i], a_y[:, j])
            want[i, j] = 1.0 / np.vdot(v, np.linalg.solve(loaded, v)).real
    got = capon_image(prob, grid, grid)
    assert np.max(np.abs(got - want) / want) <= 1e-10


# ----------------------------------------------------------------- speckle

def test_speckle_zero_sigma_is_exact_copy():
    y = np.arange(12.0).reshape(3, 4)
    z = apply_speckle(y, 0.0, seed=None)
    assert np.array_equal(z, y)


def test_speckle_moments_match_request():
    y = np.ones((1000, 1000))
    zeta = apply_speckle(y, 0.3, seed=3)  # y = 1, so the product is the noise field
    assert zeta.mean() == pytest.approx(1.0, abs=0.01)
    assert zeta.var() == pytest.approx(0.09, rel=0.05)
    assert np.all(zeta > 0.0)


def test_speckle_validation_and_reproducibility():
    y = np.ones((16, 16))
    with pytest.raises(ValueError):
        apply_speckle(y, -0.1, seed=1)
    with pytest.raises(ValueError):
        apply_speckle(y, 0.2, seed=None)
    a = apply_speckle(y, 0.2, seed=5)
    b = apply_speckle(y, 0.2, seed=5)
    assert np.array_equal(a, b)


def test_lee_passthrough_and_constant_identity():
    rng = np.random.default_rng(2)
    z = rng.uniform(1.0, 2.0, (20, 20))
    assert np.array_equal(lee_filter(z, 0.0), z)
    const = np.full((15, 15), 4.2)
    once = lee_filter(const, 0.25)
    assert np.allclose(once, const, atol=1e-10)
    assert np.allclose(lee_filter(once, 0.25), once, atol=1e-10)  # idempotent


def test_lee_flattens_homogeneous_speckle():
    y = np.full((200, 200), 5.0)
    z = apply_speckle(y, 0.1, seed=3)
    out = lee_filter(z, 0.1, window=7)
    assert out.var() <= 0.5 * z.var()
    assert abs(out.mean() - z.mean()) <= 0.01 * z.mean()


def test_lee_zero_gain_where_the_window_variance_rounds_negative():
    # a flat image at 1 with 1e-9 texture: z2bar - zbar**2 is about 1e-18,
    # far below the 1e-16 rounding of either term, so it comes out negative
    # in 102 of the 256 cells; clamped to zero it gives zero gain there, and
    # the output is exactly the window mean
    from aperture_forge.sar.speckle import _box_mean

    z = 1.0 + 1e-9 * np.random.default_rng(12).standard_normal((16, 16))
    zbar = _box_mean(z, 7)
    negative = _box_mean(z * z, 7) - zbar ** 2 < 0.0
    assert negative.sum() >= 40
    out = lee_filter(z, 1e-9, window=7)
    assert np.array_equal(out[negative], zbar[negative])


@pytest.mark.parametrize("shape", [(37, 52), (2, 5), (40,), (6, 9, 4)])  # (2, 5): below most windows
@pytest.mark.parametrize("w", range(3, 12))
def test_box_mean_matches_scipy_uniform_filter(w, shape):
    from scipy.ndimage import uniform_filter  # the oracle; the package never imports scipy

    from aperture_forge.sar.speckle import _box_mean

    x = np.random.default_rng(w).gamma(2.0, size=shape)
    assert np.array_equal(_box_mean(x, w), uniform_filter(x, size=w, mode="nearest"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lee_rejects_non_finite(bad):
    z = np.ones((10, 10))
    z[4, 6] = bad
    with pytest.raises(ValueError, match="finite"):
        lee_filter(z, 0.1)
    with pytest.raises(ValueError, match="finite"):
        lee_filter(z, 0.0)


def test_lee_window_validation():
    z = np.ones((10, 10))
    with pytest.raises(ValueError):
        lee_filter(z, 0.1, window=4)
    with pytest.raises(ValueError):
        lee_filter(z, 0.1, window=1)
    with pytest.raises(ValueError):
        lee_filter(z, -0.2)


# -------------------------------------------------------------------- qsar

QSAR_CASE = QsarParams(
    power_w=5e3, gain=10 ** 3.5, wavelength=0.03, sigma0=0.1, delta_r=1.0,
    standoff=1e5, t0_k=290.0, noise_figure=10 ** 0.5, l_a=2.0, v=7000.0,
    theta_deg=45.0,
)


def test_qsar_budget_frozen_value():
    # product of all numerator/denominator terms worked through by hand
    m = qsar_metrics(QSAR_CASE)
    assert m["snr_linear"] == pytest.approx(271.381, rel=1e-4)
    assert m["snr_db"] == pytest.approx(24.3358, abs=1e-3)
    assert m["clear_image"] is True


def test_qsar_error_probability_fixed_points():
    eps = detection_error_probabilities(0.0)
    assert eps["epsilon_c"] == 0.5
    assert eps["epsilon_q"] == 0.5
    eps4 = detection_error_probabilities(4.0)
    assert eps4["epsilon_q"] == pytest.approx(0.5 * np.exp(-4.0), rel=1e-12)
    assert eps4["epsilon_q"] == pytest.approx(9.1578e-3, rel=1e-4)
    db = detection_error_probabilities(10.0 ** (10.0 * np.log10(4.0) / 10.0))
    assert db["epsilon_q"] == pytest.approx(eps4["epsilon_q"], rel=1e-12)
    with pytest.raises(ValueError):
        detection_error_probabilities(-0.5)


@given(s=st.floats(1e-6, 60.0))
def test_qsar_quantum_error_never_worse(s):
    eps = detection_error_probabilities(s)
    assert eps["epsilon_q"] <= eps["epsilon_c"] <= 0.5
    # the two laws are the same curve at 4x the SNR
    assert eps["epsilon_q"] == pytest.approx(
        detection_error_probabilities(4.0 * s)["epsilon_c"], rel=1e-9
    )


def test_qsar_params_validation():
    with pytest.raises(ValueError):
        QsarParams(**{**QSAR_CASE.__dict__, "theta_deg": 90.0})
    with pytest.raises(ValueError):
        QsarParams(**{**QSAR_CASE.__dict__, "theta_deg": 0.0})
    with pytest.raises(ValueError):
        QsarParams(**{**QSAR_CASE.__dict__, "power_w": -1.0})
