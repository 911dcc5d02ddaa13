import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.testing import assert_allclose

from aperture_forge.core import (
    C_LIGHT,
    Direction,
    _next_fast_len,
    add_complex_noise,
    far_field_distance,
    fft_convolve,
    plane_wave_field,
    wavenumber_spectrum,
)
from aperture_forge.sar import (
    LinearPhaseSteering,
    SarGeometry,
    Scatterer,
    simulate_phase_history,
    synthesize_capon_data,
)
from aperture_forge.sas import SasGeometry, simulate_measurements
from aperture_forge.sounding import (
    FrequencyGrid,
    PlaneWaveRay,
    SamplingLattice,
    synthesize_sweep,
)
from aperture_forge.waveforms import LfmChirp


def test_direction_boresight_identity():
    d = Direction(0.0, 0.0)
    assert d.u == 0.0 and d.v == 0.0 and d.w == 1.0


def test_direction_rejects_invisible_space():
    with pytest.raises(ValueError):
        Direction(0.8, 0.7)


@pytest.mark.parametrize("u, v", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)])
def test_direction_rejects_non_finite(u, v):
    with pytest.raises(ValueError):
        Direction(u, v)


@given(
    u=st.floats(-1.0, 1.0),
    v=st.floats(-1.0, 1.0),
)
def test_direction_round_trips(u, v):
    # (u, v) are stored exactly and w completes the unit vector
    assume(u * u + v * v <= 1.0)
    d = Direction(u, v)
    assert d.u == u and d.v == v
    assert d.u ** 2 + d.v ** 2 + d.w ** 2 == pytest.approx(1.0, abs=1e-12)


def test_plane_wave_zero_phase_and_unimodularity():
    d = Direction(0.3, 0.7)
    assert plane_wave_field(np.zeros((1, 3)), [0.0], 1e9, d)[0, 0] == pytest.approx(1.0 + 0.0j)
    rng = np.random.default_rng(0)
    val = plane_wave_field(rng.uniform(-5, 5, (20, 3)), rng.uniform(0, 1e-6, 7), 1e9, d)
    assert val.shape == (20, 7)
    assert np.max(np.abs(np.abs(val) - 1.0)) < 1e-12


def test_plane_wave_rejects_bad_input():
    d = Direction(0.0, 0.0)
    for f in (0.0, -1e9, np.nan):
        with pytest.raises(ValueError):
            plane_wave_field(np.zeros((1, 3)), [0.0], f, d)
    with pytest.raises(ValueError):
        plane_wave_field(np.array([[0.0, np.nan, 0.0]]), [0.0], 1e9, d)


def test_plane_wave_half_cycle():
    # k.x = 0.5 cycles at t = 0 gives exp(-j*pi) = -1
    lam = C_LIGHT / 1e9
    val = plane_wave_field(np.array([[0.0, 0.0, 0.5 * lam]]), [0.0], 1e9, Direction(0.0, 0.0))
    assert_allclose(val[0, 0], -1.0 + 0.0j, atol=1e-12)


def test_far_field_distance_frozen_values():
    assert_allclose(far_field_distance(0.102, 40e9), 2.776, atol=0.01)
    assert_allclose(far_field_distance(15.0, 1.4e9), 2101.45, atol=0.5)
    lam = 299792458.0 / 1e9
    assert_allclose(far_field_distance(lam, 1e9), 2 * lam, rtol=1e-12)
    with pytest.raises(ValueError):
        far_field_distance(-1.0, 1e9)
    with pytest.raises(ValueError):
        far_field_distance(1.0, 0.0)


@given(scale=st.floats(1.1, 5.0))
def test_far_field_distance_monotone(scale):
    base = far_field_distance(1.0, 1e9)
    assert far_field_distance(scale, 1e9) > base
    assert far_field_distance(1.0, scale * 1e9) > base


def _plane_wave(k0, f0, nx, nt, dx, dt, amp=1.0):
    x = dx * np.arange(nx)
    t = dt * np.arange(nt)
    return amp * np.exp(1j * 2 * np.pi * (f0 * t[None, :] - k0 * x[:, None]))


def test_wavenumber_spectrum_single_wave():
    nx, nt, dx, dt = 32, 64, 0.01, 1e-9
    k0 = 4 / (nx * dx)  # on-grid wavenumber, cycles/m
    f0 = 10 / (nt * dt)
    spec, kv, fv = wavenumber_spectrum(_plane_wave(k0, f0, nx, nt, dx, dt), dx, dt)
    power = np.abs(spec) ** 2
    ik, jf = np.unravel_index(np.argmax(power), power.shape)
    assert_allclose(kv[ik], k0, rtol=1e-12)
    assert_allclose(fv[jf], f0, rtol=1e-12)
    assert power[ik, jf] / power.sum() > 0.99


def test_wavenumber_spectrum_zero_field():
    spec, _, _ = wavenumber_spectrum(np.zeros((8, 8)), 1.0, 1.0)
    assert np.all(spec == 0.0)


def test_wavenumber_spectrum_rejects_bad_input():
    for s_xt in (np.zeros(8), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="2-D"):
            wavenumber_spectrum(s_xt, 1.0, 1.0)
    for dx, dt, key in ((0.0, 1.0, "dx"), (1.0, -1.0, "dt"), (np.nan, 1.0, "dx"),
                        (1.0, np.inf, "dt")):
        with pytest.raises(ValueError, match=f"{key} must be finite and positive, got {key}="):
            wavenumber_spectrum(np.zeros((4, 4)), dx, dt)


def _wavenumber_spectrum_as_expressions(s_xt):
    """One 1-D transform per row, then per column, and fftshift as a roll:
    the oracle for wavenumber_spectrum's axis transforms."""
    nx, nt = s_xt.shape
    spec = np.array([np.fft.fft(row) for row in s_xt])
    spec = np.array([np.fft.ifft(col) for col in spec.T]).T * nx
    return np.roll(spec, (nx // 2, nt // 2), axis=(0, 1))


@pytest.mark.parametrize("nx, nt", [(32, 16), (31, 15)])
def test_wavenumber_spectrum_matches_the_expression_form_bitwise(nx, nt):
    # sound-padp's field probe at (32, 16): its report reads the spectrum
    # only through the argmax of its magnitude
    f = 27.5e9
    t = np.arange(nt) / (4.0 * f)
    s_xt = plane_wave_field(np.arange(nx)[:, None] * [0.00545, 0.0, 0.0], t, f,
                            Direction(0.3, 0.0))
    s_xt = add_complex_noise(s_xt, 0.1, 1)
    spec, _, _ = wavenumber_spectrum(s_xt, 0.00545, t[1])
    assert np.array_equal(spec, _wavenumber_spectrum_as_expressions(s_xt))


def test_wavenumber_spectrum_two_waves():
    nx, nt, dx, dt = 32, 64, 0.01, 1e-9
    g = (_plane_wave(3 / (nx * dx), 7 / (nt * dt), nx, nt, dx, dt)
         + _plane_wave(-5 / (nx * dx), 20 / (nt * dt), nx, nt, dx, dt, amp=0.5))
    spec, kv, fv = wavenumber_spectrum(g, dx, dt)
    power = np.abs(spec) ** 2
    flat = np.argsort(power, axis=None)[::-1]
    tops = [np.unravel_index(i, power.shape) for i in flat[:2]]
    found = sorted((kv[i], fv[j]) for i, j in tops)
    want = sorted([(3 / (nx * dx), 7 / (nt * dt)), (-5 / (nx * dx), 20 / (nt * dt))])
    assert_allclose(found, want, rtol=1e-9)
    # brute-force DFT oracle at one of the peaks
    x = dx * np.arange(nx)
    t = dt * np.arange(nt)
    kernel = np.exp(-1j * 2 * np.pi * (want[1][1] * t[None, :] - want[1][0] * x[:, None]))
    oracle = np.sum(g * kernel)
    i = np.argmin(np.abs(kv - want[1][0]))
    j = np.argmin(np.abs(fv - want[1][1]))
    assert_allclose(spec[i, j], oracle, rtol=1e-9)


def test_complex_noise_draw_order():
    x = np.arange(6, dtype=complex).reshape(2, 3)
    assert add_complex_noise(x, 0.0, None) is x
    rng = np.random.default_rng(4)
    re = rng.standard_normal(x.shape)
    im = rng.standard_normal(x.shape)
    want = x + 0.3 / np.sqrt(2.0) * (re + 1j * im)
    assert np.array_equal(add_complex_noise(x, 0.3, 4), want)


# scipy is the oracle here only: the package itself never imports it.


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    assert [_next_fast_len(n) for n in range(1, 5001)] == [
        next_fast_len(n, real=False) for n in range(1, 5001)
    ]


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# padded lengths s1 + s2 - 1: 3, 113 and 2005 (not 11-smooth), 256 and 231
@pytest.mark.parametrize("s1, s2", [(2, 2), (13, 101), (1009, 997), (128, 129), (77, 155)])
def test_fft_convolve_matches_scipy_1d(s1, s2):
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(s1 * s2)
    a, b = _complex_normal(rng, s1), _complex_normal(rng, s2)
    got = fft_convolve(a, b)
    assert got.shape == (s1 + s2 - 1,)
    assert np.array_equal(got, fftconvolve(a, b, mode="full"))


@pytest.mark.parametrize("n_rows, n_kernel, n_cols", [(300, 61, 17), (257, 40, 3)])
def test_fft_convolve_matches_scipy_along_axis0(n_rows, n_kernel, n_cols):
    """The range-compression shape: every column against one (n, 1) kernel."""
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(n_rows)
    a = _complex_normal(rng, (n_rows, n_cols))
    kernel = _complex_normal(rng, (n_kernel, 1))
    got = fft_convolve(a, kernel)
    assert got.shape == (n_rows + n_kernel - 1, n_cols)
    assert np.array_equal(got, fftconvolve(a, kernel, mode="full", axes=0))


def _phase_history(sigma, seed):
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.02, r1=1000.0, wavelength=0.03)
    scene = [Scatterer(0.0, 1000.0)]
    return simulate_phase_history(scene, geom, LfmChirp(10e9, 150e6, 2e-6), 200e6,
                                  sigma, seed)


def _sweep(sigma, seed):
    lattice = SamplingLattice(2, 2, 0.05, 0.05)
    grid = FrequencyGrid(1e9, 1.1e9, 1e7)
    return synthesize_sweep([PlaneWaveRay(0.1, 0.0, 1e-9)], lattice, grid,
                            sigma, seed)


def _sonar(sigma, seed):
    geom = SasGeometry(v_p=3.2, tau_rec=0.05, n_pings=2, rx_offsets=[0.0, 0.04])
    return simulate_measurements(geom, [[30.0, 0.1]], [1.0], FrequencyGrid(20e3, 22e3, 1e3),
                                 sigma, seed)


def _capon(sigma, seed):
    return synthesize_capon_data([(0.0, 0.0, 1.0)],
                                 LinearPhaseSteering(10e9, 0.1, 1e6, 1000.0), 8, 8,
                                 sigma, seed)


@pytest.mark.parametrize("simulate", [_phase_history, _sweep, _sonar, _capon],
                         ids=lambda f: f.__name__.strip("_"))
def test_simulators_share_the_seed_rule(simulate):
    simulate(0.0, None)  # noiseless output needs no seed
    with pytest.raises(ValueError, match=r"^noise_sigma must be >= 0, got noise_sigma=-0\.1$"):
        simulate(-0.1, 1)
    with pytest.raises(ValueError, match="seed is required"):
        simulate(0.1, None)



def _np_random_uses(tree):
    """Line numbers where ``tree`` reaches numpy's random module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numpy.random" or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        elif isinstance(node, ast.Import):
            hit = any(a.name == "numpy.random" for a in node.names)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_core_touches_np_random():
    """Every draw goes through core's seed rule, so no other module may
    build a generator or a seed sequence of its own."""
    package = Path(__file__).resolve().parents[1] / "src" / "aperture_forge"
    found = [f"{path.relative_to(package)}:{line}"
             for path in sorted(package.rglob("*.py")) if path.name != "core.py"
             for line in _np_random_uses(ast.parse(path.read_text()))]
    assert found == []
