import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from aperture_forge.core import (
    Axis,
    ComplexGrid,
    Direction,
    FieldPoint,
    WaveParams,
    _next_fast_len,
    add_complex_noise,
    far_field_distance,
    fft_convolve,
    plane_wave_field,
    wavenumber_spectrum,
)
from aperture_forge.sar import (
    PointScene,
    SarGeometry,
    Scatterer,
    simulate_phase_history,
    synthesize_capon_data,
)
from aperture_forge.sas import SasGeometry, SasScene, simulate_measurements
from aperture_forge.sounding import (
    ChannelRay,
    FrequencyGrid,
    SamplingLattice,
    synthesize_sweep,
)
from aperture_forge.waveforms import LfmChirp


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(0.0, 0.0, "m")
    with pytest.raises(ValueError):
        Axis(np.nan, 1.0, "m")
    ax = Axis(-2.0, 0.5, "m")
    assert_allclose(ax.values(5), [-2.0, -1.5, -1.0, -0.5, 0.0])


def test_complex_grid_invariants():
    ax = Axis(0.0, 1.0)
    with pytest.raises(ValueError):
        ComplexGrid(np.zeros(4), ax, ax)  # not 2-D
    with pytest.raises(ValueError):
        ComplexGrid(np.array([[np.inf, 0.0], [0.0, 0.0]]), ax, ax)
    g = ComplexGrid(np.ones((2, 3)), ax, ax)
    assert g.shape == (2, 3)
    with pytest.raises(ValueError):
        g.data[0, 0] = 5.0  # frozen after construction


def test_direction_boresight_identity():
    d = Direction(0.0, 0.0)
    assert d.u == 0.0 and d.v == 0.0


def test_direction_from_sine_space_frozen_values():
    # sin^2(theta) = 0.4^2 + 0.3^2 = 0.25, tan(phi) = 0.3/0.4
    d = Direction.from_sine_space(0.4, 0.3)
    assert_allclose(np.degrees(d.theta), 30.0, atol=1e-9)
    assert_allclose(np.degrees(d.phi), 36.86989764584402, atol=1e-9)


def test_direction_rejects_invisible_space():
    with pytest.raises(ValueError):
        Direction.from_sine_space(0.8, 0.7)


@given(
    theta=st.floats(0.0, np.radians(89.0)),
    phi=st.floats(-np.pi, np.pi),
)
def test_direction_round_trips(theta, phi):
    d = Direction(theta, phi)
    back = Direction.from_sine_space(d.u, d.v)
    assert_allclose(back.unit_vector(), d.unit_vector(), atol=1e-12)
    assert abs(back.theta - d.theta) < 1e-12


def test_wave_params_consistency():
    d = Direction(np.radians(20.0), np.radians(45.0))
    w = WaveParams.from_direction(10e9, d)
    assert_allclose(w.speed * np.linalg.norm([w.kx, w.ky, w.kz]), w.frequency, rtol=1e-12)
    with pytest.raises(ValueError):
        WaveParams(10e9, 299792458.0, 1.0, 0.0, 0.0)  # f != c|k|


def test_plane_wave_zero_phase_and_unimodularity():
    w = WaveParams.from_direction(1e9, Direction(0.3, 0.7))
    assert plane_wave_field(FieldPoint(0, 0, 0), 0.0, w) == pytest.approx(1.0 + 0.0j)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = FieldPoint(*rng.uniform(-5, 5, 3))
        val = plane_wave_field(p, rng.uniform(0, 1e-6), w)
        assert abs(abs(val) - 1.0) < 1e-12


def test_plane_wave_half_cycle():
    # k.x = 0.5 cycles at t = 0 gives exp(-j*pi) = -1
    w = WaveParams.from_direction(1e9, Direction(0.0, 0.0))
    lam = w.speed / w.frequency
    val = plane_wave_field(FieldPoint(0.0, 0.0, 0.5 * lam), 0.0, w)
    assert_allclose(val, -1.0 + 0.0j, atol=1e-12)


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


def _plane_wave_grid(k0, f0, nx, nt, dx, dt, amp=1.0):
    x = dx * np.arange(nx)
    t = dt * np.arange(nt)
    field = amp * np.exp(1j * 2 * np.pi * (f0 * t[None, :] - k0 * x[:, None]))
    return ComplexGrid(field, Axis(0.0, dx, "m"), Axis(0.0, dt, "s"))


def test_wavenumber_spectrum_single_wave():
    nx, nt, dx, dt = 32, 64, 0.01, 1e-9
    k0 = 4 / (nx * dx)  # on-grid wavenumber, cycles/m
    f0 = 10 / (nt * dt)
    spec = wavenumber_spectrum(_plane_wave_grid(k0, f0, nx, nt, dx, dt))
    power = np.abs(spec.data) ** 2
    ik, jf = np.unravel_index(np.argmax(power), power.shape)
    assert_allclose(spec.axis0_values()[ik], k0, rtol=1e-12)
    assert_allclose(spec.axis1_values()[jf], f0, rtol=1e-12)
    assert power[ik, jf] / power.sum() > 0.99


def test_wavenumber_spectrum_zero_field():
    ax = Axis(0.0, 1.0)
    g = ComplexGrid(np.zeros((8, 8)), ax, ax)
    assert np.all(wavenumber_spectrum(g).data == 0.0)


def test_wavenumber_spectrum_two_waves():
    nx, nt, dx, dt = 32, 64, 0.01, 1e-9
    g1 = _plane_wave_grid(3 / (nx * dx), 7 / (nt * dt), nx, nt, dx, dt)
    g2 = _plane_wave_grid(-5 / (nx * dx), 20 / (nt * dt), nx, nt, dx, dt, amp=0.5)
    g = ComplexGrid(g1.data + g2.data, g1.axis0, g1.axis1)
    spec = wavenumber_spectrum(g)
    power = np.abs(spec.data) ** 2
    flat = np.argsort(power, axis=None)[::-1]
    tops = [np.unravel_index(i, power.shape) for i in flat[:2]]
    kv, fv = spec.axis0_values(), spec.axis1_values()
    found = sorted((kv[i], fv[j]) for i, j in tops)
    want = sorted([(3 / (nx * dx), 7 / (nt * dt)), (-5 / (nx * dx), 20 / (nt * dt))])
    assert_allclose(found, want, rtol=1e-9)
    # brute-force DFT oracle at one of the peaks
    x = dx * np.arange(nx)
    t = dt * np.arange(nt)
    kernel = np.exp(-1j * 2 * np.pi * (want[1][1] * t[None, :] - want[1][0] * x[:, None]))
    oracle = np.sum(g.data * kernel)
    i = np.argmin(np.abs(kv - want[1][0]))
    j = np.argmin(np.abs(fv - want[1][1]))
    assert_allclose(spec.data[i, j], oracle, rtol=1e-9)


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
    scene = PointScene((Scatterer(0.0, 1000.0),))
    return simulate_phase_history(scene, geom, LfmChirp(10e9, 150e6, 2e-6), 200e6,
                                  sigma, seed)


def _sweep(sigma, seed):
    lattice = SamplingLattice.rectangular(2, 2, 0.05, 0.05)
    grid = FrequencyGrid(1e9, 1.1e9, 1e7)
    return synthesize_sweep([ChannelRay.plane_wave(0.1, 0.0, 1e-9)], lattice, grid,
                            sigma, seed)


def _sonar(sigma, seed):
    geom = SasGeometry(v_p=3.2, tau_rec=0.05, n_pings=2, rx_offsets=[0.0, 0.04])
    scene = SasScene([[30.0, 0.1]], [1.0])
    return simulate_measurements(geom, scene, FrequencyGrid(20e3, 22e3, 1e3),
                                 sigma, seed)


def _capon(sigma, seed):
    return synthesize_capon_data([(0.0, 0.0, 1.0)], 8, 8, 10e9, 0.1, 1e6, 1000.0,
                                 sigma, seed)


@pytest.mark.parametrize("simulate", [_phase_history, _sweep, _sonar, _capon],
                         ids=lambda f: f.__name__.strip("_"))
def test_simulators_share_the_seed_rule(simulate):
    simulate(0.0, None)  # noiseless output needs no seed
    with pytest.raises(ValueError, match="nonnegative"):
        simulate(-0.1, 1)
    with pytest.raises(ValueError, match="seed is required"):
        simulate(0.1, None)

