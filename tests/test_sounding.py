import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from aperture_forge.core import C_LIGHT, Direction
from aperture_forge.sounding import (
    FrequencyGrid,
    PlaneWaveRay,
    PointSourceRay,
    SamplingLattice,
    array_factor,
    delay_slice,
    fib_weights,
    natural_beamwidth,
    optimize_sparse_lattice,
    padp,
    sampling_checks,
    source_distances,
    spherical_padp,
    steering_vector,
    synthesize_sweep,
    two_ray_path_loss,
)
from aperture_forge.sounding.arrays import _axis_ramps
from aperture_forge.sounding.padp import SweepData, _beam_maps

BORESIGHT = Direction(0.0, 0.0)
BAND = FrequencyGrid(26.5e9, 40e9, 10e6)  # the sweep of sound-constants


# ------------------------------------------------------------ frequency grid


def test_default_grid_tone_count():
    g = BAND
    assert g.s == 1351
    assert g.bandwidth == pytest.approx(13.5e9)
    f = g.frequencies()
    assert f[0] == 26.5e9 and f[-1] == 40e9 and f.size == 1351


def test_grid_rejects_non_integer_span():
    with pytest.raises(ValueError):
        FrequencyGrid(1e9, 2.0035e9, 1e7)
    with pytest.raises(ValueError):
        FrequencyGrid(2e9, 1e9, 1e7)


def test_sampling_checks_frozen_values():
    out = sampling_checks(BAND, f_max=40e9)
    assert out["delay_resolution_s"] == pytest.approx(1.0 / 13.5e9, rel=1e-9)
    assert out["range_resolution_m"] == pytest.approx(C_LIGHT / 13.5e9, rel=1e-9)
    assert out["t_dur_s"] == pytest.approx(1e-7, rel=1e-9)
    assert out["max_range_m"] == pytest.approx(C_LIGHT * 1e-7, rel=1e-9)
    assert out["bandpass_ok"] is True
    assert out["q"] == 3


def test_sampling_checks_rejects_far_from_integer():
    out = sampling_checks(BAND, f_max=37e9)
    assert out["bandpass_ok"] is False


# ----------------------------------------------------------------- lattices


def _lattice_35(f=40e9):
    lam = C_LIGHT / f
    return SamplingLattice(35, 35, lam / 2, lam / 2)


def test_rectangular_lattice_geometry():
    lat = SamplingLattice(4, 3, 0.01, 0.02)
    assert lat.positions.shape == (12, 3)
    assert_allclose(lat.positions.mean(axis=0), [0.0, 0.0, 0.0], atol=1e-15)
    assert lat.n_active == 12
    assert lat.shape == (4, 3)


def test_alias_flagging():
    lam = C_LIGHT / 40e9
    lat = SamplingLattice(8, 8, lam / 2, lam / 2)
    assert lat.alias_free(lam)
    assert not lat.alias_free(lam / 2)
    # checkerboard thinning pushes nearest neighbors to sqrt(2) * d
    idx = np.arange(64)
    mask = ((idx // 8) + (idx % 8)) % 2 == 0
    assert not lat.with_mask(mask).alias_free(lam)
    # dropping whole columns keeps in-column neighbors, so the crude
    # nearest-neighbor flag stays green even though the x spacing doubled
    cols = np.ones(64, dtype=bool)
    cols[8:16] = False
    assert lat.with_mask(cols).alias_free(lam)


def test_alias_free_is_the_nearest_neighbor_rule_on_every_mask():
    # full non-square lattices: every element has a neighbor 0.4 away,
    # though the x spacing is wider than lambda/2
    lat = SamplingLattice(4, 4, 0.6, 0.4)
    corner = np.ones(16, dtype=bool)
    corner[0] = False
    assert lat.alias_free(1.0) and lat.with_mask(corner).alias_free(1.0)
    assert SamplingLattice(1, 5, 2.0, 0.4).alias_free(1.0)
    assert not SamplingLattice(1, 5, 2.0, 0.4).alias_free(0.7)
    assert not SamplingLattice(1, 1, 0.4, 0.4).alias_free(1.0)
    # brute-force nearest neighbor over the active elements of random masks
    rng = np.random.default_rng(5)
    for m, n, d_x, d_y in ((6, 9, 0.3, 0.5), (7, 4, 0.45, 0.2)):
        for keep in (1.0, 0.6, 0.3, 0.1):
            thin = SamplingLattice(m, n, d_x, d_y, rng.random(m * n) < keep)
            act = thin.active_positions()
            gap = np.linalg.norm(act[:, None, :] - act[None, :, :], axis=-1)
            np.fill_diagonal(gap, np.inf)
            for lam in (0.7, 1.1, 1.4, 2.0):
                want = len(act) > 1 and gap.min(axis=1).max() <= lam / 2
                assert thin.alias_free(lam) == want, (m, n, keep, lam)


def test_alias_free_memory_does_not_grow_with_the_active_count():
    lam = C_LIGHT / 40e9
    lat = SamplingLattice(128, 128, lam / 2, lam / 2,
                          np.random.default_rng(1).random(128 * 128) < 0.5)
    tracemalloc.start()
    try:
        lat.alias_free(2.0 * lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# -------------------------------------------------------------- array factor


def test_array_factor_boresight_peak():
    lat = _lattice_35()
    w = np.ones(1225)
    peak = array_factor(lat, w, 0.0, 0.0, 40e9)[0, 0]
    assert abs(peak) == pytest.approx(1225.0, rel=1e-12)
    assert 10 * np.log10(abs(peak)) == pytest.approx(30.88, abs=0.01)


def test_array_factor_beamwidth_40ghz():
    lat = _lattice_35()
    w = np.ones(1225)
    u = np.linspace(-0.06, 0.06, 1201)
    cut = np.abs(array_factor(lat, w, u, 0.0, 40e9))[:, 0]
    half = cut.max() / np.sqrt(2.0)
    above = np.flatnonzero(cut >= half)
    width_u = u[above[-1]] - u[above[0]]
    width_deg = np.degrees(2 * np.arcsin(width_u / 2))
    assert width_deg == pytest.approx(2.9, abs=0.2)


def _axis_ramps_oracle(pos, k, u, v):
    """One exponential per position and direction, no deduplication."""
    ex = np.exp(1j * k * pos[:, 0][:, None] * u[None, :])
    ey = np.exp(1j * k * pos[:, 1][:, None] * v[None, :])
    return ex, ey


@pytest.mark.parametrize("m,n,thinned", [(16, 16, False), (16, 16, True), (12, 20, True)],
                         ids=["False", "True", "non-square-True"])
def test_axis_ramps_bits_match_per_position_oracle(m, n, thinned):
    # the non-square case tells the gather's row length from its column count
    lam = C_LIGHT / 40e9
    lat = SamplingLattice(m, n, lam / 2, 0.6 * lam)
    if thinned:
        lat = lat.with_mask(np.random.default_rng(3).random(m * n) < 0.4)
    pos = lat.active_positions()
    u = np.linspace(-0.1, 0.6, 301)
    v = np.linspace(-1.0, 1.0, 65)
    for f in (26.5e9, 33e9, 40e9):
        k = 2.0 * np.pi * f / C_LIGHT
        got, want = _axis_ramps(lat, f, u, v), _axis_ramps_oracle(pos, k, u, v)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("f", [0.0, -40e9, np.nan, np.inf])
def test_axis_ramps_rejects_a_tone_that_is_not_positive(f):
    lat = SamplingLattice(4, 4, 0.004, 0.004)
    axis = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match=f"got f={f}"):
        _axis_ramps(lat, f, axis, axis)
    with pytest.raises(ValueError, match=f"got f={f}"):
        steering_vector(lat, Direction(0.0, 0.0), f)


def test_array_factor_width_scales_with_frequency():
    lat = _lattice_35()
    w = np.ones(1225)

    def width(f):
        u = np.linspace(-0.12, 0.12, 2401)
        cut = np.abs(array_factor(lat, w, u, 0.0, f))[:, 0]
        above = np.flatnonzero(cut >= cut.max() / np.sqrt(2))
        return u[above[-1]] - u[above[0]]

    assert width(40e9) == pytest.approx((26.5 / 40) * width(26.5e9), rel=0.03)


def test_steered_taper_moves_peak():
    lat = _lattice_35()
    d = Direction(0.3, -0.2)
    w = np.conj(steering_vector(lat, d, 40e9))
    assert abs(array_factor(lat, w, 0.3, -0.2, 40e9)[0, 0]) == pytest.approx(1225.0, rel=1e-12)
    u = np.linspace(-0.5, 0.5, 101)
    v = np.linspace(-0.5, 0.5, 101)
    pat = np.abs(array_factor(lat, w, u, v, 40e9))
    i, j = np.unravel_index(np.argmax(pat), pat.shape)
    assert abs(u[i] - 0.3) <= 0.005 + 1e-12
    assert abs(v[j] + 0.2) <= 0.005 + 1e-12


def test_steering_vector_modes():
    lat = SamplingLattice(5, 5, 0.004, 0.004)
    d = Direction(0.4, 0.0)
    ttd_26 = steering_vector(lat, d, 26.5e9)
    ttd_40 = steering_vector(lat, d, 40e9)
    pos = lat.active_positions()
    k = 2.0 * np.pi * 26.5e9 / C_LIGHT
    assert_allclose(ttd_26, np.exp(1j * k * (pos[:, 0] * 0.4 + pos[:, 1] * 0.0)), atol=1e-12)
    assert not np.allclose(ttd_40, ttd_26)
    center = len(lat.positions) // 2  # element at the origin
    assert ttd_40[center] == pytest.approx(1.0 + 0.0j)


def test_beam_squint_law():
    # narrowband phases (TTD frozen at f0) peak where u*f = u0*f0
    lat = _lattice_35(f=40e9)
    f0, f_hi, u0 = 26.51e9, 40e9, 0.4
    w = np.conj(steering_vector(lat, Direction(u0, 0.0), f0))
    u = np.linspace(0.2, 0.45, 501)
    pat = np.abs(array_factor(lat, w, u, 0.0, f_hi))[:, 0]
    u_peak = u[np.argmax(pat)]
    assert u_peak == pytest.approx(u0 * f0 / f_hi, abs=0.001)


# ----------------------------------------------------------- sweep synthesis


def _small_setup(s=101, m=8, f_hi=2e9):
    lam = C_LIGHT / f_hi
    lat = SamplingLattice(m, m, lam / 2, lam / 2)
    grid = FrequencyGrid(1e9, 1e9 + (s - 1) * 1e7, 1e7)
    return lat, grid


def test_sweep_boresight_zero_delay_constant():
    lat, grid = _small_setup()
    sw = synthesize_sweep([PlaneWaveRay(0.0, 0.0, 0.0, 2.0 + 1.0j)], lat, grid)
    assert_allclose(sw.s21, np.full(sw.s21.shape, 2.0 + 1.0j), atol=1e-12)


def test_sweep_delay_makes_linear_phase():
    lat, grid = _small_setup()
    tau = 20e-9
    sw = synthesize_sweep([PlaneWaveRay(0.0, 0.0, tau)], lat, grid)
    steps = sw.s21[:, 1:] * np.conj(sw.s21[:, :-1])
    assert_allclose(np.angle(steps), -2 * np.pi * grid.df * tau, atol=1e-9)


def test_sweep_two_ray_null():
    lat, grid = _small_setup()
    tau2 = 1.0 / (2 * grid.f_start)  # pi of carrier phase at the first tone
    sw = synthesize_sweep(
        [PlaneWaveRay(0, 0, 0.0), PlaneWaveRay(0, 0, tau2)],
        lat,
        grid,
    )
    assert np.max(np.abs(sw.s21[:, 0])) < 1e-12


def test_sweep_rejects_aliased_delay():
    lat, grid = _small_setup()
    with pytest.raises(ValueError):
        synthesize_sweep([PlaneWaveRay(0, 0, grid.t_dur)], lat, grid)
    with pytest.raises(ValueError):
        synthesize_sweep(
            [PointSourceRay((0, 0, C_LIGHT * grid.t_dur * 2))], lat, grid
        )


@pytest.mark.parametrize("u, v, message", [
    (np.nan, 0.0, r"^u must be finite, got u=nan$"),
    (0.0, np.nan, r"^v must be finite, got v=nan$"),
    (0.8, 0.7, r"^\(u, v\) outside visible space"),
])
def test_plane_wave_ray_rejects_bad_direction(u, v, message):
    with pytest.raises(ValueError, match=message):
        PlaneWaveRay(u, v, 1e-9)


def test_two_ray_path_loss_values():
    assert two_ray_path_loss(1.0, np.pi) == pytest.approx(0.0, abs=1e-12)
    assert two_ray_path_loss(1.0, 0.0) == pytest.approx(4.0)
    assert two_ray_path_loss(0.5, np.pi / 2) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        two_ray_path_loss(-0.1, 0.0)


# ------------------------------------------------------------------- PADP


def test_padp_single_ray_delay():
    lat, grid = _small_setup()
    tau = 20e-9
    sw = synthesize_sweep([PlaneWaveRay(0, 0, tau)], lat, grid)
    prof = padp(sw, BORESIGHT)
    peak_delay = prof.delays[np.argmax(prof.power)]
    bin_width = 1.0 / (4 * grid.s * grid.df)
    assert abs(peak_delay - tau) <= bin_width / 2 + 1e-15


def test_padp_steered_away_suppresses():
    lat, grid = _small_setup()
    sw = synthesize_sweep([PlaneWaveRay(0, 0, 20e-9)], lat, grid)
    bore = padp(sw, BORESIGHT).power.max()
    away = padp(sw, Direction(1.0, 0.0)).power.max()
    # bounded by the worst per-tone sidelobe of the steered pattern
    floor = max(
        abs(array_factor(lat, np.conj(steering_vector(lat, Direction(1.0, 0.0), f)),
                         0.0, 0.0, f)[0, 0])
        for f in grid.frequencies()[:: grid.s // 10]
    )
    assert away / bore <= 2.0 * (floor / lat.n_active) ** 2


def test_padp_zero_sweep():
    lat, grid = _small_setup(s=21, m=3)
    sw = synthesize_sweep([], lat, grid)
    prof = padp(sw, BORESIGHT)
    assert np.all(prof.power == 0.0)


def test_padp_linearity():
    lat, grid = _small_setup(s=41, m=4)
    r1 = PlaneWaveRay(0.1, 0.0, 10e-9, 1.0)
    r2 = PlaneWaveRay(-0.2, 0.1, 35e-9, 0.5j)
    d = Direction(0.05, 0.02)
    p_both = padp(synthesize_sweep([r1, r2], lat, grid), d)
    p1 = padp(synthesize_sweep([r1], lat, grid), d)
    p2 = padp(synthesize_sweep([r2], lat, grid), d)
    scale = np.max(np.abs(p_both.amplitude))
    assert np.max(np.abs(p_both.amplitude - p1.amplitude - p2.amplitude)) < 1e-9 * scale


def test_beamforming_coherent_gain():
    lat, grid = _small_setup(s=601, m=8)
    sw = synthesize_sweep([], lat, grid, noise_sigma=1.0, seed=7)
    prof = np.fft.ifft(_beam_maps(sw, 0.0, 0.0)[:, 0, 0])  # untapered, unpadded
    beam_power = float(np.sum(np.abs(prof) ** 2))  # equals mean |b|^2 by Parseval
    element_power = float(np.mean(np.abs(sw.s21[0]) ** 2))
    gain_db = 10 * np.log10(beam_power / element_power)
    assert gain_db == pytest.approx(10 * np.log10(lat.n_active), abs=0.5)


# ------------------------------------------------------------- delay slices


def test_delay_slice_finds_ray():
    lat, grid = _small_setup(s=51, m=6)
    m_bin = 12
    tau = m_bin / (grid.s * grid.df)
    sw = synthesize_sweep([PlaneWaveRay(0.2, -0.1, tau)], lat, grid)
    u = np.linspace(-0.4, 0.4, 17)
    sl = np.abs(delay_slice(sw, u, u, m_bin))
    i, j = np.unravel_index(np.argmax(sl), sl.shape)
    assert abs(u[i] - 0.2) <= 0.05 / 2 + 1e-12
    assert abs(u[j] + 0.1) <= 0.05 / 2 + 1e-12


def test_delay_slice_rejects_out_of_range_bins():
    lat, grid = _small_setup(s=21, m=3)
    sw = synthesize_sweep([], lat, grid)
    delay_slice(sw, [0.0], [0.0], 0)
    delay_slice(sw, [0.0], [0.0], grid.s - 1)
    for m_bin in (-1, grid.s):
        with pytest.raises(ValueError, match="delay bin"):
            delay_slice(sw, [0.0], [0.0], m_bin)


def test_delay_slice_matches_padp_column():
    lat, grid = _small_setup(s=31, m=4)
    sw = synthesize_sweep(
        [PlaneWaveRay(0.1, 0.2, 16e-9), PlaneWaveRay(0.0, 0.0, 40e-9)],
        lat,
        grid,
        noise_sigma=0.05,
        seed=3,
    )
    m_bin = 7
    dirs = [(0.0, 0.0), (0.1, 0.2), (-0.3, 0.05)]
    sl = delay_slice(sw, [d[0] for d in dirs], [d[1] for d in dirs], m_bin)
    for idx, (du, dv) in enumerate(dirs):
        prof = np.fft.ifft(_beam_maps(sw, du, dv)[:, 0, 0])
        assert sl[idx, idx] == pytest.approx(prof[m_bin], rel=1e-10)


def test_beam_maps_match_direct_sum_on_sound_padp_sweep():
    # sound-padp's default sweep: 8 x 8 lattice, 41 tones, three rays;
    # oracle b(f; u, v) = sum_p exp(-jk(x_p u + y_p v)) s21_p written out
    lat = SamplingLattice(8, 8, 0.00545, 0.00545)
    grid = FrequencyGrid(26.5e9, 27.5e9, 25e6)
    rays = [PlaneWaveRay(0.3, 0.0, 10e-9, 1.0),
            PlaneWaveRay(-0.2, 0.1, 25e-9, 0.5),
            PointSourceRay((0.5, 0.3, 6.0), 0.8)]
    sw = synthesize_sweep(rays, lat, grid)
    assert sw.s21.shape == (64, 41)
    pos = lat.active_positions()
    uv = np.linspace(-0.8, 0.8, 41)
    uu, vv = np.meshgrid(uv, uv, indexing="ij")
    path = pos[:, 0][:, None] * uu.ravel() + pos[:, 1][:, None] * vv.ravel()
    k = 2.0 * np.pi * grid.frequencies() / C_LIGHT
    direct = np.stack([sw.s21[:, i] @ np.exp(-1j * k[i] * path) for i in range(grid.s)])
    m_bin = 10
    want = np.exp(2j * np.pi * m_bin * np.arange(grid.s) / grid.s) @ direct / grid.s
    got = delay_slice(sw, uv, uv, m_bin)
    assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * np.max(np.abs(want))
    for u, v in ((0.0, 0.0), (0.3, 0.0), (-0.2, 0.1)):  # boresight and the plane-wave rays
        col = np.sum(np.exp(-1j * k[:, None] * (pos[:, 0] * u + pos[:, 1] * v))
                     * sw.s21.T, axis=1)
        got = _beam_maps(sw, u, v)[:, 0, 0]
        assert np.max(np.abs(got - col)) <= 1e-12 * np.max(np.abs(direct))


def test_aggregate_parseval():
    lat, grid = _small_setup(s=24, m=4)
    rng_dirs = np.linspace(-0.3, 0.3, 5)
    sw = synthesize_sweep(
        [PlaneWaveRay(0.1, 0.0, 20e-9)], lat, grid, noise_sigma=0.2, seed=5
    )
    slices = [
        delay_slice(sw, rng_dirs, rng_dirs, m) for m in range(grid.s)
    ]
    # total received power per delay bin, summed over each slice's angles
    r = np.array([np.sum(np.abs(sl) ** 2) for sl in slices])
    total = 0.0
    for du in rng_dirs:
        for dv in rng_dirs:
            prof = np.fft.ifft(_beam_maps(sw, du, dv)[:, 0, 0])
            total += float(np.sum(np.abs(prof) ** 2))
    assert np.sum(r) == pytest.approx(total, rel=1e-9)


def test_aggregate_noise_is_flat():
    lat, grid = _small_setup(s=48, m=6)
    sw = synthesize_sweep([], lat, grid, noise_sigma=1.0, seed=2)
    axis = np.linspace(-1.0, 1.0, 13)
    slices = [
        delay_slice(sw, axis, axis, m) for m in range(grid.s)
    ]
    r = np.array([np.sum(np.abs(sl) ** 2) for sl in slices])
    spread_db = 10 * np.log10(r.max() / np.median(r))
    assert spread_db < 3.0


@settings(deadline=None, max_examples=40)
@given(m=st.integers(1, 5), n=st.integers(1, 5), s=st.integers(2, 24),
       u=st.floats(-0.7, 0.7), v=st.floats(-0.7, 0.7), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_synthesis_dot_product(m, n, s, u, v, data, seed):
    # <A a, Y> = <a, A^H Y> with A the one-ray plane-wave synthesis and
    # A^H the TTD beam series summed against the ray's delay phase, or
    # equivalently S times the unwindowed delay slice at its bin
    m_bin = data.draw(st.integers(0, s - 1), label="m_bin")
    lat = SamplingLattice(m, n, 0.05, 0.04)
    grid = FrequencyGrid(1e9, 1e9 + (s - 1) * 1e7, 1e7)
    tau = m_bin / (s * grid.df)
    rng = np.random.default_rng(seed)
    amp = complex(rng.standard_normal(), rng.standard_normal())
    y = SweepData(rng.standard_normal((lat.n_active, s))
                  + 1j * rng.standard_normal((lat.n_active, s)), lat, grid)
    ray = synthesize_sweep([PlaneWaveRay(u, v, tau, amp)], lat, grid)
    lhs = np.vdot(ray.s21, y.s21)
    f = grid.frequencies()
    beams = _beam_maps(y, u, v)[:, 0, 0]
    via_beams = np.conj(amp) * np.sum(np.exp(2j * np.pi * f * tau) * beams)
    via_slice = (np.conj(amp) * np.exp(2j * np.pi * f[0] * tau) * s
                 * delay_slice(y, [u], [v], m_bin)[0, 0])
    bound = 1e-10 * np.linalg.norm(ray.s21) * np.linalg.norm(y.s21)
    assert abs(lhs - via_beams) <= bound
    assert abs(lhs - via_slice) <= bound


# ------------------------------------------------------- spherical phasefront


def test_spherical_padp_localizes_near_source():
    lat, grid = _small_setup(s=101, m=10, f_hi=2e9)
    src = (0.0, 0.0, 0.5)
    sw = synthesize_sweep([PointSourceRay(src)], lat, grid)
    uv = np.linspace(-0.1, 0.1, 5)
    best = None
    for du in uv:
        for dv in uv:
            d = Direction(du, dv)
            sp = spherical_padp(sw, d, 0.3, 0.7, 0.05)
            i = int(np.argmax(sp.power.max(axis=1)))
            val = sp.power[i].max()
            if best is None or val > best[0]:
                best = (val, du, dv, sp.ranges[i])
    _, bu, bv, br = best
    assert abs(bu) <= 0.05 + 1e-12
    assert abs(bv) <= 0.05 + 1e-12
    assert abs(br - 0.5) <= 0.05 + 1e-12


def test_spherical_far_limit_is_plane_padp():
    lat, grid = _small_setup(s=41, m=6)
    d = Direction(0.1, 0.05)
    sw = synthesize_sweep([PlaneWaveRay(0.1, 0.05, 30e-9)], lat, grid)
    lam = C_LIGHT / grid.f_stop
    far = 1e6 * lam
    sp = spherical_padp(sw, d, far, far, 1.0)
    pl = padp(sw, d)
    denom = np.max(np.abs(pl.amplitude))
    assert np.max(np.abs(sp.amplitude[0] - pl.amplitude)) / denom < 1e-3


def _spherical_padp_as_expressions(sweep, direction, ranges):
    """spherical_padp's amplitudes for every range at once, with its
    distances and profile written out: the oracle for its per-range loop."""
    src = ranges[:, None] * np.array([direction.u, direction.v, direction.w])
    offset = sweep.lattice.active_positions()[None, :, :] - src[:, None, :]
    d = np.sqrt(offset[..., 0] ** 2 + offset[..., 1] ** 2 + offset[..., 2] ** 2)
    f = sweep.grid.frequencies()
    w = np.exp(-1j * 2.0 * np.pi * f * (d[:, :, None] - ranges[:, None, None]) / C_LIGHT)
    b = np.sum(np.conj(w) * sweep.s21, axis=1)
    return np.fft.ifft(b * np.hamming(sweep.grid.s), 4 * sweep.grid.s, axis=1) * 4


def test_spherical_padp_matches_the_expression_form_bitwise():
    # sound-padp's default sweep plus noise: its report reads these
    # amplitudes only through the argmax of their power
    lat = SamplingLattice(8, 8, 0.00545, 0.00545)
    grid = FrequencyGrid(26.5e9, 27.5e9, 25e6)
    rays = [PlaneWaveRay(0.3, 0.0, 10e-9), PlaneWaveRay(-0.2, 0.1, 25e-9, 0.5),
            PointSourceRay((0.5, 0.3, 6.0), 0.8)]
    sweep = synthesize_sweep(rays, lat, grid, 0.1, 1)
    r = np.linalg.norm([0.5, 0.3, 6.0])
    look = Direction(0.5 / r, 0.3 / r)
    sph = spherical_padp(sweep, look, 3.0, 9.0, 0.25)
    assert np.array_equal(sph.amplitude, _spherical_padp_as_expressions(sweep, look, sph.ranges))


def test_spherical_rejects_in_plane_source():
    lat, grid = _small_setup(s=21, m=3)
    sw = synthesize_sweep([], lat, grid)
    with pytest.raises(ValueError):
        spherical_padp(sw, Direction(1.0, 0.0), 0.5, 0.6, 0.05)


def test_source_distances_boresight_center():
    lat = SamplingLattice(7, 7, 0.01, 0.01)
    d = source_distances(lat, BORESIGHT, 1.5)
    assert d.min() == pytest.approx(1.5, rel=1e-12)  # center element
    corner = np.sqrt(1.5 ** 2 + 2 * (3 * 0.01) ** 2)
    assert d.max() == pytest.approx(corner, rel=1e-12)


@pytest.mark.parametrize("m,n,d_x,d_y", [
    (0, 3, 0.01, 0.01),
    (3, 0, 0.01, 0.01),
    (3, 3, 0.0, 0.01),
    (3, 3, 0.01, -0.01),
    (3, 3, np.nan, 0.01),
    (3, 3, 0.01, np.inf),
])
def test_lattice_rejects_empty_or_non_positive_grid(m, n, d_x, d_y):
    bad = [f"{k}={v}" for k, v in (("m", m), ("n", n)) if v < 1]
    bad += [f"{k}={v}" for k, v in (("d_x", d_x), ("d_y", d_y)) if not 0 < v < np.inf]
    with pytest.raises(ValueError, match=f", got {bad[0]}$"):
        SamplingLattice(m, n, d_x, d_y)


# --------------------------------------------------- frequency-invariant beams


def _measure_width(lat, w, f, span=0.12, n=2401):
    u = np.linspace(-span, span, n)
    cut = np.abs(array_factor(lat, np.conj(w), u, 0.0, f))[:, 0]
    above = np.flatnonzero(cut >= cut.max() / np.sqrt(2))
    return u[above[-1]] - u[above[0]]


def test_fib_width_spread_under_five_percent():
    lat = _lattice_35()
    grid = FrequencyGrid(26.5e9, 40e9, 6.75e9)  # three tones across the band
    target = natural_beamwidth(lat, grid.f_start)
    ws = fib_weights(lat, grid, BORESIGHT, target)
    widths = [
        _measure_width(lat, ws[i], f) for i, f in enumerate(grid.frequencies())
    ]
    spread = (max(widths) - min(widths)) / max(widths)
    assert spread < 0.05
    # unit gain constraint at the look direction
    for i, f in enumerate(grid.frequencies()):
        v0 = steering_vector(lat, BORESIGHT, f)
        assert np.conj(ws[i]) @ v0 == pytest.approx(1.0, abs=1e-9)


def _fib_weights_two_solves(lattice, grid, direction, beamwidth_target):
    """fib_weights as it was with one solve per right-hand side and gamma
    recomputed per tone: the oracle for the factor-once form."""
    pos = lattice.active_positions()
    p = len(pos)
    r_mask = 0.75 * beamwidth_target
    axis = np.linspace(-1.0, 1.0, 48)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    off_sq = (uu - direction.u) ** 2 + (vv - direction.v) ** 2
    sel = (uu ** 2 + vv ** 2 <= 1.0) & (off_sq > r_mask ** 2)
    fine = np.linspace(-r_mask, r_mask, 13)
    mu, mv = np.meshgrid(direction.u + fine, direction.v + fine, indexing="ij")
    m_off_sq = (mu - direction.u) ** 2 + (mv - direction.v) ** 2
    m_sel = (m_off_sq <= r_mask ** 2) & (mu ** 2 + mv ** 2 <= 1.0) & (m_off_sq > 0)
    d_main = np.exp2(-0.5 * (2.0 * np.sqrt(m_off_sq[m_sel]) / beamwidth_target) ** 2)
    (i_s, j_s), (i_m, j_m) = np.nonzero(sel), np.nonzero(m_sel)
    freqs = grid.frequencies()
    out = np.empty((len(freqs), p), dtype=complex)
    for i, f in enumerate(freqs):
        v0 = steering_vector(lattice, direction, f)
        ex, ey = _axis_ramps(lattice, f, axis, axis)
        v_side = ex[:, i_s] * ey[:, j_s]
        ex, ey = _axis_ramps(lattice, f, mu[:, 0], mv[0])
        v_main = ex[:, i_m] * ey[:, j_m]
        gamma = len(i_s) / max(len(i_m), 1)
        g = v_side @ np.conj(v_side.T) + gamma * (v_main @ np.conj(v_main.T))
        g += 1e-4 * 2 * len(i_s) * np.eye(p)
        c = gamma * (v_main @ d_main)
        w_ls = np.linalg.solve(g, c)
        h = np.linalg.solve(g, v0)
        mu_lag = (1.0 - np.conj(v0) @ w_ls) / (np.conj(v0) @ h)
        out[i] = w_ls + mu_lag * h
    return out


def test_fib_weights_match_one_solve_per_right_hand_side():
    # sound-squint's equalized lattice and sweep: 8 x 8, 11 tones
    lat = SamplingLattice(8, 8, 0.00375, 0.00375)
    grid = FrequencyGrid(26.5e9, 40e9, 13.5e9 / 10)
    target = 1.02 * natural_beamwidth(lat, grid.f_start)
    got = fib_weights(lat, grid, BORESIGHT, target)
    assert got.shape == (11, 64)
    assert np.array_equal(got, _fib_weights_two_solves(lat, grid, BORESIGHT, target))


def test_unequalized_width_shrinks_33_percent():
    lat = _lattice_35()
    w = np.ones(1225)
    w_lo = _measure_width(lat, w, 26.5e9)
    w_hi = _measure_width(lat, w, 40e9)
    assert (w_lo - w_hi) / w_lo == pytest.approx(0.3375, abs=0.02)


def test_fib_rejects_infeasible_target():
    lat = _lattice_35()
    grid = FrequencyGrid(26.5e9, 40e9, 13.5e9)
    with pytest.raises(ValueError):
        fib_weights(lat, grid, BORESIGHT, 0.3 * natural_beamwidth(lat, grid.f_start))


# ------------------------------------------------------------ lattice thinning


def test_annealer_full_lattice_psl():
    lattice, psl_db = optimize_sparse_lattice(_lattice_35(), 1.0, seed=0)
    assert lattice.n_active == 1225
    assert psl_db == pytest.approx(-13.26, abs=0.5)
    assert psl_db <= -13.0


def test_annealer_half_thinning_meets_bound():
    lattice, psl_db = optimize_sparse_lattice(_lattice_35(), 0.5, n_steps=2500, seed=1)
    assert lattice.n_active == round(0.5 * 1225)
    assert psl_db <= -13.0


def test_decimated_lattice_grating_lobe():
    lat = _lattice_35()
    mask = np.ones(1225, dtype=bool)
    cols = np.arange(1225) // 35  # x index in row-major layout
    mask[cols % 2 == 1] = False
    thin = lat.with_mask(mask)
    w = np.ones(thin.n_active)
    main = abs(array_factor(thin, w, 0.0, 0.0, 40e9)[0, 0])
    grating = abs(array_factor(thin, w, 1.0, 0.0, 40e9)[0, 0])
    assert 20 * np.log10(grating / main) > -1.0


def _annealer_oracle(full, keep_fraction, n_steps, cool_every, seed, f_eval=40e9,
                     uv_points=97):
    """The thinning annealer written out plainly: np.outer swap updates,
    and |pattern| over the whole grid masked to the sidelobe region."""
    rng = np.random.default_rng(seed)
    pos = full.positions
    n_total = len(pos)
    n_keep = int(round(keep_fraction * n_total))
    k = 2.0 * np.pi * f_eval / C_LIGHT
    axis = np.linspace(-1.0, 1.0, uv_points)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    null_radius = C_LIGHT / (f_eval * full.shape[0] * full.d_x)
    sel = (uu ** 2 + vv ** 2 <= 1.0) & (uu ** 2 + vv ** 2 > (1.25 * null_radius) ** 2)
    ex, ey = _axis_ramps_oracle(pos, k, axis, axis)

    def full_pattern(idx):
        return ex[idx].T @ ey[idx]

    def psl(pattern):
        return float(20.0 * np.log10(np.abs(pattern)[sel].max() / n_keep))

    active_set = np.zeros(n_total, dtype=bool)
    active_set[rng.permutation(n_total)[:n_keep]] = True
    samples = [psl(full_pattern(rng.permutation(n_total)[:n_keep])) for _ in range(20)]
    temp = max(np.ptp(samples), 0.1)
    pattern = full_pattern(np.flatnonzero(active_set))
    current = best = psl(pattern)
    best_mask = active_set.copy()
    for step in range(n_steps):
        if step and step % cool_every == 0:
            temp *= 0.95
        on, off = np.flatnonzero(active_set), np.flatnonzero(~active_set)
        drop = on[rng.integers(len(on))]
        add = off[rng.integers(len(off))]
        candidate = pattern + (np.outer(ex[add], ey[add]) - np.outer(ex[drop], ey[drop]))
        cand_psl = psl(candidate)
        if cand_psl <= current or rng.random() < np.exp(-(cand_psl - current) / temp):
            pattern, current = candidate, cand_psl
            active_set[drop], active_set[add] = False, True
            if current < best:
                best, best_mask = current, active_set.copy()
        if (step + 1) % 500 == 0:
            pattern = full_pattern(np.flatnonzero(active_set))
            current = psl(pattern)
    return best_mask, best


def test_annealer_bits_match_plain_oracle():
    lam = C_LIGHT / 40e9
    full = SamplingLattice(8, 8, 0.7 * lam, 0.7 * lam)
    lattice, psl_db = optimize_sparse_lattice(full, 0.5, n_steps=1100, cool_every=100,
                                              seed=4)
    want_mask, want_psl = _annealer_oracle(full, 0.5, 1100, 100, seed=4)
    assert np.array_equal(lattice.mask, want_mask)
    assert psl_db == want_psl


def test_annealer_validation():
    with pytest.raises(ValueError):
        optimize_sparse_lattice(_lattice_35(), 0.0, seed=0)
    with pytest.raises(ValueError):
        optimize_sparse_lattice(_lattice_35(), 1.2, seed=0)
    with pytest.raises(ValueError, match="uv_points=2 puts no sine-space cell"):
        optimize_sparse_lattice(_lattice_35(), 0.5, seed=0, uv_points=2)
    for f_eval in (0.0, -40e9, np.nan):
        with pytest.raises(ValueError, match=f"got f_eval={f_eval}"):
            optimize_sparse_lattice(_lattice_35(), 0.5, seed=0, f_eval=f_eval)


def test_annealer_requires_a_seed():
    with pytest.raises(ValueError, match="seed is required"):
        optimize_sparse_lattice(_lattice_35(), 0.5)
