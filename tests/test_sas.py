import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperture_forge.sas import (
    SasGeometry,
    SensingModel,
    build_sensing_model,
    lasso_mu_max,
    sas_resolutions,
    sas_sparse,
    simulate_measurements,
)
from aperture_forge.sounding import FrequencyGrid

C_S = 1500.0
R0 = 30.0

# Receivers every 4 cm give virtual phase centers every 2 cm; the ping
# advance v_p * tau_rec = 0.16 m equals the virtual footprint, so the
# pings tile one seamless along-track lattice.
GEOM = SasGeometry(v_p=3.2, tau_rec=0.05, n_pings=16,
                   rx_offsets=np.arange(8) * 0.04)
GRID = FrequencyGrid(f_start=20e3, f_stop=35e3, df=1e3)
PFM = GEOM.n_pings * GRID.s * len(GEOM.rx_offsets)  # 16 * 16 * 8 = 2048


def scene_points():
    # 16 x 16 nodes: range spacing just under c/(2*F*df), cross-range
    # spacing near the synthetic-aperture cell, centered on the track.
    x = R0 + (np.arange(16) - 7.5) * 0.045
    y_mid = GEOM.ping_positions().mean() + GEOM.rx_offsets.mean() / 2.0
    y = y_mid + (np.arange(16) - 7.5) * 0.35
    gx, gy = np.meshgrid(x, y, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


@functools.lru_cache(maxsize=1)
def default_model():
    return build_sensing_model(GEOM, scene_points(), GRID)


def one_point_scene(idx, amp=1.0 + 0.0j):
    pts = scene_points()
    amps = np.zeros(len(pts), dtype=complex)
    amps[idx] = amp
    return pts, amps


def width_at_half_power(values, spacing):
    """Full width where amplitude crosses peak/sqrt(2), linear interp."""
    a = np.abs(values)
    k = int(np.argmax(a))
    half = a[k] / np.sqrt(2.0)
    lo = k
    while lo > 0 and a[lo] > half:
        lo -= 1
    hi = k
    while hi < len(a) - 1 and a[hi] > half:
        hi += 1
    left = lo + (half - a[lo]) / (a[lo + 1] - a[lo])
    right = hi - (half - a[hi]) / (a[hi - 1] - a[hi])
    return (right - left) * spacing


# ---------------------------------------------------------------- geometry

def test_ping_positions_start_at_zero():
    assert GEOM.ping_positions()[0] == 0.0


def test_ping_position_advances_one_record_per_ping():
    g = SasGeometry(v_p=2.0, tau_rec=0.1, n_pings=8, rx_offsets=[0.0])
    assert g.ping_positions()[5] == pytest.approx(1.0, abs=1e-15)


def test_virtual_element_is_tx_rx_midpoint():
    g = SasGeometry(v_p=1.0, tau_rec=1.0, n_pings=1, rx_offsets=[0.10])
    assert g.virtual_elements()[0, 0] == pytest.approx(0.05, abs=1e-15)


def test_max_swath_from_recording_duration():
    g = SasGeometry(v_p=1.0, tau_rec=0.2, n_pings=1, rx_offsets=[0.0])
    assert g.r_max == pytest.approx(150.0)


def test_geometry_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SasGeometry(v_p=0.0, tau_rec=0.1, n_pings=1, rx_offsets=[0.0])
    with pytest.raises(ValueError):
        SasGeometry(v_p=1.0, tau_rec=0.1, n_pings=0, rx_offsets=[0.0])
    with pytest.raises(ValueError):
        SasGeometry(v_p=1.0, tau_rec=0.1, n_pings=1, rx_offsets=[])


def test_scene_shape_validation():
    shape = re.escape("points must be (N, 2) as (range, along-track), got ")
    with pytest.raises(ValueError, match=shape):
        simulate_measurements(GEOM, np.zeros((4, 3)), np.zeros(4, dtype=complex), GRID)
    with pytest.raises(ValueError, match="scattering vector length"):
        simulate_measurements(GEOM, np.zeros((4, 2)), np.zeros(3, dtype=complex), GRID)
    # shape[1] is 2, and at two pings of one receiver the stack broadcasts
    # into a distance table, so only the ndim test stops it
    with pytest.raises(ValueError, match=shape):
        SensingModel(SasGeometry(3.2, 0.05, 2, [0.0]), np.full((3, 2, 2), R0), [1e4])


# ------------------------------------------------------------------- model

def test_model_entries_are_unimodular():
    m = default_model()
    assert np.allclose(np.abs(m.tensor), 1.0, atol=1e-12)


def test_steering_phase_matches_geometric_oracle():
    m = default_model()
    pts = scene_points()
    p, f_idx, rx, n = 3, 11, 5, 77
    f = GRID.frequencies()[f_idx]
    y_v = GEOM.v_p * GEOM.tau_rec * p + (0.0 + GEOM.rx_offsets[rx]) / 2.0
    dist = np.hypot(pts[n, 0], pts[n, 1] - y_v)
    expect = np.exp(-1j * 2.0 * np.pi * f / C_S * 2.0 * dist)
    assert m.tensor[p, f_idx, rx, n] == pytest.approx(expect, abs=1e-12)


def test_model_rejects_grid_beyond_swath():
    pts = np.array([[40.0, 0.0]])  # r_max is 37.5 m here
    with pytest.raises(ValueError, match="swath"):
        build_sensing_model(GEOM, pts, GRID)


def test_adjoint_identity():
    m = default_model()
    rng = np.random.default_rng(7)
    s = rng.standard_normal(m.shape[3]) + 1j * rng.standard_normal(m.shape[3])
    d = rng.standard_normal(m.shape[:3]) + 1j * rng.standard_normal(m.shape[:3])
    lhs = np.vdot(m.forward(s), d)
    rhs = np.vdot(s, m.adjoint(d))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def _small_model():
    g = SasGeometry(v_p=2.0, tau_rec=0.02, n_pings=2, rx_offsets=[0.0, 0.03])
    pts = np.column_stack([np.full(6, 10.0), np.linspace(-1.0, 1.0, 6)])
    return SensingModel(g, pts, np.array([20e3, 30e3]))


@pytest.mark.parametrize("model", [default_model, _small_model])
def test_adjoint_matches_the_conjugated_tensor_bitwise(model):
    m = model()
    rng = np.random.default_rng(3)
    d = rng.standard_normal(m.shape[:3]) + 1j * rng.standard_normal(m.shape[:3])
    want = np.einsum("pfmn,pfm->n", np.conj(m.tensor), d)
    assert m.adjoint(d).tobytes() == want.tobytes()


def test_operator_bound_matches_dense_svd():
    m = _small_model()
    stacked = m.tensor.reshape(-1, 6)
    top = np.linalg.svd(stacked, compute_uv=False)[0] ** 2
    assert m.operator_bound() == pytest.approx(top, rel=1e-6)


@functools.lru_cache(maxsize=1)
def sas_recon_case():
    """sas-recon's data and model at its defaults, seed 1."""
    geom = SasGeometry(v_p=3.2, tau_rec=0.05, n_pings=8, rx_offsets=np.arange(4) * 0.04)
    grid = FrequencyGrid(f_start=20e3, f_stop=35e3, df=1.5e3)
    y_c = geom.ping_positions().mean() + geom.rx_offsets.mean() / 2.0
    gx = R0 + (np.arange(12) - 5.5) * 0.045
    gy = y_c + (np.arange(12) - 5.5) * 0.35
    pts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    d = simulate_measurements(geom, pts[[30, 95]], np.array([1.0, 0.7 * np.exp(0.8j)]), grid,
                              noise_sigma=0.1, seed=1)
    return d, build_sensing_model(geom, pts, grid)


def test_operator_bound_reads_low_at_sas_recon_defaults():
    # 30 power-iteration steps read ||A||^2 0.17% low, so sas_sparse's
    # step 1/lam exceeds 1/L by as much (ROADMAP item 14)
    _, m = sas_recon_case()
    top = np.linalg.svd(m.tensor.reshape(-1, m.shape[3]), compute_uv=False)[0] ** 2
    assert top * (1.0 - 1.8e-3) <= m.operator_bound() <= top * (1.0 + 1e-12)


# -------------------------------------------------------------- simulation

def test_empty_scene_measures_zero():
    d = simulate_measurements(GEOM, scene_points(), np.zeros(256, dtype=complex), GRID)
    assert d.shape == (16, 16, 8)
    assert np.all(d == 0)


def test_unit_scatterer_reads_out_steering_column():
    idx = 137
    d = simulate_measurements(GEOM, *one_point_scene(idx), GRID)
    assert np.allclose(d, default_model().tensor[..., idx], atol=1e-12)


def test_noise_is_seeded_and_sized():
    scene = scene_points(), np.zeros(256, dtype=complex)
    d1 = simulate_measurements(GEOM, *scene, GRID, noise_sigma=0.5, seed=3)
    d2 = simulate_measurements(GEOM, *scene, GRID, noise_sigma=0.5, seed=3)
    assert np.array_equal(d1, d2)
    # complex variance sigma^2 split across the parts
    assert np.var(d1.real) + np.var(d1.imag) == pytest.approx(0.25, rel=0.05)
    with pytest.raises(ValueError):
        simulate_measurements(GEOM, *scene, GRID, noise_sigma=-1.0)


def test_simulation_rejects_scene_beyond_swath():
    pts = np.array([[50.0, 0.0]])
    with pytest.raises(ValueError, match="swath"):
        simulate_measurements(GEOM, pts, np.ones(1, dtype=complex), GRID)


# --------------------------------------------------------------------- cbf

def test_cbf_peaks_exactly_on_true_node():
    idx = 90
    d = simulate_measurements(GEOM, *one_point_scene(idx), GRID)
    s_hat = default_model().adjoint(d)
    assert int(np.argmax(np.abs(s_hat))) == idx
    assert s_hat[idx] == pytest.approx(PFM, rel=1e-12)


def test_cbf_zero_data_zero_image():
    s_hat = default_model().adjoint(np.zeros((16, 16, 8), dtype=complex))
    assert np.all(s_hat == 0)


def test_cbf_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        default_model().adjoint(np.zeros((16, 16, 7), dtype=complex))


def test_cbf_width_tracks_transducer_size():
    # Cross-range cell collapses to D/2 regardless of range: sweep the
    # transducer size, size the synthetic aperture accordingly, and
    # measure the point response width on a fine single-frequency grid.
    f0 = 27.5e3
    lam = C_S / f0
    for d_t in (0.05, 0.10, 0.20):
        l_sa = lam * R0 / d_t
        n_pings = int(round(l_sa / (GEOM.v_p * GEOM.tau_rec)))
        g = SasGeometry(v_p=GEOM.v_p, tau_rec=GEOM.tau_rec,
                        n_pings=n_pings, rx_offsets=GEOM.rx_offsets)
        y_mid = g.ping_positions().mean() + g.rx_offsets.mean() / 2.0
        dy = d_t / 40.0
        y = y_mid + (np.arange(161) - 80) * dy
        pts = np.column_stack([np.full_like(y, R0), y])
        model = SensingModel(g, pts, [f0])
        d = model.forward((np.arange(161) == 80).astype(complex))
        width = width_at_half_power(model.adjoint(d), dy)
        assert width == pytest.approx(d_t / 2.0, rel=0.15)


def test_cbf_noise_floor_scales_with_stack_size():
    # With s = 0 the per-node backprojected power is sigma^2 * P * F * M;
    # check the Monte Carlo slope against ping count.
    sigma = 0.5
    pings = np.array([4, 8, 16])
    powers = []
    for i, n_p in enumerate(pings):
        g = SasGeometry(v_p=GEOM.v_p, tau_rec=GEOM.tau_rec,
                        n_pings=int(n_p), rx_offsets=GEOM.rx_offsets)
        pts = scene_points()
        model = SensingModel(g, pts, GRID.frequencies())
        amps = np.zeros(len(pts), dtype=complex)
        acc = []
        for draw in range(4):
            d = simulate_measurements(g, pts, amps, GRID, noise_sigma=sigma,
                                      seed=100 * i + draw)
            acc.append(np.mean(np.abs(model.adjoint(d)) ** 2))
        powers.append(np.mean(acc))
    powers = np.asarray(powers)
    expected = sigma ** 2 * pings * GRID.s * len(GEOM.rx_offsets)
    assert np.all(np.abs(powers / expected - 1.0) < 0.10)
    slope = np.polyfit(np.log(pings), np.log(powers), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


# ------------------------------------------------------------------- lasso

def test_ista_objective_monotone():
    idx = (40, 200)
    pts = scene_points()
    amps = np.zeros(256, dtype=complex)
    amps[idx[0]] = 1.0
    amps[idx[1]] = 0.7j
    d = simulate_measurements(GEOM, pts, amps, GRID)
    res = sas_sparse(d, default_model(), mu=0.05 * PFM, solver="ista",
                     max_iter=60, tol=0.0)
    diffs = np.diff(res.history)
    assert np.all(diffs <= 1e-9 * res.history[0])
    assert (res.stop, res.n_iter) == ("max_iter", 60)
    none = sas_sparse(d, default_model(), mu=0.05 * PFM, max_iter=0)
    assert (none.stop, none.n_iter) == ("max_iter", 0)
    assert np.all(none.x == 0)


@pytest.mark.parametrize("solver,on_support", [("ista", 5.6e-7), ("fista", 4.2e-6)])
def test_converged_stop_satisfies_the_lasso_kkt_condition(solver, on_support):
    # at sas-recon's defaults: A^H (A x - d) + mu x / |x| vanishes on the
    # support, and |A^H (A x - d)| <= mu off it (measured 0.67 mu)
    d, m = sas_recon_case()
    mu = 0.05 * lasso_mu_max(d, m)
    res = sas_sparse(d, m, mu, solver=solver, max_iter=300)
    assert res.stop == "converged"
    grad = m.adjoint(m.forward(res.x) - d)
    on = res.x != 0
    assert np.any(on)
    assert np.max(np.abs(grad[on] + mu * res.x[on] / np.abs(res.x[on]))) <= on_support * mu
    assert np.max(np.abs(grad[~on])) <= 0.67 * mu


def test_fista_no_worse_than_ista_at_equal_budget():
    d = simulate_measurements(GEOM, *one_point_scene(150, 1.2), GRID,
                              noise_sigma=0.3, seed=21)
    kw = dict(mu=0.05 * PFM, max_iter=60, tol=0.0)
    f_obj = sas_sparse(d, default_model(), solver="fista", **kw).history[-1]
    i_obj = sas_sparse(d, default_model(), solver="ista", **kw).history[-1]
    assert f_obj <= i_obj * (1.0 + 1e-9)


def test_mu_above_peak_correlation_shuts_everything_off():
    d = simulate_measurements(GEOM, *one_point_scene(100), GRID,
                              noise_sigma=0.2, seed=5)
    # independent evaluation of ||A^H d||_inf via explicit per-snapshot
    # matrix products, not the model's adjoint path
    m = default_model()
    g = np.zeros(256, dtype=complex)
    for p in range(16):
        for f in range(16):
            g += m.tensor[p, f].conj().T @ d[p, f]
    mu_max = np.max(np.abs(g))
    res = sas_sparse(d, m, mu=mu_max * 1.001, solver="ista", max_iter=50)
    assert np.all(res.x == 0)
    assert res.stop == "converged"
    assert res.n_iter < 50


def test_noiseless_single_point_recovers_within_shrinkage():
    idx, amp = 120, 0.8 * np.exp(0.3j)
    d = simulate_measurements(GEOM, *one_point_scene(idx, amp), GRID)
    mu = 0.05 * PFM * abs(amp)
    res = sas_sparse(d, default_model(), mu=mu, solver="fista",
                     max_iter=400, tol=1e-12)
    # separable-limit oracle: magnitude shrinks by mu / ||a||^2
    expect = amp * (1.0 - mu / (PFM * abs(amp)))
    assert res.x[idx] == pytest.approx(expect, rel=2e-2)
    others = np.abs(np.delete(res.x, idx))
    assert np.max(others) < 0.05 * abs(amp)


def test_support_recovery_k5_at_20db():
    pts = scene_points()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        while True:
            support = np.sort(rng.choice(256, size=5, replace=False))
            ij = np.column_stack(np.unravel_index(support, (16, 16)))
            d2 = np.abs(ij[:, None, :] - ij[None, :, :]).max(axis=2)
            if np.min(d2[np.triu_indices(5, 1)]) >= 2:
                break
        amps = np.zeros(256, dtype=complex)
        amps[support] = np.exp(2j * np.pi * rng.random(5))
        # 20 dB per-sample SNR: E|As|^2 = K for unit unimodular terms
        sigma = np.sqrt(5.0 / 100.0)
        d = simulate_measurements(GEOM, pts, amps, GRID,
                                  noise_sigma=sigma, seed=1000 + seed)
        res = sas_sparse(d, default_model(), mu=0.05 * PFM, solver="fista",
                         max_iter=300, tol=1e-10)
        top5 = np.sort(np.argsort(np.abs(res.x))[-5:])
        assert np.array_equal(top5, support), f"seed {seed}"


def test_sparse_input_validation():
    d = np.zeros((16, 16, 8), dtype=complex)
    m = default_model()
    with pytest.raises(ValueError):
        sas_sparse(d, m, mu=0.0)
    with pytest.raises(ValueError):
        sas_sparse(np.ones((16, 16, 8)), m, mu=1.0, solver="omp")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_sparse_rejects_non_finite_data(bad):
    d = np.ones((16, 16, 8), dtype=complex)
    d[3, 4, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        sas_sparse(d, default_model(), mu=1.0)


def test_mu_max_is_the_shutoff_point():
    d = simulate_measurements(GEOM, *one_point_scene(8), GRID)
    m = default_model()
    assert lasso_mu_max(d, m) == pytest.approx(np.max(np.abs(m.adjoint(d))))
    with pytest.raises(ValueError):
        lasso_mu_max(np.zeros((16, 16, 8)), m)


# ------------------------------------------------------------- resolutions

def test_resolution_numbers():
    r = sas_resolutions(delta_f=30e3, d_transducer=0.10, wavelength=0.05, r0=30.0)
    assert r["range_resolution_m"] == pytest.approx(0.025)
    assert r["sa_length_m"] == pytest.approx(15.0)
    assert r["cross_range_resolution_m"] == pytest.approx(0.05)


@settings(deadline=None, max_examples=50)
@given(d_t=st.floats(1e-3, 1.0), lam=st.floats(1e-3, 1.0),
       r0=st.floats(1.0, 1e4))
def test_cross_range_cell_is_half_the_transducer(d_t, lam, r0):
    r = sas_resolutions(1e4, d_t, lam, r0)
    assert r["cross_range_resolution_m"] == pytest.approx(d_t / 2.0, rel=1e-9)


def test_resolutions_reject_nonpositive():
    with pytest.raises(ValueError):
        sas_resolutions(0.0, 0.1, 0.05, 30.0)
