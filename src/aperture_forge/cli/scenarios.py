"""Scenario registry: canned simulate -> process -> measure pipelines.

Each scenario is a small, fast, end-to-end exercise of one part of the
toolkit.  A runner takes the seed, an artifact sink and the validated
parameters as keyword arguments, and returns a flat name -> value metrics
map; everything random flows from the explicit seed so a rerun of the
same config is byte-identical, artifacts included.  The runner's
keyword-only parameters are the scenario's config schema: each default
is the parameter's default, and its type is the type a config value must
have.
"""

import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import (
    Axis,
    C_LIGHT,
    ComplexGrid,
    Direction,
    FieldPoint,
    WaveParams,
    far_field_distance,
    plane_wave_field,
    wavenumber_spectrum,
)
from ..waveforms import (
    AdcModel,
    LfmChirp,
    adc_metrics,
    ambiguity_surface,
    lfm_ambiguity_closed_form,
    matched_filter,
    rmmse_compress,
    sample_lfm,
)
from ..sounding import (
    AnnealSchedule,
    ChannelRay,
    FrequencyGrid,
    SamplingLattice,
    array_factor,
    delay_slice,
    fib_weights,
    natural_beamwidth,
    optimize_sparse_lattice,
    padp,
    sampling_checks,
    spherical_padp,
    steering_vector,
    synthesize_sweep,
    two_ray_path_loss,
)
from ..sar import (
    CaponProblem,
    LinearPhaseSteering,
    PointScene,
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
    synthesize_capon_data,
    tomographic_reconstruct,
)
from ..sas import (
    C_SOUND,
    SasGeometry,
    SasScene,
    build_sensing_model,
    lasso_mu_max,
    sas_cbf,
    sas_resolutions,
    sas_sparse,
    simulate_measurements,
)
from ..inversion import (
    FpSystem,
    amplitude_flow,
    circular_pupil,
    coded_problem,
    error_reduction,
    fp_acquire,
    fp_recover,
    gaussian_problem,
    phase_invariant_dist,
    pr_forward,
    pupil_radius_bins,
    spectral_init,
    spectral_overlap,
)
from ..radiometry import (
    BaselineSet,
    BrightnessMap,
    invert_visibilities,
    measured_temperature,
    mrla_spacings,
    visibility_samples,
)
from .artifacts import DB_NOTE, ArtifactSink
from .config import CliError, MissingSeedError, RunConfig, ScenarioError


class Scenario:
    """A runner and whether it draws random numbers; ``params`` maps each
    keyword-only parameter of the runner to its default, in order."""

    def __init__(self, runner, stochastic):
        self.runner = runner
        self.stochastic = stochastic
        sig = inspect.signature(runner).parameters.values()
        self.params = {p.name: p.default for p in sig if p.kind is p.KEYWORD_ONLY}


@dataclass
class RunReport:
    scenario: str
    seed: int | None
    metrics: dict
    artifacts: dict
    defaulted: tuple
    runtime_s: float
    path: Path | None = field(default=None, init=False)

    def to_dict(self) -> dict:
        # wall clock stays out of the serialized report so identical
        # (config, seed) runs produce identical bytes
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "conventions": DB_NOTE,
            "defaulted": list(self.defaulted),
            "metrics": self.metrics,
            "artifacts": self.artifacts,
        }

    def write(self, path):
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
        self.path = Path(path)


def _clean(value):
    """JSON-safe scalar: numpy types down to plain python."""
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _require_seed(seed, why):
    if seed is None:
        raise MissingSeedError(f"{why} draws random numbers; an explicit seed is required")
    return seed


def _null_distance(line, i0, step):
    """Distance from the peak to the first local minimum along +index."""
    j = i0
    while j + 1 < line.size and line[j + 1] < line[j]:
        j += 1
    return (j - i0) * step


def _half_power_width(u, cut):
    peak = cut.max()
    above = np.where(cut >= peak / np.sqrt(2.0))[0]
    return float(u[above[-1]] - u[above[0]])


# --------------------------------------------------------------- sounding


def _run_sound_constants(seed, sink, *, f_start_hz=26.5e9, f_stop_hz=40e9, df_hz=10e6,
                         f_max_hz=40e9, tol=0.05, aperture_m=0.102):
    grid = FrequencyGrid(f_start_hz, f_stop_hz, df_hz)
    checks = sampling_checks(grid, f_max_hz, tol=tol)
    sink.table("tones", {"f_hz": grid.frequencies()})
    return {
        "s_tones": grid.s,
        "delay_resolution_ps": checks["delay_resolution_s"] * 1e12,
        "range_resolution_m": checks["range_resolution_m"],
        "t_dur_ns": checks["t_dur_s"] * 1e9,
        "max_range_m": checks["max_range_m"],
        "bandpass_ratio": f_max_hz / grid.bandwidth,
        "bandpass_q": checks["q"],
        "bandpass_ok": checks["bandpass_ok"],
        "far_field_m": far_field_distance(aperture_m, f_stop_hz),
    }


def _run_sound_padp(seed, sink, *, m=8, n=8, d_m=0.00545, f_start_hz=26.5e9,
                    f_stop_hz=27.5e9, df_hz=25e6, u1=0.3, v1=0.0, tau1_ns=10.0, amp1=1.0,
                    u2=-0.2, v2=0.1, tau2_ns=25.0, amp2=0.5, src_x_m=0.5, src_y_m=0.3,
                    src_z_m=6.0, src_amp=0.8, r_start_m=3.0, r_stop_m=9.0, r_step_m=0.25,
                    map_points=41, rho=0.4, phi_rad=2.0, noise_sigma=0.0):
    if noise_sigma > 0.0:
        _require_seed(seed, "sound-padp with noise_sigma > 0")
    lat = SamplingLattice.rectangular(m, n, d_m, d_m)
    grid = FrequencyGrid(f_start_hz, f_stop_hz, df_hz)
    src = (src_x_m, src_y_m, src_z_m)
    rays = [
        ChannelRay.plane_wave(u1, v1, tau1_ns * 1e-9, amp1),
        ChannelRay.plane_wave(u2, v2, tau2_ns * 1e-9, amp2),
        ChannelRay.point_source(src, src_amp),
    ]
    sweep = synthesize_sweep(rays, lat, grid, noise_sigma, seed)
    look = Direction.from_sine_space(u1, v1)
    pdp = padp(sweep, look)
    i_pk = int(np.argmax(pdp.power))

    # angle map at the strongest ray's delay bin (snapped to the lattice)
    n_bins = grid.s * grid.df
    tau_bin = round(tau1_ns * 1e-9 * n_bins) / n_bins
    uv = np.linspace(-0.8, 0.8, map_points)
    slc = delay_slice(sweep, uv, uv, tau_bin)

    src_range = float(np.linalg.norm(src))
    src_look = Direction.from_sine_space(src[0] / src_range, src[1] / src_range)
    sph = spherical_padp(sweep, src_look, r_start_m, r_stop_m, r_step_m)
    r_pk = int(np.unravel_index(np.argmax(sph.power), sph.power.shape)[0])

    # sanity check on the core field model: a sampled plane wave must
    # land at its own spatial frequency u*f/c
    f_probe = grid.f_stop
    wave = WaveParams.from_direction(f_probe, look)
    nx, nt = 32, 16
    t = np.arange(nt) / (4.0 * f_probe)
    s_xt = np.stack(
        [plane_wave_field(FieldPoint(i * d_m, 0.0, 0.0), t, wave) for i in range(nx)]
    )
    spec = wavenumber_spectrum(ComplexGrid(s_xt, Axis(0.0, d_m), Axis(0.0, t[1])))
    k_row = int(np.unravel_index(np.argmax(np.abs(spec.data)), spec.shape)[0])
    k_meas = spec.axis0_values()[k_row]

    gain = two_ray_path_loss(rho, phi_rad)
    sink.sweep("sweep", sweep)
    sink.table("pdp", {"delay_ns": pdp.delays * 1e9, "power": pdp.power})
    sink.image("delay_map", np.abs(slc), scale="field")
    return {
        "peak_delay_ns": pdp.delays[i_pk] * 1e9,
        "peak_power_db": 10.0 * np.log10(pdp.power[i_pk]),
        "sph_peak_range_m": sph.ranges[r_pk],
        "src_range_m": src_range,
        "field_k_pred_cyc_m": look.u * f_probe / C_LIGHT,
        "field_k_meas_cyc_m": k_meas,
        "two_ray_gain_db": 10.0 * np.log10(gain["beta_sq"]),
        "t_dur_ns": grid.t_dur * 1e9,
    }


def _run_sound_squint(seed, sink, *, m=16, n=16, d_m=0.00375, f_design_hz=26.51e9,
                      f_eval_hz=40e9, f_start_hz=26.5e9, f_stop_hz=40e9, u0=0.4, n_u=801,
                      map_tones=8, fib_m=8, fib_tones=11):
    lat = SamplingLattice.rectangular(m, n, d_m, d_m)
    look = Direction.from_sine_space(u0, 0.0)
    u = np.linspace(-0.1, u0 + 0.2, n_u)
    w_nb = np.conj(steering_vector(lat, look, f_eval_hz, "narrowband", f0=f_design_hz))
    w_td = np.conj(steering_vector(lat, look, f_eval_hz, "ttd"))
    cut_nb = np.abs(array_factor(lat, w_nb, u, 0.0, f_eval_hz))[:, 0]
    cut_td = np.abs(array_factor(lat, w_td, u, 0.0, f_eval_hz))[:, 0]

    # squint walk across the band: one pattern cut per sampled tone
    tones = np.linspace(f_design_hz, f_eval_hz, map_tones)
    walk = np.stack(
        [np.abs(array_factor(lat, w_nb, u, 0.0, f))[:, 0] for f in tones]
    )

    # per-tone equalized weights hold the beamwidth across the sweep
    lat8 = SamplingLattice.rectangular(fib_m, fib_m, d_m, d_m)
    span = f_stop_hz - f_start_hz
    fib_grid = FrequencyGrid(f_start_hz, f_stop_hz, span / (fib_tones - 1))
    target = 1.02 * natural_beamwidth(lat8, fib_grid.f_start)
    ws = fib_weights(lat8, fib_grid, Direction(0.0, 0.0), target)
    u_w = np.linspace(-0.45, 0.45, 601)
    widths = [
        _half_power_width(u_w, np.abs(array_factor(lat8, ws[i], u_w, 0.0, f))[:, 0])
        for i, f in enumerate(fib_grid.frequencies())
    ]

    sink.image("squint_walk", walk, scale="field")
    sink.table("patterns", {"u": u, "af_narrowband": cut_nb, "af_ttd": cut_td})
    return {
        "peak_u_narrowband": u[np.argmax(cut_nb)],
        "peak_u_ttd": u[np.argmax(cut_td)],
        "peak_u_predicted": u0 * f_design_hz / f_eval_hz,
        "natural_beamwidth_u": natural_beamwidth(lat, f_eval_hz),
        "fib_target_u": target,
        "fib_width_min_u": min(widths),
        "fib_width_max_u": max(widths),
    }


def _run_sound_sparse(seed, sink, *, m=16, n=16, d_m=0.00375, keep_fraction=0.5,
                      n_steps=1200, cool_every=60, f_eval_hz=40e9, uv_points=65,
                      psl_bound_db=-13.0):
    full = SamplingLattice.rectangular(m, n, d_m, d_m)
    sched = AnnealSchedule(n_steps=n_steps, cool_every=cool_every)
    res = optimize_sparse_lattice(full, keep_fraction, sched, seed, f_eval_hz, uv_points,
                                  psl_bound_db)
    uv = np.linspace(-1.0, 1.0, uv_points)
    pattern = np.abs(array_factor(res.lattice, np.ones(res.lattice.n_active),
                                  uv, uv, f_eval_hz))
    sink.image("mask", res.lattice.mask.reshape(full.shape) * 1.0, scale="power",
               dynamic_range_db=20.0)
    sink.image("pattern", pattern, scale="field")
    return {
        "psl_db": res.psl_db,
        "met_bound": res.met_bound,
        "n_active": res.lattice.n_active,
        "keep_fraction": keep_fraction,
        "alias_free": res.lattice.alias_free(C_LIGHT / f_eval_hz),
    }


# -------------------------------------------------------------------- sar


def _run_sar_point(seed, sink, *, v_mps=100.0, prf_hz=400.0, t_coh_s=0.16, r1_m=999.75,
                   wavelength_m=0.03, fc_hz=10e9, bandwidth_hz=150e6, duration_s=2.005e-6,
                   f_s_hz=600e6, d_antenna_m=0.6, n_x=64, n_r=64, oversample=4.0,
                   noise_sigma=0.0):
    if noise_sigma > 0.0:
        _require_seed(seed, "sar-point with noise_sigma > 0")
    geom = SarGeometry(v_mps, prf_hz, t_coh_s, r1_m, wavelength_m)
    chirp = LfmChirp(fc_hz, bandwidth_hz, duration_s, 1.0)
    scene = PointScene((Scatterer(0.0, r1_m),))
    ph = simulate_phase_history(scene, geom, chirp, f_s_hz, noise_sigma, seed)
    res = sar_resolutions(geom, chirp, d_antenna_m)

    dx = res["cross_range_resolution_m"] / oversample
    dr = res["range_resolution_m"] / oversample
    x_grid = (np.arange(n_x) - n_x // 2) * dx  # scatterer lands on a pixel
    r_grid = r1_m + (np.arange(n_r) - n_r // 2) * dr
    img = backproject(ph, x_grid, r_grid)
    mag = img.magnitude
    row, col = img.peak_index()
    r_cut = _null_distance(mag[row, :], col, dr)
    x_cut = _null_distance(mag[:, col], row, dx)

    def peak_offset(image):
        i, j = image.peak_index()
        x_pk = image.pixels.axis0_values()[i]
        r_pk = image.pixels.axis1_values()[j]
        return float(np.hypot(x_pk, r_pk - r1_m))

    err_wk = peak_offset(omega_k_focus(ph))
    err_cs = peak_offset(chirp_scaling_focus(ph, r1_m))

    f_ref = geom.prf / 4.0  # representative Doppler for the distortion report
    sink.image("image_bp", mag, scale="field")
    sink.table("cuts", {
        "range_offset_m": (np.arange(n_r) - n_r // 2) * dr,
        "range_cut": mag[row, :],
        "xr_offset_m": (np.arange(n_x) - n_x // 2) * dx,
        "xr_cut": mag[:, col],
    })
    return {
        "peak_pixel": f"({row}, {col})",
        "peak_x_m": x_grid[row],
        "peak_r_m": r_grid[col],
        "range_res_measured": r_cut,
        "xr_res_measured": x_cut,
        "range_res_theory": res["range_resolution_m"],
        "xr_res_theory": res["cross_range_resolution_m"],
        "peak_err_omegak_m": err_wk,
        "peak_err_cs_m": err_cs,
        "curvature_factor": curvature_factor(f_ref, geom.v, geom.wavelength),
        "range_distortion": range_distortion(f_ref, geom.v, geom.wavelength),
    }


def _run_sar_tomo(seed, sink, *, n_s=65, n_angles=90, radius_frac=0.35, s_step=1.0):
    axis = (np.arange(n_s) - (n_s - 1) / 2.0) * s_step
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    radius = radius_frac * (n_s / 2.0) * s_step
    phantom = (xx ** 2 + yy ** 2 <= radius ** 2).astype(float)
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    proj = project_image(phantom, angles, s_step)
    rec_p = tomographic_reconstruct(proj, angles, s_step, "polar-interp")
    rec_f = tomographic_reconstruct(proj, angles, s_step, "filtered-backprojection")
    span = phantom.max() - phantom.min()

    def rmse(rec):
        return float(np.sqrt(np.mean((rec - phantom) ** 2)) / span)

    a = rec_p - rec_p.mean()
    b = rec_f - rec_f.mean()
    ncc = float(np.sum(a * b) / np.sqrt(np.sum(a ** 2) * np.sum(b ** 2)))
    sink.image("phantom", phantom, scale="power", dynamic_range_db=30.0)
    sink.image("recon_polar", rec_p, scale="power", dynamic_range_db=30.0)
    sink.image("recon_fbp", rec_f, scale="power", dynamic_range_db=30.0)
    return {
        "rmse_polar_frac": rmse(rec_p),
        "rmse_fbp_frac": rmse(rec_f),
        "ncc_methods": ncc,
        "n_angles": n_angles,
    }


def _run_sar_capon(seed, sink, *, m=32, n=32, f_c_hz=10e9, d_u_m=0.1, d_f_hz=1e6,
                   r_ref_m=1000.0, src2_x_m=3.0, src2_y_m=-2.0, src2_amp=0.5,
                   noise_sigma=0.05, loading_rel=0.01, extent_m=8.0, n_grid=41):
    sources = ((0.0, 0.0, 1.0), (src2_x_m, src2_y_m, src2_amp))
    z = synthesize_capon_data(sources, m, n, f_c_hz, d_u_m, d_f_hz, r_ref_m, noise_sigma,
                              seed)
    loading = loading_rel * float(np.mean(np.abs(z) ** 2))
    prob = CaponProblem(z, LinearPhaseSteering(f_c_hz, d_u_m, d_f_hz, r_ref_m), loading)
    grid = np.linspace(-extent_m, extent_m, n_grid)
    images = {
        "capon": capon_image(prob, grid, grid),
        "conventional": conventional_image(prob, grid, grid),
        "matched": matched_image(prob, grid, grid),
    }
    metrics = {"loading": loading}
    for name, image in images.items():
        i, j = np.unravel_index(int(np.argmax(image)), image.shape)
        metrics[f"{name}_peak_x_m"] = grid[i]
        metrics[f"{name}_peak_y_m"] = grid[j]
        metrics[f"{name}_dr_db"] = 10.0 * np.log10(image.max() / np.median(image))
        sink.image(name, image, scale="power")
    return metrics


def _run_sar_speckle(seed, sink, *, n_pix=128, sigma_mu=0.3, window=7, block_level=5.0):
    y = np.ones((n_pix, n_pix))
    q = n_pix // 8
    y[3 * q:4 * q, 3 * q:4 * q] = block_level
    sp = apply_speckle(y, sigma_mu, seed)
    filt = lee_filter(sp.z, sigma_mu, window)
    flat = np.zeros((n_pix, n_pix), dtype=bool)
    flat[: 2 * q, :] = True  # far from the bright block
    metrics = {
        "var_in": float(np.var(sp.z[flat])),
        "var_out": float(np.var(filt[flat])),
        "var_ratio": float(np.var(filt[flat]) / np.var(sp.z[flat])),
        "mean_rel_err": float(abs(np.mean(filt[flat]) - 1.0)),
        "sigma_mu": sigma_mu,
    }
    sink.image("speckled", sp.z, scale="power", dynamic_range_db=30.0)
    sink.image("filtered", filt, scale="power", dynamic_range_db=30.0)
    return metrics


def _run_qsar_budget(seed, sink, *, power_w=5.0, gain=3162.0, wavelength_m=0.03, sigma0=0.1,
                     delta_r_m=1.0, standoff_m=1e5, t0_k=290.0, noise_figure=2.0, l_a_m=3.0,
                     v_mps=150.0, theta_deg=30.0, sweep_lo_db=-10.0, sweep_hi_db=15.0,
                     n_sweep=26):
    p = QsarParams(power_w, gain, wavelength_m, sigma0, delta_r_m, standoff_m, t0_k,
                   noise_figure, l_a_m, v_mps, theta_deg)
    qm = qsar_metrics(p)
    snr_db = np.linspace(sweep_lo_db, sweep_hi_db, n_sweep)
    sweep = [detection_error_probabilities(s, unit="db") for s in snr_db]
    sink.table("error_probabilities", {
        "snr_db": snr_db,
        "epsilon_c": np.array([e["epsilon_c"] for e in sweep]),
        "epsilon_q": np.array([e["epsilon_q"] for e in sweep]),
    })
    return qm


# -------------------------------------------------------------------- sas


def _run_sas_recon(seed, sink, *, v_p_mps=3.2, tau_rec_s=0.05, n_pings=8, n_rx=4,
                   rx_pitch_m=0.04, f_start_hz=20e3, f_stop_hz=35e3, df_hz=1.5e3,
                   grid_side=12, r0_m=30.0, dx_m=0.045, dy_m=0.35, target1=30, target2=95,
                   amp2=0.7, noise_sigma=0.1, mu_frac=0.05, solver="fista", max_iter=300,
                   d_transducer_m=0.04):
    geom = SasGeometry(v_p_mps, tau_rec_s, n_pings, np.arange(n_rx) * rx_pitch_m)
    grid = FrequencyGrid(f_start_hz, f_stop_hz, df_hz)
    y_c = geom.ping_positions().mean() + geom.rx_offsets.mean() / 2.0
    gx = r0_m + (np.arange(grid_side) - (grid_side - 1) / 2.0) * dx_m
    gy = y_c + (np.arange(grid_side) - (grid_side - 1) / 2.0) * dy_m
    pts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    scene = SasScene(pts[[target1, target2]], np.array([1.0, amp2 * np.exp(0.8j)]))
    d = simulate_measurements(geom, scene, grid, noise_sigma, seed)
    model = build_sensing_model(geom, pts, grid)
    cbf = sas_cbf(d, model)
    i_cbf = int(np.argmax(np.abs(cbf)))

    mu_max = lasso_mu_max(d, model)
    mu = mu_frac * mu_max
    sp = sas_sparse(d, model, mu, solver=solver, max_iter=max_iter)
    top2 = set(np.argsort(np.abs(sp.s))[-2:].tolist())

    lam = C_SOUND / (0.5 * (grid.f_start + grid.f_stop))
    res = sas_resolutions(grid.bandwidth, d_transducer_m, lam, r0_m)
    sink.image("cbf", np.abs(cbf).reshape(grid_side, grid_side), scale="field")
    sink.image("sparse", np.abs(sp.s).reshape(grid_side, grid_side), scale="field")
    return {
        "cbf_peak_index": i_cbf,
        "cbf_peak_ok": i_cbf == target1,
        "support_ok": top2 == {target1, target2},
        "mu_used": mu,
        "mu_max": mu_max,
        "objective_final": sp.objective[-1],
        "converged": sp.converged,
        "n_iter": sp.n_iter,
        "range_resolution_m": res["range_resolution_m"],
        "sa_length_m": res["sa_length_m"],
        "cross_range_resolution_m": res["cross_range_resolution_m"],
    }


# -------------------------------------------------------------- inversion


def _run_pr_recover(seed, sink, *, n=64, oversampling=8.0, problem_kind="gaussian",
                    n_masks=6, steps=2500, er_iters=100, noise_sigma=0.0):
    s_prob, s_truth, s_noise = np.random.SeedSequence(seed).spawn(3)
    if problem_kind == "coded":
        problem = coded_problem(n, n_masks, s_prob)
    else:
        problem = gaussian_problem(int(round(oversampling * n)), n, s_prob)
    rng = np.random.default_rng(s_truth)
    x0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    y = pr_forward(x0, problem, noise_sigma, s_noise)
    init = spectral_init(y, problem)
    flow = amplitude_flow(y, problem, init, steps=steps)
    er = error_reduction(y, problem, init, iters=er_iters)
    resid = np.asarray(er.residuals)
    sink.table("flow_objective", {
        "step": np.arange(len(flow.objective)),
        "objective": flow.objective,
    })
    sink.table("er_residual", {
        "iteration": np.arange(resid.size),
        "residual": resid,
    })
    return {
        "m": problem.m,
        "dist_init": phase_invariant_dist(init, x0),
        "dist_final": phase_invariant_dist(flow.x, x0),
        "recovered": phase_invariant_dist(flow.x, x0) < 1e-4,
        "objective_final": flow.objective[-1],
        "diverged": flow.diverged,
        "er_residual_final": resid[-1],
        "er_monotone": bool(np.all(np.diff(resid) <= 1e-10 * (resid[0] + 1.0))),
    }


def _run_fp_demo(seed, sink, *, n=96, na=0.25, wavelength_m=0.5e-6, dx_m=4.1666667e-7,
                 led_spacing=12, grid_side=3, sweeps=30, sigma_px=10.0):
    radius = pupil_radius_bins(na, wavelength_m, dx_m, n)
    steps = (np.arange(grid_side) - grid_side // 2) * led_spacing
    offsets = np.array([(i, j) for i in steps for j in steps])

    ix = np.arange(n) - n / 2
    gx, gy = np.meshgrid(ix, ix, indexing="ij")
    amp = np.exp(-(gx ** 2 + gy ** 2) / (2.0 * sigma_px ** 2))
    rng = np.random.default_rng(seed)
    ph = rng.standard_normal((n, n))
    ph = np.real(np.fft.ifft2(np.fft.fft2(ph) * circular_pupil(n, 3)))
    obj = amp * np.exp(1j * 0.8 * ph / np.max(np.abs(ph)))

    system = FpSystem(np.fft.fft2(obj, norm="ortho"), circular_pupil(n, radius),
                      offsets)
    frames = [fp_acquire(system, k) for k in range(system.n_leds)]
    rec = fp_recover(frames, system, sweeps=sweeps)
    cov = rec.coverage
    err = phase_invariant_dist(rec.spectrum[cov], system.object_spectrum[cov])
    sink.image("truth_mag", np.abs(obj), scale="field", dynamic_range_db=40.0)
    sink.image("recovered_mag", np.abs(rec.object_estimate), scale="field",
               dynamic_range_db=40.0)
    sink.image("frame0", frames[0], scale="power", dynamic_range_db=40.0)
    return {
        "pupil_radius_bins": radius,
        "n_leds": system.n_leds,
        "spectral_overlap": spectral_overlap(system),
        "coverage_frac": float(cov.mean()),
        "band_recovery_err": err,
        "unreliable": rec.unreliable,
    }


# ------------------------------------------------------------- radiometry


def _run_radiometry_roundtrip(seed, sink, *, n_u=17, du=0.45, sigma_l=0.15, n_theta=120,
                              n_phi=240, t_peak_k=100.0, clip_negative=True, n_mrla=4):
    bmap = BrightnessMap.from_function(
        lambda th, ph: t_peak_k * np.exp(-np.sin(th) ** 2 / (2.0 * sigma_l ** 2)),
        n_theta, n_phi,
    )
    baselines = BaselineSet.from_lattice(n_u, n_u, du)
    vis = visibility_samples(bmap, baselines)
    image = invert_visibilities(vis, baselines, clip_negative=clip_negative)
    ll, mm = np.meshgrid(image.l, image.m, indexing="ij")
    rr = ll ** 2 + mm ** 2
    disc = rr < 1.0
    ref = np.where(disc, t_peak_k * np.exp(-rr / (2.0 * sigma_l ** 2)), 0.0)
    err = float(np.linalg.norm(image.values[disc] - ref[disc])
                / np.linalg.norm(ref[disc]))
    spacings = mrla_spacings(n_mrla)
    sink.image("brightness", bmap.values, scale="power", dynamic_range_db=40.0)
    sink.image("recovered", np.maximum(image.values, 0.0), scale="power",
               dynamic_range_db=40.0)
    sink.table("visibilities", {
        "u": baselines.uv[:, 0],
        "v": baselines.uv[:, 1],
        "re": vis.real,
        "im": vis.imag,
    })
    return {
        "t_measured_k": measured_temperature(bmap),
        "v_zero_k": float(vis[(n_u // 2) * n_u + n_u // 2].real),
        "rel_l2_err": err,
        "negative_fraction": image.info["negative_fraction"],
        "imag_residual": image.info["imag_residual"],
        "mrla_spacings": ",".join(str(s) for s in spacings),
    }


# -------------------------------------------------------------- waveforms


def _run_waveform_ambiguity(seed, sink, *, fc_hz=1e9, bandwidth_hz=10e6,
                            duration_s=10e-6, f_s_hz=25e6, n_delay=101, n_doppler=101,
                            n_bins=200, sep_bins=12, ratio_db=40.0, rmmse_iterations=3,
                            adc_bits=12):
    chirp = LfmChirp(fc_hz, bandwidth_hz, duration_s, 1.0)
    env = sample_lfm(chirp, f_s_hz)
    t_max = 0.8 * chirp.duration
    f_max = 1.5 / chirp.duration
    delays = np.linspace(-t_max, t_max, n_delay)
    dopplers = np.linspace(-f_max, f_max, n_doppler)
    surf = ambiguity_surface(np.conj(env), delays, dopplers, f_s_hz)
    want = lfm_ambiguity_closed_form(chirp, surf.delays[:, None],
                                     surf.dopplers[None, :])
    max_err = float(np.max(np.abs(surf.values - want)))
    origin = ambiguity_surface(np.conj(env), [0.0], [0.0], f_s_hz).values[0, 0]

    mf = np.abs(matched_filter(env, env))
    peak_idx = int(np.argmax(mf))
    guard = int(np.ceil(4.0 * f_s_hz / chirp.bandwidth))  # skip the mainlobe
    side = np.delete(mf, np.arange(peak_idx - guard, peak_idx + guard + 1))
    mf_psl_db = 20.0 * np.log10(side.max() / mf[peak_idx])

    # two-point compression: the weak return sits under the matched
    # filter's sidelobes but the adaptive weights dig it out
    refl = np.zeros(n_bins, dtype=complex)
    strong = n_bins // 3
    weak = strong + sep_bins
    weak_amp = 10.0 ** (-ratio_db / 20.0)
    refl[strong] = 1.0
    refl[weak] = weak_amp
    y = np.convolve(refl, env)
    rc = rmmse_compress(y, env, iterations=rmmse_iterations)
    mfp = np.abs(np.correlate(y, env, "valid")) / np.sum(np.abs(env) ** 2)
    # local residual: 10 bins either side of the weak return, with both
    # returns and their immediate shoulders excluded
    resid = np.abs(rc[weak - 10:weak + 11]).copy()
    for target in (strong, weak):
        lo = max(target - 2 - (weak - 10), 0)
        hi = min(target + 3 - (weak - 10), resid.size)
        if lo < hi:
            resid[lo:hi] = 0.0
    margin = 20.0 * np.log10(np.abs(rc[weak]) / max(resid.max(), 1e-30))

    adc = adc_metrics(AdcModel(adc_bits, 1.0, f_s_hz))
    sink.image("ambiguity", surf.values, scale="power")
    sink.table("compression", {
        "bin": np.arange(n_bins),
        "matched_abs": mfp,
        "rmmse_abs": np.abs(rc),
    })
    return {
        "ambiguity_peak": float(origin),
        "ambiguity_max_abs_err": max_err,
        "ambiguity_volume": surf.volume(),
        "mf_psl_db": float(mf_psl_db),
        "rmmse_weak_db": 20.0 * np.log10(np.abs(rc[weak])),
        "rmmse_weak_true_db": -ratio_db,
        "rmmse_weak_margin_db": float(margin),
        "mf_weak_db": 20.0 * np.log10(mfp[weak]),
        "adc_snr_ideal_db": adc["snr_ideal_db"],
    }


# ---------------------------------------------------------------- registry


REGISTRY = {
    "sound-constants": Scenario(_run_sound_constants, False),
    "sound-padp": Scenario(_run_sound_padp, False),
    "sound-squint": Scenario(_run_sound_squint, False),
    "sound-sparse-lattice": Scenario(_run_sound_sparse, True),
    "sar-point": Scenario(_run_sar_point, False),
    "sar-tomo": Scenario(_run_sar_tomo, False),
    "sar-capon": Scenario(_run_sar_capon, True),
    "sar-speckle": Scenario(_run_sar_speckle, True),
    "sas-recon": Scenario(_run_sas_recon, True),
    "pr-recover": Scenario(_run_pr_recover, True),
    "fp-demo": Scenario(_run_fp_demo, True),
    "radiometry-roundtrip": Scenario(_run_radiometry_roundtrip, False),
    "waveform-ambiguity": Scenario(_run_waveform_ambiguity, False),
    "qsar-budget": Scenario(_run_qsar_budget, False),
}


def run(config: RunConfig) -> RunReport:
    """Execute one configured scenario and write its report.

    Artifacts land in the config's output directory; the returned report
    carries the metrics, the artifact manifest with checksums, and the
    wall-clock runtime (kept off disk so reruns stay byte-identical).  A
    NaN or infinite metric raises ScenarioError naming it, and no report
    is written.
    """
    scen = REGISTRY[config.scenario]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sink = ArtifactSink(out, config.emit_images, config.emit_csv)
    t0 = time.perf_counter()
    try:
        metrics = scen.runner(config.seed, sink, **config.params)
    except CliError:
        raise
    except Exception as exc:
        raise ScenarioError(f"{config.scenario}: {exc}") from exc
    metrics = {k: _clean(v) for k, v in metrics.items()}
    bad = [k for k, v in sorted(metrics.items())
           if isinstance(v, float) and not np.isfinite(v)]
    if bad:
        raise ScenarioError(f"{config.scenario}: non-finite metrics: {', '.join(bad)}")
    report = RunReport(
        scenario=config.scenario,
        seed=config.seed,
        metrics=metrics,
        artifacts=sink.manifest(),
        defaulted=config.defaulted,
        runtime_s=time.perf_counter() - t0,
    )
    report.write(out / "report.json")
    return report
