"""Scenario registry: canned simulate -> process -> measure pipelines.

Each scenario is a small, fast, end-to-end exercise of one part of the
toolkit.  A runner takes the validated parameter block, the seed and an
artifact sink, and returns a flat name -> value metrics map; everything
random flows from the explicit seed so a rerun of the same config is
byte-identical, artifacts included.
"""

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


@dataclass(frozen=True)
class Scenario:
    name: str
    stochastic: bool
    modules: tuple
    params: dict  # name -> (type, default)
    runner: object


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


def _run_sound_constants(params, seed, sink):
    grid = FrequencyGrid(params["f_start_hz"], params["f_stop_hz"], params["df_hz"])
    checks = sampling_checks(grid, params["f_max_hz"], tol=params["tol"])
    sink.table("tones", {"f_hz": grid.frequencies()})
    return {
        "s_tones": grid.s,
        "delay_resolution_ps": checks["delay_resolution_s"] * 1e12,
        "range_resolution_m": checks["range_resolution_m"],
        "t_dur_ns": checks["t_dur_s"] * 1e9,
        "max_range_m": checks["max_range_m"],
        "bandpass_ratio": params["f_max_hz"] / grid.bandwidth,
        "bandpass_q": checks["q"],
        "bandpass_ok": checks["bandpass_ok"],
        "far_field_m": far_field_distance(params["aperture_m"], params["f_stop_hz"]),
    }


def _run_sound_padp(params, seed, sink):
    if params["noise_sigma"] > 0.0:
        _require_seed(seed, "sound-padp with noise_sigma > 0")
    d = params["d_m"]
    lat = SamplingLattice.rectangular(params["m"], params["n"], d, d)
    grid = FrequencyGrid(params["f_start_hz"], params["f_stop_hz"], params["df_hz"])
    src = (params["src_x_m"], params["src_y_m"], params["src_z_m"])
    rays = [
        ChannelRay.plane_wave(params["u1"], params["v1"], params["tau1_ns"] * 1e-9,
                              params["amp1"]),
        ChannelRay.plane_wave(params["u2"], params["v2"], params["tau2_ns"] * 1e-9,
                              params["amp2"]),
        ChannelRay.point_source(src, params["src_amp"]),
    ]
    sweep = synthesize_sweep(rays, lat, grid, params["noise_sigma"], seed)
    look = Direction.from_sine_space(params["u1"], params["v1"])
    pdp = padp(sweep, look)
    i_pk = int(np.argmax(pdp.power))

    # angle map at the strongest ray's delay bin (snapped to the lattice)
    n_bins = grid.s * grid.df
    tau_bin = round(params["tau1_ns"] * 1e-9 * n_bins) / n_bins
    uv = np.linspace(-0.8, 0.8, params["map_points"])
    slc = delay_slice(sweep, uv, uv, tau_bin)

    src_range = float(np.linalg.norm(src))
    src_look = Direction.from_sine_space(src[0] / src_range, src[1] / src_range)
    sph = spherical_padp(sweep, src_look, params["r_start_m"], params["r_stop_m"],
                         params["r_step_m"])
    r_pk = int(np.unravel_index(np.argmax(sph.power), sph.power.shape)[0])

    # sanity check on the core field model: a sampled plane wave must
    # land at its own spatial frequency u*f/c
    f_probe = grid.f_stop
    wave = WaveParams.from_direction(f_probe, look)
    nx, nt = 32, 16
    t = np.arange(nt) / (4.0 * f_probe)
    s_xt = np.stack(
        [plane_wave_field(FieldPoint(i * d, 0.0, 0.0), t, wave) for i in range(nx)]
    )
    spec = wavenumber_spectrum(ComplexGrid(s_xt, Axis(0.0, d, "m"),
                                           Axis(0.0, t[1], "s")))
    k_row = int(np.unravel_index(np.argmax(np.abs(spec.data)), spec.shape)[0])
    k_meas = spec.axis0_values()[k_row]

    gain = two_ray_path_loss(params["rho"], params["phi_rad"])
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


def _run_sound_squint(params, seed, sink):
    d = params["d_m"]
    lat = SamplingLattice.rectangular(params["m"], params["n"], d, d)
    look = Direction.from_sine_space(params["u0"], 0.0)
    f0, f_hi = params["f_design_hz"], params["f_eval_hz"]
    u = np.linspace(-0.1, params["u0"] + 0.2, params["n_u"])
    w_nb = np.conj(steering_vector(lat, look, f_hi, "narrowband", f0=f0))
    w_td = np.conj(steering_vector(lat, look, f_hi, "ttd"))
    cut_nb = np.abs(array_factor(lat, w_nb, u, 0.0, f_hi))[:, 0]
    cut_td = np.abs(array_factor(lat, w_td, u, 0.0, f_hi))[:, 0]

    # squint walk across the band: one pattern cut per sampled tone
    tones = np.linspace(f0, f_hi, params["map_tones"])
    walk = np.stack(
        [np.abs(array_factor(lat, w_nb, u, 0.0, f))[:, 0] for f in tones]
    )

    # per-tone equalized weights hold the beamwidth across the sweep
    lat8 = SamplingLattice.rectangular(params["fib_m"], params["fib_m"], d, d)
    span = params["f_stop_hz"] - params["f_start_hz"]
    fib_grid = FrequencyGrid(params["f_start_hz"], params["f_stop_hz"],
                             span / (params["fib_tones"] - 1))
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
        "peak_u_predicted": params["u0"] * f0 / f_hi,
        "natural_beamwidth_u": natural_beamwidth(lat, f_hi),
        "fib_target_u": target,
        "fib_width_min_u": min(widths),
        "fib_width_max_u": max(widths),
    }


def _run_sound_sparse(params, seed, sink):
    d = params["d_m"]
    full = SamplingLattice.rectangular(params["m"], params["n"], d, d)
    sched = AnnealSchedule(n_steps=params["n_steps"],
                           cool_every=params["cool_every"])
    res = optimize_sparse_lattice(full, params["keep_fraction"], sched, seed,
                                  params["f_eval_hz"], params["uv_points"],
                                  params["psl_bound_db"])
    uv = np.linspace(-1.0, 1.0, params["uv_points"])
    pattern = np.abs(array_factor(res.lattice, np.ones(res.lattice.n_active),
                                  uv, uv, params["f_eval_hz"]))
    sink.image("mask", res.lattice.mask.reshape(full.shape) * 1.0, scale="power",
               dynamic_range_db=20.0)
    sink.image("pattern", pattern, scale="field")
    return {
        "psl_db": res.psl_db,
        "met_bound": res.met_bound,
        "n_active": res.lattice.n_active,
        "keep_fraction": params["keep_fraction"],
        "alias_free": res.lattice.alias_free(C_LIGHT / params["f_eval_hz"]),
    }


# -------------------------------------------------------------------- sar


def _run_sar_point(params, seed, sink):
    if params["noise_sigma"] > 0.0:
        _require_seed(seed, "sar-point with noise_sigma > 0")
    geom = SarGeometry(params["v_mps"], params["prf_hz"], params["t_coh_s"],
                       params["r1_m"], params["wavelength_m"])
    chirp = LfmChirp(params["fc_hz"], params["bandwidth_hz"], params["duration_s"], 1.0)
    scene = PointScene((Scatterer(0.0, params["r1_m"]),))
    ph = simulate_phase_history(scene, geom, chirp, params["f_s_hz"],
                                params["noise_sigma"], seed)
    res = sar_resolutions(geom, chirp, params["d_antenna_m"])

    over = params["oversample"]
    n_x, n_r = params["n_x"], params["n_r"]
    dx = res["cross_range_resolution_m"] / over
    dr = res["range_resolution_m"] / over
    x_grid = (np.arange(n_x) - n_x // 2) * dx  # scatterer lands on a pixel
    r_grid = params["r1_m"] + (np.arange(n_r) - n_r // 2) * dr
    img = backproject(ph, x_grid, r_grid)
    mag = img.magnitude
    row, col = img.peak_index()
    r_cut = _null_distance(mag[row, :], col, dr)
    x_cut = _null_distance(mag[:, col], row, dx)

    def peak_offset(image):
        i, j = image.peak_index()
        x_pk = image.pixels.axis0_values()[i]
        r_pk = image.pixels.axis1_values()[j]
        return float(np.hypot(x_pk, r_pk - params["r1_m"]))

    err_wk = peak_offset(omega_k_focus(ph))
    err_cs = peak_offset(chirp_scaling_focus(ph, params["r1_m"]))

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


def _run_sar_tomo(params, seed, sink):
    n_s = params["n_s"]
    step = params["s_step"]
    axis = (np.arange(n_s) - (n_s - 1) / 2.0) * step
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    radius = params["radius_frac"] * (n_s / 2.0) * step
    phantom = (xx ** 2 + yy ** 2 <= radius ** 2).astype(float)
    angles = np.linspace(0.0, np.pi, params["n_angles"], endpoint=False)
    proj = project_image(phantom, angles, step)
    rec_p = tomographic_reconstruct(proj, angles, step, "polar-interp")
    rec_f = tomographic_reconstruct(proj, angles, step, "filtered-backprojection")
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
        "n_angles": params["n_angles"],
    }


def _run_sar_capon(params, seed, sink):
    sources = ((0.0, 0.0, 1.0), (params["src2_x_m"], params["src2_y_m"],
                                 params["src2_amp"]))
    z = synthesize_capon_data(sources, params["m"], params["n"], params["f_c_hz"],
                              params["d_u_m"], params["d_f_hz"], params["r_ref_m"],
                              params["noise_sigma"], seed)
    loading = params["loading_rel"] * float(np.mean(np.abs(z) ** 2))
    prob = CaponProblem(z, LinearPhaseSteering(params["f_c_hz"], params["d_u_m"],
                                               params["d_f_hz"], params["r_ref_m"]),
                        loading)
    half = params["extent_m"]
    grid = np.linspace(-half, half, params["n_grid"])
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


def _run_sar_speckle(params, seed, sink):
    n = params["n_pix"]
    y = np.ones((n, n))
    q = n // 8
    y[3 * q:4 * q, 3 * q:4 * q] = params["block_level"]
    sp = apply_speckle(y, params["sigma_mu"], seed)
    filt = lee_filter(sp.z, params["sigma_mu"], params["window"])
    flat = np.zeros((n, n), dtype=bool)
    flat[: 2 * q, :] = True  # far from the bright block
    metrics = {
        "var_in": float(np.var(sp.z[flat])),
        "var_out": float(np.var(filt[flat])),
        "var_ratio": float(np.var(filt[flat]) / np.var(sp.z[flat])),
        "mean_rel_err": float(abs(np.mean(filt[flat]) - 1.0)),
        "sigma_mu": params["sigma_mu"],
    }
    sink.image("speckled", sp.z, scale="power", dynamic_range_db=30.0)
    sink.image("filtered", filt, scale="power", dynamic_range_db=30.0)
    return metrics


def _run_qsar_budget(params, seed, sink):
    p = QsarParams(params["power_w"], params["gain"], params["wavelength_m"],
                   params["sigma0"], params["delta_r_m"], params["standoff_m"],
                   params["t0_k"], params["noise_figure"], params["l_a_m"],
                   params["v_mps"], params["theta_deg"])
    qm = qsar_metrics(p)
    snr_db = np.linspace(params["sweep_lo_db"], params["sweep_hi_db"],
                         params["n_sweep"])
    sweep = [detection_error_probabilities(s, unit="db") for s in snr_db]
    sink.table("error_probabilities", {
        "snr_db": snr_db,
        "epsilon_c": np.array([e["epsilon_c"] for e in sweep]),
        "epsilon_q": np.array([e["epsilon_q"] for e in sweep]),
    })
    return qm


# -------------------------------------------------------------------- sas


def _run_sas_recon(params, seed, sink):
    geom = SasGeometry(params["v_p_mps"], params["tau_rec_s"], params["n_pings"],
                       np.arange(params["n_rx"]) * params["rx_pitch_m"])
    grid = FrequencyGrid(params["f_start_hz"], params["f_stop_hz"], params["df_hz"])
    side = params["grid_side"]
    r0 = params["r0_m"]
    y_c = geom.ping_positions().mean() + geom.rx_offsets.mean() / 2.0
    gx = r0 + (np.arange(side) - (side - 1) / 2.0) * params["dx_m"]
    gy = y_c + (np.arange(side) - (side - 1) / 2.0) * params["dy_m"]
    pts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    i1, i2 = params["target1"], params["target2"]
    scene = SasScene(pts[[i1, i2]],
                     np.array([1.0, params["amp2"] * np.exp(0.8j)]))
    d = simulate_measurements(geom, scene, grid, params["noise_sigma"], seed)
    model = build_sensing_model(geom, pts, grid)
    cbf = sas_cbf(d, model)
    i_cbf = int(np.argmax(np.abs(cbf)))

    mu_max = lasso_mu_max(d, model)
    mu = params["mu_frac"] * mu_max
    sp = sas_sparse(d, model, mu, solver=params["solver"],
                    max_iter=params["max_iter"])
    top2 = set(np.argsort(np.abs(sp.s))[-2:].tolist())

    lam = C_SOUND / (0.5 * (grid.f_start + grid.f_stop))
    res = sas_resolutions(grid.bandwidth, params["d_transducer_m"], lam, r0)
    sink.image("cbf", np.abs(cbf).reshape(side, side), scale="field")
    sink.image("sparse", np.abs(sp.s).reshape(side, side), scale="field")
    return {
        "cbf_peak_index": i_cbf,
        "cbf_peak_ok": i_cbf == i1,
        "support_ok": top2 == {i1, i2},
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


def _run_pr_recover(params, seed, sink):
    s_prob, s_truth, s_noise = np.random.SeedSequence(seed).spawn(3)
    n = params["n"]
    if params["problem_kind"] == "coded":
        problem = coded_problem(n, params["n_masks"], s_prob)
    else:
        problem = gaussian_problem(int(round(params["oversampling"] * n)), n, s_prob)
    rng = np.random.default_rng(s_truth)
    x0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    y = pr_forward(x0, problem, params["noise_sigma"], s_noise)
    init = spectral_init(y, problem)
    flow = amplitude_flow(y, problem, init, steps=params["steps"])
    er = error_reduction(y, problem, init, iters=params["er_iters"])
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


def _run_fp_demo(params, seed, sink):
    n = params["n"]
    radius = pupil_radius_bins(params["na"], params["wavelength_m"],
                               params["dx_m"], n)
    sp = params["led_spacing"]
    g = params["grid_side"]
    steps = (np.arange(g) - g // 2) * sp
    offsets = np.array([(i, j) for i in steps for j in steps])

    ix = np.arange(n) - n / 2
    gx, gy = np.meshgrid(ix, ix, indexing="ij")
    amp = np.exp(-(gx ** 2 + gy ** 2) / (2.0 * params["sigma_px"] ** 2))
    rng = np.random.default_rng(seed)
    ph = rng.standard_normal((n, n))
    ph = np.real(np.fft.ifft2(np.fft.fft2(ph) * circular_pupil(n, 3)))
    obj = amp * np.exp(1j * 0.8 * ph / np.max(np.abs(ph)))

    system = FpSystem(np.fft.fft2(obj, norm="ortho"), circular_pupil(n, radius),
                      offsets)
    frames = [fp_acquire(system, k) for k in range(system.n_leds)]
    rec = fp_recover(frames, system, sweeps=params["sweeps"])
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


def _run_radiometry_roundtrip(params, seed, sink):
    t_pk = params["t_peak_k"]
    sig = params["sigma_l"]
    bmap = BrightnessMap.from_function(
        lambda th, ph: t_pk * np.exp(-np.sin(th) ** 2 / (2.0 * sig ** 2)),
        params["n_theta"], params["n_phi"],
    )
    n_u = params["n_u"]
    baselines = BaselineSet.from_lattice(n_u, n_u, params["du"])
    vis = visibility_samples(bmap, baselines)
    image = invert_visibilities(vis, baselines,
                                clip_negative=params["clip_negative"])
    ll, mm = np.meshgrid(image.l, image.m, indexing="ij")
    rr = ll ** 2 + mm ** 2
    disc = rr < 1.0
    ref = np.where(disc, t_pk * np.exp(-rr / (2.0 * sig ** 2)), 0.0)
    err = float(np.linalg.norm(image.values[disc] - ref[disc])
                / np.linalg.norm(ref[disc]))
    zero_row = int(np.where((baselines.uv == 0.0).all(axis=1))[0][0])
    spacings = mrla_spacings(params["n_mrla"])
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
        "v_zero_k": float(vis[zero_row].real),
        "rel_l2_err": err,
        "negative_fraction": image.info["negative_fraction"],
        "imag_residual": image.info["imag_residual"],
        "mrla_spacings": ",".join(str(s) for s in spacings),
    }


# -------------------------------------------------------------- waveforms


def _run_waveform_ambiguity(params, seed, sink):
    chirp = LfmChirp(params["fc_hz"], params["bandwidth_hz"], params["duration_s"], 1.0)
    f_s = params["f_s_hz"]
    env = sample_lfm(chirp, f_s)
    t_max = 0.8 * chirp.duration
    f_max = 1.5 / chirp.duration
    delays = np.linspace(-t_max, t_max, params["n_delay"])
    dopplers = np.linspace(-f_max, f_max, params["n_doppler"])
    surf = ambiguity_surface(np.conj(env), delays, dopplers, f_s)
    want = lfm_ambiguity_closed_form(chirp, surf.delays[:, None],
                                     surf.dopplers[None, :])
    max_err = float(np.max(np.abs(surf.values - want)))
    origin = ambiguity_surface(np.conj(env), [0.0], [0.0], f_s).values[0, 0]

    mf = np.abs(matched_filter(env, env))
    peak_idx = int(np.argmax(mf))
    guard = int(np.ceil(4.0 * f_s / chirp.bandwidth))  # skip the mainlobe
    side = np.delete(mf, np.arange(peak_idx - guard, peak_idx + guard + 1))
    mf_psl_db = 20.0 * np.log10(side.max() / mf[peak_idx])

    # two-point compression: the weak return sits under the matched
    # filter's sidelobes but the adaptive weights dig it out
    n_bins = params["n_bins"]
    refl = np.zeros(n_bins, dtype=complex)
    strong = n_bins // 3
    weak = strong + params["sep_bins"]
    weak_amp = 10.0 ** (-params["ratio_db"] / 20.0)
    refl[strong] = 1.0
    refl[weak] = weak_amp
    y = np.convolve(refl, env)
    rc = rmmse_compress(y, env, iterations=params["rmmse_iterations"])
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

    adc = adc_metrics(AdcModel(params["adc_bits"], 1.0, f_s))
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
        "rmmse_weak_true_db": -params["ratio_db"],
        "rmmse_weak_margin_db": float(margin),
        "mf_weak_db": 20.0 * np.log10(mfp[weak]),
        "adc_snr_ideal_db": adc["snr_ideal_db"],
    }


# ---------------------------------------------------------------- registry


def _scenario(name, runner, stochastic, modules, **params):
    return Scenario(name, stochastic, modules, params, runner)


REGISTRY = {
    s.name: s
    for s in (
        _scenario(
            "sound-constants", _run_sound_constants, False, ("core", "sounding"),
            f_start_hz=(float, 26.5e9), f_stop_hz=(float, 40e9),
            df_hz=(float, 10e6), f_max_hz=(float, 40e9), tol=(float, 0.05),
            aperture_m=(float, 0.102),
        ),
        _scenario(
            "sound-padp", _run_sound_padp, False, ("core", "sounding"),
            m=(int, 8), n=(int, 8), d_m=(float, 0.00545),
            f_start_hz=(float, 26.5e9), f_stop_hz=(float, 27.5e9),
            df_hz=(float, 25e6),
            u1=(float, 0.3), v1=(float, 0.0), tau1_ns=(float, 10.0),
            amp1=(float, 1.0),
            u2=(float, -0.2), v2=(float, 0.1), tau2_ns=(float, 25.0),
            amp2=(float, 0.5),
            src_x_m=(float, 0.5), src_y_m=(float, 0.3), src_z_m=(float, 6.0),
            src_amp=(float, 0.8),
            r_start_m=(float, 3.0), r_stop_m=(float, 9.0), r_step_m=(float, 0.25),
            map_points=(int, 41), rho=(float, 0.4), phi_rad=(float, 2.0),
            noise_sigma=(float, 0.0),
        ),
        _scenario(
            "sound-squint", _run_sound_squint, False, ("core", "sounding"),
            m=(int, 16), n=(int, 16), d_m=(float, 0.00375),
            f_design_hz=(float, 26.51e9), f_eval_hz=(float, 40e9),
            f_start_hz=(float, 26.5e9), f_stop_hz=(float, 40e9),
            u0=(float, 0.4), n_u=(int, 801), map_tones=(int, 8),
            fib_m=(int, 8), fib_tones=(int, 11),
        ),
        _scenario(
            "sound-sparse-lattice", _run_sound_sparse, True, ("core", "sounding"),
            m=(int, 16), n=(int, 16), d_m=(float, 0.00375),
            keep_fraction=(float, 0.5), n_steps=(int, 1200), cool_every=(int, 60),
            f_eval_hz=(float, 40e9), uv_points=(int, 65),
            psl_bound_db=(float, -13.0),
        ),
        _scenario(
            "sar-point", _run_sar_point, False, ("core", "waveforms", "sar"),
            v_mps=(float, 100.0), prf_hz=(float, 400.0), t_coh_s=(float, 0.16),
            r1_m=(float, 999.75), wavelength_m=(float, 0.03),
            fc_hz=(float, 10e9), bandwidth_hz=(float, 150e6),
            duration_s=(float, 2.005e-6), f_s_hz=(float, 600e6),
            d_antenna_m=(float, 0.6), n_x=(int, 64), n_r=(int, 64),
            oversample=(float, 4.0), noise_sigma=(float, 0.0),
        ),
        _scenario(
            "sar-tomo", _run_sar_tomo, False, ("sar",),
            n_s=(int, 65), n_angles=(int, 90), radius_frac=(float, 0.35),
            s_step=(float, 1.0),
        ),
        _scenario(
            "sar-capon", _run_sar_capon, True, ("core", "sar"),
            m=(int, 32), n=(int, 32), f_c_hz=(float, 10e9), d_u_m=(float, 0.1),
            d_f_hz=(float, 1e6), r_ref_m=(float, 1000.0),
            src2_x_m=(float, 3.0), src2_y_m=(float, -2.0), src2_amp=(float, 0.5),
            noise_sigma=(float, 0.05), loading_rel=(float, 0.01),
            extent_m=(float, 8.0), n_grid=(int, 41),
        ),
        _scenario(
            "sar-speckle", _run_sar_speckle, True, ("sar",),
            n_pix=(int, 128), sigma_mu=(float, 0.3), window=(int, 7),
            block_level=(float, 5.0),
        ),
        _scenario(
            "sas-recon", _run_sas_recon, True, ("core", "sounding", "sas"),
            v_p_mps=(float, 3.2), tau_rec_s=(float, 0.05), n_pings=(int, 8),
            n_rx=(int, 4), rx_pitch_m=(float, 0.04),
            f_start_hz=(float, 20e3), f_stop_hz=(float, 35e3), df_hz=(float, 1.5e3),
            grid_side=(int, 12), r0_m=(float, 30.0), dx_m=(float, 0.045),
            dy_m=(float, 0.35), target1=(int, 30), target2=(int, 95),
            amp2=(float, 0.7), noise_sigma=(float, 0.1), mu_frac=(float, 0.05),
            solver=(str, "fista"), max_iter=(int, 300),
            d_transducer_m=(float, 0.04),
        ),
        _scenario(
            "pr-recover", _run_pr_recover, True, ("inversion",),
            n=(int, 64), oversampling=(float, 8.0), problem_kind=(str, "gaussian"),
            n_masks=(int, 6), steps=(int, 2500), er_iters=(int, 100),
            noise_sigma=(float, 0.0),
        ),
        _scenario(
            "fp-demo", _run_fp_demo, True, ("inversion",),
            n=(int, 96), na=(float, 0.25), wavelength_m=(float, 0.5e-6),
            dx_m=(float, 4.1666667e-7), led_spacing=(int, 12), grid_side=(int, 3),
            sweeps=(int, 30), sigma_px=(float, 10.0),
        ),
        _scenario(
            "radiometry-roundtrip", _run_radiometry_roundtrip, False,
            ("radiometry",),
            n_u=(int, 17), du=(float, 0.45), sigma_l=(float, 0.15),
            n_theta=(int, 120), n_phi=(int, 240), t_peak_k=(float, 100.0),
            clip_negative=(bool, True), n_mrla=(int, 4),
        ),
        _scenario(
            "waveform-ambiguity", _run_waveform_ambiguity, False,
            ("core", "waveforms"),
            fc_hz=(float, 1e9), bandwidth_hz=(float, 10e6),
            duration_s=(float, 10e-6), f_s_hz=(float, 25e6),
            n_delay=(int, 101), n_doppler=(int, 101), n_bins=(int, 200),
            sep_bins=(int, 12), ratio_db=(float, 40.0),
            rmmse_iterations=(int, 3), adc_bits=(int, 12),
        ),
        _scenario(
            "qsar-budget", _run_qsar_budget, False, ("sar",),
            power_w=(float, 5.0), gain=(float, 3162.0), wavelength_m=(float, 0.03),
            sigma0=(float, 0.1), delta_r_m=(float, 1.0), standoff_m=(float, 1e5),
            t0_k=(float, 290.0), noise_figure=(float, 2.0), l_a_m=(float, 3.0),
            v_mps=(float, 150.0), theta_deg=(float, 30.0),
            sweep_lo_db=(float, -10.0), sweep_hi_db=(float, 15.0),
            n_sweep=(int, 26),
        ),
    )
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
        metrics = scen.runner(config.params, config.seed, sink)
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
