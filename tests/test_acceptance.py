"""Release gate: one end-to-end check per shipped guarantee.

Every test prints a single PASS/FAIL line through the capture bypass, so
a plain ``pytest tests/test_acceptance.py`` doubles as the checklist.
Stated runtime budgets are enforced with wall-clock asserts.
"""

import itertools
import json
import time

import numpy as np

from aperture_forge.core import C_LIGHT, Direction, far_field_distance
from aperture_forge.waveforms import (
    LfmChirp,
    adc_snr_ideal_db,
    ambiguity_surface,
    lfm_ambiguity_closed_form,
    rmmse_compress,
    sample_lfm,
)
from aperture_forge.sounding import (
    FrequencyGrid,
    SamplingLattice,
    array_factor,
    optimize_sparse_lattice,
    sampling_checks,
    steering_vector,
)
from aperture_forge.sar import (
    SarGeometry,
    Scatterer,
    apply_speckle,
    backproject,
    chirp_scaling_focus,
    detection_error_probabilities,
    lee_filter,
    omega_k_focus,
    project_image,
    simulate_phase_history,
    tomographic_reconstruct,
)
from aperture_forge.sas import (
    SasGeometry,
    SensingModel,
    build_sensing_model,
    sas_sparse,
    simulate_measurements,
)
from aperture_forge.inversion import (
    af_gradient,
    af_objective,
    amplitude_flow,
    error_reduction,
    gaussian_problem,
    phase_invariant_dist,
    pr_forward,
    spectral_init,
)
from aperture_forge.radiometry import (
    BaselineSet,
    BrightnessMap,
    invert_visibilities,
    mrla_spacings,
    visibility_samples,
)
from aperture_forge.cli.config import parse_config
from aperture_forge.cli.scenarios import REGISTRY, run


def _verdict(capsys, label, failures, detail=""):
    ok = not failures
    line = f"{'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, f"{label}: " + "; ".join(failures)


def _half_power_width(axis, profile):
    """-3 dB (amplitude) width with linear interpolation at the crossings."""
    a = np.abs(profile)
    k = int(np.argmax(a))
    half = a[k] / np.sqrt(2.0)
    i = k
    while a[i] > half:
        i -= 1
    lo = axis[i] + (axis[i + 1] - axis[i]) * (half - a[i]) / (a[i + 1] - a[i])
    j = k
    while a[j] > half:
        j += 1
    hi = axis[j - 1] + (axis[j] - axis[j - 1]) * (a[j - 1] - half) / (a[j - 1] - a[j])
    return hi - lo


def _first_null_distance(axis, profile, k=None):
    """Distance from the peak to the first local minimum to its right."""
    a = np.abs(profile)
    k = int(np.argmax(a)) if k is None else k
    j = k
    while j + 1 < a.size and a[j + 1] < a[j]:
        j += 1
    return axis[j] - axis[k]


def _random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def test_01_sounding_grid_constants(capsys):
    t0 = time.perf_counter()
    grid = FrequencyGrid(26.5e9, 40e9, 10e6)
    checks = sampling_checks(grid, f_max=40e9)
    elapsed = time.perf_counter() - t0
    b = 13.5e9
    failures = []
    if grid.s != 1351:
        failures.append(f"s = {grid.s} != 1351")
    if abs(checks["delay_resolution_s"] - 1.0 / b) > 1e-6 / b:
        failures.append(f"dtau = {checks['delay_resolution_s']:.6e}")
    if abs(checks["range_resolution_m"] - C_LIGHT / b) > 1e-6 * C_LIGHT / b:
        failures.append(f"dr = {checks['range_resolution_m']:.6e}")
    if abs(checks["t_dur_s"] - 1e-7) > 1e-13:
        failures.append(f"t_dur = {checks['t_dur_s']:.6e}")
    if abs(checks["max_range_m"] - C_LIGHT * 1e-7) > 1e-6 * C_LIGHT * 1e-7:
        failures.append(f"max_range = {checks['max_range_m']:.6f}")
    ratio = 40e9 / grid.bandwidth
    if abs(ratio - 40.0 / 13.5) > 1e-6 * ratio:
        failures.append(f"bandpass ratio = {ratio:.6f}")
    if not checks["bandpass_ok"]:
        failures.append("bandpass sampling rejected")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _verdict(capsys, "01 sounding grid constants", failures,
             f"s=1351, dtau=74.074 ps, T=100 ns, ratio=2.963, {elapsed:.3f} s")


def test_02_array_beamwidth_and_peak(capsys):
    t0 = time.perf_counter()
    lam = C_LIGHT / 40e9
    lat = SamplingLattice(35, 35, lam / 2.0, lam / 2.0)
    u = np.linspace(-0.06, 0.06, 4801)
    cut = np.abs(array_factor(lat, np.ones(lat.n_active), u, 0.0, 40e9))[:, 0]
    width_u = _half_power_width(u, cut)
    width_deg = np.degrees(2.0 * np.arcsin(width_u / 2.0))
    peak_db = 10.0 * np.log10(cut.max())
    elapsed = time.perf_counter() - t0
    failures = []
    if abs(width_deg - 2.9) > 0.2:
        failures.append(f"beamwidth {width_deg:.3f} deg not 2.9 +- 0.2")
    if abs(peak_db - 30.88) > 0.01:
        failures.append(f"peak {peak_db:.3f} dB not 30.88 +- 0.01")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    _verdict(capsys, "02 uniform 35x35 beam", failures,
             f"width={width_deg:.2f} deg, peak={peak_db:.2f} dB, {elapsed:.2f} s")


def test_03_far_field_distance(capsys):
    d = far_field_distance(0.102, 40e9)
    failures = []
    if abs(d - 2.77) > 0.01:
        failures.append(f"far field {d:.4f} m not 2.77 +- 0.01")
    _verdict(capsys, "03 far-field distance", failures, f"2D^2/lambda = {d:.3f} m")


def test_04_lfm_ambiguity_closed_form(capsys):
    t0 = time.perf_counter()
    chirp = LfmChirp(fc=0.0, bandwidth=1e6, duration=10e-6)
    f_s = 80e6
    env = np.conj(sample_lfm(chirp, f_s))  # falling sweep: the ridge is f_d = -K tau
    delays = np.linspace(-8e-6, 8e-6, 201)
    dopplers = np.linspace(-2e5, 2e5, 201)
    surf = ambiguity_surface(env, delays, dopplers, f_s)
    want = lfm_ambiguity_closed_form(chirp, surf.delays[:, None],
                                     surf.dopplers[None, :])
    max_err = float(np.max(np.abs(surf.values - want)))
    origin = float(ambiguity_surface(env, [0.0], [0.0], f_s).values[0, 0])
    elapsed = time.perf_counter() - t0
    failures = []
    if max_err >= 1e-3:
        failures.append(f"max abs error {max_err:.2e} >= 1e-3")
    if abs(origin - 1.0) > 1e-9:
        failures.append(f"origin {origin!r} != 1 +- 1e-9")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    _verdict(capsys, "04 LFM ambiguity vs closed form", failures,
             f"201x201 max err {max_err:.1e}, origin {origin:.12f}, {elapsed:.2f} s")


def test_05_sar_point_target_suite(capsys):
    t0 = time.perf_counter()
    chirp = LfmChirp(fc=10e9, bandwidth=150e6, duration=2.005e-6)
    law_r = C_LIGHT / (2.0 * chirp.bandwidth)
    failures = []

    # peak lands in the exact cell of an on-grid target
    f_s = 200e6
    cell = C_LIGHT / (2.0 * f_s)
    r0 = round(1000.0 / cell) * cell
    geom = SarGeometry(v=100.0, prf=400.0, t_coh=0.16, r1=r0, wavelength=0.03)
    law_x = geom.wavelength * r0 / (2.0 * geom.aperture_length)
    ph = simulate_phase_history([Scatterer(0.0, r0)], geom, chirp, f_s)
    x_grid = (np.arange(33) - 16) * (law_x / 4.0)
    r_grid = r0 + (np.arange(33) - 16) * cell
    if backproject(ph, x_grid, r_grid).peak_index() != (16, 16):
        failures.append("backprojection peak off the true cell")

    # peak-to-first-null distances against the bandwidth and aperture laws,
    # on a fine fast-time lattice so range nulls are resolvable
    f_s6 = 600e6
    cell6 = C_LIGHT / (2.0 * f_s6)
    r6 = round(1000.0 / cell6) * cell6
    geom6 = SarGeometry(v=100.0, prf=400.0, t_coh=0.16, r1=r6, wavelength=0.03)
    ph6 = simulate_phase_history([Scatterer(0.0, r6)], geom6, chirp, f_s6)
    r_fine = r6 + np.linspace(-2.0 * law_r, 2.0 * law_r, 321)
    cut_r = np.abs(backproject(ph6, np.array([0.0, 0.5]), r_fine).pixels[0, :])
    dr_meas = _first_null_distance(r_fine, cut_r, k=160)
    if abs(dr_meas - law_r) > 0.1 * law_r:
        failures.append(f"range null {dr_meas:.3f} m vs law {law_r:.3f} m")
    x_fine = np.linspace(-2.0 * law_x, 2.0 * law_x, 321)
    cut_x = np.abs(backproject(ph6, x_fine, np.array([r6, r6 + cell6])).pixels[:, 0])
    dx_meas = _first_null_distance(x_fine, cut_x, k=160)
    if abs(dx_meas - law_x) > 0.1 * law_x:
        failures.append(f"cross-range null {dx_meas:.3f} m vs law {law_x:.3f} m")

    # wavenumber and chirp-scaling focusers agree with backprojection
    scene5 = [
        Scatterer(0.0, r0),
        Scatterer(-3.0, r0 - 11.3, reflectivity=0.8),
        Scatterer(2.5, r0 + 7.7, reflectivity=1.2),
        Scatterer(5.0, r0 - 4.2, reflectivity=0.6 + 0.4j),
        Scatterer(-4.5, r0 + 13.9, reflectivity=1.0j),
    ]
    ph5 = simulate_phase_history(scene5, geom, chirp, f_s)
    for name, img in (("omega-k", omega_k_focus(ph5)),
                      ("chirp scaling", chirp_scaling_focus(ph5))):
        x = img.x
        z = img.r
        zi = int(np.argmin(np.abs(z - (r0 - 20.0))))
        sel = slice(zi, zi + 56)
        bp = backproject(ph5, x, z[sel])
        a = np.abs(bp.pixels) - np.abs(bp.pixels).mean()
        b = np.abs(img.pixels[:, sel]) - np.abs(img.pixels[:, sel]).mean()
        rho = float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b)))
        if rho < 0.9:
            failures.append(f"{name} correlation {rho:.3f} < 0.9")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s >= 60 s")
    _verdict(capsys, "05 SAR point-target suite", failures,
             f"dR={dr_meas:.3f}/{law_r:.3f} m, dx={dx_meas:.3f}/{law_x:.3f} m, "
             f"{elapsed:.1f} s")


def test_06_tomography_phantom(capsys):
    n_s = 65
    axis = (np.arange(n_s) - (n_s - 1) / 2.0)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    phantom = (xx ** 2 + yy ** 2 <= 11.0 ** 2).astype(float)
    angles = np.linspace(0.0, np.pi, 180, endpoint=False)
    proj = project_image(phantom, angles, 1.0)
    rec_p = tomographic_reconstruct(proj, angles, 1.0, "polar-interp")
    rec_f = tomographic_reconstruct(proj, angles, 1.0, "filtered-backprojection")
    span = phantom.max() - phantom.min()
    rmse_p = float(np.sqrt(np.mean((rec_p - phantom) ** 2))) / span
    rmse_f = float(np.sqrt(np.mean((rec_f - phantom) ** 2))) / span
    a = rec_p - rec_p.mean()
    b = rec_f - rec_f.mean()
    rho = float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b)))
    failures = []
    if rmse_p >= 0.10:
        failures.append(f"polar RMSE {rmse_p:.3f} >= 10%")
    if rmse_f >= 0.10:
        failures.append(f"FBP RMSE {rmse_f:.3f} >= 10%")
    if rho < 0.95:
        failures.append(f"method correlation {rho:.3f} < 0.95")
    _verdict(capsys, "06 tomography disc phantom", failures,
             f"RMSE polar {rmse_p:.3f}, FBP {rmse_f:.3f}, rho {rho:.3f}")


def test_07_beam_squint_law(capsys):
    lam_hi = C_LIGHT / 40e9
    lat = SamplingLattice(16, 16, lam_hi / 2.0, lam_hi / 2.0)
    look = Direction(0.4, 0.0)
    f0, f_hi = 26.51e9, 40e9
    failures = []

    u = np.linspace(0.2, 0.33, 521)
    w = np.conj(steering_vector(lat, look, f0))  # narrowband: phases frozen at f0
    cut = np.abs(array_factor(lat, w, u, 0.0, f_hi))[:, 0]
    u_peak = u[np.argmax(cut)]
    u_law = 0.4 * f0 / f_hi
    du = u[1] - u[0]
    if abs(u_peak - u_law) > du + 1e-12:
        failures.append(f"squinted peak {u_peak:.5f} vs {u_law:.5f} (cell {du:.5f})")

    grid = FrequencyGrid(26.5e9, 40e9, 10e6)
    u2 = 0.4 + (np.arange(81) - 40) * 0.001
    moved = 0
    for f in grid.frequencies():
        wt = np.conj(steering_vector(lat, look, f))
        cut_t = np.abs(array_factor(lat, wt, u2, 0.0, f))[:, 0]
        if int(np.argmax(cut_t)) != 40:
            moved += 1
    if moved:
        failures.append(f"TTD peak moved on {moved} of {grid.s} tones")
    _verdict(capsys, "07 beam squint law", failures,
             f"26.51->40 GHz peak {u_peak:.4f} (law {u_law:.4f}), "
             f"TTD stationary on {grid.s} tones")


def test_08_sparse_lattice_annealer(capsys):
    t0 = time.perf_counter()
    lam = C_LIGHT / 40e9
    d = lam / 2.0
    full = SamplingLattice(35, 35, d, d)
    _, psl_db = optimize_sparse_lattice(full, keep_fraction=0.5, seed=1)
    failures = []
    if psl_db > -13.0:
        failures.append(f"PSL {psl_db:.2f} dB > -13 dB")

    # control: periodic 2x column decimation folds a full grating lobe in
    keep = (np.round(full.positions[:, 0] / d).astype(int) % 2) == 0
    dec = full.with_mask(keep)
    ends = np.abs(array_factor(dec, np.ones(dec.n_active),
                               np.array([0.0, 1.0]), 0.0, 40e9))[:, 0]
    grating_db = 20.0 * np.log10(ends[1] / ends[0])
    if grating_db < -1.0:
        failures.append(f"decimation grating lobe {grating_db:.2f} dB < -1 dB")
    elapsed = time.perf_counter() - t0
    _verdict(capsys, "08 sparse lattice annealer", failures,
             f"PSL {psl_db:.2f} dB at 50% of 35x35, grating "
             f"{grating_db:+.2f} dB, {elapsed:.1f} s")


def test_09_sas_suite(capsys):
    t0 = time.perf_counter()
    geom = SasGeometry(v_p=3.2, tau_rec=0.05, n_pings=16,
                       rx_offsets=np.arange(8) * 0.04)
    grid = FrequencyGrid(f_start=20e3, f_stop=35e3, df=1e3)
    pfm = geom.n_pings * grid.s * len(geom.rx_offsets)
    r0 = 30.0
    x = r0 + (np.arange(16) - 7.5) * 0.045
    y_mid = geom.ping_positions().mean() + geom.rx_offsets.mean() / 2.0
    y = y_mid + (np.arange(16) - 7.5) * 0.35
    gx, gy = np.meshgrid(x, y, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    model = build_sensing_model(geom, pts, grid)
    failures = []

    amps = np.zeros(256, dtype=complex)
    amps[120] = 1.0
    d = simulate_measurements(geom, pts, amps, grid)
    if int(np.argmax(np.abs(model.adjoint(d)))) != 120:
        failures.append("CBF argmax off the scatterer node")

    amps2 = np.zeros(256, dtype=complex)
    amps2[40], amps2[200] = 1.0, 0.7j
    d2 = simulate_measurements(geom, pts, amps2, grid)
    ista = sas_sparse(d2, model, mu=0.05 * pfm, solver="ista", max_iter=60,
                      tol=0.0)
    if not np.all(np.diff(ista.history) <= 1e-9 * ista.history[0]):
        failures.append("ISTA objective not monotone")

    bad_seeds = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        while True:
            support = np.sort(rng.choice(256, size=5, replace=False))
            ij = np.column_stack(np.unravel_index(support, (16, 16)))
            sep = np.abs(ij[:, None, :] - ij[None, :, :]).max(axis=2)
            if np.min(sep[np.triu_indices(5, 1)]) >= 2:
                break
        a5 = np.zeros(256, dtype=complex)
        a5[support] = np.exp(2j * np.pi * rng.random(5))
        dk = simulate_measurements(geom, pts, a5, grid,
                                   noise_sigma=np.sqrt(5.0 / 100.0),
                                   seed=1000 + seed)
        got = sas_sparse(dk, model, mu=0.05 * pfm, solver="fista",
                         max_iter=300, tol=1e-10)
        if not np.array_equal(np.sort(np.argsort(np.abs(got.x))[-5:]), support):
            bad_seeds.append(seed)
    if bad_seeds:
        failures.append(f"support recovery failed on seeds {bad_seeds}")

    # cross-range PSF width against the D/2 law
    f0 = 27.5e3
    d_t = 0.10
    lam = 1500.0 / f0
    n_pings = int(round(lam * r0 / d_t / (geom.v_p * geom.tau_rec)))
    g = SasGeometry(v_p=geom.v_p, tau_rec=geom.tau_rec, n_pings=n_pings,
                    rx_offsets=geom.rx_offsets)
    mid = g.ping_positions().mean() + g.rx_offsets.mean() / 2.0
    dy = d_t / 40.0
    y_psf = mid + (np.arange(161) - 80) * dy
    psf_pts = np.column_stack([np.full_like(y_psf, r0), y_psf])
    psf_model = SensingModel(g, psf_pts, [f0])
    d_psf = psf_model.forward((np.arange(161) == 80).astype(complex))
    width = _half_power_width(y_psf, np.abs(psf_model.adjoint(d_psf)))
    if abs(width - d_t / 2.0) > 0.15 * (d_t / 2.0):
        failures.append(f"PSF width {width:.4f} m vs D/2 = {d_t / 2:.4f} m")

    elapsed = time.perf_counter() - t0
    _verdict(capsys, "09 SAS suite", failures,
             f"CBF exact, ISTA monotone, 5/5 supports, "
             f"PSF {width * 100:.2f} cm vs {d_t * 50:.2f} cm, {elapsed:.1f} s")


def test_10_phase_retrieval(capsys):
    t0 = time.perf_counter()
    n = 64
    failures = []
    worst = 0.0
    for seed in range(20):
        x = _random_signal(n, 300 + seed)
        prob = gaussian_problem(8 * n, n, seed=400 + seed)
        y = pr_forward(x, prob)
        res = amplitude_flow(y, prob, spectral_init(y, prob), steps=1500)
        dist = phase_invariant_dist(res.x, x)
        worst = max(worst, dist)
        if res.stop == "diverged" or dist >= 1e-5:
            failures.append(f"seed {seed}: dist {dist:.2e}")

    rng = np.random.default_rng(13)
    prob = gaussian_problem(80, 16, seed=13)
    y = pr_forward(_random_signal(16, 14), prob)
    eps = 1e-6
    for _ in range(10):
        xg = _random_signal(16, int(rng.integers(1 << 31)))
        g = af_gradient(xg, y, prob)
        j = int(rng.integers(16))
        e = np.zeros(16, dtype=complex)
        e[j] = 1.0
        fd_re = (af_objective(xg + eps * e, y, prob)
                 - af_objective(xg - eps * e, y, prob)) / (2 * eps)
        fd_im = (af_objective(xg + 1j * eps * e, y, prob)
                 - af_objective(xg - 1j * eps * e, y, prob)) / (2 * eps)
        scale = max(abs(fd_re), abs(fd_im), 1e-12)
        if (abs(g[j].real - fd_re) / scale >= 1e-5
                or abs(g[j].imag - fd_im) / scale >= 1e-5):
            failures.append(f"gradient mismatch at coordinate {j}")

    x = _random_signal(n, 77)
    prob = gaussian_problem(8 * n, n, seed=78)
    y = pr_forward(x, prob)
    er = error_reduction(y, prob, spectral_init(y, prob), iters=150)
    resid = er.history
    if not np.all(np.diff(resid) <= 1e-9 * (resid[0] + 1.0)):
        failures.append("error-reduction residual not monotone")

    elapsed = time.perf_counter() - t0
    _verdict(capsys, "10 phase retrieval", failures,
             f"20/20 seeds, worst dist {worst:.1e}, FD gradient ok, "
             f"ER monotone, {elapsed:.1f} s")


def test_11_radiometry(capsys):
    failures = []

    # one lit cell at boresight: every baseline sees the same magnitude
    vals = np.zeros((400, 1))
    vals[0, 0] = 1.0e4
    point = BrightnessMap(vals)
    baselines = BaselineSet(9, 0.5)
    mags = np.abs(visibility_samples(point, baselines))
    spread = float((mags.max() - mags.min()) / mags.mean())
    if spread > 1e-9:
        failures.append(f"|V| spread {spread:.2e} > 1e-9")

    sig = 0.15
    bmap = BrightnessMap.from_function(
        lambda th, ph: 100.0 * np.exp(-np.sin(th) ** 2 / (2.0 * sig ** 2)),
        n_theta=120, n_phi=240)
    bl = BaselineSet(17, 0.45)
    image = invert_visibilities(visibility_samples(bmap, bl), bl)
    ll, mm = np.meshgrid(image.l, image.l, indexing="ij")
    rr = ll ** 2 + mm ** 2
    disc = rr < 1.0
    ref = 100.0 * np.exp(-rr / (2.0 * sig ** 2))
    err = float(np.linalg.norm(image.values[disc] - ref[disc])
                / np.linalg.norm(ref[disc]))
    if err >= 0.05:
        failures.append(f"round-trip L2 error {err:.3f} >= 5%")

    # exhaustive oracle: 4-mark perfect difference rulers on 0..6
    perfect = [
        (0,) + mid + (6,)
        for mid in itertools.combinations(range(1, 6), 2)
        if {b - a for a, b in itertools.combinations((0,) + mid + (6,), 2)}
        == set(range(1, 7))
    ]
    got = tuple(int(v) for v in mrla_spacings(4))
    if got != (0, 1, 4, 6) or got not in perfect:
        failures.append(f"MRLA(4) = {got}")

    _verdict(capsys, "11 radiometry", failures,
             f"|V| spread {spread:.1e}, round trip {err * 100:.2f}%, "
             f"MRLA(4) = {got}")


def test_12_qsar_and_adc_scalars(capsys):
    failures = []
    at_zero = detection_error_probabilities(0.0)
    if at_zero["epsilon_c"] != 0.5 or at_zero["epsilon_q"] != 0.5:
        failures.append(f"SNR=0 gives {at_zero}")
    for s in np.logspace(-2.0, 2.0, 21):
        eq = detection_error_probabilities(s)["epsilon_q"]
        ec4 = detection_error_probabilities(4.0 * s)["epsilon_c"]
        if abs(eq - ec4) > 1e-12 * max(eq, 1e-300):
            failures.append(f"eps_q({s:.3g}) != eps_c({4 * s:.3g})")
            break
    snr12 = adc_snr_ideal_db(12)
    if abs(snr12 - 74.00) > 0.01:
        failures.append(f"12-bit SNR {snr12:.3f} dB not 74.00 +- 0.01")
    _verdict(capsys, "12 QSAR and ADC scalars", failures,
             f"eps(0)=1/2 both, eps_q(s)=eps_c(4s), SNR(12b)={snr12:.2f} dB")


def test_13_rmmse_weak_target(capsys):
    t0 = time.perf_counter()
    chirp = LfmChirp(fc=0.0, bandwidth=10e6, duration=8e-6)
    f_s = 25e6
    env = sample_lfm(chirp, f_s)
    m = env.size
    n_bins = 150
    strong, weak = 50, 62
    passed, margins = 0, []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        refl = np.zeros(n_bins, dtype=complex)
        refl[strong] = np.exp(2j * np.pi * rng.random())
        refl[weak] = 1e-2 * np.exp(2j * np.pi * rng.random())
        y = np.convolve(refl, env)
        y = y + 1e-4 / np.sqrt(2.0) * (rng.standard_normal(y.size)
                                       + 1j * rng.standard_normal(y.size))
        mf = np.abs(np.correlate(y, env, "valid")) / np.sum(np.abs(env) ** 2)
        rc = np.abs(rmmse_compress(y, env, iterations=3))
        # the matched filter must actually mask the weak return here
        if 20.0 * np.log10(mf[weak]) < -38.0:
            continue
        local = rc[weak - 10:weak + 11].copy()
        for t in (strong, weak):
            lo = max(t - 2 - (weak - 10), 0)
            hi = min(t + 3 - (weak - 10), local.size)
            if lo < hi:
                local[lo:hi] = 0.0
        margin = 20.0 * np.log10(rc[weak] / max(local.max(), 1e-30))
        margins.append(margin)
        if margin >= 20.0:
            passed += 1
    failures = []
    if passed < 4:
        failures.append(f"only {passed}/5 seeds cleared 20 dB: "
                        + ", ".join(f"{v:.1f}" for v in margins))
    elapsed = time.perf_counter() - t0
    _verdict(capsys, "13 RMMSE weak-target recovery", failures,
             f"{passed}/5 seeds, margins "
             + "/".join(f"{v:.0f}" for v in margins) + f" dB, {elapsed:.1f} s")


def test_14_lee_filter_flat_region(capsys):
    rng_seed = 5
    flat = np.ones((128, 128))
    z = apply_speckle(flat, 0.1, seed=rng_seed)
    out = lee_filter(z, 0.1)
    var_in = float(np.var(z))
    var_out = float(np.var(out))
    mean_err = abs(float(np.mean(out)) - 1.0)
    failures = []
    if var_out > 0.5 * var_in:
        failures.append(f"variance ratio {var_out / var_in:.3f} > 0.5")
    if mean_err > 0.01:
        failures.append(f"mean off by {mean_err:.4f} > 1%")
    _verdict(capsys, "14 Lee filter on flat speckle", failures,
             f"var ratio {var_out / var_in:.2f}, mean err {mean_err:.4f}")


def test_15_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    failures = []
    for name in sorted(REGISTRY):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"scenario": name}))
        manifests, reports = [], []
        for tag in ("a", "b"):
            out = tmp_path / name / tag
            report = run(parse_config(cfg, seed=3, out_dir=out))
            manifests.append(report.artifacts)
            reports.append((out / "report.json").read_bytes())
        if manifests[0] != manifests[1] or not manifests[0]:
            failures.append(f"{name}: artifact checksums differ")
        if reports[0] != reports[1]:
            failures.append(f"{name}: reports differ")
    elapsed = time.perf_counter() - t0
    _verdict(capsys, "15 CLI determinism", failures,
             f"{len(REGISTRY)} scenarios x 2 runs, {elapsed:.1f} s")
