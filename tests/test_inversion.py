import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperture_forge.core import power_iteration
from aperture_forge.inversion import (
    FpSystem,
    MaskProblem,
    _sign,
    af_gradient,
    af_objective,
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

N_SIG = 64


def random_signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ----------------------------------------------------------- forward model

@settings(deadline=None, max_examples=40)
@given(coded=st.booleans(), m=st.integers(1, 40), n=st.integers(1, 24),
       n_masks=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_forward_adjoint_dot_product(coded, m, n, n_masks, seed):
    # <A x, w> = <x, A^H w> for both sampling structures
    prob = coded_problem(n, n_masks, seed) if coded else gaussian_problem(m, n, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(prob.m) + 1j * rng.standard_normal(prob.m)
    ax = prob._forward(x)
    lhs = np.vdot(w, ax)
    rhs = np.vdot(prob._adjoint(w), x)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_forward_rejects_non_finite_signal(bad):
    prob = gaussian_problem(32, 8, seed=1)
    x = np.ones(8, dtype=complex)
    x[3] = bad
    with pytest.raises(ValueError, match="finite"):
        pr_forward(x, prob)


def test_gaussian_problem_follows_the_seed_rule():
    with pytest.raises(ValueError, match="seed is required"):
        gaussian_problem(12, 4, None)
    for seed in (5, np.random.SeedSequence(5).spawn(2)[1]):
        rng = np.random.default_rng(seed)
        want = (rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))) / np.sqrt(2.0)
        assert np.array_equal(gaussian_problem(12, 4, seed).vectors, want)


def test_coded_problem_follows_the_seed_rule():
    with pytest.raises(ValueError, match="seed is required"):
        coded_problem(8, 3, None)
    for seed in (5, np.random.SeedSequence(5).spawn(2)[1]):
        want = np.exp(2j * np.pi * np.random.default_rng(seed).random((3, 8)))
        assert np.array_equal(coded_problem(8, 3, seed).masks, want)


def test_forward_noise_follows_the_seed_rule():
    prob = gaussian_problem(32, 8, seed=0)
    x = random_signal(8, 1)
    clean = pr_forward(x, prob)
    assert np.array_equal(pr_forward(x, prob, 0.0, None), clean)
    for sigma, rule in ((-0.1, ">= 0"), (np.nan, "finite"), (np.inf, "finite")):
        message = f"^noise_sigma must be {rule}, got noise_sigma={sigma}$"
        with pytest.raises(ValueError, match=message):
            pr_forward(x, prob, sigma, 1)
    with pytest.raises(ValueError, match="seed is required"):
        pr_forward(x, prob, 0.1, None)
    want = np.maximum(clean + 0.1 * np.random.default_rng(3).standard_normal(32), 0.0)
    assert np.array_equal(pr_forward(x, prob, 0.1, 3), want)


def test_zero_signal_zero_measurements():
    prob = gaussian_problem(32, 8, seed=0)
    assert np.all(pr_forward(np.zeros(8), prob) == 0)


def test_identity_mask_gives_dft_magnitudes():
    x = random_signal(16, 1)
    prob = MaskProblem(np.ones((1, 16)))
    expect = np.abs(np.fft.fft(x, norm="ortho")) ** 2
    assert np.allclose(pr_forward(x, prob), expect, atol=1e-12)


def test_parseval_per_mask_block():
    x = random_signal(32, 2)
    prob = coded_problem(32, 3, seed=3)
    y = pr_forward(x, prob).reshape(3, 32)
    for ell in range(3):
        block_energy = np.linalg.norm(prob.masks[ell] * x) ** 2
        assert np.sum(y[ell]) == pytest.approx(block_energy, rel=1e-12)


@settings(deadline=None, max_examples=30)
@given(re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0))
def test_forward_is_two_homogeneous(re, im):
    c = re + 1j * im
    x = random_signal(12, 4)
    prob = gaussian_problem(30, 12, seed=5)
    assert np.allclose(pr_forward(c * x, prob), abs(c) ** 2 * pr_forward(x, prob),
                       rtol=1e-10, atol=1e-12)


def test_measurements_blind_to_global_phase():
    x = random_signal(20, 6)
    prob = gaussian_problem(60, 20, seed=7)
    y1 = pr_forward(x, prob)
    y2 = pr_forward(np.exp(0.73j) * x, prob)
    assert np.allclose(y1, y2, rtol=1e-10)


# ------------------------------------------------------------ initializer

def test_spectral_init_correlates_at_6n():
    corrs = []
    for seed in range(20):
        x = random_signal(N_SIG, seed)
        prob = gaussian_problem(6 * N_SIG, N_SIG, seed=100 + seed)
        x0 = spectral_init(pr_forward(x, prob), prob)
        corrs.append(abs(np.vdot(x0 / np.linalg.norm(x0), x)) / np.linalg.norm(x))
    assert np.mean(corrs) >= 0.5


def test_spectral_init_undersampled_negative_control():
    # m = n/4 carries too little information: correlation should sit near
    # the random-vector baseline (~1/sqrt(n) ~ 0.11), far below the 0.5
    # reached in the well-sampled regime.
    corrs = []
    for seed in range(20):
        x = random_signal(N_SIG, seed)
        prob = gaussian_problem(N_SIG // 4, N_SIG, seed=200 + seed)
        x0 = spectral_init(pr_forward(x, prob), prob)
        corrs.append(abs(np.vdot(x0 / np.linalg.norm(x0), x)) / np.linalg.norm(x))
    assert np.mean(corrs) < 0.35


def test_spectral_init_phase_blind():
    x = random_signal(32, 8)
    prob = gaussian_problem(192, 32, seed=9)
    a = spectral_init(pr_forward(x, prob), prob)
    b = spectral_init(pr_forward(np.exp(1.2j) * x, prob), prob)
    assert phase_invariant_dist(a, b) < 1e-7


def _dense(problem):
    """The (m, n) matrix A of a problem, one column per unit vector."""
    return np.column_stack([problem._forward(e) for e in np.eye(problem.n, dtype=complex)])


def _pr_recover_draw(make_problem):
    """pr-recover's problem and noiseless measurements at seed 1."""
    s_prob, s_truth, _ = np.random.default_rng(1).spawn(3)
    problem = make_problem(s_prob)
    x0 = (s_truth.standard_normal(N_SIG) + 1j * s_truth.standard_normal(N_SIG)) / np.sqrt(2.0)
    return problem, pr_forward(x0, problem)


@pytest.mark.parametrize("make_problem,bound", [
    # eigengap 0.0040 under a top eigenvalue of 0.030: 1 - |<u, v>| is 6.2e-13
    (lambda rng: coded_problem(N_SIG, 6, rng), 1e-11),
    (lambda rng: gaussian_problem(8 * N_SIG, N_SIG, rng), 1e-14),
])
def test_spectral_init_is_the_leading_eigenvector(make_problem, bound):
    # against eigh of the dense (1/m) sum y_i a_i a_i^H, up to phase
    problem, y = _pr_recover_draw(make_problem)
    a = _dense(problem)
    _, vecs = np.linalg.eigh(a.conj().T @ (y[:, None] * a) / problem.m)
    u = spectral_init(y, problem)
    assert np.linalg.norm(u) == pytest.approx(np.sqrt(np.mean(y)), rel=1e-12)
    assert 1.0 - abs(np.vdot(vecs[:, -1], u / np.linalg.norm(u))) <= bound


def test_power_iteration_reads_the_norm_low_at_30_steps():
    # the 30 steps VectorProblem's step bound takes, on a 512 x 64
    # Gaussian problem: lam is 0.52% under ||A||^2, the residual 1.3% of it
    problem = gaussian_problem(8 * N_SIG, N_SIG, seed=1)
    gram = problem.vectors.conj().T @ problem.vectors
    top = np.linalg.eigvalsh(gram)[-1]
    lam, v = power_iteration(lambda x: problem._adjoint(problem._forward(x)), N_SIG, 30)
    assert top * (1.0 - 6e-3) <= lam <= top * (1.0 + 1e-12)
    assert np.linalg.norm(gram @ v - lam * v) <= 0.014 * lam
    assert problem._op_norm_sq() == lam


def test_spectral_init_zero_measurements_flagged():
    prob = gaussian_problem(64, 16, seed=10)
    with pytest.warns(UserWarning, match="zero"):
        x0 = spectral_init(np.zeros(64), prob)
    assert np.all(x0 == 0)


# ---------------------------------------------------------- amplitude flow

def test_objective_vanishes_at_truth():
    x = random_signal(24, 11)
    prob = gaussian_problem(96, 24, seed=12)
    assert af_objective(x, pr_forward(x, prob), prob) <= 1e-20


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    prob = gaussian_problem(80, 16, seed=13)
    x_ref = random_signal(16, 14)
    y = pr_forward(x_ref, prob)
    eps = 1e-6
    for _ in range(10):
        x = random_signal(16, rng.integers(1 << 31))
        g = af_gradient(x, y, prob)
        j = rng.integers(16)
        e = np.zeros(16, dtype=complex)
        e[j] = 1.0
        fd_re = (af_objective(x + eps * e, y, prob)
                 - af_objective(x - eps * e, y, prob)) / (2 * eps)
        fd_im = (af_objective(x + 1j * eps * e, y, prob)
                 - af_objective(x - 1j * eps * e, y, prob)) / (2 * eps)
        scale = max(abs(fd_re), abs(fd_im), 1e-12)
        assert abs(g[j].real - fd_re) / scale < 1e-5
        assert abs(g[j].imag - fd_im) / scale < 1e-5


def test_amplitude_flow_recovers_noiseless():
    for seed in range(5):
        x = random_signal(N_SIG, 300 + seed)
        prob = gaussian_problem(8 * N_SIG, N_SIG, seed=400 + seed)
        y = pr_forward(x, prob)
        res = amplitude_flow(y, prob, spectral_init(y, prob), steps=1500)
        assert res.stop == "max_iter"
        assert phase_invariant_dist(res.x, x) < 1e-5, f"seed {seed}"


def test_amplitude_flow_reports_history_and_divergence():
    x = random_signal(16, 15)
    prob = gaussian_problem(64, 16, seed=16)
    y = pr_forward(x, prob)
    # |A x|^2 of a 1e200 start overflows, so the objective is not finite
    res = amplitude_flow(y, prob, np.full(16, 1e200, dtype=complex), steps=40)
    assert res.stop == "diverged"
    assert len(res.history) <= 41 and len(res.history) >= 2


def test_flow_objective_decreases_on_default_step():
    x = random_signal(32, 17)
    prob = gaussian_problem(256, 32, seed=18)
    y = pr_forward(x, prob)
    res = amplitude_flow(y, prob, spectral_init(y, prob), steps=100)
    assert res.history[-1] < res.history[0]


def _amplitude_flow_oracle(y, problem, init, steps):
    """Amplitude flow written out plainly: |z| taken by the objective and
    again by the sign, np.mean for the objective, fresh arrays each step."""
    root_y = np.sqrt(np.asarray(y, dtype=float))
    x = np.asarray(init, dtype=complex).copy()
    lr = 0.1 / (2.0 * problem._op_norm_sq() / problem.m)

    def objective(z):
        with np.errstate(over="ignore"):
            return float(np.mean((root_y - np.abs(z)) ** 2))

    z = problem._forward(x)
    history = [objective(z)]
    for _ in range(steps):
        grad = (2.0 / problem.m) * problem._adjoint(z - root_y * _sign(z))
        x = x - lr * grad
        z = problem._forward(x)
        history.append(objective(z))
        if not np.isfinite(history[-1]):
            break
    return x, np.asarray(history)


@pytest.mark.parametrize("start", ["spectral", "huge"])
def test_amplitude_flow_bits_match_plain_oracle(start):
    x_true = random_signal(16, 19)
    prob = gaussian_problem(96, 16, seed=20)
    y = pr_forward(x_true, prob)
    init = (spectral_init(y, prob) if start == "spectral"
            else np.full(16, 1e200, dtype=complex))
    res = amplitude_flow(y, prob, init, steps=60)
    want_x, want_hist = _amplitude_flow_oracle(y, prob, init, steps=60)
    assert (res.stop == "diverged") == (start == "huge")
    assert np.array_equal(res.x, want_x)
    assert np.array_equal(res.history, want_hist)


# --------------------------------------------------------- error reduction

def test_error_reduction_fixed_point_at_truth():
    x = random_signal(32, 19)
    prob = coded_problem(32, 4, seed=20)
    res = error_reduction(pr_forward(x, prob), prob, x, iters=10)
    assert np.max(res.history) <= 1e-10
    assert (res.stop, res.n_iter) == ("max_iter", 10)
    assert phase_invariant_dist(res.x, x) < 1e-10


def test_error_reduction_residual_monotone():
    x = random_signal(48, 21)
    prob = coded_problem(48, 6, seed=22)
    y = pr_forward(x, prob)
    init = spectral_init(y, prob)
    res = error_reduction(y, prob, init, iters=200)
    assert len(res.history) == 201
    assert (res.stop, res.n_iter) == ("max_iter", 200)
    assert np.all(np.diff(res.history) <= 1e-9 * (res.history[0] + 1.0))


def test_error_reduction_phase_equivariant():
    x = random_signal(24, 23)
    prob = gaussian_problem(120, 24, seed=24)
    y = pr_forward(x, prob)
    init = spectral_init(y, prob)
    a = error_reduction(y, prob, init, iters=50)
    b = error_reduction(y, prob, np.exp(0.9j) * init, iters=50)
    assert np.allclose(np.abs(a.x), np.abs(b.x), atol=1e-8)


# ------------------------------------------------------------ ptychography

def gaussian_object(n, sigma, seed=None, complex_phase=False):
    ix = np.arange(n) - n / 2
    gx, gy = np.meshgrid(ix, ix, indexing="ij")
    amp = np.exp(-(gx ** 2 + gy ** 2) / (2 * sigma ** 2))
    if complex_phase:
        rng = np.random.default_rng(seed)
        ph = rng.standard_normal((n, n))
        # keep the phase smooth so the spectrum stays inside the band
        ph = np.real(np.fft.ifft2(np.fft.fft2(ph) * circular_pupil(n, 3)))
        ph *= 0.8 / np.max(np.abs(ph))
        return amp * np.exp(1j * ph)
    return amp


def grid_system(n=96, radius=20, spacing=12, sigma=10.0, seed=31):
    u = gaussian_object(n, sigma, seed=seed, complex_phase=True)
    offs = [(i, j) for i in (-spacing, 0, spacing) for j in (-spacing, 0, spacing)]
    return FpSystem(np.fft.fft2(u, norm="ortho"),
                    circular_pupil(n, radius), np.array(offs))


def _sign_where(z):
    """z / |z|, 0 where z == 0, by masking the divisor."""
    mag = np.abs(z)
    return np.where(mag > 0.0, z / np.where(mag > 0.0, mag, 1.0), 0.0)


def test_sign_bits_match_masked_divisor():
    rng = np.random.default_rng(12)
    z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    z[::7] = 0.0
    z[1::11] = complex(0.0, -2.5)
    assert np.array_equal(_sign(z), _sign_where(z))
    assert np.array_equal(_sign(z) == 0, z == 0)


def test_sign_nonzero_parts_match_the_complex_division_bitwise():
    """Multiplying by a masked real reciprocal gives the bits of numpy's
    complex division by |z|; only the sign of an exactly-zero part may
    differ."""
    rng = np.random.default_rng(13)
    z = (rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))) \
        * 10.0 ** rng.uniform(-100, 100, (96, 96))
    z[::5, ::3] = 0.0
    z[1::7] = z[1::7].real
    z[2::9] = 1j * z[2::9].imag
    mag = np.abs(z)
    old = np.divide(z, mag, out=np.zeros_like(z), where=mag > 0.0)
    new = _sign(z)
    for o, n in ((old.real, new.real), (old.imag, new.imag)):
        nonzero = o != 0.0
        assert np.array_equal(n.view(np.uint64)[nonzero], o.view(np.uint64)[nonzero])
        assert np.all(n[~nonzero] == 0.0)
    assert np.all(new[z == 0] == 0)


def _fp_recover_oracle(intensities, system, sweeps):
    """Ptychographic stitching written out plainly: roll the spectrum to
    each LED, mask with the pupil, full 2-D transforms, and roll back."""
    order = np.argsort(np.hypot(*np.asarray(system.offsets, dtype=float).T))
    est = np.fft.fft2(np.sqrt(intensities[order[0]]), norm="ortho")
    est = np.roll(est * system.pupil, -system.offsets[order[0]], axis=(0, 1))
    for _ in range(sweeps):
        for k in order:
            shifted = np.roll(est, system.offsets[k], axis=(0, 1))
            img = np.fft.ifft2(shifted * system.pupil, norm="ortho")
            img = np.sqrt(intensities[k]) * _sign_where(img)
            corrected = np.fft.fft2(img, norm="ortho")
            shifted[system.pupil] = corrected[system.pupil]
            est = np.roll(shifted, -system.offsets[k], axis=(0, 1))
    return est


def _two_by_four_system():
    u = gaussian_object(64, 8.0, seed=35, complex_phase=True)
    offs = [(i, j) for i in (-6, 6) for j in (-15, -5, 5, 15)]
    return FpSystem(np.fft.fft2(u, norm="ortho"), circular_pupil(64, 8.5), np.array(offs))


def _assert_fp_recover_matches_oracle(sys, sweeps):
    frames = np.stack([fp_acquire(sys, k) for k in range(sys.n_leds)])
    spectrum = fp_recover(frames, sys, sweeps=sweeps)
    assert np.array_equal(spectrum, _fp_recover_oracle(frames, sys, sweeps=sweeps))


def test_fp_recover_bits_match_rolling_oracle():
    # 9 LEDs on a 32-cell grid: every shifted pupil wraps across index 0
    _assert_fp_recover_matches_oracle(
        grid_system(n=32, radius=5, spacing=4, sigma=4.0, seed=33), sweeps=3)


@pytest.mark.parametrize("make_system,sweeps", [
    (grid_system, 30),  # fp-demo's defaults: 96 cells, 3 x 3 LEDs, 30 sweeps
    (_two_by_four_system, 5),  # a 2 x 4 LED layout on a pupil of 17 rows
], ids=["fp-demo", "two-by-four"])
def test_fp_recover_pruned_transforms_match_full_ones(make_system, sweeps):
    _assert_fp_recover_matches_oracle(make_system(), sweeps)


def test_pupil_radius_conversion():
    # cutoff NA*2pi/lambda over bin width 2pi/(n dx)
    assert pupil_radius_bins(0.25, 0.5e-6, 0.25e-6, 64) == pytest.approx(8.0)


def test_acquisition_energy_parseval():
    sys = grid_system()
    for k in (0, 4, 8):
        i_k = fp_acquire(sys, k)
        shifted = np.roll(sys.object_spectrum, sys.offsets[k], axis=(0, 1))
        band = np.linalg.norm(shifted * sys.pupil) ** 2
        assert np.sum(i_k) == pytest.approx(band, rel=1e-9)


def test_single_onaxis_led_recovers_lowpass_truth():
    n = 64
    u = gaussian_object(n, 6.0)  # real and positive, band well inside pupil
    pup = circular_pupil(n, 20)
    sys = FpSystem(np.fft.fft2(u, norm="ortho"), pup, np.array([[0, 0]]))
    spectrum = fp_recover(fp_acquire(sys, 0)[None], sys, sweeps=5)
    truth_lp = np.fft.ifft2(sys.object_spectrum * pup, norm="ortho")
    assert spectral_overlap(sys) != 0.0
    assert np.max(np.abs(np.fft.ifft2(spectrum, norm="ortho") - truth_lp)) < 1e-6


def test_grid_overlap_and_recovery():
    sys = grid_system()
    frames = np.stack([fp_acquire(sys, k) for k in range(sys.n_leds)])
    spectrum = fp_recover(frames, sys, sweeps=50)
    assert spectral_overlap(sys) != 0.0
    cov = sys.coverage
    truth = sys.object_spectrum[cov]
    est = spectrum[cov]
    err = phase_invariant_dist(est, truth)
    assert err < 0.05


def test_recovered_band_is_union_of_shifted_pupils():
    sys = grid_system()
    frames = np.stack([fp_acquire(sys, k) for k in range(sys.n_leds)])
    spectrum = fp_recover(frames, sys, sweeps=1)
    n = sys.n
    ix = np.fft.fftfreq(n) * n
    rad = np.hypot(ix[:, None], ix[None, :])
    measured = np.max(rad[sys.coverage])
    expected = np.hypot(12, 12) + 20
    assert measured == pytest.approx(expected, abs=1.0)
    # estimate carries no energy outside the covered band
    assert np.max(np.abs(spectrum[~sys.coverage])) <= 1e-12


def test_pairwise_overlap_above_design_floor():
    assert spectral_overlap(grid_system()) >= 0.6


def test_disjoint_pupils_flagged():
    n = 96
    u = gaussian_object(n, 8.0)
    sys = FpSystem(np.fft.fft2(u, norm="ortho"), circular_pupil(n, 5),
                   np.array([[-20, 0], [20, 0]]))
    frames = np.stack([fp_acquire(sys, k) for k in range(2)])
    fp_recover(frames, sys, sweeps=2)
    assert spectral_overlap(sys) == 0.0


def _overlap_loop_oracle(system):
    """Coverage and smallest nearest-neighbor overlap, one rolled pupil
    and one pair of LEDs at a time."""
    supports = [np.roll(system.pupil, -off, axis=(0, 1)) for off in system.offsets]
    cov = np.zeros((system.n, system.n), dtype=bool)
    for s in supports:
        cov |= s
    if system.n_leds < 2:
        return 1.0, cov
    area = np.count_nonzero(system.pupil)
    worst = 1.0
    for i, s_i in enumerate(supports):
        best = 0.0
        for j, s_j in enumerate(supports):
            if i != j:
                best = max(best, np.count_nonzero(s_i & s_j) / area)
        worst = min(worst, best)
    return worst, cov


def _offset_system(n, radius, offsets):
    u = gaussian_object(n, 8.0)
    return FpSystem(np.fft.fft2(u, norm="ortho"), circular_pupil(n, radius), np.array(offsets))


@pytest.mark.parametrize("make_system", [
    lambda: _offset_system(64, 10, [[0, 0]]),
    lambda: _offset_system(64, 10, [[3, -2]]),
    lambda: _offset_system(96, 5, [[-20, 0], [20, 0]]),  # disjoint: overlap 0
    lambda: _offset_system(96, 12, [[-5, 4], [7, 0]]),
    lambda: grid_system(spacing=5),
    lambda: grid_system(),
    lambda: grid_system(radius=10, spacing=20),
    _two_by_four_system,
], ids=["one", "one-shifted", "two-disjoint", "two", "nine-5", "nine-12", "nine-20",
        "two-by-four"])
def test_overlap_and_coverage_match_the_pairwise_loop(make_system):
    system = make_system()
    overlap, cov = _overlap_loop_oracle(system)
    assert spectral_overlap(system) == overlap
    assert np.array_equal(system.coverage, cov)


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
def test_fp_recover_rejects_negative_or_non_finite_intensities(bad):
    sys = grid_system()
    frames = np.stack([fp_acquire(sys, k) for k in range(sys.n_leds)])
    frames[0, 3, 5] = bad
    frames[2, 0, 0] = bad
    rule, breaks = (">= 0", "below 0") if np.isfinite(bad) else ("finite", "non-finite")
    got = re.escape(f"intensities=[2 of {frames.size} entries {breaks}]")
    with pytest.raises(ValueError, match=f"^intensities must be {rule}, got {got}$"):
        fp_recover(frames, sys, sweeps=2)


def test_shifted_pupil_must_stay_in_band():
    n = 64
    with pytest.raises(ValueError, match="band edge"):
        FpSystem(np.zeros((n, n)), circular_pupil(n, 20),
                 np.array([[14, 0]]))


def _sign_by_masked_division(z):
    """The sign step as it was: a zero-filled reciprocal, then the product."""
    mag = np.abs(z)
    return z * np.divide(1.0, mag, out=np.zeros_like(mag), where=mag > 0.0)


def test_sign_matches_the_masked_division_bitwise():
    rng = np.random.default_rng(7)
    z = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) \
        * 10.0 ** rng.integers(-200, 200, (64, 64))
    z[0, :6] = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 1e-310, -1e-310j]
    z[1, :3] = [complex(3.0, -0.0), complex(-0.0, 2.0), 5e-324]
    with np.errstate(over="ignore", invalid="ignore"):  # 1 / 5e-324 overflows in both
        got, want = _sign(z), _sign_by_masked_division(z)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[0, :4] == 0.0)
