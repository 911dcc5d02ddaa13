"""Image formation: backprojection, omega-k (Stolt), and chirp scaling.

All three consume the same PhaseHistory.  Backprojection is the
time-domain reference the frequency-domain focusers are tested against.
"""

from dataclasses import dataclass, field

import numpy as np

from ..core import C_LIGHT, _require_finite
from ..waveforms import _lfm_envelope, matched_filter
from .scene import PhaseHistory


@dataclass(frozen=True)
class SarImage:
    """Focused complex image: rows at cross-range ``x`` (m), columns at
    slant range ``r`` (m)."""

    pixels: np.ndarray
    x: np.ndarray
    r: np.ndarray
    info: dict = field(default_factory=dict)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.pixels)

    def peak_index(self):
        """(row, col) of the magnitude maximum; ties go to the lowest
        linear index (plain argmax order).  The magnitudes are written in
        that order, so argmax takes no copy of transposed pixels."""
        flat = int(np.argmax(np.abs(self.pixels, order="C")))
        return np.unravel_index(flat, self.pixels.shape)


def _range_compress(ph: PhaseHistory):
    """Correlate every pulse with the echo replica.

    Returns (compressed matrix, delay of compressed row 0).  Compressed
    row m corresponds to an echo-center delay tau0 + (m - (Nc-1)/2)/f_s.
    """
    # echo convention: the received envelope carries the conjugate sweep
    replica = np.conj(_lfm_envelope(ph.chirp, ph.f_s))
    rc = matched_filter(ph.data, replica[:, None])
    tau_c0 = ph.tau0 - (len(replica) - 1) / (2.0 * ph.f_s)
    return rc, tau_c0


def _uniform_grid(grid, name):
    """``grid`` as a float array; it must be finite, increasing and
    uniformly spaced."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError(f"{name} needs at least two points, got {name}={grid}")
    _require_finite(**{name: grid})
    steps = np.diff(grid)
    if steps[0] <= 0 or np.any(np.abs(steps - steps[0]) > 1e-9 * steps[0]):
        raise ValueError(f"{name} must be increasing and uniformly spaced")
    return grid


def _interp_complex(x, xp, fp):
    """Linear interpolation of complex samples, zero outside [xp[0], xp[-1]]."""
    re = np.interp(x, xp, fp.real, left=0.0, right=0.0)
    im = np.interp(x, xp, fp.imag, left=0.0, right=0.0)
    return re + 1j * im


def backproject(ph: PhaseHistory, x_grid, r_grid) -> SarImage:
    """Coherent time-domain focusing onto an (x, r) pixel lattice.

    Every pulse is range-compressed, sampled (linearly interpolated) at
    each pixel's two-way delay, counter-rotated by the carrier phase for
    that exact geometry and accumulated.  A unit point target therefore
    integrates to n_pulses * chirp energy at its own pixel.
    """
    x_grid = _uniform_grid(x_grid, "x_grid")
    r_grid = _uniform_grid(r_grid, "r_grid")
    n_fast = ph.data.shape[0]
    tau_lo = ph.tau0
    tau_hi = ph.tau0 + (n_fast - 1) / ph.f_s
    delays = 2.0 * r_grid / C_LIGHT
    if delays.min() < tau_lo or delays.max() > tau_hi:
        raise ValueError(
            "image ranges fall outside the recorded swath "
            f"[{C_LIGHT * tau_lo / 2:.1f}, {C_LIGHT * tau_hi / 2:.1f}] m,"
            f" got r_grid=[{r_grid.min():.1f} to {r_grid.max():.1f} m]"
        )
    rc, tau_c0 = _range_compress(ph)
    t = ph.geometry.slow_times()
    lam = ph.geometry.wavelength
    rows = np.arange(rc.shape[0])
    image = np.zeros((len(x_grid), len(r_grid)), dtype=complex)
    xx, rr = np.meshgrid(x_grid, r_grid, indexing="ij")
    for p, t_p in enumerate(t):
        big_r = np.sqrt(rr ** 2 + (ph.geometry.v * t_p - xx) ** 2)
        m = ((2.0 * big_r / C_LIGHT) - tau_c0) * ph.f_s
        image += _interp_complex(m, rows, rc[:, p]) * np.exp(1j * 4.0 * np.pi * big_r / lam)
    return SarImage(image, x_grid, r_grid)


def omega_k_focus(ph: PhaseHistory) -> SarImage:
    """Wavenumber-domain focusing with Stolt resampling.

    Range-compressed data is taken to the (f, kx) domain, re-referenced
    to an absolute delay origin, backpropagated to the standoff range
    (without this the spectrum rotates many radians per bin and linear
    interpolation collapses), and each kx column is mapped onto the
    uniform kz grid defined by the kx = 0 relation kz = 4*pi*f/c (the
    exploding-source two-way wavenumber).  Samples that would require
    |kx| > k_r (evanescent) are zeroed; their count is reported in
    ``info["evanescent_bins"]``.  A 2-D inverse FFT lands the image on
    the pulse-position x grid and a slant-range grid starting at the
    compressed window's leading edge.
    """
    rc, tau_c0 = _range_compress(ph)
    n_z, n_x = rc.shape
    f_s = ph.f_s
    fc = C_LIGHT / ph.geometry.wavelength
    d_x = ph.geometry.v / ph.geometry.prf

    # one full frame from here on: rc's, into which every transform, phase
    # multiply and Stolt column is written in place
    spec = np.fft.fft(rc, axis=0, out=rc)
    f_b = np.fft.fftfreq(n_z, d=1.0 / f_s)
    # re-reference the fast-time transform to tau = 0; without this the
    # window offset turns into a kz-nonlinear phase after the Stolt map
    spec *= np.exp(-1j * 2.0 * np.pi * f_b * tau_c0)[:, None]
    np.fft.fft(spec, axis=1, out=spec)
    k_x = 2.0 * np.pi * np.fft.fftfreq(n_x, d=d_x)

    order = np.argsort(f_b)
    f_sorted = f_b[order]
    k_r = 4.0 * np.pi * (fc + f_sorted) / C_LIGHT
    kz_target = k_r  # the kx = 0 mapping, uniform because f is uniform
    z_start = C_LIGHT * tau_c0 / 2.0
    z_ref = ph.geometry.r1

    # column j is read in ascending-f order, then overwritten by its Stolt
    # column on the kz grid
    evanescent = 0
    for j in range(n_x):
        rad_sq = k_r ** 2 - k_x[j] ** 2
        ok = rad_sq > 0.0
        evanescent += int(np.count_nonzero(~ok))
        if ok.sum() < 2:
            spec[:, j] = 0.0
            continue
        kz_meas = np.sqrt(rad_sq[ok])
        col = spec[order[ok], j] * np.exp(1j * kz_meas * z_ref)
        spec[:, j] = _interp_complex(kz_target, kz_meas, col)

    spec *= np.exp(1j * kz_target * (z_start - z_ref))[:, None]
    np.fft.ifft(spec, axis=0, out=spec)
    np.fft.ifft(spec, axis=1, out=spec)

    x = ph.geometry.v * ph.geometry.slow_times()[0] + d_x * np.arange(n_x)
    r = z_start + C_LIGHT / (2.0 * f_s) * np.arange(n_z)
    return SarImage(spec.T, x, r, {"evanescent_bins": evanescent})


def _doppler_sine(f_dop, v, wavelength, clamp=False):
    """lambda f / 2V at each Doppler frequency ``f_dop``, and the mask of those
    inside its support |lambda f / 2V| < 1; any outside raises unless ``clamp``."""
    sine = wavelength * np.asarray(f_dop, dtype=float) / (2.0 * v)
    inside = np.abs(sine) < 1.0
    if not (clamp or inside.all()):
        raise ValueError("Doppler outside the support |lambda f / 2V| < 1,"
                         f" got v={v}, wavelength={wavelength}")
    return sine, inside


def curvature_factor(f_dop, v, wavelength):
    """C_s(f) = 1/sqrt(1 - (lambda f / 2V)^2) - 1; zero at zero Doppler.

    Migration at Doppler f reaches R_f = r (1 + C_s) >= r, so C_s is the
    fractional range walk the scaling stage equalizes.
    """
    sine, _ = _doppler_sine(f_dop, v, wavelength)
    return 1.0 / np.sqrt(1.0 - sine ** 2) - 1.0


def range_distortion(f_dop, v, wavelength):
    """alpha(f): Doppler-dependent perturbation of the range chirp rate,
    entering as 1/K_s = 1/K + r*alpha.  Zero at zero Doppler."""
    sine, _ = _doppler_sine(f_dop, v, wavelength)
    return (2.0 * wavelength / C_LIGHT ** 2) * sine ** 2 / (1.0 - sine ** 2) ** 1.5


def chirp_scaling_focus(ph: PhaseHistory) -> SarImage:
    """Chirp-scaling focusing: three phase multiplies, no interpolation.

    The range-Doppler curvature factor C_s and Doppler-dependent chirp
    rate K_s drive the three stages: scaling (equalize migration to the
    reference range, the geometry's ``r1``), bulk RCMC plus range focus
    in the 2-D spectrum, and residual azimuth/phase matching back in
    range-Doppler.  Doppler bins at or beyond |lambda f / 2V| = 1 have no
    stationary-phase support; they are zeroed and counted in
    ``info["clamped_bins"]``.
    """
    r_ref = ph.geometry.r1
    data = ph.data
    n_fast, n_pulses = data.shape
    f_s = ph.f_s
    lam = ph.geometry.wavelength
    v = ph.geometry.v
    k_rate = ph.chirp.rate
    tau = ph.tau0 + 1.0 / f_s * np.arange(n_fast)

    f_dop = np.fft.fftfreq(n_pulses, d=1.0 / ph.geometry.prf)
    _, ok = _doppler_sine(f_dop, v, lam, clamp=True)
    clamped = int(np.count_nonzero(~ok))
    c_s = np.zeros_like(f_dop)
    alpha = np.zeros_like(f_dop)
    c_s[ok] = curvature_factor(f_dop[ok], v, lam)
    alpha[ok] = range_distortion(f_dop[ok], v, lam)
    root = 1.0 / (1.0 + c_s)
    k_s_ref = 1.0 / (1.0 / k_rate + r_ref * alpha)

    rd = np.fft.fft(data, axis=1)
    rd[:, ~ok] = 0.0
    # rd is transformed in place, and each screen is built in one complex
    # frame beside it plus at most one more: every product, sum and
    # exponential is written in place, in the operand order of its formula
    tau_ref = (2.0 / C_LIGHT) * r_ref * (1.0 + c_s)
    lag_sq = np.square(tau[:, None] - tau_ref[None, :])
    screen = np.multiply(-1j * np.pi * k_s_ref[None, :] * c_s[None, :], lag_sq)
    del lag_sq
    rd *= np.exp(screen, out=screen)

    np.fft.fft(rd, axis=0, out=rd)
    f_tau = np.fft.fftfreq(n_fast, d=1.0 / f_s)
    np.divide(-1j * np.pi * f_tau[:, None] ** 2, (k_s_ref * (1.0 + c_s))[None, :], out=screen)
    np.exp(screen, out=screen)
    shift = np.multiply(1j * (4.0 * np.pi / C_LIGHT) * f_tau[:, None], (r_ref * c_s)[None, :])
    np.multiply(screen, np.exp(shift, out=shift), out=screen)
    del shift
    rd *= screen
    np.fft.ifft(rd, axis=0, out=rd)

    r_rows = C_LIGHT * tau / 2.0
    theta_delta = (
        (4.0 * np.pi / C_LIGHT ** 2)
        * k_s_ref[None, :]
        * (1.0 + c_s)[None, :]
        * c_s[None, :]
        * (r_rows[:, None] - r_ref) ** 2
    )
    np.multiply(1j, theta_delta, out=screen)
    del theta_delta
    np.add(-1j * (2.0 * np.pi / lam) * (C_LIGHT * tau)[:, None] * (1.0 - root)[None, :],
           screen, out=screen)
    rd *= np.exp(screen, out=screen)

    image = np.fft.ifft(rd, axis=1, out=rd)
    x = v * ph.geometry.slow_times()[0] + v / ph.geometry.prf * np.arange(n_pulses)
    r = C_LIGHT * ph.tau0 / 2.0 + C_LIGHT / (2.0 * f_s) * np.arange(n_fast)
    return SarImage(image.T, x, r, {"clamped_bins": clamped})
