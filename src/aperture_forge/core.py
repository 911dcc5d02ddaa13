"""Shared numerical substrate: physical constants, sine-space directions,
propagating-wave field evaluation, wavenumber spectra, seeded complex
noise, FFT convolution, power iteration and the iterative solvers' result.

Sign conventions used throughout the package
--------------------------------------------
A monochromatic plane wave propagating along unit vector ``s`` is

    exp(j*2*pi*(f*t - k.x))        with k = s / lambda  (cycles/m),

i.e. the spatial phase advances as ``exp(-j*2*pi*k.x)`` and steering
compensation applies the conjugate ``exp(+j*...)``.  Discrete Fourier
transforms are unscaled forward and carry 1/N on the inverse.
"""

from dataclasses import dataclass

import numpy as np

C_LIGHT = 299792458.0
K_BOLTZMANN = 1.380649e-23

# tolerance on u^2 + v^2 <= 1 at the visible-space horizon
_HORIZON_EPS = 1e-12


def _require(rule, breaks, holds, values):
    """Reject the first scalar or array in ``values`` where ``holds`` is not
    true throughout: "KEY must be RULE, got KEY=VALUE", where an array's
    VALUE is its count of bad entries, "[k of n entries BREAKS]".  A Python
    int is tested as the float64 it rounds to, +-inf past float64's range."""
    for key, value in values.items():
        try:
            tested = float(value) if isinstance(value, int) else value
        except OverflowError:
            tested = np.inf if value > 0 else -np.inf
        bad = np.size(tested) - np.count_nonzero(holds(tested))
        if bad:
            got = f"[{bad} of {np.size(value)} entries {breaks}]" if np.ndim(value) else value
            raise ValueError(f"{key} must be {rule}, got {key}={got}")


def _require_at_least(least, **counts):
    """Reject the first value below ``least`` (NaN counts as below) or
    a Python int outside int64's [-2**63, 2**63)."""
    for key, value in counts.items():
        if isinstance(value, int) and not -2 ** 63 <= value < 2 ** 63:
            raise ValueError(f"{key} must be a 64-bit integer, got {key}={value}")
        _require(f">= {least}", f"below {least}", lambda v: np.greater_equal(v, least),
                 {key: value})


def _require_finite(**values):
    """Reject the first value with NaN or +-inf."""
    _require("finite", "non-finite", np.isfinite, values)


def _require_finite_positive(**values):
    """Reject the first value that is not finite and > 0."""
    _require("finite and positive", "not finite and positive",
             lambda v: np.isfinite(v) & np.greater(v, 0), values)


class Direction:
    """Pointing direction relative to array boresight (+z), held in sine
    space: the direction cosines ``u`` and ``v`` along x and y, with
    ``w`` the cosine along z.  ``Direction(0.0, 0.0)`` is boresight."""

    def __init__(self, u: float, v: float):
        _require_finite(u=u, v=v)
        if u * u + v * v > 1.0 + _HORIZON_EPS:
            raise ValueError(f"(u, v) outside visible space: u^2 + v^2 > 1, got u={u}, v={v}")
        self.u = float(u)
        self.v = float(v)

    @property
    def w(self) -> float:
        return float(np.sqrt(max(1.0 - self.u ** 2 - self.v ** 2, 0.0)))


def plane_wave_field(pos, t, f, direction: Direction) -> np.ndarray:
    """Complex plane-wave field exp(j*2*pi*(f*t - k.x)) of a wave of
    frequency ``f`` travelling along ``direction`` at the speed of light,
    as a (P, len(t)) array for the (P, 3) positions ``pos``."""
    _require_finite_positive(f=f)
    pos = np.asarray(pos, dtype=float)
    _require_finite(pos=pos)
    lam = C_LIGHT / f
    k_dot_x = (direction.u / lam * pos[:, 0] + direction.v / lam * pos[:, 1]
               + direction.w / lam * pos[:, 2])
    t = np.asarray(t, dtype=float)
    return np.exp(1j * (2.0 * np.pi * (f * t[None, :] - k_dot_x[:, None])))


def far_field_distance(aperture_d: float, frequency: float) -> float:
    """Far-field (Fraunhofer) boundary 2*D^2/lambda for aperture size D
    and a wave at the speed of light."""
    _require_finite_positive(aperture_d=aperture_d, frequency=frequency)
    return 2.0 * aperture_d ** 2 * frequency / C_LIGHT


class SeedRequired(ValueError):
    """A draw was asked for without a seed."""


def seeded_rng(seed, why):
    """``default_rng(seed)``.  A None seed raises SeedRequired naming
    ``why``: nothing is ever drawn from unseeded entropy."""
    if seed is None:
        raise SeedRequired(f"seed is required when {why}")
    return np.random.default_rng(seed)


def noise_rng(sigma, seed, name):
    """The generator for noise of strength ``sigma``, or None when
    ``sigma == 0``.  A negative or non-finite ``sigma``, or a positive one
    without a seed, raises ValueError naming the parameter ``name``."""
    _require_finite(**{name: sigma})
    _require_at_least(0, **{name: sigma})
    return None if sigma == 0.0 else seeded_rng(seed, f"{name} > 0")


def add_complex_noise(x, sigma, seed):
    """``x`` plus circular complex white noise of standard deviation ``sigma``.

    Draws the real parts, then the imaginary parts, from
    ``noise_rng(sigma, seed, ...)``; ``sigma == 0`` returns ``x`` itself.
    """
    rng = noise_rng(sigma, seed, "noise_sigma")
    if rng is None:
        return x
    return x + sigma / np.sqrt(2.0) * (
        rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    )


def _next_fast_len(n):
    """Smallest 11-smooth integer >= n: the complex FFT length that
    scipy.signal.fftconvolve pads to, so fft_convolve matches its bits."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def fft_convolve(a, b):
    """Full linear convolution of ``a`` and ``b`` along axis 0 via FFT.

    Both are zero-padded to the next fast length of ``s1 + s2 - 1``; the
    other axes of ``b`` broadcast against those of ``a``.  The result is
    complex, ``s1 + s2 - 1`` long along axis 0, and a view into the padded
    transform of ``a``, the only full-size array: the product and the
    inverse transform are written into it.
    """
    n = len(a) + len(b) - 1
    n_fft = _next_fast_len(n)
    spec = np.fft.fft(a, n_fft, axis=0)
    np.multiply(spec, np.fft.fft(b, n_fft, axis=0), out=spec)
    return np.fft.ifft(spec, axis=0, out=spec)[:n]


def power_iteration(apply, n, n_iter):
    """Largest eigenvalue ``lam`` and unit eigenvector ``v`` of the
    Hermitian positive semidefinite map ``apply`` on C^n, after ``n_iter``
    steps from a fixed (seed 0) complex Gaussian start."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(n_iter):
        w = apply(v)
        lam = np.linalg.norm(w)
        v = w / lam
    return lam, v


@dataclass(frozen=True)
class SolverResult:
    """An iterative solver's answer ``x``, the objective or residual of
    each iterate in ``history`` (``history[0]`` is the starting point),
    and why it stopped: "converged", "diverged" or "max_iter"."""

    x: np.ndarray
    history: np.ndarray
    stop: str

    @property
    def n_iter(self) -> int:
        return self.history.size - 1


def wavenumber_spectrum(s_xt, dx: float, dt: float):
    """Space/time field to wavenumber/frequency spectrum.

    ``s_xt`` holds s(x, t) with rows in space (step ``dx``, m) and
    columns in time (step ``dt``, s).  The temporal transform is a
    forward DFT so a wave exp(+j*2*pi*f*t) lands at +f; the spatial
    transform uses the conjugate kernel (inverse DFT scaled by N) so the
    propagation phase exp(-j*2*pi*k*x) lands at +k.  The spectrum is
    centered via fftshift; returns ``(spec, k_axis, f_axis)``.
    """
    s_xt = np.asarray(s_xt)
    if s_xt.ndim != 2:
        raise ValueError("s_xt must be 2-D")
    _require_finite_positive(dx=dx, dt=dt)
    nx, nt = s_xt.shape
    spec = np.fft.fft(s_xt, axis=1)
    spec = np.fft.ifft(spec, axis=0) * nx
    spec = np.fft.fftshift(spec)
    k_step = 1.0 / (nx * dx)
    f_step = 1.0 / (nt * dt)
    k_axis = -(nx // 2) * k_step + k_step * np.arange(nx)
    f_axis = -(nt // 2) * f_step + f_step * np.arange(nt)
    return spec, k_axis, f_axis
