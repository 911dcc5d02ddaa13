"""Shared numerical substrate: uniform complex grids, physical constants,
direction-cosine coordinate handling, propagating-wave field evaluation,
seeded complex noise, FFT convolution and power iteration.

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


@dataclass(frozen=True)
class Axis:
    """Uniform sample axis described by start and step."""

    start: float
    step: float

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.step)):
            raise ValueError("axis start/step must be finite")
        if self.step <= 0:
            raise ValueError("axis step must be positive")

    def values(self, n: int) -> np.ndarray:
        return self.start + self.step * np.arange(n)


class ComplexGrid:
    """2-D complex samples on a uniform lattice.

    Parameters
    ----------
    data : array_like
        Complex matrix, row-major; rows run along ``axis0``.
    axis0, axis1 : Axis
        Sampling descriptions of the two dimensions.

    The sample array is frozen after construction; derived products are
    always new grids.
    """

    def __init__(self, data, axis0: Axis, axis1: Axis):
        arr = np.array(data, dtype=complex)
        if arr.ndim != 2:
            raise ValueError("ComplexGrid data must be 2-D")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ComplexGrid data must be finite")
        arr.setflags(write=False)
        self.data = arr
        self.axis0 = axis0
        self.axis1 = axis1

    @property
    def shape(self):
        return self.data.shape

    def axis0_values(self) -> np.ndarray:
        return self.axis0.values(self.data.shape[0])

    def axis1_values(self) -> np.ndarray:
        return self.axis1.values(self.data.shape[1])


class Direction:
    """Pointing direction relative to array boresight (+z).

    ``theta`` is the polar angle off boresight, ``phi`` the angle in the
    aperture plane.  Sine-space coordinates follow

        u = sin(theta)*cos(phi),    v = sin(theta)*sin(phi)
    """

    def __init__(self, theta: float, phi: float):
        if not (0.0 <= theta <= np.pi):
            raise ValueError("theta must lie in [0, pi]")
        if not (-np.pi <= phi <= np.pi):
            raise ValueError("phi must lie in [-pi, pi]")
        self.theta = float(theta)
        self.phi = float(phi)

    @classmethod
    def from_sine_space(cls, u: float, v: float) -> "Direction":
        r2 = u * u + v * v
        if r2 > 1.0 + _HORIZON_EPS:
            raise ValueError("(u, v) outside visible space: u^2 + v^2 > 1")
        theta = np.arcsin(min(np.sqrt(r2), 1.0))
        phi = np.arctan2(v, u) if r2 > 0.0 else 0.0
        return cls(theta, phi)

    @property
    def u(self) -> float:
        return np.sin(self.theta) * np.cos(self.phi)

    @property
    def v(self) -> float:
        return np.sin(self.theta) * np.sin(self.phi)

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit propagation vector (x, y, z)."""
        st = np.sin(self.theta)
        return np.array(
            [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)]
        )

    def __repr__(self):
        return f"Direction(theta={self.theta:.6f}, phi={self.phi:.6f})"


@dataclass(frozen=True)
class FieldPoint:
    """Cartesian observation or source point, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(np.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class WaveParams:
    """Monochromatic wave description: frequency, speed and the spatial
    frequency vector ``(kx, ky, kz)`` in cycles per meter."""

    frequency: float
    speed: float
    kx: float
    ky: float
    kz: float

    def __post_init__(self):
        if self.frequency <= 0 or self.speed <= 0:
            raise ValueError("frequency and speed must be positive")
        k_norm = np.sqrt(self.kx ** 2 + self.ky ** 2 + self.kz ** 2)
        if abs(self.speed * k_norm - self.frequency) > 1e-6 * self.frequency:
            raise ValueError("inconsistent wave: f != c*|k|")

    @classmethod
    def from_direction(cls, frequency: float, direction: Direction) -> "WaveParams":
        """Wave of ``frequency`` travelling along ``direction`` at the speed of light."""
        s = direction.unit_vector() / (C_LIGHT / frequency)
        return cls(frequency, C_LIGHT, s[0], s[1], s[2])


def plane_wave_field(point: FieldPoint, t, wave: WaveParams):
    """Complex plane-wave field exp(j*2*pi*(f*t - k.x)).

    ``t`` may be scalar or array; the result is unimodular either way.
    """
    k_dot_x = wave.kx * point.x + wave.ky * point.y + wave.kz * point.z
    return np.exp(1j * (2.0 * np.pi * (wave.frequency * t - k_dot_x)))


def far_field_distance(aperture_d: float, frequency: float) -> float:
    """Far-field (Fraunhofer) boundary 2*D^2/lambda for aperture size D
    and a wave at the speed of light."""
    if aperture_d <= 0 or frequency <= 0:
        raise ValueError("aperture size and frequency must be positive")
    return 2.0 * aperture_d ** 2 * frequency / C_LIGHT


def seeded_rng(seed, why):
    """``default_rng(seed)``.  A None seed raises ValueError naming
    ``why``: nothing is ever drawn from unseeded entropy."""
    if seed is None:
        raise ValueError(f"seed is required when {why}")
    return np.random.default_rng(seed)


def noise_rng(sigma, seed, name):
    """The generator for noise of strength ``sigma``, or None when
    ``sigma == 0``.  A negative or NaN ``sigma``, or a positive one
    without a seed, raises ValueError naming the parameter ``name``."""
    if not sigma >= 0.0:
        raise ValueError(f"{name} must be nonnegative")
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
    other axes broadcast.  The result is complex, ``s1 + s2 - 1`` long
    along axis 0, and a view into the padded inverse transform.
    """
    n = len(a) + len(b) - 1
    n_fft = _next_fast_len(n)
    spec = np.fft.fft(a, n_fft, axis=0) * np.fft.fft(b, n_fft, axis=0)
    return np.fft.ifft(spec, axis=0)[:n]


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


def wavenumber_spectrum(grid: ComplexGrid) -> ComplexGrid:
    """Space/time field to wavenumber/frequency spectrum.

    ``grid`` holds s(x, t) with axis0 = space (m) and axis1 = time (s).
    The temporal transform is a forward DFT so a wave exp(+j*2*pi*f*t)
    lands at +f; the spatial transform uses the conjugate kernel (inverse
    DFT scaled by N) so the propagation phase exp(-j*2*pi*k*x) lands at
    +k.  Axes of the result are centered via fftshift.
    """
    nx, nt = grid.shape
    spec = np.fft.fft(grid.data, axis=1)
    spec = np.fft.ifft(spec, axis=0) * nx
    spec = np.fft.fftshift(spec)
    k_step = 1.0 / (nx * grid.axis0.step)
    f_step = 1.0 / (nt * grid.axis1.step)
    return ComplexGrid(
        spec,
        Axis(-(nx // 2) * k_step, k_step),
        Axis(-(nt // 2) * f_step, f_step),
    )
