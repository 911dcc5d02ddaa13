"""Phaseless inverse problems.

Quadratic measurements y_i = |<a_i, x>|^2 come in two structures, one
type each: VectorProblem stacks explicit sampling vectors into a matrix,
MaskProblem composes unimodular diagonal masks with a unitary DFT (coded
diffraction, far zone).  Either one feeds the spectral initializer,
amplitude flow and error-reduction alternating projections.  A small
Fourier-ptychography acquire/recover pair closes the module.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (SolverResult, _require_at_least, _require_finite, _require_finite_positive,
                   noise_rng, power_iteration, seeded_rng)


@dataclass(frozen=True)
class VectorProblem:
    """y = |A x|^2 with explicit sampling vectors: the rows of the (m, n)
    ``vectors`` are the conjugated sampling vectors, so A @ x evaluates
    all inner products; their adjoint is formed once, not on every call."""

    vectors: np.ndarray
    _vectors_h: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise ValueError("vectors must be (m, n)")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_vectors_h", v.conj().T)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def _forward(self, x):
        return self.vectors @ x

    def _adjoint(self, w):
        return self._vectors_h @ w

    def _op_norm_sq(self):
        lam, _ = power_iteration(lambda v: self._adjoint(self._forward(v)), self.n, 30)
        return lam

    def _projector(self):
        pinv = np.linalg.pinv(self.vectors)
        return lambda w: pinv @ w


@dataclass(frozen=True)
class MaskProblem:
    """y = |A x|^2 with coded diffraction: L unimodular diagonal masks,
    the (L, n) ``masks``, each followed by a unitary DFT, so m = L n."""

    masks: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.masks, dtype=complex)
        if d.ndim != 2:
            raise ValueError("masks must be (L, n)")
        object.__setattr__(self, "masks", d)

    @property
    def m(self) -> int:
        return self.masks.size

    @property
    def n(self) -> int:
        return self.masks.shape[1]

    def _forward(self, x):
        return np.fft.fft(self.masks * x[None, :], axis=1, norm="ortho").ravel()

    def _adjoint(self, w):
        blocks = np.fft.ifft(w.reshape(self.masks.shape), axis=1, norm="ortho")
        return np.sum(np.conj(self.masks) * blocks, axis=0)

    def _op_norm_sq(self):
        # masks followed by a unitary DFT give A^H A = L * I exactly
        return float(self.masks.shape[0])

    def _projector(self):
        return lambda w: self._adjoint(w) / self.masks.shape[0]


def gaussian_problem(m, n, seed) -> VectorProblem:
    """Standard complex Gaussian sampling vectors, unit entry variance.
    A None ``seed`` or fewer than one vector (``m`` < 1) raises ValueError."""
    _require_at_least(1, m=m)
    rng = seeded_rng(seed, "drawing Gaussian sampling vectors")
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    return VectorProblem(a)


def coded_problem(n, n_masks, seed) -> MaskProblem:
    """Unimodular random-phase masks; statistics are not prescribed by
    the physics, uniform phases are the conventional choice.  A None
    ``seed`` or fewer than one mask (``n_masks`` < 1) raises ValueError."""
    _require_at_least(1, n_masks=n_masks)
    rng = seeded_rng(seed, "drawing coded masks")
    masks = np.exp(2j * np.pi * rng.random((n_masks, n)))
    return MaskProblem(masks)


def _sign(z):
    mag = np.abs(z)
    np.divide(1.0, mag, out=mag, where=mag > 0.0)  # the zeros stay
    return z * mag


def pr_forward(x, problem, noise_sigma=0.0, seed=None) -> np.ndarray:
    """Phaseless measurements |A x|^2, optionally with additive noise
    (clipped at zero to keep the vector physical).  Raises ValueError on
    a non-finite ``x``, and on a negative ``noise_sigma`` or a positive
    one without a seed."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (problem.n,):
        raise ValueError("x length does not match the problem dimension")
    _require_finite(x=x)
    y = np.abs(problem._forward(x)) ** 2
    rng = noise_rng(noise_sigma, seed, "noise_sigma")
    if rng is not None:
        y = np.maximum(y + noise_sigma * rng.standard_normal(y.shape), 0.0)
    return y


def phase_invariant_dist(a, b) -> float:
    """min over global phase of ||a - e^{j alpha} b|| / ||b||."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    nb = np.linalg.norm(b)
    gap = np.linalg.norm(a) ** 2 + nb ** 2 - 2.0 * np.abs(np.vdot(a, b))
    return float(np.sqrt(max(gap, 0.0)) / nb)


def spectral_init(y, problem) -> np.ndarray:
    """Leading eigenvector of (1/m) sum y_i a_i a_i^H by power iteration,
    rescaled so the initializer carries the RMS measurement energy.

    The data matrix concentrates around x x^H plus identity for random
    sampling, so its top eigenvector correlates with the signal once
    m is a modest multiple of n.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise ValueError("y length does not match the problem")
    if not np.any(y):
        warnings.warn("all measurements are zero; returning the zero vector")
        return np.zeros(problem.n, dtype=complex)
    _, v = power_iteration(
        lambda v: problem._adjoint(y * problem._forward(v)) / problem.m, problem.n, 100)
    return v * np.sqrt(np.mean(y))


def _af_terms(z, root_y):
    """At z = A x: the amplitude objective (1/m) sum (sqrt(y_i) - |z_i|)^2,
    and the residual z - sqrt(y) sign(z), whose A^H image times 2/m is
    the objective's gradient."""
    with np.errstate(over="ignore"):  # inf is meaningful: divergence signal
        objective = float(np.add.reduce((root_y - np.abs(z)) ** 2) / z.size)
    return objective, z - root_y * _sign(z)


def af_objective(x, y, problem) -> float:
    return _af_terms(problem._forward(x), np.sqrt(y))[0]


def af_gradient(x, y, problem) -> np.ndarray:
    """Gradient of the amplitude objective with the subgradient of |z|
    taken as 0 at z = 0.  Real and imaginary parts are the partials with
    respect to Re(x) and Im(x), which is what a finite-difference check
    sees."""
    _, resid = _af_terms(problem._forward(x), np.sqrt(y))
    return (2.0 / problem.m) * problem._adjoint(resid)


def amplitude_flow(y, problem, init, steps=500) -> SolverResult:
    """Fixed-step gradient descent on (1/m) sum (sqrt(y_i) - |<a_i,x>|)^2.

    The step targets the local Hessian scale 2||A||^2 / m.  The run stops
    "diverged", history intact, at a non-finite objective, else "max_iter"
    after ``steps`` steps.  Each step's A x serves both its objective and
    the next gradient, through the terms af_objective and af_gradient
    evaluate.
    """
    _require_at_least(0, steps=steps)
    root_y = np.sqrt(np.asarray(y, dtype=float))
    x = np.asarray(init, dtype=complex).copy()
    m = problem.m
    lr = 0.1 / (2.0 * problem._op_norm_sq() / m)
    obj, resid = _af_terms(problem._forward(x), root_y)
    history = [obj]
    for _ in range(steps):
        x = x - lr * ((2.0 / m) * problem._adjoint(resid))
        obj, resid = _af_terms(problem._forward(x), root_y)
        history.append(obj)
        if not np.isfinite(obj):
            return SolverResult(x, np.asarray(history), "diverged")
    return SolverResult(x, np.asarray(history), "max_iter")


def error_reduction(y, problem, init, iters=200) -> SolverResult:
    """Alternating projections between the modulus set (replace magnitudes
    by sqrt(y), keep the phase) and the range of the forward operator, for
    ``iters`` steps ("max_iter").  Both are closest-point projections, so
    the residual ||sqrt(y) - |A x||| never increases."""
    _require_at_least(0, iters=iters)
    y = np.asarray(y, dtype=float)
    root_y = np.sqrt(y)
    x = np.asarray(init, dtype=complex).copy()
    project = problem._projector()
    z = problem._forward(x)
    residuals = [float(np.linalg.norm(root_y - np.abs(z)))]
    for _ in range(iters):
        x = project(root_y * _sign(z))
        z = problem._forward(x)
        residuals.append(float(np.linalg.norm(root_y - np.abs(z))))
    return SolverResult(x, np.asarray(residuals), "max_iter")


# ----------------------------------------------------------------------
# Fourier ptychography on a square grid.  Spectra live in natural FFT
# ordering; shifting the illumination rolls the object spectrum across a
# fixed low-pass pupil.

def _index_radius(n):
    ix = np.fft.fftfreq(n) * n
    return np.hypot(ix[:, None], ix[None, :])


def circular_pupil(n, radius_bins) -> np.ndarray:
    return _index_radius(n) <= radius_bins


def pupil_radius_bins(na, wavelength, dx, n) -> float:
    """Cutoff NA * 2 pi / lambda expressed in spectral grid cells for a
    field sampled every dx over n points; ValueError unless ``na`` is finite
    and >= 0 and ``wavelength`` and ``dx`` are finite and > 0."""
    _require_finite(na=na)
    _require_at_least(0, na=na)
    _require_finite_positive(wavelength=wavelength, dx=dx)
    return na * n * dx / wavelength


@dataclass(frozen=True)
class FpSystem:
    """Ground-truth object spectrum, pupil mask, and LED offsets (in
    spectral grid cells).  The pupil and every shifted copy must stay
    clear of the band edge so circular shifts never alias."""

    object_spectrum: np.ndarray
    pupil: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.object_spectrum, dtype=complex)
        pup = np.asarray(self.pupil, dtype=bool)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape != pup.shape:
            raise ValueError("spectrum and pupil must be square and matching")
        off = np.atleast_2d(np.asarray(self.offsets, dtype=int))
        if off.shape[1] != 2:
            raise ValueError("offsets must be (K, 2) grid shifts")
        n = u.shape[0]
        ix = np.fft.fftfreq(n) * n
        gx, gy = np.meshgrid(ix, ix, indexing="ij")
        extent = max(np.max(np.abs(gx[pup])), np.max(np.abs(gy[pup])))
        if extent + np.max(np.abs(off)) >= n / 2:
            raise ValueError(f"a shifted pupil reaches the band edge (pupil + offsets >= n / 2), "
                             f"got n={n}, pupil={extent}, offsets={np.max(np.abs(off))}")
        object.__setattr__(self, "object_spectrum", u)
        object.__setattr__(self, "pupil", pup)
        object.__setattr__(self, "offsets", off)

    @property
    def n(self) -> int:
        return self.object_spectrum.shape[0]

    @property
    def n_leds(self) -> int:
        return self.offsets.shape[0]

    @property
    def coverage(self) -> np.ndarray:
        """Spectral cells inside at least one shifted pupil: the band a
        recovery can fill."""
        return self._shifted_pupils().any(axis=0)

    def _shifted_pupils(self) -> np.ndarray:
        """(n_leds, n, n) stack of the pupil shifted to each LED's band."""
        return np.stack([np.roll(self.pupil, -off, axis=(0, 1)) for off in self.offsets])


def fp_acquire(system: FpSystem, k) -> np.ndarray:
    """Intensity under the k-th oblique plane wave: the object spectrum
    slides by the illumination frequency, the fixed pupil low-passes it."""
    shifted = np.roll(system.object_spectrum, system.offsets[k], axis=(0, 1))
    return np.abs(np.fft.ifft2(shifted * system.pupil, norm="ortho")) ** 2


def spectral_overlap(system: FpSystem) -> float:
    """Smallest nearest-neighbor overlap fraction among the shifted
    pupils (1.0 for a single LED)."""
    if system.n_leds < 2:
        return 1.0
    flat = system._shifted_pupils().reshape(system.n_leds, -1).astype(np.int64)
    shared = flat @ flat.T  # cells each pair of pupils shares, exact
    np.fill_diagonal(shared, 0)
    return int(shared.max(axis=1).min()) / np.count_nonzero(system.pupil)


def fp_recover(intensities, system: FpSystem, sweeps=50) -> np.ndarray:
    """Stitch a synthetic object spectrum by alternating projections.

    Per LED: shift the working spectrum, keep the pupil passband,
    inverse transform, impose the measured magnitudes without touching
    the phase, transform back, and write the passband into place.  The
    on-axis (or first) measurement seeds the estimate.  Disjoint pupils
    cannot exchange phase information; ``spectral_overlap(system) == 0``
    marks that geometry, which is not repaired.

    The working spectrum is never rolled: each LED's passband is read
    and written through a flat index into it, computed once per LED, and
    the measured magnitudes sqrt(intensities) are taken once, with no
    second copy of the intensities.  The 2-D transforms run axis by axis
    in numpy's fft2 order (last axis first) and skip the 1-D transforms
    whose input is known zero or whose output is never read: the inverse
    transforms only the pupil's rows along axis 1, the forward only the
    pupil's columns along axis 0.  Raises ValueError on a negative or
    non-finite intensity sample.
    """
    _require_at_least(0, sweeps=sweeps)
    n = system.n
    intensities = np.asarray(intensities, dtype=float)
    _require_finite(intensities=intensities)
    _require_at_least(0, intensities=intensities)
    magnitudes = np.sqrt(intensities)
    if magnitudes.shape != (system.n_leds, n, n):
        raise ValueError("need one intensity frame per LED")

    order = np.argsort(np.hypot(*np.asarray(system.offsets, dtype=float).T))
    seed_k = order[0]
    est = np.fft.fft2(magnitudes[seed_k], norm="ortho")
    est = np.roll(est * system.pupil, -system.offsets[seed_k], axis=(0, 1)).ravel()

    # np.roll(est, off)[p] is est[(p - off) % n] on each axis
    pupil_flat = np.flatnonzero(system.pupil)
    pr, pc = np.divmod(pupil_flat, n)
    passbands = [((pr - o0) % n) * n + (pc - o1) % n for o0, o1 in system.offsets]
    # the pupil's rows and columns, and each pupil cell's place among them
    rows, row_of = np.unique(pr, return_inverse=True)
    cols, col_of = np.unique(pc, return_inverse=True)
    low = np.zeros((len(rows), n), dtype=complex)
    half = np.zeros((n, n), dtype=complex)
    for _ in range(sweeps):
        for k in order:
            low[row_of, pc] = est[passbands[k]]
            half[rows] = np.fft.ifft(low, axis=1, norm="ortho")
            img = magnitudes[k] * _sign(np.fft.ifft(half, axis=0, norm="ortho"))
            spec = np.fft.fft(img, axis=1, norm="ortho")[:, cols]
            est[passbands[k]] = np.fft.fft(spec, axis=0, norm="ortho")[pr, col_of]

    return est.reshape(n, n)
