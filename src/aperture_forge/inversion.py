"""Phaseless inverse problems.

Quadratic measurements y_i = |<a_i, x>|^2 come in two flavors here:
explicit sampling vectors stacked into a matrix, or diagonal unimodular
masks composed with a unitary DFT (coded diffraction, far zone).  On top
of the forward model sit a spectral initializer, amplitude-flow gradient
descent, classic error-reduction alternating projections, and a small
Fourier-ptychography acquire/recover pair.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import noise_rng, power_iteration, seeded_rng


@dataclass(frozen=True)
class PhaselessProblem:
    """Sampling structure for y = |A x|^2.

    Exactly one of ``vectors`` (rows are the conjugated sampling vectors,
    so A @ x evaluates all inner products) or ``masks`` (L unimodular
    diagonals, each followed by a unitary DFT) must be given.  The
    adjoint of ``vectors`` is kept once, not formed on every call.
    """

    n: int
    vectors: np.ndarray = None
    masks: np.ndarray = None
    _vectors_h: np.ndarray = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        if (self.vectors is None) == (self.masks is None):
            raise ValueError("provide exactly one of vectors or masks")
        if self.vectors is not None:
            v = np.asarray(self.vectors, dtype=complex)
            if v.ndim != 2 or v.shape[1] != self.n:
                raise ValueError("vectors must be (m, n)")
            object.__setattr__(self, "vectors", v)
            object.__setattr__(self, "_vectors_h", v.conj().T)
        else:
            d = np.asarray(self.masks, dtype=complex)
            if d.ndim != 2 or d.shape[1] != self.n:
                raise ValueError("masks must be (L, n)")
            object.__setattr__(self, "masks", d)

    @property
    def m(self) -> int:
        return self.vectors.shape[0] if self.vectors is not None else self.masks.size


def gaussian_problem(m, n, seed) -> PhaselessProblem:
    """Standard complex Gaussian sampling vectors, unit entry variance.
    A None ``seed`` raises ValueError."""
    rng = seeded_rng(seed, "drawing Gaussian sampling vectors")
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    return PhaselessProblem(n=n, vectors=a)


def coded_problem(n, n_masks, seed) -> PhaselessProblem:
    """Unimodular random-phase masks; statistics are not prescribed by
    the physics, uniform phases are the conventional choice.  A None
    ``seed`` raises ValueError."""
    rng = seeded_rng(seed, "drawing coded masks")
    masks = np.exp(2j * np.pi * rng.random((n_masks, n)))
    return PhaselessProblem(n=n, masks=masks)


def _forward(problem, x):
    if problem.vectors is not None:
        return problem.vectors @ x
    return np.fft.fft(problem.masks * x[None, :], axis=1, norm="ortho").ravel()


def _adjoint(problem, w):
    if problem.vectors is not None:
        return problem._vectors_h @ w
    blocks = np.fft.ifft(w.reshape(problem.masks.shape), axis=1, norm="ortho")
    return np.sum(np.conj(problem.masks) * blocks, axis=0)


def _op_norm_sq(problem):
    # masks followed by a unitary DFT give A^H A = L * I exactly
    if problem.masks is not None:
        return float(problem.masks.shape[0])
    lam, _ = power_iteration(lambda v: _adjoint(problem, _forward(problem, v)),
                             problem.n, 30)
    return lam


def _sign(z):
    mag = np.abs(z)
    return np.divide(z, mag, out=np.zeros_like(z), where=mag > 0.0)


def pr_forward(x, problem, noise_sigma=0.0, seed=None) -> np.ndarray:
    """Phaseless measurements |A x|^2, optionally with additive noise
    (clipped at zero to keep the vector physical).  Raises ValueError on
    a non-finite ``x``, and on a negative ``noise_sigma`` or a positive
    one without a seed."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (problem.n,):
        raise ValueError("x length does not match the problem dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    y = np.abs(_forward(problem, x)) ** 2
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
        lambda v: _adjoint(problem, y * _forward(problem, v)) / problem.m, problem.n, 100)
    return v * np.sqrt(np.mean(y))


@dataclass(frozen=True)
class FlowResult:
    x: np.ndarray
    objective: np.ndarray
    diverged: bool = False


def af_objective(x, y, problem) -> float:
    with np.errstate(over="ignore"):  # inf is meaningful: divergence signal
        return float(np.mean((np.sqrt(y) - np.abs(_forward(problem, x))) ** 2))


def af_gradient(x, y, problem) -> np.ndarray:
    """Gradient of the amplitude objective with the subgradient of |z|
    taken as 0 at z = 0.  Real and imaginary parts are the partials with
    respect to Re(x) and Im(x), which is what a finite-difference check
    sees."""
    z = _forward(problem, x)
    return (2.0 / problem.m) * _adjoint(problem, z - np.sqrt(y) * _sign(z))


def amplitude_flow(y, problem, init, steps=500) -> FlowResult:
    """Fixed-step gradient descent on (1/m) sum (sqrt(y_i) - |<a_i,x>|)^2.

    The step targets the local Hessian scale 2||A||^2 / m; a
    non-finite objective aborts with the iterate history intact.  Each
    step's A x and |A x| are computed once and serve both its objective
    and the next gradient; the sign, residual and objective terms are
    written into buffers allocated once.
    """
    root_y = np.sqrt(np.asarray(y, dtype=float))
    x = np.asarray(init, dtype=complex).copy()
    m = problem.m
    lr = 0.1 / (2.0 * _op_norm_sq(problem) / m)
    mag, sq = np.empty(m), np.empty(m)
    sgn, resid = np.empty(m, dtype=complex), np.empty(m, dtype=complex)

    def objective(z):
        with np.errstate(over="ignore"):  # inf is meaningful: divergence signal
            np.abs(z, out=mag)
            np.square(np.subtract(root_y, mag, out=sq), out=sq)
            return float(np.add.reduce(sq) / m)

    z = _forward(problem, x)
    history = [objective(z)]
    for _ in range(steps):
        sgn.fill(0)
        np.divide(z, mag, out=sgn, where=mag > 0.0)
        np.subtract(z, np.multiply(root_y, sgn, out=resid), out=resid)
        x = x - lr * ((2.0 / m) * _adjoint(problem, resid))
        z = _forward(problem, x)
        obj = objective(z)
        history.append(obj)
        if not np.isfinite(obj):
            return FlowResult(x, np.asarray(history), diverged=True)
    return FlowResult(x, np.asarray(history))


@dataclass(frozen=True)
class ErrorReductionResult:
    x: np.ndarray
    residuals: np.ndarray


def error_reduction(y, problem, init, iters=200) -> ErrorReductionResult:
    """Alternating projections between the modulus set (replace
    magnitudes by sqrt(y), keep the phase) and the range of the forward
    operator.  Both are closest-point projections, so the residual
    ||sqrt(y) - |A x||| never increases."""
    y = np.asarray(y, dtype=float)
    root_y = np.sqrt(y)
    x = np.asarray(init, dtype=complex).copy()
    if problem.vectors is not None:
        pinv = np.linalg.pinv(problem.vectors)
        project = lambda w: pinv @ w
    else:
        n_masks = problem.masks.shape[0]
        project = lambda w: _adjoint(problem, w) / n_masks
    z = _forward(problem, x)
    residuals = [float(np.linalg.norm(root_y - np.abs(z)))]
    for _ in range(iters):
        x = project(root_y * _sign(z))
        z = _forward(problem, x)
        residuals.append(float(np.linalg.norm(root_y - np.abs(z))))
    return ErrorReductionResult(x, np.asarray(residuals))


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
    field sampled every dx over n points."""
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
            raise ValueError("a shifted pupil reaches the band edge")
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
        cov = np.zeros((self.n, self.n), dtype=bool)
        for off in self.offsets:
            cov |= np.roll(self.pupil, -off, axis=(0, 1))
        return cov


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
    supports = [np.roll(system.pupil, -off, axis=(0, 1)) for off in system.offsets]
    area = np.count_nonzero(system.pupil)
    worst = 1.0
    for i, s_i in enumerate(supports):
        best = 0.0
        for j, s_j in enumerate(supports):
            if i != j:
                best = max(best, np.count_nonzero(s_i & s_j) / area)
        worst = min(worst, best)
    return worst


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
    pupil's columns along axis 0.
    """
    n = system.n
    magnitudes = np.sqrt(np.asarray(intensities, dtype=float))
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
