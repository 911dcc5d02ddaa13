"""Adaptive (Capon) imaging from an aperture-by-frequency data matrix.

The data matrix Z holds one complex sample per (aperture position,
frequency bin).  A sample covariance is built from heavily overlapped
2-D sub-blocks, and each pixel's power estimate minimizes output power
subject to unit gain on that pixel's steering vector:

    sigma^2(x, y) = 1 / (v^H (R + alpha I)^-1 v)

Diagonal loading alpha trades adaptivity for robustness; alpha -> inf
recovers the conventional beamformer scan.
"""

from dataclasses import dataclass

import numpy as np

from ..core import C_LIGHT, add_complex_noise


@dataclass(frozen=True)
class CaponProblem:
    """Data plus steering model for one adaptive imaging run.

    z: (M, N) complex matrix, aperture positions down the rows and
        frequency bins across the columns.
    steering: separable steering model (see LinearPhaseSteering).
        steering.ramps(x_grid, y_grid, (P, L)) returns the per-axis ramps
        A_x (P, n_x) and A_y (L, n_y) with unit-norm columns; pixel
        (x_i, y_j) steers with kron(A_x[:, i], A_y[:, j]).
    loading: diagonal loading alpha >= 0.
    block_shape: covariance sub-block (P, L); default (M//4, N//4).
    """

    z: np.ndarray
    steering: object
    loading: float = 0.0
    block_shape: tuple = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.ndim != 2 or min(z.shape) < 4:
            raise ValueError("z must be 2-D with at least 4 rows and columns")
        object.__setattr__(self, "z", z)
        if self.loading < 0.0:
            raise ValueError("loading must be nonnegative")
        shape = self.block_shape
        if shape is None:
            shape = (z.shape[0] // 4, z.shape[1] // 4)
        p, l = int(shape[0]), int(shape[1])
        if p < 1 or l < 1 or p > z.shape[0] or l > z.shape[1]:
            raise ValueError("block_shape must fit inside z")
        object.__setattr__(self, "block_shape", (p, l))

    def sample_covariance(self) -> np.ndarray:
        """Mean outer product over 75%-overlapped sub-blocks of Z."""
        p, l = self.block_shape
        m, n = self.z.shape
        hop_p = max(p // 4, 1)
        hop_l = max(l // 4, 1)
        acc = np.zeros((p * l, p * l), dtype=complex)
        count = 0
        for i in range(0, m - p + 1, hop_p):
            for j in range(0, n - l + 1, hop_l):
                snap = self.z[i:i + p, j:j + l].ravel()
                acc += np.outer(snap, np.conj(snap))
                count += 1
        return acc / count


@dataclass(frozen=True)
class LinearPhaseSteering:
    """Separable steering for a small scene at standoff r_ref.

    Cross-range x turns into a phase ramp across aperture steps d_u
    (two-way, small-angle), downrange y into a ramp across frequency
    steps d_f.  Valid while |x| << r_ref.
    """

    f_c: float
    d_u: float
    d_f: float
    r_ref: float

    def __post_init__(self):
        if self.f_c <= 0 or self.d_u <= 0 or self.d_f <= 0 or self.r_ref <= 0:
            raise ValueError("steering parameters must be positive")

    def ramps(self, x_grid, y_grid, block_shape):
        """Unit-norm ramps A_x (P, n_x) over aperture steps and A_y (L, n_y)
        over frequency steps, one column per grid coordinate."""
        p, l = block_shape
        x = np.asarray(x_grid, dtype=float)
        y = np.asarray(y_grid, dtype=float)
        wx = 4.0 * np.pi * self.f_c * self.d_u * x / (C_LIGHT * self.r_ref)
        wy = -4.0 * np.pi * self.d_f * y / C_LIGHT
        a_x = np.exp(1j * np.outer(np.arange(p), wx)) / np.sqrt(p)
        a_y = np.exp(1j * np.outer(np.arange(l), wy)) / np.sqrt(l)
        return a_x, a_y


def _steering_matrix(problem, x_grid, y_grid):
    """Steering vectors as columns, pixel (x_i, y_j) at column i*n_y + j."""
    a_x, a_y = problem.steering.ramps(x_grid, y_grid, problem.block_shape)
    return np.kron(a_x, a_y)


def _scan(v, r):
    """v_p^H R v_p for every column p of v."""
    return np.sum(np.conj(v) * (r @ v), axis=0).real


def capon_image(problem: CaponProblem, x_grid, y_grid) -> np.ndarray:
    """Capon power estimate on the (x, y) pixel lattice.

    With loading == 0 the sample covariance must be full rank; a
    rank-deficient R raises with a pointer at the loading knob rather
    than returning a numerically meaningless inverse.
    """
    r_hat = problem.sample_covariance()
    dim = r_hat.shape[0]
    if problem.loading == 0.0:
        w = np.linalg.eigvalsh(r_hat)
        if w[0] <= w[-1] * 1e-10:
            raise ValueError(
                "sample covariance is rank deficient; set loading > 0"
            )
    r_inv = np.linalg.inv(r_hat + problem.loading * np.eye(dim))
    image = 1.0 / _scan(_steering_matrix(problem, x_grid, y_grid), r_inv)
    return image.reshape(len(x_grid), len(y_grid))


def conventional_image(problem: CaponProblem, x_grid, y_grid) -> np.ndarray:
    """Conventional beamformer scan v^H R v on the same covariance."""
    r_hat = problem.sample_covariance()
    power = _scan(_steering_matrix(problem, x_grid, y_grid), r_hat)
    return power.reshape(len(x_grid), len(y_grid))


def matched_image(problem: CaponProblem, x_grid, y_grid) -> np.ndarray:
    """Full-aperture matched scan |sum Z .* conj(V)|^2 (no smoothing),
    which separates into |A_x^H Z conj(A_y)|^2."""
    a_x, a_y = problem.steering.ramps(x_grid, y_grid, problem.z.shape)
    return np.abs(a_x.conj().T @ problem.z @ a_y.conj()) ** 2


def synthesize_capon_data(sources, m, n, f_c, d_u, d_f, r_ref,
                          noise_sigma=0.0, seed=None) -> np.ndarray:
    """Build an (m, n) data matrix from point sources plus noise.

    sources: iterable of (x, y, complex amplitude); source k adds
    amplitude * sqrt(m n) * A_x[p, k] * A_y[l, k] at (p, l), with the
    ramps of LinearPhaseSteering at full size, so recovered positions
    line up with the imaging grid by construction.
    """
    xs, ys, amps = zip(*sources)
    a_x, a_y = LinearPhaseSteering(f_c, d_u, d_f, r_ref).ramps(xs, ys, (m, n))
    z = np.sqrt(m * n) * (a_x * np.asarray(amps)) @ a_y.T
    return add_complex_noise(z, noise_sigma, seed)
