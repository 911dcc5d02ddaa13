"""Strip-map synthetic aperture sonar: geometry, linear forward model,
conventional beamforming, and sparse reconstruction.

The platform advances one recording interval per ping; each
transmitter/receiver pair collapses to a virtual monostatic element at
its midpoint.  With the gain factors folded into the scattering vector,
one (ping, frequency) snapshot is d = A s + n where the columns of A
hold pure propagation phases.  Reconstruction is either the coherent
adjoint sum over all pings and frequencies or a lasso fit solved by
proximal gradient over the jointly stacked system.
"""

from dataclasses import dataclass

import numpy as np

from .core import (SolverResult, _require_at_least, _require_finite, _require_finite_positive,
                   add_complex_noise, power_iteration)

C_SOUND = 1500.0  # speed of sound in sea water, m/s


@dataclass(frozen=True)
class SasGeometry:
    """Along-track collection layout.

    The platform track is the y axis, range is x.  Receivers sit at
    fixed along-track offsets from the transmitter, which sits at 0; both
    ride along at v_p * tau_rec per ping.
    """

    v_p: float
    tau_rec: float
    n_pings: int
    rx_offsets: np.ndarray

    def __post_init__(self):
        _require_finite_positive(v_p=self.v_p, tau_rec=self.tau_rec)
        _require_at_least(1, n_pings=self.n_pings)
        rx = np.atleast_1d(np.asarray(self.rx_offsets, dtype=float))
        if rx.size < 1:
            raise ValueError(f"need at least one receiver, got rx_offsets={rx}")
        _require_finite(rx_offsets=rx)
        object.__setattr__(self, "rx_offsets", rx)

    @property
    def r_max(self) -> float:
        """Maximum unambiguous swath: echoes arriving after tau_rec are lost."""
        return C_SOUND * self.tau_rec / 2.0

    def ping_positions(self) -> np.ndarray:
        return np.arange(self.n_pings) * self.v_p * self.tau_rec

    def virtual_elements(self) -> np.ndarray:
        """(P, M) along-track positions of the phase-center midpoints."""
        y_p = self.ping_positions()
        mid = self.rx_offsets / 2.0
        return y_p[:, None] + mid[None, :]


def _distances(geom: SasGeometry, points: np.ndarray) -> np.ndarray:
    """(P, M, N) scatterer-to-virtual-element distances."""
    v = geom.virtual_elements()
    dx = points[None, None, :, 0]
    dy = points[None, None, :, 1] - v[:, :, None]
    return np.hypot(dx, dy)


class SensingModel:
    """Stacked steering tensors plus forward/adjoint applications.

    tensor[p, f, m, n] = exp(-j (2 pi f / c) 2 ||r_n - r_v(p,m)||);
    every entry is unimodular, the spreading gain lives in s.
    """

    def __init__(self, geometry: SasGeometry, points, frequencies):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must be (N, 2) as (range, along-track), got {points.shape}")
        _require_finite(points=points)
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.ndim != 1 or freqs.size < 1:
            raise ValueError(f"frequencies must be a nonempty 1-D array, got shape {freqs.shape}")
        _require_finite_positive(frequencies=freqs)
        dist = _distances(geometry, points)
        if dist.max() > geometry.r_max + 1e-12:
            raise ValueError(
                f"grid extends to {dist.max():.3f} m, beyond the maximum swath"
                f" c*tau_rec/2 = {geometry.r_max:.3f} m, got tau_rec={geometry.tau_rec},"
                f" v_p={geometry.v_p}, rx_offsets={geometry.rx_offsets}, points=[{len(points)}"
                f" (range, along-track) nodes from {points.min(0)} to {points.max(0)} m]")
        phase = (-2j * np.pi / C_SOUND) * 2.0 \
            * freqs[None, :, None, None] * dist[:, None, :, :]
        self.tensor = np.exp(phase)

    @property
    def shape(self):
        return self.tensor.shape  # (P, F, M, N)

    def forward(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=complex)
        if s.shape != (self.tensor.shape[3],):
            raise ValueError("scattering vector length does not match the grid")
        return np.einsum("pfmn,n->pfm", self.tensor, s)

    def adjoint(self, d_stack) -> np.ndarray:
        """Delay-and-sum image: the coherent sum over pings and
        frequencies.  A unit scatterer on a grid node integrates to exactly
        P*F*M there."""
        d = np.asarray(d_stack, dtype=complex)
        if d.shape != self.tensor.shape[:3]:
            raise ValueError("data stack shape does not match the model")
        # conj(T^T conj(d)) gives the bits of conj(T)^T d without a conjugated
        # copy of the whole tensor
        return np.conj(np.einsum("pfmn,pfm->n", self.tensor, np.conj(d)))

    def operator_bound(self) -> float:
        """Largest squared singular value of the stacked operator by
        power iteration (fixed 30 steps is plenty at these sizes)."""
        lam, _ = power_iteration(lambda v: self.adjoint(self.forward(v)),
                                 self.tensor.shape[3], 30)
        return float(lam)


def build_sensing_model(geom: SasGeometry, points, grid) -> SensingModel:
    """The model at the tones of the FrequencyGrid ``grid``."""
    return SensingModel(geom, points, grid.frequencies())


def simulate_measurements(geom: SasGeometry, points, amplitudes, grid,
                          noise_sigma=0.0, seed=None) -> np.ndarray:
    """d(p, f) stacks over all receivers: A s plus complex white noise, with
    s the ``amplitudes`` of the (N, 2) (range, along-track) ``points``."""
    model = build_sensing_model(geom, points, grid)
    return add_complex_noise(model.forward(amplitudes), noise_sigma, seed)


def _soft_threshold(s, t):
    mag = np.abs(s)
    scale = np.where(mag > 0.0, np.maximum(1.0 - t / np.where(mag > 0, mag, 1.0), 0.0), 0.0)
    return s * scale


def sas_sparse(d_stack, model: SensingModel, mu, solver="ista",
               max_iter=500, tol=1e-8) -> SolverResult:
    """Lasso reconstruction 1/2||As - d||^2 + mu*||s||_1 over the joint
    (ping, frequency) stack by proximal gradient.

    ISTA descends monotonically; FISTA adds momentum and converges faster
    but not monotonically, so a run that stops "max_iter" returns the best
    iterate seen.  The step is 1/L with L the power-iteration bound.  Raises ValueError on a non-finite ``d_stack``.
    """
    _require_finite_positive(mu=mu)
    if solver not in ("ista", "fista"):
        raise ValueError(f"solver must be 'ista' or 'fista', got solver={solver!r}")
    _require_at_least(0, max_iter=max_iter)
    d = np.asarray(d_stack, dtype=complex)
    _require_finite(d_stack=d)
    step = 1.0 / model.operator_bound()

    n = model.shape[3]
    s = np.zeros(n, dtype=complex)
    y = s
    t_mom = 1.0

    def objective(v):
        r = model.forward(v) - d
        return 0.5 * np.vdot(r, r).real + mu * np.sum(np.abs(v))

    history = [objective(s)]
    best_s, best_obj = s, history[0]
    for _ in range(max_iter):
        grad = model.adjoint(model.forward(y) - d)
        s_next = _soft_threshold(y - step * grad, step * mu)
        if solver == "fista":
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_mom ** 2)) / 2.0
            y = s_next + ((t_mom - 1.0) / t_next) * (s_next - s)
            t_mom = t_next
        else:
            y = s_next
        delta = np.linalg.norm(s_next - s) / max(np.linalg.norm(s), 1e-30)
        s = s_next
        obj = objective(s)
        history.append(obj)
        if obj < best_obj:
            best_obj, best_s = obj, s
        if delta < tol:
            return SolverResult(s, np.asarray(history), "converged")
    return SolverResult(best_s, np.asarray(history), "max_iter")


def lasso_mu_max(d_stack, model: SensingModel) -> float:
    """Shutoff point ||A^H d||_inf of the lasso: any mu at or above it
    provably yields the all-zero solution."""
    mu_max = float(np.max(np.abs(model.adjoint(d_stack))))
    if mu_max == 0.0:
        raise ValueError("data is identically zero; no mu scale exists")
    return mu_max


def sas_resolutions(delta_f, d_transducer, wavelength, r0) -> dict:
    """Range cell from bandwidth, synthetic length from the transducer
    beamwidth dwell, cross-range cell from that synthetic length.  The
    algebra collapses delta_y to D/2: independent of range and frequency.
    """
    _require_finite_positive(delta_f=delta_f, d_transducer=d_transducer, wavelength=wavelength,
                             r0=r0)
    l_sa = wavelength * r0 / d_transducer
    return {
        "range_resolution_m": C_SOUND / (2.0 * delta_f),
        "sa_length_m": l_sa,
        "cross_range_resolution_m": wavelength * r0 / (2.0 * l_sa),
    }
