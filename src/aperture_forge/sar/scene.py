"""Point-scatterer scenes and the stop-and-hop phase-history simulator."""

from dataclasses import dataclass

import numpy as np

from ..core import (C_LIGHT, _require_at_least, _require_finite, _require_finite_positive,
                    add_complex_noise)
from ..waveforms import LfmChirp


@dataclass(frozen=True)
class Scatterer:
    """One ideal point reflector in the ground plane.

    ``x0`` is the along-track position and ``y0`` the downrange offset,
    so the closest-approach slant range is |y0|.
    """

    x0: float
    y0: float
    reflectivity: complex = 1.0 + 0.0j

    def __post_init__(self):
        _require_finite(x0=self.x0, y0=self.y0)
        if self.slant_range <= 0:
            raise ValueError("scatterer must be off the flight line")

    @property
    def slant_range(self) -> float:
        return abs(float(self.y0))


@dataclass(frozen=True)
class SarGeometry:
    """Straight-line collection geometry.

    The platform flies along x at speed ``v`` radiating at ``prf`` for a
    coherent interval ``t_coh``, standing off at ``r1``.  The synthetic
    aperture length follows directly and is exposed as a property.
    """

    v: float
    prf: float
    t_coh: float
    r1: float
    wavelength: float

    def __post_init__(self):
        # v = 0 is legal (stationary platform, pure range profiling)
        _require_finite(v=self.v)
        _require_at_least(0, v=self.v)
        _require_finite_positive(prf=self.prf, t_coh=self.t_coh, r1=self.r1,
                                 wavelength=self.wavelength)
        if self.n_pulses < 1:
            raise ValueError("round(t_coh * prf) must be >= 1 pulse,"
                             f" got t_coh={self.t_coh}, prf={self.prf}")

    @property
    def aperture_length(self) -> float:
        return self.v * self.t_coh

    @property
    def n_pulses(self) -> int:
        return int(round(self.t_coh * self.prf))

    def slow_times(self) -> np.ndarray:
        n = self.n_pulses
        return (np.arange(n) - (n - 1) / 2.0) / self.prf


@dataclass(frozen=True)
class PhaseHistory:
    """Raw fast-time x slow-time samples plus what produced them.

    Rows of ``data`` are fast time (delay ``tau0 + m / f_s``), columns
    slow time (the geometry's pulse times).
    """

    data: np.ndarray
    tau0: float
    f_s: float
    chirp: LfmChirp
    geometry: SarGeometry

    def __post_init__(self):
        if np.ndim(self.data) != 2:
            raise ValueError("phase history data must be 2-D")
        _require_finite(data=self.data, tau0=self.tau0)
        _require_finite_positive(f_s=self.f_s)


def slant_range_history(scatterer: Scatterer, geom: SarGeometry) -> np.ndarray:
    """R(t) = sqrt(r^2 + (V t - x0)^2) over the pulse train."""
    t = geom.slow_times()
    return np.sqrt(scatterer.slant_range ** 2 + (geom.v * t - scatterer.x0) ** 2)


def simulate_phase_history(
    scatterers,
    geom: SarGeometry,
    chirp: LfmChirp,
    f_s: float,
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> PhaseHistory:
    """Forward-model the raw data matrix of a sequence of ``Scatterer``s
    under stop-and-hop collection.

    Each pulse sees every scatterer as a delayed copy of the transmit
    envelope at 2R/c with the echo chirp phase exp(-j*pi*K*(tau-2R/c)^2)
    and carrier rotation exp(-j*4*pi*R/lambda).  The receive window is
    sized from the scene: it opens half a pulse before the earliest echo
    and closes half a pulse after the latest, snapped to the sample grid.
    Scatterers whose round trip would spill past the pulse repetition
    interval are rejected as range-ambiguous.
    """
    scatterers = tuple(scatterers)
    if not scatterers:
        raise ValueError("scene needs at least one scatterer")
    if f_s < chirp.bandwidth:
        raise ValueError(f"f_s must be >= bandwidth, got f_s={f_s}, bandwidth={chirp.bandwidth}")
    t = geom.slow_times()
    histories = [slant_range_history(s, geom) for s in scatterers]
    r_min = min(h.min() for h in histories)
    r_max = max(h.max() for h in histories)
    pri = 1.0 / geom.prf
    if 2.0 * r_max / C_LIGHT + chirp.duration > pri:
        raise ValueError(
            "scene exceeds the unambiguous range window: "
            f"2R/c + T = {2 * r_max / C_LIGHT + chirp.duration:.3e} s > PRI {pri:.3e} s"
            f" (got prf={geom.prf}, r1={geom.r1}, duration={chirp.duration})"
        )
    half = chirp.duration / 2.0
    tau0 = np.floor((2.0 * r_min / C_LIGHT - half) * f_s) / f_s
    tau_end = 2.0 * r_max / C_LIGHT + half
    n_fast = int(np.ceil((tau_end - tau0) * f_s)) + 1
    tau = tau0 + np.arange(n_fast) / f_s
    k_rate = chirp.rate
    lam = geom.wavelength
    data = np.zeros((n_fast, len(t)), dtype=complex)
    for scat, r_of_t in zip(scatterers, histories):
        delays = 2.0 * r_of_t / C_LIGHT
        arg = tau[:, None] - delays[None, :]
        envelope = np.abs(arg) <= half
        # one complex frame per scatterer, freed before the next one's, each
        # product written back into it in the operand order of
        # envelope * exp(..) * reflectivity * carrier
        np.square(arg, out=arg)
        echo = np.multiply(-1j * np.pi * k_rate, arg)
        np.exp(echo, out=echo)
        np.multiply(envelope, echo, out=echo)
        np.multiply(scat.reflectivity, echo, out=echo)
        np.multiply(echo, np.exp(-1j * 4.0 * np.pi * r_of_t[None, :] / lam), out=echo)
        data += echo
        del echo
    return PhaseHistory(add_complex_noise(data, noise_sigma, seed), tau0, f_s, chirp, geom)


def sar_resolutions(geom: SarGeometry, chirp: LfmChirp) -> dict:
    """Resolution bookkeeping for one geometry.

    range: c/2B.  cross-range: lambda*R1/(2L), equivalently lambda over
    twice the integrated angle.
    """
    _require_finite_positive(v=geom.v)  # the laws need a moving platform
    l_sa = geom.aperture_length
    dx = geom.wavelength * geom.r1 / (2.0 * l_sa)
    return {
        "range_resolution_m": C_LIGHT / (2.0 * chirp.bandwidth),
        "cross_range_resolution_m": dx,
    }
