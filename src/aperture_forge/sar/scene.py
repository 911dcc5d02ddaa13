"""Point-scatterer scenes and the stop-and-hop phase-history simulator."""

from dataclasses import dataclass, field

import numpy as np

from ..core import Axis, C_LIGHT, ComplexGrid, add_complex_noise
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
        if not all(np.isfinite([self.x0, self.y0])):
            raise ValueError("scatterer position must be finite")
        if self.slant_range <= 0:
            raise ValueError("scatterer must be off the flight line")

    @property
    def slant_range(self) -> float:
        return abs(float(self.y0))


@dataclass(frozen=True)
class PointScene:
    scatterers: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if not self.scatterers:
            raise ValueError("scene needs at least one scatterer")


@dataclass(frozen=True)
class SarGeometry:
    """Straight-line collection geometry.

    The platform flies along x at speed ``v`` radiating at ``prf`` for a
    coherent interval ``t_coh``, standing off at ``r1``.  The synthetic
    aperture length and apparent rotation rate follow directly and are
    exposed as properties.
    """

    v: float
    prf: float
    t_coh: float
    r1: float
    wavelength: float

    def __post_init__(self):
        # v = 0 is legal (stationary platform, pure range profiling)
        if self.v < 0 or min(self.prf, self.t_coh, self.r1, self.wavelength) <= 0:
            raise ValueError("geometry parameters must be positive (v may be zero)")

    @property
    def aperture_length(self) -> float:
        return self.v * self.t_coh

    @property
    def rotation_rate(self) -> float:
        return self.v / self.r1

    @property
    def n_pulses(self) -> int:
        return int(round(self.t_coh * self.prf))

    def slow_times(self) -> np.ndarray:
        n = self.n_pulses
        return (np.arange(n) - (n - 1) / 2.0) / self.prf


@dataclass(frozen=True)
class PhaseHistory:
    """Raw fast-time x slow-time samples plus what produced them.

    axis0 of ``data`` is fast time (delay, step 1/f_s), axis1 is slow
    time (step 1/PRF).
    """

    data: ComplexGrid
    chirp: LfmChirp
    geometry: SarGeometry

    @property
    def f_s(self) -> float:
        return 1.0 / self.data.axis0.step

    @property
    def tau0(self) -> float:
        return self.data.axis0.start


def slant_range_history(scatterer: Scatterer, geom: SarGeometry) -> np.ndarray:
    """R(t) = sqrt(r^2 + (V t - x0)^2) over the pulse train."""
    t = geom.slow_times()
    return np.sqrt(scatterer.slant_range ** 2 + (geom.v * t - scatterer.x0) ** 2)


def simulate_phase_history(
    scene: PointScene,
    geom: SarGeometry,
    chirp: LfmChirp,
    f_s: float,
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> PhaseHistory:
    """Forward-model the raw data matrix under stop-and-hop collection.

    Each pulse sees every scatterer as a delayed copy of the transmit
    envelope at 2R/c with the echo chirp phase exp(-j*pi*K*(tau-2R/c)^2)
    and carrier rotation exp(-j*4*pi*R/lambda).  The receive window is
    sized from the scene: it opens half a pulse before the earliest echo
    and closes half a pulse after the latest, snapped to the sample grid.
    Scatterers whose round trip would spill past the pulse repetition
    interval are rejected as range-ambiguous.
    """
    if f_s < chirp.bandwidth:
        raise ValueError("f_s must cover the chirp bandwidth")
    t = geom.slow_times()
    histories = [slant_range_history(s, geom) for s in scene.scatterers]
    r_min = min(h.min() for h in histories)
    r_max = max(h.max() for h in histories)
    pri = 1.0 / geom.prf
    if 2.0 * r_max / C_LIGHT + chirp.duration > pri:
        raise ValueError(
            "scene exceeds the unambiguous range window: "
            f"2R/c + T = {2 * r_max / C_LIGHT + chirp.duration:.3e} s > PRI {pri:.3e} s"
        )
    half = chirp.duration / 2.0
    tau0 = np.floor((2.0 * r_min / C_LIGHT - half) * f_s) / f_s
    tau_end = 2.0 * r_max / C_LIGHT + half
    n_fast = int(np.ceil((tau_end - tau0) * f_s)) + 1
    tau = tau0 + np.arange(n_fast) / f_s
    k_rate = chirp.rate
    lam = geom.wavelength
    data = np.zeros((n_fast, len(t)), dtype=complex)
    for scat, r_of_t in zip(scene.scatterers, histories):
        delays = 2.0 * r_of_t / C_LIGHT
        arg = tau[:, None] - delays[None, :]
        envelope = np.abs(arg) <= half
        pulse = chirp.amplitude * envelope * np.exp(-1j * np.pi * k_rate * arg ** 2)
        data += scat.reflectivity * pulse * np.exp(
            -1j * 4.0 * np.pi * r_of_t[None, :] / lam
        )
    grid = ComplexGrid(
        add_complex_noise(data, noise_sigma, seed),
        Axis(tau0, 1.0 / f_s),
        Axis(t[0], 1.0 / geom.prf),
    )
    return PhaseHistory(grid, chirp, geom)


def sar_resolutions(geom: SarGeometry, chirp: LfmChirp, d_antenna: float) -> dict:
    """Resolution and aperture-limit bookkeeping for one geometry.

    range: c/2B.  cross-range: lambda*R1/(2L), equivalently lambda over
    twice the integrated angle.  The Doppler cell matching that
    cross-range cell is 2*omega*dx/lambda.  Aperture limits: sqrt(R1*
    lambda) unfocused (quarter-wave phase sag at the ends), lambda*R1/D
    focused (beam-limited dwell).
    """
    if d_antenna <= 0:
        raise ValueError("antenna size must be positive")
    if geom.v == 0:
        raise ValueError("resolution laws need a moving platform (v > 0)")
    l_sa = geom.aperture_length
    dx = geom.wavelength * geom.r1 / (2.0 * l_sa)
    return {
        "range_resolution_m": C_LIGHT / (2.0 * chirp.bandwidth),
        "cross_range_resolution_m": dx,
        "doppler_resolution_hz": 2.0 * geom.rotation_rate * dx / geom.wavelength,
        "unfocused_aperture_m": float(np.sqrt(geom.r1 * geom.wavelength)),
        "focused_aperture_m": geom.wavelength * geom.r1 / d_antenna,
    }
