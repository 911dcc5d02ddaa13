"""Channel synthesis over a positioner lattice and the delay-domain
beamforming products: power delay profiles per direction, delay slices
over angle, and near-field (spherical phasefront) variants."""

from dataclasses import dataclass

import numpy as np

from ..core import (C_LIGHT, Direction, _require_at_least, _require_finite,
                    _require_finite_positive, add_complex_noise)
from .arrays import SamplingLattice, array_factor
from .grids import FrequencyGrid


@dataclass(frozen=True)
class PlaneWaveRay:
    """A plane wave from direction (u, v), arriving at an explicit ``delay``."""

    u: float
    v: float
    delay: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        Direction(self.u, self.v)  # rejects non-finite or invisible (u, v)

    def _s21(self, lattice: SamplingLattice, f, t_dur):
        """amp*exp(j*2*pi*f*((x*u0 + y*v0)/c - tau)), positions by tones."""
        if not 0.0 <= self.delay < t_dur:
            raise ValueError(f"ray delay={self.delay} outside the unambiguous window [0, {t_dur})")
        pos = lattice.active_positions()
        spatial = (pos[:, 0] * self.u + pos[:, 1] * self.v) / C_LIGHT
        return self.amplitude * np.exp(
            1j * 2.0 * np.pi * f[None, :] * (spatial[:, None] - self.delay))


@dataclass(frozen=True)
class PointSourceRay:
    """A point source at ``position``, its delays set by geometry."""

    position: tuple
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        _require_finite(position=self.position)

    def _s21(self, lattice: SamplingLattice, f, t_dur):
        """amp*exp(-j*2*pi*f*d/c), d the exact distance of each position."""
        d = np.linalg.norm(lattice.active_positions() - np.asarray(self.position), axis=1)
        eff = d / C_LIGHT
        if eff.min() < 0.0 or eff.max() >= t_dur:
            raise ValueError(
                f"point-source position={self.position} delay outside the unambiguous window"
                f" [0, {t_dur}), got d_x={lattice.d_x}, d_y={lattice.d_y}"
            )
        return self.amplitude * np.exp(-1j * 2.0 * np.pi * f[None, :] * eff[:, None])


class SweepData:
    """Complex transmission samples, one row per active lattice position,
    one column per tone."""

    def __init__(self, s21, lattice: SamplingLattice, grid: FrequencyGrid):
        arr = np.asarray(s21, dtype=complex)
        if arr.shape != (lattice.n_active, grid.s):
            raise ValueError(
                f"s21 shape {arr.shape} != (active positions {lattice.n_active},"
                f" tones {grid.s})"
            )
        _require_finite(s21=arr)
        self.s21 = arr
        self.lattice = lattice
        self.grid = grid


def synthesize_sweep(
    rays,
    lattice: SamplingLattice,
    grid: FrequencyGrid,
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> SweepData:
    """Forward-model the sweep a positioner would record for these rays
    (PlaneWaveRay or PointSourceRay), summed in ray order.  Every ray's
    effective delays must stay inside the unambiguous window [0, 1/df).
    """
    f = grid.frequencies()
    s21 = np.zeros((lattice.n_active, grid.s), dtype=complex)
    for ray in rays:
        s21 += ray._s21(lattice, f, grid.t_dur)
    return SweepData(add_complex_noise(s21, noise_sigma, seed), lattice, grid)


def two_ray_path_loss(rho: float, phi: float) -> float:
    """Power gain beta^2 of a direct ray summed with one reflection.

    The reflected ray has relative amplitude ``rho`` and relative phase
    ``phi``; beta^2 = 1 + 2*rho*cos(phi) + rho^2.
    """
    _require_finite(rho=rho, phi=phi)
    _require_at_least(0, rho=rho)
    return float(1.0 + 2.0 * rho * np.cos(phi) + rho ** 2)


@dataclass(frozen=True)
class Pdp:
    """Power delay profile (complex amplitude retained); the last axis of
    ``amplitude`` runs over ``delays``."""

    delays: np.ndarray
    amplitude: np.ndarray

    @property
    def power(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def _beam_maps(sweep: SweepData, u, v) -> np.ndarray:
    """b(f_s; u, v) = w^H(f_s) y(f_s) with true-time-delay steering, one
    beam map per tone: shape (S, len(u), len(v)), scalar u or v counting
    as length 1."""
    return np.conj([
        array_factor(sweep.lattice, np.conj(sweep.s21[:, i]), u, v, f)
        for i, f in enumerate(sweep.grid.frequencies())
    ])


def _profile(b, grid: FrequencyGrid):
    """Delay axis and Hamming-tapered, 4x zero-padded inverse DFT of a
    beam series b(f_s).  The transform keeps the 1/S normalization
    regardless of padding, so the untapered transform at the unpadded
    bins is what delay_slice evaluates there."""
    nfft = 4 * grid.s
    amp = np.fft.ifft(b * np.hamming(grid.s), nfft) * 4
    return np.arange(nfft) / (nfft * grid.df), amp


def padp(sweep: SweepData, direction: Direction) -> Pdp:
    """Power delay profile along one look direction.

    Beamforms every tone with true-time-delay steering, then tapers,
    zero-pads and inverse-DFTs to delay (see _profile).
    """
    delays, amp = _profile(_beam_maps(sweep, direction.u, direction.v)[:, 0, 0], sweep.grid)
    return Pdp(delays=delays, amplitude=amp)


def delay_slice(sweep: SweepData, u_axis, v_axis, m: int) -> np.ndarray:
    """Evaluate the untapered delay-domain IDFT at bin ``m`` of the
    unpadded delay grid (step 1/(S df)) over an angle grid, as a complex
    (len(u_axis), len(v_axis)) map.

    x(tau_m; u, v) = (1/S) sum_s b(f_s; u, v) exp(j*2*pi*m*s/S).
    """
    s = sweep.grid.s
    if not 0 <= m < s:
        raise ValueError(f"delay bin {m} outside the unpadded delay grid [0, {s})")
    idft = np.exp(1j * 2.0 * np.pi * m * np.arange(s) / s) / s
    # einsum, not the threaded BLAS product of tensordot, whose bits move
    # with the BLAS thread count
    return np.einsum("s,suv->uv", idft, _beam_maps(sweep, u_axis, v_axis))


def source_distances(
    lattice: SamplingLattice, direction: Direction, r: float
) -> np.ndarray:
    """Distances from a virtual source at range ``r`` along ``direction``
    (referenced to the lattice center) to each active position."""
    src = np.array([r * direction.u, r * direction.v, r * direction.w])
    return np.linalg.norm(lattice.active_positions() - src, axis=1)


def spherical_padp(
    sweep: SweepData,
    direction: Direction,
    r_start: float,
    r_stop: float,
    r_step: float,
) -> tuple[np.ndarray, Pdp]:
    """Near-field PADP: focus at a sequence of candidate ranges.

    For each range hop the steering phase matches a spherical wavefront
    from the virtual source at that range along the look direction,
    referenced to the lattice center so the delay axis still reads the
    source's center delay.  Taper and padding are padp's (Hamming, 4x),
    so far hops converge to the plane-wave padp.  Returns the ranges and
    one Pdp whose amplitude has a row per range: (len(ranges), n_delay).
    """
    _require_finite_positive(r_start=r_start, r_step=r_step)
    if not r_stop >= r_start:
        raise ValueError(f"need r_start <= r_stop, got r_start={r_start}, r_stop={r_stop}")
    ranges = np.arange(r_start, r_stop + r_step / 2.0, r_step)
    if np.any(np.abs(ranges * direction.w) < 1e-9):
        raise ValueError("virtual source falls in the lattice plane")
    f = sweep.grid.frequencies()
    out = np.empty((len(ranges), 4 * sweep.grid.s), dtype=complex)
    for i, r in enumerate(ranges):
        d = source_distances(sweep.lattice, direction, r)
        w = np.exp(-1j * 2.0 * np.pi * f[None, :] * (d[:, None] - r) / C_LIGHT)
        b = np.sum(np.conj(w) * sweep.s21, axis=0)
        delays, out[i] = _profile(b, sweep.grid)
    return ranges, Pdp(delays=delays, amplitude=out)
