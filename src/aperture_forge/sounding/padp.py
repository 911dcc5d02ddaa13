"""Channel synthesis over a positioner lattice and the delay-domain
beamforming products: power delay profiles per direction, delay slices
over angle, and near-field (spherical phasefront) variants."""

from dataclasses import dataclass

import numpy as np

from ..core import C_LIGHT, Direction, add_complex_noise
from .arrays import SamplingLattice, _path_difference
from .grids import FrequencyGrid


@dataclass(frozen=True)
class ChannelRay:
    """One propagation path: plane wave from (u, v) or point source.

    Plane-wave rays carry an explicit delay; point sources get theirs
    from geometry (plus ``delay`` as an extra offset, usually zero).
    """

    kind: str
    amplitude: complex
    delay: float = 0.0
    u: float = 0.0
    v: float = 0.0
    position: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("plane", "point"):
            raise ValueError("kind must be 'plane' or 'point'")
        if self.kind == "plane" and self.u ** 2 + self.v ** 2 > 1.0 + 1e-12:
            raise ValueError("plane-wave ray outside visible space")
        if self.kind == "point" and self.position is None:
            raise ValueError("point ray needs a position")

    @classmethod
    def plane_wave(cls, u, v, delay, amplitude=1.0 + 0.0j) -> "ChannelRay":
        return cls("plane", complex(amplitude), delay, u=u, v=v)

    @classmethod
    def point_source(cls, position, amplitude=1.0 + 0.0j) -> "ChannelRay":
        return cls("point", complex(amplitude), position=tuple(position))


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
        if not np.all(np.isfinite(arr)):
            raise ValueError("s21 must be finite")
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
    """Forward-model the sweep a positioner would record for these rays.

    Plane-wave rays contribute amp*exp(j*2*pi*f*((x*u0 + y*v0)/c - tau));
    point sources use the exact per-position distance phase
    amp*exp(-j*2*pi*f*d/c).  All effective delays must stay inside the
    unambiguous window [0, 1/df).
    """
    pos = lattice.active_positions()
    f = grid.frequencies()
    s21 = np.zeros((len(pos), grid.s), dtype=complex)
    for ray in rays:
        if ray.kind == "plane":
            if not 0.0 <= ray.delay < grid.t_dur:
                raise ValueError(
                    f"ray delay {ray.delay} outside the unambiguous window"
                    f" [0, {grid.t_dur})"
                )
            spatial = (pos[:, 0] * ray.u + pos[:, 1] * ray.v) / C_LIGHT
            s21 += ray.amplitude * np.exp(
                1j * 2.0 * np.pi * f[None, :] * (spatial[:, None] - ray.delay)
            )
        else:
            d = np.linalg.norm(pos - np.asarray(ray.position), axis=1)
            eff = d / C_LIGHT + ray.delay
            if eff.min() < 0.0 or eff.max() >= grid.t_dur:
                raise ValueError(
                    "point-source delay outside the unambiguous window"
                    f" [0, {grid.t_dur})"
                )
            s21 += ray.amplitude * np.exp(-1j * 2.0 * np.pi * f[None, :] * eff[:, None])
    return SweepData(add_complex_noise(s21, noise_sigma, seed), lattice, grid)


def two_ray_path_loss(rho: float, phi: float) -> dict:
    """Gain and phase of a direct ray summed with one reflection.

    The reflected ray has relative amplitude ``rho`` and relative phase
    ``phi``; the combined field gain is beta^2 = 1 + 2*rho*cos(phi) +
    rho^2 with resultant phase atan2(rho*sin(phi), 1 + rho*cos(phi)).
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    beta_sq = 1.0 + 2.0 * rho * np.cos(phi) + rho ** 2
    theta = float(np.arctan2(rho * np.sin(phi), 1.0 + rho * np.cos(phi)))
    return {"beta_sq": float(beta_sq), "theta": theta}


@dataclass(frozen=True)
class Pdp:
    """Directional power delay profile (complex amplitude retained)."""

    delays: np.ndarray
    amplitude: np.ndarray

    @property
    def power(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


@dataclass(frozen=True)
class DelaySlice:
    """Angle map of the channel at one fixed delay bin."""

    amplitude: np.ndarray  # (len(u_axis), len(v_axis)) of the delay_slice call

    @property
    def power(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def _beam_series(sweep: SweepData, direction: Direction) -> np.ndarray:
    """b(f_k) = w^H(f_k) y(f_k) with true-time-delay steering per tone."""
    path = _path_difference(sweep.lattice.active_positions(), direction.u, direction.v)
    f = sweep.grid.frequencies()
    phase = 2.0 * np.pi / C_LIGHT * path[:, 0]
    w = np.exp(1j * phase[:, None] * f[None, :])
    return np.sum(np.conj(w) * sweep.s21, axis=0)


def padp(
    sweep: SweepData,
    direction: Direction,
    window: str | None = "hamming",
    pad_factor: int = 4,
) -> Pdp:
    """Power delay profile along one look direction.

    Beamforms every tone with true-time-delay steering, applies the taper
    (Hamming by default), zero-pads by ``pad_factor`` and inverse-DFTs to
    delay.  The transform keeps the 1/S normalization regardless of
    padding, so profile values at the unpadded bins match delay_slice
    evaluated there.
    """
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    b = _beam_series(sweep, direction)
    s = sweep.grid.s
    b = b * _window(window, s)
    nfft = pad_factor * s
    amp = np.fft.ifft(b, nfft) * pad_factor  # 1/S normalization
    delays = np.arange(nfft) / (nfft * sweep.grid.df)
    return Pdp(delays=delays, amplitude=amp)


def _window(window: str | None, n: int) -> np.ndarray:
    if window is None:
        return np.ones(n)
    if window == "hamming":
        return np.hamming(n)
    raise ValueError(f"unknown window {window!r}")


def delay_slice(
    sweep: SweepData, u_axis, v_axis, tau: float, window: str | None = None
) -> DelaySlice:
    """Evaluate the delay-domain IDFT at one bin over an angle grid.

    x(tau_m; u, v) = (1/S) sum_s b(f_s; u, v) exp(j*2*pi*m*s/S), where m
    is ``tau`` expressed on the unpadded delay grid.  Off-grid delays are
    rejected; interpolation is the caller's decision, not a silent one.
    """
    u_axis = np.atleast_1d(np.asarray(u_axis, dtype=float))
    v_axis = np.atleast_1d(np.asarray(v_axis, dtype=float))
    s = sweep.grid.s
    m_float = tau * s * sweep.grid.df
    m = int(round(m_float))
    if abs(m_float - m) > 1e-6 or not 0 <= m < s:
        raise ValueError(
            f"tau {tau} is not a bin of the unpadded delay grid (step"
            f" {1.0 / (s * sweep.grid.df)})"
        )
    pos = sweep.lattice.active_positions()
    f = sweep.grid.frequencies()
    win = _window(window, s)
    idft = win * np.exp(1j * 2.0 * np.pi * m * np.arange(s) / s) / s
    uu, vv = np.meshgrid(u_axis, v_axis, indexing="ij")
    spatial = _path_difference(pos, uu.ravel(), vv.ravel())
    # per-tone steering matrices differ by one elementwise phase step, so
    # build the first and advance multiplicatively instead of re-exponentiating
    w_angle = np.exp(-1j * 2.0 * np.pi * f[0] / C_LIGHT * spatial)
    step = np.exp(-1j * 2.0 * np.pi * sweep.grid.df / C_LIGHT * spatial)
    amp = np.zeros(uu.size, dtype=complex)
    for s_idx in range(s):
        amp += idft[s_idx] * (sweep.s21[:, s_idx] @ w_angle)
        if s_idx + 1 < s:
            w_angle = w_angle * step
    return DelaySlice(amp.reshape(uu.shape))


def source_distances(
    lattice: SamplingLattice, direction: Direction, r: float
) -> np.ndarray:
    """Distances from a virtual source at range ``r`` along ``direction``
    (referenced to the lattice center) to each active position."""
    w0 = np.sqrt(max(1.0 - direction.u ** 2 - direction.v ** 2, 0.0))
    src = np.array(
        [r * direction.u, r * direction.v, lattice.z_plane + r * w0]
    )
    return np.linalg.norm(lattice.active_positions() - src, axis=1)


@dataclass(frozen=True)
class SphericalPadp:
    """Range-resolved near-field beamformer output."""

    ranges: np.ndarray
    delays: np.ndarray
    amplitude: np.ndarray  # (len(ranges), len(delays))

    @property
    def power(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def spherical_padp(
    sweep: SweepData,
    direction: Direction,
    r_start: float,
    r_stop: float,
    r_step: float,
) -> SphericalPadp:
    """Near-field PADP: focus at a sequence of candidate ranges.

    For each range hop the steering phase matches a spherical wavefront
    from the virtual source at that range along the look direction,
    referenced to the lattice center so the delay axis still reads the
    source's center delay.  Taper and padding are padp's defaults
    (Hamming, 4x), so far hops converge to the plane-wave padp.
    """
    if r_start <= 0 or r_stop < r_start or r_step <= 0:
        raise ValueError("need 0 < r_start <= r_stop and r_step > 0")
    w0 = np.sqrt(max(1.0 - direction.u ** 2 - direction.v ** 2, 0.0))
    ranges = np.arange(r_start, r_stop + r_step / 2.0, r_step)
    if np.any(np.abs(ranges * w0) < 1e-9):
        raise ValueError("virtual source falls in the lattice plane")
    f = sweep.grid.frequencies()
    s = sweep.grid.s
    win = np.hamming(s)
    nfft = 4 * s
    out = np.empty((len(ranges), nfft), dtype=complex)
    for i, r in enumerate(ranges):
        d = source_distances(sweep.lattice, direction, r)
        w = np.exp(-1j * 2.0 * np.pi * f[None, :] * (d[:, None] - r) / C_LIGHT)
        b = np.sum(np.conj(w) * sweep.s21, axis=0)
        out[i] = np.fft.ifft(b * win, nfft) * 4
    delays = np.arange(nfft) / (nfft * sweep.grid.df)
    return SphericalPadp(ranges=ranges, delays=delays, amplitude=out)
