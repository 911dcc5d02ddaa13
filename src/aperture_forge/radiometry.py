"""Aperture-synthesis radiometry.

Cross-correlating antenna pairs at dimensionless spacings (u, v) samples
the Fourier transform of the received brightness temperature over the
direction-cosine disc.  This module carries the forward quadrature, the
lattice inversion back to a temperature image, and minimally redundant
linear array search.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BrightnessMap:
    """Received brightness temperature T_r(theta, phi) in K/sr on a
    midpoint (theta, phi) grid over the upper hemisphere."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be a 2-D (theta, phi) grid")
        if np.any(vals < 0):
            raise ValueError("brightness temperature cannot be negative")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, fn, n_theta=180, n_phi=360):
        th = (np.arange(n_theta) + 0.5) * (np.pi / 2 / n_theta)
        ph = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
        gt, gp = np.meshgrid(th, ph, indexing="ij")
        return cls(fn(gt, gp))

    @property
    def n_theta(self) -> int:
        return self.values.shape[0]

    @property
    def n_phi(self) -> int:
        return self.values.shape[1]

    def theta_centers(self) -> np.ndarray:
        return (np.arange(self.n_theta) + 0.5) * (np.pi / 2 / self.n_theta)

    def phi_centers(self) -> np.ndarray:
        return (np.arange(self.n_phi) + 0.5) * (2 * np.pi / self.n_phi)

    def _quadrature(self):
        """Flattened direction cosines and solid-angle weights."""
        th = self.theta_centers()
        ph = self.phi_centers()
        d_omega = (np.pi / 2 / self.n_theta) * (2 * np.pi / self.n_phi)
        gt, gp = np.meshgrid(th, ph, indexing="ij")
        l = np.sin(gt) * np.cos(gp)
        m = np.sin(gt) * np.sin(gp)
        w = np.sin(gt) * d_omega
        return l.ravel(), m.ravel(), w.ravel(), self.values.ravel()


def measured_temperature(bmap: BrightnessMap) -> float:
    """Integral of T_r over solid angle by the midpoint rule."""
    _, _, w, t = bmap._quadrature()
    return float(np.sum(t * w))


@dataclass(frozen=True)
class BaselineSet:
    """Dimensionless (u, v) = (D_x, D_y) / lambda antenna spacings.

    The zero baseline must be present: it anchors V(0,0) = T_m and the
    total-power calibration.
    """

    uv: np.ndarray

    def __post_init__(self):
        uv = np.atleast_2d(np.asarray(self.uv, dtype=float))
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise ValueError("uv must be (K, 2)")
        if not np.isfinite(uv).all():
            raise ValueError("baselines must be finite")
        if not np.any(np.all(np.abs(uv) < 1e-12, axis=1)):
            raise ValueError("the zero baseline (0, 0) is required")
        object.__setattr__(self, "uv", uv)

    @classmethod
    def from_lattice(cls, n_u, n_v, du):
        """n_u by n_v lattice with spacing du on both axes; index n // 2
        of each axis sits at zero."""
        iu = np.arange(n_u) - n_u // 2
        iv = np.arange(n_v) - n_v // 2
        gu, gv = np.meshgrid(iu * du, iv * du, indexing="ij")
        return cls(np.column_stack([gu.ravel(), gv.ravel()]))


# complex entries per block of ramp tables; bounds the quadrature's working memory
_RAMP_BLOCK = 1 << 20


def visibility_samples(bmap: BrightnessMap, baselines: BaselineSet) -> np.ndarray:
    """V(u,v) = integral of T_r exp(+j 2 pi (u l + v m)) over solid angle.

    The phase separates by axis: one ramp exp(j 2 pi u l) per distinct u
    and one ramp exp(j 2 pi v m) per distinct v give every visibility of
    the set's u-by-v lattice as one matrix product, from which the
    requested entries are gathered.  This is exact for any set, but a
    scattered set costs len(u) * len(v) products per block, not one per
    baseline.  The quadrature is walked in blocks of at most _RAMP_BLOCK
    table entries.
    """
    l, m, w, t = bmap._quadrature()
    tw = t * w
    uv = baselines.uv
    u_ax, iu = np.unique(uv[:, 0], return_inverse=True)
    v_ax, iv = np.unique(uv[:, 1], return_inverse=True)
    keys_a = np.column_stack([u_ax, np.zeros_like(u_ax)])
    keys_b = np.column_stack([np.zeros_like(v_ax), v_ax])
    lm = np.stack([l, m])
    acc = np.zeros((len(keys_a), len(keys_b)), dtype=complex)
    step = max(_RAMP_BLOCK // (len(keys_a) + len(keys_b)), 1)
    for q0 in range(0, lm.shape[1], step):
        block = lm[:, q0:q0 + step]
        ramp_a = np.exp(2j * np.pi * (keys_a @ block))
        ramp_b = np.exp(2j * np.pi * (keys_b @ block)) * tw[q0:q0 + step]
        acc += ramp_a @ ramp_b.T
    return acc[iu, iv]


@dataclass(frozen=True)
class TemperatureImage:
    values: np.ndarray
    l: np.ndarray
    m: np.ndarray
    info: dict = field(default_factory=dict)


def _lattice_axes(coords, what):
    vals = np.unique(np.round(coords / 1e-9) * 1e-9)
    if len(vals) > 1:
        steps = np.diff(vals)
        if np.max(steps) - np.min(steps) > 1e-9 * max(np.max(np.abs(vals)), 1.0):
            raise ValueError(f"irregular {what} lattice; grid the samples first")
    return vals


def invert_visibilities(values, baselines: BaselineSet,
                        clip_negative=False) -> TemperatureImage:
    """Discrete inverse Fourier transform of lattice visibilities.

    The samples must tile a complete regular (u, v) lattice with spacing
    at most 0.5, else direction-cosine space aliases.  The raw transform
    returns T_r / cos(theta); the Jacobian correction multiplies by
    cos(theta) to undo the solid-angle-to-disc change of variables.
    Pixels outside the unit disc are not physical directions and are
    zeroed.  Negative ringing is reported, and clipped only on request.
    """
    v_in = np.asarray(values, dtype=complex)
    uv = baselines.uv
    if v_in.shape != (len(uv),):
        raise ValueError("one visibility per baseline required")
    u_ax = _lattice_axes(uv[:, 0], "u")
    v_ax = _lattice_axes(uv[:, 1], "v")
    n_u, n_v = len(u_ax), len(v_ax)
    if n_u * n_v != len(uv):
        raise ValueError("irregular (u, v) lattice; grid the samples first")
    du = u_ax[1] - u_ax[0] if n_u > 1 else 0.5
    dv = v_ax[1] - v_ax[0] if n_v > 1 else 0.5
    if du > 0.5 + 1e-12 or dv > 0.5 + 1e-12:
        raise ValueError("lattice spacing above 0.5 aliases the unit disc")

    grid = np.zeros((n_u, n_v), dtype=complex)
    seen = np.zeros((n_u, n_v), dtype=bool)
    iu = np.searchsorted(u_ax, uv[:, 0] - 1e-10)
    iv = np.searchsorted(v_ax, uv[:, 1] - 1e-10)
    if np.any(seen[iu, iv]):
        raise ValueError("duplicate lattice samples")
    grid[iu, iv] = v_in
    seen[iu, iv] = True
    if not seen.all():
        raise ValueError("incomplete (u, v) lattice; grid the samples first")

    l_ax = (np.arange(n_u) - n_u // 2) / (n_u * du)
    m_ax = (np.arange(n_v) - n_v // 2) / (n_v * dv)
    phase_u = np.exp(-2j * np.pi * np.outer(l_ax, u_ax))
    phase_v = np.exp(-2j * np.pi * np.outer(m_ax, v_ax))
    t_c = (phase_u @ grid @ phase_v.T) * du * dv

    scale = np.max(np.abs(t_c))
    imag_residual = float(np.max(np.abs(t_c.imag)) / scale) if scale > 0 else 0.0
    t = t_c.real
    rr = l_ax[:, None] ** 2 + m_ax[None, :] ** 2
    disc = rr <= 1.0
    t = t * np.sqrt(np.where(disc, 1.0 - rr, 0.0))
    t = np.where(disc, t, 0.0)
    n_disc = int(np.count_nonzero(disc))
    negative_fraction = float(np.count_nonzero(t[disc] < 0) / n_disc) if n_disc else 0.0
    if clip_negative:
        t = np.maximum(t, 0.0)
    return TemperatureImage(t, l_ax, m_ax, {
        "negative_fraction": negative_fraction,
        "imag_residual": imag_residual,
    })


def mrla_spacings(n_elements) -> np.ndarray:
    """Minimally redundant linear array positions in units of lambda/2.

    Exhaustive search: maximize the aperture L such that the pairwise
    differences of n positions cover every integer 1..L, then take the
    lexicographically smallest winner.  At a fixed L every covering set
    has the same redundancy n(n-1)/2 - L, so maximal aperture and
    minimal redundancy coincide.
    """
    if not 2 <= n_elements <= 7:
        raise ValueError("n_elements must be between 2 and 7 (search bound)")
    if n_elements == 2:
        return np.array([0, 1])
    n_pairs = n_elements * (n_elements - 1) // 2
    for length in range(n_pairs, 0, -1):
        target = set(range(1, length + 1))
        for mid in itertools.combinations(range(1, length), n_elements - 2):
            pos = (0,) + mid + (length,)
            diffs = {b - a for a, b in itertools.combinations(pos, 2)}
            if diffs == target:
                return np.array(pos)
    raise AssertionError("unreachable: {0, 1, ..} always covers small L")
