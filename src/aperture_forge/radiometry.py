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
        return cls(fn(*_midpoints(n_theta, n_phi)))

    def _quadrature(self):
        """Flattened direction cosines and solid-angle weights."""
        n_theta, n_phi = self.values.shape
        gt, gp = _midpoints(n_theta, n_phi)
        d_omega = (np.pi / 2 / n_theta) * (2 * np.pi / n_phi)
        l = np.sin(gt) * np.cos(gp)
        m = np.sin(gt) * np.sin(gp)
        w = np.sin(gt) * d_omega
        return l.ravel(), m.ravel(), w.ravel(), self.values.ravel()


def _midpoints(n_theta, n_phi):
    """(theta, phi) cell centres of the hemisphere grid, each (n_theta, n_phi)."""
    th = (np.arange(n_theta) + 0.5) * (np.pi / 2 / n_theta)
    ph = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
    return np.meshgrid(th, ph, indexing="ij")


def measured_temperature(bmap: BrightnessMap) -> float:
    """Integral of T_r over solid angle by the midpoint rule."""
    _, _, w, t = bmap._quadrature()
    return float(np.sum(t * w))


@dataclass(frozen=True)
class BaselineSet:
    """An n_u by n_v lattice of dimensionless (u, v) = (D_x, D_y) / lambda
    antenna spacings, with spacing du on both axes.

    Index n // 2 of each axis sits at zero, so the zero baseline that
    anchors V(0,0) = T_m and the total-power calibration is always there.
    """

    n_u: int
    n_v: int
    du: float

    def __post_init__(self):
        if self.n_u < 1 or self.n_v < 1:
            raise ValueError("a baseline lattice needs n_u, n_v >= 1")
        if not (np.isfinite(self.du) and self.du > 0):
            raise ValueError("du must be finite and positive")

    @property
    def u(self) -> np.ndarray:
        return (np.arange(self.n_u) - self.n_u // 2) * self.du

    @property
    def v(self) -> np.ndarray:
        return (np.arange(self.n_v) - self.n_v // 2) * self.du

    @property
    def uv(self) -> np.ndarray:
        """(n_u * n_v, 2) baselines, u-major: the order of every visibility vector."""
        gu, gv = np.meshgrid(self.u, self.v, indexing="ij")
        return np.column_stack([gu.ravel(), gv.ravel()])


# complex entries per block of the two ramp tables; the quadrature's working
# memory is the two table buffers, at most max(_RAMP_BLOCK, n_u + n_v) * 16 B,
# plus one float row of phases
_RAMP_BLOCK = 1 << 20


def _fill_ramps(out, axis, coords):
    """out[i] = exp(j 2 pi axis[i] coords), row by row and in place.

    ``axis`` is a lattice axis centred at index c = n // 2, so
    axis[c - k] == -axis[c + k] exactly and row c - k is the conjugate of
    row c + k: the row form of V(-u, -v) = V*(u, v).  Only rows c..n-1,
    and row 0 of an even axis, which has no mirror, are exponentiated.
    """
    n = len(axis)
    c = n // 2
    for i in range(n - 1, -1, -1):  # a mirror row 2c - i > c is filled first
        row = out[i]
        if i < c and 2 * c - i < n:
            np.conjugate(out[2 * c - i], out=row)
        else:
            np.multiply(2j * np.pi, axis[i] * coords, out=row)
            np.exp(row, out=row)


def visibility_samples(bmap: BrightnessMap, baselines: BaselineSet) -> np.ndarray:
    """V(u,v) = integral of T_r exp(+j 2 pi (u l + v m)) over solid angle,
    u-major over the baseline lattice.

    The phase separates by axis: one ramp exp(j 2 pi u l) per u and one
    ramp exp(j 2 pi v m) per v give the whole lattice as one matrix
    product.  The quadrature is walked in blocks of step =
    max(_RAMP_BLOCK // (n_u + n_v), 1) points, whose tables are written
    in place into two buffers of n_u * step and n_v * step entries,
    allocated once; rows for negative baselines are the conjugates of
    their mirrors, so about half the exponentials are taken.
    """
    l, m, w, t = bmap._quadrature()
    tw = t * w
    u, v = baselines.u, baselines.v
    acc = np.zeros((len(u), len(v)), dtype=complex)
    step = max(_RAMP_BLOCK // (len(u) + len(v)), 1)
    buf_u = np.empty(len(u) * min(step, len(l)), dtype=complex)
    buf_v = np.empty(len(v) * min(step, len(l)), dtype=complex)
    for q0 in range(0, len(l), step):
        q1 = min(q0 + step, len(l))
        # contiguous heads of the buffers: a ragged last block has the
        # memory layout of a full one
        ramp_u = buf_u[:len(u) * (q1 - q0)].reshape(len(u), q1 - q0)
        ramp_v = buf_v[:len(v) * (q1 - q0)].reshape(len(v), q1 - q0)
        _fill_ramps(ramp_u, u, l[q0:q1])
        _fill_ramps(ramp_v, v, m[q0:q1])
        ramp_v *= tw[q0:q1]
        acc += ramp_u @ ramp_v.T
    return acc.ravel()


@dataclass(frozen=True)
class TemperatureImage:
    values: np.ndarray
    l: np.ndarray
    m: np.ndarray
    info: dict = field(default_factory=dict)


def invert_visibilities(values, baselines: BaselineSet,
                        clip_negative=False) -> TemperatureImage:
    """Discrete inverse Fourier transform of lattice visibilities.

    ``values`` is u-major over the lattice, whose spacing must be at most
    0.5, else direction-cosine space aliases.  The raw transform
    returns T_r / cos(theta); the Jacobian correction multiplies by
    cos(theta) to undo the solid-angle-to-disc change of variables.
    Pixels outside the unit disc are not physical directions and are
    zeroed.  Negative ringing is reported, and clipped only on request.
    """
    v_in = np.asarray(values, dtype=complex)
    n_u, n_v, du = baselines.n_u, baselines.n_v, baselines.du
    if v_in.shape != (n_u * n_v,):
        raise ValueError("one visibility per baseline required")
    if du > 0.5 + 1e-12:
        raise ValueError("lattice spacing above 0.5 aliases the unit disc")

    l_ax = (np.arange(n_u) - n_u // 2) / (n_u * du)
    m_ax = (np.arange(n_v) - n_v // 2) / (n_v * du)
    phase_u = np.exp(-2j * np.pi * np.outer(l_ax, baselines.u))
    phase_v = np.exp(-2j * np.pi * np.outer(m_ax, baselines.v))
    t_c = (phase_u @ v_in.reshape(n_u, n_v) @ phase_v.T) * du * du

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
