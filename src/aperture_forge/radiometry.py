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

from .core import _require_at_least, _require_finite, _require_finite_positive


@dataclass(frozen=True)
class BrightnessMap:
    """Received brightness temperature T_r(theta, phi) in K/sr on a
    midpoint (theta, phi) grid over the upper hemisphere."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be a 2-D (theta, phi) grid")
        _require_finite(values=vals)
        _require_at_least(0, values=vals)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, fn, n_theta=180, n_phi=360):
        """``fn(theta, phi)`` at the cell centres of an n_theta x n_phi
        hemisphere grid; raises ValueError unless both counts are >= 1."""
        _require_at_least(1, n_theta=n_theta, n_phi=n_phi)
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
    """An n by n lattice of dimensionless (u, v) = (D_x, D_y) / lambda
    antenna spacings, with spacing du on both axes.

    Index n // 2 of each axis sits at zero, so the zero baseline that
    anchors V(0,0) = T_m and the total-power calibration is always there.
    """

    n: int
    du: float

    def __post_init__(self):
        _require_at_least(1, n=self.n)
        _require_finite_positive(du=self.du)

    @property
    def u(self) -> np.ndarray:
        """Baselines of one axis; the v axis is the same."""
        return (np.arange(self.n) - self.n // 2) * self.du

    @property
    def uv(self) -> np.ndarray:
        """(n * n, 2) baselines, u-major: the order of every visibility vector."""
        gu, gv = np.meshgrid(self.u, self.u, indexing="ij")
        return np.column_stack([gu.ravel(), gv.ravel()])


# complex entries per block of the two ramp tables, the quadrature's working
# memory with one float row of phases: max(_RAMP_BLOCK, 16 n) * 16 B, 1 MiB up
# to n = 4096.  Blocks are a multiple of 8 points: OpenBLAS 0.3.31's zgemm
# at 17 x K x 17 gives other bits at 2 threads than at 1 unless K % 8 is 0
# or 7.  Lattices of n < 4 take the 8192-point blocks of n = 4: a 1-point
# lattice's 1 x K x 1 product gives other bits at 2 threads at K = 16384 or
# 28800, not at 8192.  radiometry-roundtrip's 17 x 17 lattice takes
# 1920-point blocks, whose 17 u and 17 v rows are 1.04 MB.
_RAMP_BLOCK = 1 << 16


def _fill_ramps(out, axis, coords):
    """out[i] = exp(j 2 pi axis[i] coords), row by row and in place.

    ``axis`` is a lattice axis centred at c = n // 2, on which
    axis[c - k] == -axis[c + k] exactly, so row i < c is the conjugate of
    row 2 c - i: the row form of V(-u, -v) = V*(u, v).  Rows c .. n - 1
    are exponentiated, and row 0 of an even axis, which has no mirror.
    """
    n, c = len(axis), len(axis) // 2
    for i in range(c, n) if n % 2 else (0, *range(c, n)):
        np.multiply(2j * np.pi, axis[i] * coords, out=out[i])
        np.exp(out[i], out=out[i])
    np.conjugate(out[n - 1:c:-1], out=out[1 - n % 2:c])


def visibility_samples(bmap: BrightnessMap, baselines: BaselineSet) -> np.ndarray:
    """V(u,v) = integral of T_r exp(+j 2 pi (u l + v m)) over solid angle,
    u-major over the baseline lattice.

    The phase separates by axis: one ramp exp(j 2 pi u l) per u and one
    ramp exp(j 2 pi v m) per v give the whole lattice as one matrix
    product.  The quadrature is walked in blocks of step =
    8 max(_RAMP_BLOCK // (16 max(n, 4)), 1) points; each block writes its
    u and v tables in place into one buffer reused across blocks, and adds
    their product to the lattice.  Rows for negative baselines are the
    conjugates of their mirrors, so about half the exponentials are taken.
    """
    l, m, w, t = bmap._quadrature()
    tw = t * w
    u, n = baselines.u, baselines.n
    acc = np.zeros((n, n), dtype=complex)
    step = 8 * max(_RAMP_BLOCK // (16 * max(n, 4)), 1)
    buf = np.empty((2, n * min(step, len(l))), dtype=complex)
    for q0 in range(0, len(l), step):
        q1 = min(q0 + step, len(l))
        # contiguous heads of the buffer rows: a ragged last block has the
        # memory layout of a full one
        ramp_u, ramp_v = buf[:, :n * (q1 - q0)].reshape(2, n, q1 - q0)
        _fill_ramps(ramp_u, u, l[q0:q1])
        _fill_ramps(ramp_v, u, m[q0:q1])
        ramp_v *= tw[q0:q1]
        acc += ramp_u @ ramp_v.T
    return acc.ravel()


@dataclass(frozen=True)
class TemperatureImage:
    values: np.ndarray
    l: np.ndarray  # pixel direction cosines of each axis, l and m alike
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
    n, du = baselines.n, baselines.du
    if v_in.shape != (n * n,):
        raise ValueError("one visibility per baseline required")
    if du > 0.5 + 1e-12:
        raise ValueError(f"lattice spacing above 0.5 aliases the unit disc, got du={du}")

    l_ax = (np.arange(n) - n // 2) / (n * du)
    phase = np.exp(-2j * np.pi * np.outer(l_ax, baselines.u))
    t_c = (phase @ v_in.reshape(n, n) @ phase.T) * du * du

    scale = np.max(np.abs(t_c))
    imag_residual = float(np.max(np.abs(t_c.imag)) / scale) if scale > 0 else 0.0
    t = t_c.real
    rr = l_ax[:, None] ** 2 + l_ax[None, :] ** 2
    disc = rr <= 1.0
    t = t * np.sqrt(np.where(disc, 1.0 - rr, 0.0))
    t = np.where(disc, t, 0.0)
    n_disc = int(np.count_nonzero(disc))
    negative_fraction = float(np.count_nonzero(t[disc] < 0) / n_disc) if n_disc else 0.0
    if clip_negative:
        t = np.maximum(t, 0.0)
    return TemperatureImage(t, l_ax, {
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
        raise ValueError(f"n_elements must be in [2, 7], got n_elements={n_elements}")
    n_pairs = n_elements * (n_elements - 1) // 2
    for length in range(n_pairs, 0, -1):
        target = set(range(1, length + 1))
        for mid in itertools.combinations(range(1, length), n_elements - 2):
            pos = (0,) + mid + (length,)
            diffs = {b - a for a, b in itertools.combinations(pos, 2)}
            if diffs == target:
                return np.array(pos)
    raise AssertionError("unreachable: {0, 1, ..} always covers small L")
