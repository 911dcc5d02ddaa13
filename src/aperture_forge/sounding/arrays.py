"""Positioner lattices and array-factor math: pattern evaluation, beam
steering (narrowband and true time delay), frequency-invariant weight
design, and simulated-annealing lattice thinning."""

from dataclasses import dataclass

import numpy as np

from ..core import C_LIGHT, Direction, seeded_rng


class SamplingLattice:
    """Planar spatial-sample lattice with an activity mask.

    Built from an M x N rectangular grid centered on the origin of the
    z = 0 plane; a boolean mask marks which positions are actually
    occupied so thinned (sparse) lattices share the representation.
    """

    def __init__(self, positions, d_x: float, d_y: float, shape, mask=None):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (P, 3)")
        if np.any(self.positions[:, 2] != 0.0):
            raise ValueError("lattice positions must lie in the z = 0 plane")
        self.d_x = float(d_x)
        self.d_y = float(d_y)
        if mask is None:
            mask = np.ones(len(self.positions), dtype=bool)
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != (len(self.positions),):
            raise ValueError("mask length must match positions")
        self.shape = tuple(shape)

    @classmethod
    def rectangular(cls, m: int, n: int, d_x: float, d_y: float) -> "SamplingLattice":
        ix = (np.arange(m) - (m - 1) / 2.0) * d_x
        iy = (np.arange(n) - (n - 1) / 2.0) * d_y
        xx, yy = np.meshgrid(ix, iy, indexing="ij")
        pos = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(m * n)])
        return cls(pos, d_x, d_y, (m, n))

    def active_positions(self) -> np.ndarray:
        return self.positions[self.mask]

    @property
    def n_active(self) -> int:
        return int(self.mask.sum())

    def with_mask(self, mask) -> "SamplingLattice":
        return SamplingLattice(self.positions, self.d_x, self.d_y, self.shape, mask)

    def alias_free(self, lambda_min: float) -> bool:
        """True when the largest nearest-neighbor gap is at most lambda/2."""
        act = self.active_positions()
        if len(act) < 2:
            return False
        if self.mask.all():
            worst = max(self.d_x, self.d_y)
        else:
            # sparse: brute-force nearest neighbor over active elements
            d2 = np.sum((act[:, None, :] - act[None, :, :]) ** 2, axis=-1)
            np.fill_diagonal(d2, np.inf)
            worst = float(np.sqrt(d2.min(axis=1).max()))
        return worst <= lambda_min / 2.0


def _path_difference(pos, u, v):
    """x*u + y*v of each position (rows) toward each sine-space direction
    (columns): the planar steering phase per unit wavenumber."""
    u = np.atleast_1d(u)
    v = np.atleast_1d(v)
    return pos[:, 0][:, None] * u[None, :] + pos[:, 1][:, None] * v[None, :]


def _axis_ramps(pos, k, u, v):
    """Separable factors exp(jk*x*u) (P, len(u)) and exp(jk*y*v) (P, len(v))
    of the planar steering phase on a (u, v) tensor grid.

    Each row is exponentiated once per distinct x (or y) coordinate and
    gathered to the positions: an M x N lattice takes M + N rows of
    exponentials, not 2MN, with the same bits."""
    xs, ix = np.unique(pos[:, 0], return_inverse=True)
    ys, iy = np.unique(pos[:, 1], return_inverse=True)
    ex = np.exp(1j * k * xs[:, None] * u[None, :])[ix]
    ey = np.exp(1j * k * ys[:, None] * v[None, :])[iy]
    return ex, ey


def array_factor(lattice: SamplingLattice, weights, u, v, f: float):
    """Array factor B(u, v) = sum_p w_p exp(jk(x_p u + y_p v)) at one tone.

    Scalar ``u``/``v`` give a single complex value; 1-D axes give the
    pattern on their tensor grid, shape (len(u), len(v)).  Weights run
    over the active elements only.
    """
    pos = lattice.active_positions()
    w = np.asarray(weights, dtype=complex)
    if w.shape != (len(pos),):
        raise ValueError("weights must match the active element count")
    k = 2.0 * np.pi * f / C_LIGHT
    scalar = np.isscalar(u) and np.isscalar(v)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    ex, ey = _axis_ramps(pos, k, u, v)
    out = ex.T @ (w[:, None] * ey)
    return out[0, 0] if scalar else out


def steering_vector(
    lattice: SamplingLattice,
    direction: Direction,
    f: float,
    mode: str = "ttd",
    f0: float | None = None,
) -> np.ndarray:
    """Per-element steering phasors for beamforming via w^H y.

    ``ttd`` scales the phase with the actual tone frequency (a true time
    delay, squint-free); ``narrowband`` freezes the phase at the design
    frequency ``f0`` no matter which tone it is applied to, reproducing
    hardware phase-shifter squint.
    """
    if mode not in ("ttd", "narrowband"):
        raise ValueError("mode must be 'ttd' or 'narrowband'")
    if mode == "narrowband":
        if f0 is None:
            raise ValueError("narrowband mode needs the design frequency f0")
        f_used = f0
    else:
        f_used = f
    path = _path_difference(lattice.active_positions(), direction.u, direction.v)
    return np.exp(1j * (2.0 * np.pi * f_used / C_LIGHT * path[:, 0]))


def natural_beamwidth(lattice: SamplingLattice, f: float) -> float:
    """Approximate -3 dB full width (in u) of the uniform full lattice."""
    return 0.886 * C_LIGHT / (f * lattice.shape[0] * lattice.d_x)


def fib_weights(
    lattice: SamplingLattice,
    grid,
    direction: Direction,
    beamwidth_target: float,
) -> np.ndarray:
    """Per-tone weights holding the beamwidth constant across the sweep.

    Each tone gets a constrained least-squares design: over a mainlobe
    disc of radius ``0.75 * beamwidth_target`` around the look
    direction the pattern is fit to a reference mainlobe whose half-power
    full width equals ``beamwidth_target`` (a Gaussian in offset radius),
    while everything visible outside the disc is fit to zero.  The fit
    runs subject to exact unit gain at the look direction, so the low
    tones keep their natural (diffraction-limited) beam and the high
    tones are widened to match instead of collapsing to their own limit.

    ``beamwidth_target`` is the desired -3 dB full width in sine space;
    targets narrower than the lattice can form at the lowest tone are
    rejected.  Returns an (S, P_active) matrix of weights.
    """
    widest_natural = natural_beamwidth(lattice, grid.f_start)
    if beamwidth_target < 0.9 * widest_natural:
        raise ValueError(
            f"target width {beamwidth_target:.4f} below what the lattice can "
            f"form at {grid.f_start / 1e9:.1f} GHz ({widest_natural:.4f})"
        )
    if beamwidth_target >= 1.0:
        raise ValueError("target width must be well inside visible space")
    pos = lattice.active_positions()
    p = len(pos)
    r_mask = 0.75 * beamwidth_target
    axis = np.linspace(-1.0, 1.0, 48)  # coarse sidelobe grid over visible space
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    off_sq = (uu - direction.u) ** 2 + (vv - direction.v) ** 2
    sel = (uu ** 2 + vv ** 2 <= 1.0) & (off_sq > r_mask ** 2)
    us, vs = uu[sel], vv[sel]
    # dedicated fine patch over the mainlobe disc; the coarse sidelobe
    # grid cannot resolve the fit region for large lattices
    fine = np.linspace(-r_mask, r_mask, 13)
    mu, mv = np.meshgrid(direction.u + fine, direction.v + fine, indexing="ij")
    m_off_sq = (mu - direction.u) ** 2 + (mv - direction.v) ** 2
    m_sel = (m_off_sq <= r_mask ** 2) & (mu ** 2 + mv ** 2 <= 1.0) & (m_off_sq > 0)
    um, vm = mu[m_sel], mv[m_sel]
    # |d|^2 = 2^-(2r/target)^2: half power exactly at r = target/2
    d_main = np.exp2(-0.5 * (2.0 * np.sqrt(m_off_sq[m_sel]) / beamwidth_target) ** 2)
    side_path = _path_difference(pos, us, vs)
    main_path = _path_difference(pos, um, vm)
    freqs = grid.frequencies()
    gamma = len(us) / max(len(um), 1)  # balance the two regions
    out = np.empty((len(freqs), p), dtype=complex)
    for i, f in enumerate(freqs):
        v0 = steering_vector(lattice, direction, f, mode="ttd")
        k = 2.0 * np.pi * f / C_LIGHT
        v_side = np.exp(1j * k * side_path)
        v_main = np.exp(1j * k * main_path)
        g = v_side @ np.conj(v_side.T) + gamma * (v_main @ np.conj(v_main.T))
        g += 1e-4 * 2 * len(us) * np.eye(p)  # ridge keeps the solves well posed
        c = gamma * (v_main @ d_main)
        # one factorization for both right-hand sides; the copy keeps the
        # rows contiguous, as a strided dot below sums in another order
        w_ls, h = np.linalg.solve(g, np.column_stack([c, v0])).T.copy()
        mu_lag = (1.0 - np.conj(v0) @ w_ls) / (np.conj(v0) @ h)
        out[i] = w_ls + mu_lag * h
    return out


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling plan for the lattice thinning annealer: ``n_steps`` moves,
    the temperature cut by 5% every ``cool_every`` of them."""

    n_steps: int = 4000
    cool_every: int = 100


@dataclass
class SparseLatticeResult:
    lattice: SamplingLattice
    psl_db: float
    met_bound: bool


def _psl_db(pattern, side_idx, peak):
    """Peak sidelobe of a complex pattern over the flat indices
    ``side_idx``, in dB below ``peak``."""
    return float(20.0 * np.log10(np.abs(pattern.ravel()[side_idx]).max() / peak))


def optimize_sparse_lattice(
    full_lattice: SamplingLattice,
    keep_fraction: float,
    schedule: AnnealSchedule | None = None,
    seed: int | None = None,
    f_eval: float = 40e9,
    uv_points: int = 97,
    psl_bound_db: float = -13.0,
) -> SparseLatticeResult:
    """Thin a rectangular lattice by simulated annealing on peak sidelobe.

    Keeps ``round(keep_fraction * M * N)`` elements active and proposes
    count-preserving swaps of one active with one inactive element.  The
    objective is the peak sidelobe (dB below the mainbeam) of the
    uniformly weighted boresight pattern at ``f_eval`` (default the band
    top, where the electrical spacing is largest and grating lobes sit
    furthest into visible space) over the visible part of a
    ``uv_points``-square sine-space grid.  A mainlobe disc of 1.25
    first-null radii is excluded; the default odd grid size keeps the
    principal cuts and the u = +-1 rim on the grid.  Uphill moves are
    accepted with the Metropolis probability under geometric cooling; the
    best mask seen wins.

    The pattern is maintained by rank-one updates (a swap only moves two
    elements) with periodic full recomputation.  ``met_bound`` reports
    whether the final peak sidelobe clears ``psl_bound_db``.  A None
    ``seed`` raises ValueError.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    sched = schedule or AnnealSchedule()
    rng = seeded_rng(seed, "thinning a lattice")
    pos = full_lattice.positions
    n_total = len(pos)
    n_keep = int(round(keep_fraction * n_total))
    if n_keep < 2:
        raise ValueError("keep_fraction keeps fewer than two elements")

    k = 2.0 * np.pi * f_eval / C_LIGHT
    axis = np.linspace(-1.0, 1.0, uv_points)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    visible = uu ** 2 + vv ** 2 <= 1.0
    m, n = full_lattice.shape
    null_radius = C_LIGHT / (f_eval * m * full_lattice.d_x)
    side_idx = np.flatnonzero(visible & (uu ** 2 + vv ** 2 > (1.25 * null_radius) ** 2))

    ex, ey = _axis_ramps(pos, k, axis, axis)

    def full_pattern(active_idx):
        return ex[active_idx].T @ ey[active_idx]

    def psl_of(active_idx):
        return _psl_db(full_pattern(active_idx), side_idx, len(active_idx))

    if n_keep == n_total:
        idx = np.arange(n_total)
        psl = psl_of(idx)
        return SparseLatticeResult(full_lattice, psl, psl <= psl_bound_db)

    active = rng.permutation(n_total)[:n_keep]
    active_set = np.zeros(n_total, dtype=bool)
    active_set[active] = True

    # start temperature from the objective spread of random masks
    samples = [psl_of(rng.permutation(n_total)[:n_keep]) for _ in range(20)]
    temp = max(np.ptp(samples), 0.1)

    pattern = full_pattern(np.flatnonzero(active_set))
    current = _psl_db(pattern, side_idx, n_keep)
    best_mask = active_set.copy()
    best = current
    for step in range(sched.n_steps):
        if step and step % sched.cool_every == 0:
            temp *= 0.95
        on = np.flatnonzero(active_set)
        off = np.flatnonzero(~active_set)
        drop = on[rng.integers(len(on))]
        add = off[rng.integers(len(off))]
        candidate = pattern + (ex[add][:, None] * ey[add] - ex[drop][:, None] * ey[drop])
        cand_psl = _psl_db(candidate, side_idx, n_keep)
        if cand_psl <= current or rng.random() < np.exp(-(cand_psl - current) / temp):
            pattern = candidate
            current = cand_psl
            active_set[drop] = False
            active_set[add] = True
            if current < best:
                best = current
                best_mask = active_set.copy()
        if (step + 1) % 500 == 0:
            # resync the incrementally updated pattern against drift
            pattern = full_pattern(np.flatnonzero(active_set))
            current = _psl_db(pattern, side_idx, n_keep)
    out = full_lattice.with_mask(best_mask)
    return SparseLatticeResult(out, best, best <= psl_bound_db)
