"""Positioner lattices and array-factor math: pattern evaluation,
true-time-delay beam steering, frequency-invariant weight design, and
simulated-annealing lattice thinning."""

import numpy as np

from ..core import C_LIGHT, Direction, _require_at_least, _require_finite_positive, seeded_rng


class SamplingLattice:
    """Planar M x N positioner grid with an activity mask.

    The axes ``x`` and ``y`` are centered on the origin of the z = 0 plane,
    and point i*N + j sits at (x[i], y[j], 0).  A boolean mask marks which
    points are occupied, so thinned (sparse) lattices share the grid.
    """

    def __init__(self, m: int, n: int, d_x: float, d_y: float, mask=None):
        _require_at_least(1, m=m, n=n)
        _require_finite_positive(d_x=d_x, d_y=d_y)
        self.shape = (m, n)
        self.d_x, self.d_y = float(d_x), float(d_y)
        self.x = (np.arange(m) - (m - 1) / 2.0) * d_x
        self.y = (np.arange(n) - (n - 1) / 2.0) * d_y
        self.mask = np.ones(m * n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if self.mask.shape != (m * n,):
            raise ValueError("mask length must match m * n")

    @property
    def positions(self) -> np.ndarray:
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])

    def active_positions(self) -> np.ndarray:
        return self.positions[self.mask]

    @property
    def n_active(self) -> int:
        return int(self.mask.sum())

    def with_mask(self, mask) -> "SamplingLattice":
        return SamplingLattice(*self.shape, self.d_x, self.d_y, mask)

    def alias_free(self, lambda_min: float) -> bool:
        """True when every active point has another active point within
        lambda/2: the mask, shifted by each grid offset inside that radius,
        covers every active point, in O(MN) memory whatever the mask."""
        r = lambda_min / 2.0
        m, n = self.shape
        a_max = int(np.clip(r / self.d_x, 0, m - 1))
        b_max = int(np.clip(r / self.d_y, 0, n - 1))
        grid = self.mask.reshape(m, n)
        pad = np.pad(grid, ((a_max, a_max), (b_max, b_max)))
        near = np.zeros_like(grid)
        for a in range(-a_max, a_max + 1):
            for b in range(-b_max, b_max + 1):
                if (a or b) and np.hypot(a * self.d_x, b * self.d_y) <= r:
                    near |= pad[a_max + a:a_max + a + m, b_max + b:b_max + b + n]
        return self.n_active > 0 and bool(np.all(near[grid]))


def _axis_ramps(lattice: SamplingLattice, f: float, u, v):
    """Separable factors exp(jk*x*u) (P, len(u)) and exp(jk*y*v) (P, len(v))
    of the planar steering phase at tone ``f`` on a (u, v) tensor grid.

    The one home for planar steering: every steering vector, beam and
    weight design in the package multiplies these factors, on the grid or
    gathered to (u, v) pairs, and exponentiates no steering phase itself.

    Each row is exponentiated once per axis coordinate and gathered to
    the active elements: an M x N lattice takes M + N rows of
    exponentials, not 2MN, with the same bits.  Raises ValueError unless
    ``f`` is finite and positive."""
    _require_finite_positive(f=f)
    k = 2.0 * np.pi * f / C_LIGHT
    ix, iy = np.divmod(np.flatnonzero(lattice.mask), lattice.shape[1])
    ex = np.exp(1j * k * lattice.x[:, None] * u[None, :])[ix]
    ey = np.exp(1j * k * lattice.y[:, None] * v[None, :])[iy]
    return ex, ey


def array_factor(lattice: SamplingLattice, weights, u, v, f: float):
    """Array factor B(u, v) = sum_p w_p exp(jk(x_p u + y_p v)) at one tone.

    The pattern lies on the tensor grid of the ``u`` and ``v`` axes,
    shape (len(u), len(v)), a scalar counting as an axis of length 1.
    Weights run over the active elements only.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (lattice.n_active,):
        raise ValueError("weights must match the active element count")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    ex, ey = _axis_ramps(lattice, f, u, v)
    return ex.T @ (w[:, None] * ey)


def steering_vector(lattice: SamplingLattice, direction: Direction, f: float) -> np.ndarray:
    """Per-element true-time-delay steering phasors at tone ``f``, for
    beamforming via w^H y.  A narrowband phase shifter is this vector at
    its design tone, applied unchanged to every other tone (beam squint).
    """
    u, v = np.array([direction.u]), np.array([direction.v])
    ex, ey = _axis_ramps(lattice, f, u, v)
    return ex[:, 0] * ey[:, 0]


def natural_beamwidth(lattice: SamplingLattice, f: float) -> float:
    """Approximate -3 dB full width (in u) of the uniform full lattice."""
    return 0.886 * C_LIGHT / (f * lattice.shape[0] * lattice.d_x)


def _gather_products(ex, ey, pairs, buf):
    """ex[:, pairs[0]] * ey[:, pairs[1]] (P, K) and its conjugate transpose
    (K, P), a fit region's steering matrix at one tone, written into the
    two (K, P) planes of ``buf`` that every tone reuses.  The product has
    the layout the fancy index gives it, so each Gram product takes the
    same BLAS path, and the same bits, as on freshly gathered arrays."""
    prod_t, conj_t = buf
    # the indices are in range; unlike "raise", "clip" fills out unbuffered
    np.take(ex.T, pairs[0], axis=0, out=prod_t, mode="clip")
    np.multiply(prod_t, np.take(ey.T, pairs[1], axis=0, out=conj_t, mode="clip"), out=prod_t)
    return prod_t.T, np.conjugate(prod_t, out=conj_t)


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
    targets narrower than the lattice can form at the lowest tone, or
    not below 1, are rejected.  Returns an (S, P_active) matrix of weights.
    """
    widest_natural = natural_beamwidth(lattice, grid.f_start)
    if not 0.9 * widest_natural <= beamwidth_target < 1.0:
        raise ValueError(f"beamwidth_target must be >= 0.9 x the natural width at f_start "
                         f"({widest_natural:.4f}) and < 1, got beamwidth_target={beamwidth_target},"
                         f" f_start={grid.f_start}, m={lattice.shape[0]}, d_x={lattice.d_x}")
    p = lattice.n_active
    r_mask = 0.75 * beamwidth_target
    axis = np.linspace(-1.0, 1.0, 48)  # coarse sidelobe grid over visible space
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    off_sq = (uu - direction.u) ** 2 + (vv - direction.v) ** 2
    side = np.nonzero((uu ** 2 + vv ** 2 <= 1.0) & (off_sq > r_mask ** 2))
    # dedicated fine patch over the mainlobe disc; the coarse sidelobe
    # grid cannot resolve the fit region for large lattices
    fine = np.linspace(-r_mask, r_mask, 13)
    mu, mv = np.meshgrid(direction.u + fine, direction.v + fine, indexing="ij")
    m_off_sq = (mu - direction.u) ** 2 + (mv - direction.v) ** 2
    m_sel = (m_off_sq <= r_mask ** 2) & (mu ** 2 + mv ** 2 <= 1.0) & (m_off_sq > 0)
    main = np.nonzero(m_sel)
    # |d|^2 = 2^-(2r/target)^2: half power exactly at r = target/2
    d_main = np.exp2(-0.5 * (2.0 * np.sqrt(m_off_sq[m_sel]) / beamwidth_target) ** 2)
    freqs = grid.frequencies()
    n_side = len(side[0])
    gamma = n_side / max(len(main[0]), 1)  # balance the two regions
    out = np.empty((len(freqs), p), dtype=complex)
    side_buf = np.empty((2, n_side, p), dtype=complex)
    main_buf = np.empty((2, len(main[0]), p), dtype=complex)
    for i, f in enumerate(freqs):
        v0 = steering_vector(lattice, direction, f)
        v_side, v_side_h = _gather_products(*_axis_ramps(lattice, f, axis, axis), side, side_buf)
        v_main, v_main_h = _gather_products(*_axis_ramps(lattice, f, mu[:, 0], mv[0]), main,
                                            main_buf)
        g = v_side @ v_side_h + gamma * (v_main @ v_main_h)
        g += 1e-4 * 2 * n_side * np.eye(p)  # ridge keeps the solves well posed
        c = gamma * (v_main @ d_main)
        # one factorization for both right-hand sides; the copy keeps the
        # rows contiguous, as a strided dot below sums in another order
        w_ls, h = np.linalg.solve(g, np.column_stack([c, v0])).T.copy()
        mu_lag = (1.0 - np.conj(v0) @ w_ls) / (np.conj(v0) @ h)
        out[i] = w_ls + mu_lag * h
    return out


def _psl_db(pattern, side_idx, peak):
    """Peak sidelobe of a complex pattern over the flat indices
    ``side_idx``, in dB below ``peak``."""
    return float(20.0 * np.log10(np.abs(pattern.ravel()[side_idx]).max() / peak))


def optimize_sparse_lattice(
    full_lattice: SamplingLattice,
    keep_fraction: float,
    n_steps: int = 4000,
    cool_every: int = 100,
    seed: int | None = None,
    f_eval: float = 40e9,
    uv_points: int = 97,
) -> tuple[SamplingLattice, float]:
    """Thin an M x N lattice by simulated annealing on peak sidelobe.

    Keeps ``round(keep_fraction * M * N)`` elements active and proposes
    count-preserving swaps of one active with one inactive element.  The
    objective is the peak sidelobe (dB below the mainbeam) of the
    uniformly weighted boresight pattern at ``f_eval`` (default the band
    top, where the electrical spacing is largest and grating lobes sit
    furthest into visible space) over the visible part of a
    ``uv_points``-square sine-space grid.  A mainlobe disc of 1.25
    first-null radii is excluded; the default odd grid size keeps the
    principal cuts and the u = +-1 rim on the grid.  Uphill moves are
    accepted with the Metropolis probability over ``n_steps`` moves, the
    temperature cut by 5% every ``cool_every`` of them; the best mask seen
    wins.  Returns the thinned lattice and its peak sidelobe in dB.

    The pattern is maintained by rank-one updates (a swap only moves two
    elements) with periodic full recomputation.  A None ``seed`` raises
    ValueError.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got keep_fraction={keep_fraction}")
    _require_at_least(0, n_steps=n_steps)
    _require_at_least(1, cool_every=cool_every)
    _require_finite_positive(f_eval=f_eval)
    rng = seeded_rng(seed, "thinning a lattice")
    n_total = full_lattice.mask.size
    n_keep = int(round(keep_fraction * n_total))
    if n_keep < 2:
        raise ValueError(f"keep_fraction={keep_fraction} keeps fewer than two elements")

    axis = np.linspace(-1.0, 1.0, uv_points)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    visible = uu ** 2 + vv ** 2 <= 1.0
    null_radius = C_LIGHT / (f_eval * full_lattice.shape[0] * full_lattice.d_x)
    side_idx = np.flatnonzero(visible & (uu ** 2 + vv ** 2 > (1.25 * null_radius) ** 2))
    if side_idx.size == 0:
        raise ValueError(f"uv_points={uv_points} puts no sine-space cell outside the mainlobe "
                         f"disc, 1.25 c / (f_eval m d_x), got f_eval={f_eval}, "
                         f"m={full_lattice.shape[0]}, d_x={full_lattice.d_x}")

    # ramps over the whole grid, whatever the input mask
    ex, ey = _axis_ramps(full_lattice.with_mask(None), f_eval, axis, axis)

    def full_pattern(active_idx):
        return ex[active_idx].T @ ey[active_idx]

    def psl_of(active_idx):
        return _psl_db(full_pattern(active_idx), side_idx, len(active_idx))

    if n_keep == n_total:
        return full_lattice, psl_of(np.arange(n_total))

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
    for step in range(n_steps):
        if step and step % cool_every == 0:
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
    return full_lattice.with_mask(best_mask), best
