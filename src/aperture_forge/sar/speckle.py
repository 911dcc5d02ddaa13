"""Multiplicative speckle synthesis and local-statistics despeckling."""

import numpy as np

from ..core import _require_at_least, _require_finite, noise_rng


def apply_speckle(y, sigma_mu, seed) -> np.ndarray:
    """The speckled image y * zeta, zeta i.i.d. unit-mean noise with
    variance sigma_mu**2.

    The noise field is Gamma(1/sigma_mu**2, scale=sigma_mu**2): always
    positive, mean exactly 1, and for sigma_mu = 1/sqrt(looks) it is the
    usual multi-look intensity speckle.  The seed is mandatory so every
    speckled product can be regenerated.  sigma_mu = 0 returns a copy of
    y.
    """
    y = np.asarray(y, dtype=float)
    rng = noise_rng(sigma_mu, seed, "sigma_mu")
    if rng is None:
        return y.copy()
    shape = 1.0 / sigma_mu ** 2
    return y * rng.gamma(shape, scale=sigma_mu ** 2, size=y.shape)


def _box_mean(x, w):
    """Mean over a width-w window along every axis, edge samples
    replicated past the border.

    One axis at a time, axis 0 first, as one running sum: the first w
    samples summed left to right, then each step adds (entering -
    leaving), and each sum is divided by w.  That is the order
    scipy.ndimage.uniform_filter(size=w, mode="nearest") sums in, so the
    bits match it.
    """
    lo = w // 2
    for axis in range(x.ndim):
        pad = [(0, 0)] * x.ndim
        pad[axis] = (lo, w - 1 - lo)
        p = np.moveaxis(np.pad(x, pad, mode="edge"), axis, 0)
        run = np.cumsum(np.concatenate([p[:w], p[w:] - p[:-w]]), axis=0)[w - 1:]
        x = np.moveaxis(run / w, 0, axis)
    return x


def lee_filter(z, sigma_mu, window=7) -> np.ndarray:
    """Adaptive local-mean despeckle.

    out = zbar + s2 / (zbar**2 * sigma_mu**2 + s2) * (z - zbar)

    with zbar and s2 the mean and variance over the sliding window
    (replicate padding at the edges).  Flat regions pull the gain toward
    zero and smooth hard; structured regions keep gain near one and pass
    detail through.  sigma_mu = 0 is an exact passthrough, +inf the box mean.
    Raises ValueError on non-finite z: the running-sum window mean would
    carry one NaN or inf down the rest of its column and along its rows.
    """
    z = np.asarray(z, dtype=float)
    _require_finite(z=z)
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got window={window}")
    _require_at_least(0, sigma_mu=sigma_mu)
    if sigma_mu == 0.0:
        return z.copy()
    zbar = _box_mean(z, window)
    z2bar = _box_mean(z * z, window)
    s2 = np.maximum(z2bar - zbar ** 2, 0.0)
    denom = zbar ** 2 * sigma_mu ** 2 + s2
    gain = np.where(denom > 0.0, s2 / np.where(denom > 0.0, denom, 1.0), 0.0)
    return zbar + gain * (z - zbar)
