"""Multiplicative speckle synthesis and local-statistics despeckling."""

from dataclasses import dataclass

import numpy as np

from ..core import noise_rng


@dataclass(frozen=True)
class SpeckledImage:
    """Clean image y, unit-mean noise field zeta, and product z."""

    y: np.ndarray
    zeta: np.ndarray
    z: np.ndarray


def apply_speckle(y, sigma_mu, seed) -> SpeckledImage:
    """Multiply y by i.i.d. unit-mean noise with variance sigma_mu**2.

    The noise field is Gamma(1/sigma_mu**2, scale=sigma_mu**2): always
    positive, mean exactly 1, and for sigma_mu = 1/sqrt(looks) it is the
    usual multi-look intensity speckle.  The seed is mandatory so every
    speckled product can be regenerated.  sigma_mu = 0 returns y
    untouched with zeta = 1 everywhere.
    """
    y = np.asarray(y, dtype=float)
    rng = noise_rng(sigma_mu, seed, "sigma_mu")
    if rng is None:
        return SpeckledImage(y, np.ones_like(y), y.copy())
    shape = 1.0 / sigma_mu ** 2
    zeta = rng.gamma(shape, scale=sigma_mu ** 2, size=y.shape)
    return SpeckledImage(y, zeta, y * zeta)


def _box_mean(x, w):
    """Mean over a width-w window along every axis, edge samples
    replicated past the border.

    One axis at a time, axis 0 first, as a running sum: the first window
    summed left to right from zero, then each step adds (entering -
    leaving), and each sum is divided by w.  That is the order
    scipy.ndimage.uniform_filter(size=w, mode="nearest") sums in, so the
    bits match it.
    """
    lo = w // 2
    for axis in range(x.ndim):
        pad = [(0, 0)] * x.ndim
        pad[axis] = (lo, w - 1 - lo)
        p = np.moveaxis(np.pad(x, pad, mode="edge"), axis, 0)
        first = np.zeros_like(p[0])
        for row in p[:w]:
            first += row
        run = np.cumsum(np.concatenate([first[None], p[w:] - p[:-w]]), axis=0)
        x = np.moveaxis(run / w, 0, axis)
    return x


def lee_filter(z, sigma_mu, window=7) -> np.ndarray:
    """Adaptive local-mean despeckle.

    out = zbar + s2 / (zbar**2 * sigma_mu**2 + s2) * (z - zbar)

    with zbar and s2 the mean and variance over the sliding window
    (replicate padding at the edges).  Flat regions pull the gain toward
    zero and smooth hard; structured regions keep gain near one and pass
    detail through.  sigma_mu = 0 is an exact passthrough.  Raises
    ValueError on non-finite z: the running-sum window mean would carry
    one NaN or inf down the rest of its column and along its rows.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("lee_filter input must be finite")
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be odd and >= 3")
    if sigma_mu < 0.0:
        raise ValueError("sigma_mu must be nonnegative")
    if sigma_mu == 0.0:
        return z.copy()
    zbar = _box_mean(z, window)
    z2bar = _box_mean(z * z, window)
    s2 = np.maximum(z2bar - zbar ** 2, 0.0)
    denom = zbar ** 2 * sigma_mu ** 2 + s2
    gain = np.where(denom > 0.0, s2 / np.where(denom > 0.0, denom, 1.0), 0.0)
    return zbar + gain * (z - zbar)
