"""Tomographic image formation from line projections.

A projection at angle theta integrates the scene along the rotated
second axis, so its 1-D spectrum is the slice of the 2-D spectrum along
the ray at theta.  Two reconstruction routes are provided: resample the
polar slices onto a Cartesian frequency grid and inverse-transform, or
filter each projection by |omega| and smear it back across the image.
"""

import numpy as np


def _bilinear(table, i, j, ti, tj):
    """Blend of table[i:i+2, j:j+2] at fractional offsets ti (rows), tj (cols)."""
    return (
        table[i, j] * (1 - ti) * (1 - tj)
        + table[i + 1, j] * ti * (1 - tj)
        + table[i, j + 1] * (1 - ti) * tj
        + table[i + 1, j + 1] * ti * tj
    )


def _polar_interp(projections, angles, s_step):
    n_angles, n_s = projections.shape
    s0 = -(n_s - 1) / 2.0 * s_step
    omega = 2.0 * np.pi * np.fft.fftfreq(n_s, d=s_step)
    # absolute-position spectrum of each projection (samples start at s0)
    slices = s_step * np.exp(-1j * omega * s0)[None, :] * np.fft.fft(projections, axis=1)

    order = np.argsort(omega)
    omega_asc = omega[order]
    slices = slices[:, order]

    # continue the fan past the last angle: theta + pi is the same slice
    # with omega negated, which closes the interpolation interval
    theta = np.concatenate([angles, [angles[0] + np.pi]])
    slices = np.vstack([slices, slices[0, ::-1]])

    w1, w2 = np.meshgrid(omega_asc, omega_asc, indexing="ij")
    rho = np.hypot(w1, w2)
    phi = np.arctan2(w2, w1)
    neg = phi < 0.0
    phi = np.where(neg, phi + np.pi, phi)
    rho = np.where(neg, -rho, rho)
    at_pi = phi >= theta[-1]
    phi = np.where(at_pi, phi - np.pi, phi)
    rho = np.where(at_pi, -rho, rho)

    ja = np.clip(np.searchsorted(theta, phi.ravel(), side="right") - 1, 0, n_angles - 1)
    ta = (phi.ravel() - theta[ja]) / (theta[ja + 1] - theta[ja])
    ta = np.clip(ta, 0.0, 1.0)

    d_omega = omega_asc[1] - omega_asc[0]
    jr = (rho.ravel() - omega_asc[0]) / d_omega
    inside = (jr >= 0.0) & (jr <= n_s - 1) & (np.abs(rho.ravel()) <= np.max(np.abs(omega_asc)))
    jr_lo = np.clip(np.floor(jr).astype(int), 0, n_s - 2)
    tr = np.clip(jr - jr_lo, 0.0, 1.0)

    val = _bilinear(slices, ja, jr_lo, ta, tr)
    val[~inside] = 0.0
    spectrum_asc = val.reshape(n_s, n_s)

    back = np.argsort(order)
    spectrum = spectrum_asc[back, :][:, back]
    phase = np.exp(1j * omega * s0)
    image = np.fft.ifft2(spectrum * phase[:, None] * phase[None, :]) / s_step ** 2
    return image.real


def _filtered_backprojection(projections, angles, s_step):
    n_angles, n_s = projections.shape
    omega = 2.0 * np.pi * np.fft.fftfreq(n_s, d=s_step)
    filtered = np.fft.ifft(np.fft.fft(projections, axis=1) * np.abs(omega)[None, :], axis=1).real

    s = (np.arange(n_s) - (n_s - 1) / 2.0) * s_step
    u1, u2 = np.meshgrid(s, s, indexing="ij")
    image = np.zeros((n_s, n_s))
    for j, th in enumerate(angles):
        pos = u1 * np.cos(th) + u2 * np.sin(th)
        image += np.interp(pos, s, filtered[j], left=0.0, right=0.0)
    return image / (2.0 * n_angles)


def tomographic_reconstruct(projections, angles, s_step, method="polar-interp"):
    """Invert line projections to a real n_s-by-n_s image.

    projections: (n_angles, n_s) array, row j sampled on the centered
        abscissa grid with spacing s_step at angle angles[j].
    angles: radians, ascending, all within [0, pi).
    method: "polar-interp" or "filtered-backprojection".

    The output image lives on the same centered grid in both axes.  At
    least two distinct angles are required; one projection alone leaves
    the problem rank deficient.
    """
    projections = np.asarray(projections, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if projections.ndim != 2 or projections.shape[0] != angles.size:
        raise ValueError("projections must be (n_angles, n_s) matching angles")
    if np.unique(angles).size < 2:
        raise ValueError("need at least two distinct projection angles")
    if np.any(angles < 0.0) or np.any(angles >= np.pi):
        raise ValueError("angles must lie in [0, pi)")
    if np.any(np.diff(angles) <= 0.0):
        raise ValueError("angles must be strictly ascending")
    if s_step <= 0.0:
        raise ValueError("s_step must be positive")
    if method == "polar-interp":
        return _polar_interp(projections, angles, s_step)
    if method == "filtered-backprojection":
        return _filtered_backprojection(projections, angles, s_step)
    raise ValueError(f"unknown method {method!r}")


def project_image(image, angles, s_step):
    """Forward line projections of a square image (test and demo aid).

    Rotates the image by -theta with bilinear resampling and sums along
    the second axis, matching the integral convention used by
    tomographic_reconstruct.

    This projector and the smear step of the filtered backprojection are
    not an adjoint pair: P^T would scatter each projection sample back
    through these bilinear image weights, while the smear B gathers each
    pixel by linear interpolation along the projection.  On a 15 x 15
    image with 12 angles, the best scale c leaves ||P^T - c B|| / ||P^T||
    at 0.35, and at 0.62 when B includes the |omega| filter.
    """
    image = np.asarray(image, dtype=float)
    n = image.shape[0]
    if image.shape != (n, n):
        raise ValueError("image must be square")
    s = (np.arange(n) - (n - 1) / 2.0) * s_step
    u1, u2 = np.meshgrid(s, s, indexing="ij")
    out = np.empty((len(angles), n))
    for j, th in enumerate(angles):
        x1 = u1 * np.cos(th) - u2 * np.sin(th)
        x2 = u1 * np.sin(th) + u2 * np.cos(th)
        g1 = (x1 - s[0]) / s_step
        g2 = (x2 - s[0]) / s_step
        i1 = np.clip(np.floor(g1).astype(int), 0, n - 2)
        i2 = np.clip(np.floor(g2).astype(int), 0, n - 2)
        t1 = np.clip(g1 - i1, 0.0, 1.0)
        t2 = np.clip(g2 - i2, 0.0, 1.0)
        valid = (g1 >= 0) & (g1 <= n - 1) & (g2 >= 0) & (g2 <= n - 1)
        rot = np.where(valid, _bilinear(image, i1, i2, t1, t2), 0.0)
        out[j] = rot.sum(axis=1) * s_step
    return out
