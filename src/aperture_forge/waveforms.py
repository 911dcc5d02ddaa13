"""Waveform generation and receive-side processing: LFM chirps, matched
filtering, ambiguity surfaces, ADC figures of merit, and iterative MMSE
pulse compression.
"""

from dataclasses import dataclass

import numpy as np

from .core import _require_at_least, _require_finite, _require_finite_positive, fft_convolve


@dataclass(frozen=True)
class LfmChirp:
    """Unit-amplitude linear FM pulse: center frequency, swept bandwidth, duration.

    The chirp rate is ``K = B/T`` and the time-bandwidth product ``B*T``
    must be at least 1 for the pulse to be meaningfully compressible.
    """

    fc: float
    bandwidth: float
    duration: float

    def __post_init__(self):
        _require_finite_positive(bandwidth=self.bandwidth, duration=self.duration)
        if self.tbp < 1.0:
            raise ValueError("time-bandwidth product must be >= 1, got"
                             f" bandwidth={self.bandwidth}, duration={self.duration}")

    @property
    def rate(self) -> float:
        return self.bandwidth / self.duration

    @property
    def tbp(self) -> float:
        return self.bandwidth * self.duration


def sample_lfm(chirp: LfmChirp, f_s: float) -> np.ndarray:
    """Sample the chirp's baseband complex envelope at rate ``f_s``.

    Samples are exp(j*pi*K*t^2) on the symmetric support t in
    [-T/2, T/2]; the instantaneous frequency sweeps -B/2 to B/2.
    """
    if f_s < 2.0 * chirp.bandwidth:
        raise ValueError(f"f_s must be >= 2 * bandwidth, got f_s={f_s},"
                         f" bandwidth={chirp.bandwidth}")
    return _lfm_envelope(chirp, f_s)


def _lfm_envelope(chirp: LfmChirp, f_s: float) -> np.ndarray:
    """`sample_lfm` without its f_s >= 2B check: SAR range compression
    samples its echoes at f_s >= B."""
    n = int(round(chirp.duration * f_s))
    t = (np.arange(n) - (n - 1) / 2.0) / f_s
    return np.exp(1j * (np.pi * chirp.rate * t ** 2))


def matched_filter(received: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Correlate ``received`` against ``reference`` (full overlap range).

    Equivalent to convolving with the conjugated time-reversed reference.
    Zero relative delay lands at output index ``len(reference) - 1``.  The
    output is complex, real inputs included.  Raises ValueError on empty
    or non-finite inputs.
    """
    received = np.asarray(received)
    reference = np.asarray(reference)
    if received.size == 0 or reference.size == 0:
        raise ValueError("matched_filter inputs must be nonempty")
    _require_finite(received=received, reference=reference)
    return fft_convolve(received, np.conj(reference[::-1]))


@dataclass(frozen=True)
class AmbiguitySurface:
    """Delay/Doppler map of |chi(tau, f_d)|^2 for a unit-energy envelope."""

    delays: np.ndarray
    dopplers: np.ndarray
    values: np.ndarray

    def volume(self) -> float:
        """Discrete integral of the surface over the evaluated grid."""
        dtau = self.delays[1] - self.delays[0] if self.delays.size > 1 else 1.0
        dfd = self.dopplers[1] - self.dopplers[0] if self.dopplers.size > 1 else 1.0
        return float(np.sum(self.values) * dtau * dfd)


def ambiguity_surface(envelope, delays, dopplers, f_s: float) -> AmbiguitySurface:
    """Evaluate the narrowband ambiguity surface of a sampled envelope.

    chi(tau, f_d) = integral u(t) u*(t + tau) exp(j*2*pi*f_d*t) dt is
    computed by Riemann sums on the sample lattice; requested delays are
    snapped to whole samples.  The envelope is normalized to unit energy
    (sum |u|^2 / f_s = 1) so the surface peaks at exactly 1 at the origin.
    """
    u = np.asarray(envelope, dtype=complex)
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    dopplers = np.atleast_1d(np.asarray(dopplers, dtype=float))
    if u.size == 0 or delays.size == 0 or dopplers.size == 0:
        raise ValueError("empty envelope or evaluation grid")
    dt = 1.0 / f_s
    energy = float(np.sum(np.abs(u) ** 2) * dt)
    if energy == 0.0:
        raise ValueError("zero-energy envelope")
    u = u / np.sqrt(energy)
    n = u.size
    lags = np.round(delays * f_s).astype(int)
    t = (np.arange(n) - (n - 1) / 2.0) * dt

    # products[i, :] holds u(t) u*(t + tau_i), zero off the overlapping
    # support: window n + lag of conj(u) padded by n zeros on each side
    # starts at sample lag, and lags past +-n read only padding
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([np.zeros(n), np.conj(u), np.zeros(n)]), n)
    products = u * shifted[n + np.clip(lags, -n, n)]
    kernel = np.exp(1j * 2.0 * np.pi * t[:, None] * dopplers[None, :])
    chi = dt * (products @ kernel)
    return AmbiguitySurface(delays=lags * dt, dopplers=dopplers, values=np.abs(chi) ** 2)


def lfm_ambiguity_closed_form(chirp: LfmChirp, tau, f_d):
    """Closed-form |chi|^2 of an LFM pulse at delay ``tau``, Doppler ``f_d``.

    ((1 - |tau|/T) * sin(x)/x)^2 with x = pi*T*(K*tau + f_d)*(1 - |tau|/T);
    zero outside |tau| > T.  Accepts scalars or arrays.  The ridge
    f_d = -K*tau corresponds to a falling frequency sweep, i.e. the
    conjugate of the rising sweep that sample_lfm produces; evaluate
    ambiguity_surface on the conjugate envelope when comparing the two.
    """
    tau = np.asarray(tau, dtype=float)
    f_d = np.asarray(f_d, dtype=float)
    t_dur = chirp.duration
    frac = 1.0 - np.abs(tau) / t_dur
    inside = frac > 0.0
    frac = np.where(inside, frac, 0.0)
    x = np.pi * t_dur * (chirp.rate * tau + f_d) * frac
    # np.sinc is sin(pi z)/(pi z), so sin(x)/x = sinc(x/pi) with the 0 limit built in
    out = (frac * np.sinc(x / np.pi)) ** 2
    return out if out.shape else float(out)


def adc_snr_ideal_db(bits: int) -> float:
    """Ideal SNR of a ``bits``-bit ADC by the full-scale sinusoid rule
    6.02*B + 1.76 dB (only approximate below 4 bits)."""
    _require_at_least(1, bits=bits)
    return 6.02 * bits + 1.76


# Bytes of covariance stack filled and solved at once; more bins than fit
# are split into balanced chunks (three of 66/67/67 bins, a 63.9 MiB stack,
# at 200 bins and M = 250).  A smaller budget trades time for memory: on
# 2 cores, 48 MiB (four chunks of 50) took a 200-bin compression's peak RSS
# from 111 to 95 MB and its median time up 4-27%, and 40 MiB (five of 40)
# to 85 MB and 11-14% (three runs each).  The chunks keep the bits of one
# chunk only while their GEMMs run threaded; see rmmse_compress for the
# small sizes where they do not.
_COV_BUDGET_BYTES = 64 * 2**20


def _outer_product_band(waveform: np.ndarray) -> np.ndarray:
    """(3M-2, 2M-1) band ``H`` holding every shifted outer product of the pulse.

    s_k, the waveform shifted by k - (M-1) and zero-filled, is a window of
    one zero-padded copy ``pad`` (length W = 3M-2, the waveform at
    [M-1, 2M-1)), and s_k[i] * conj(s_k[j]) is nonzero only for |i - j| < M.
    With ``H[a, c] = pad[W-1-a] * conj(pad[2M-2+c-a])``, the (2M-1, M) matrix
    of s_k[i] * conj(s_k[j]) over k and j is the plain slice
    ``H[M-1-i : 3M-2-i, M-1-i : 2M-1-i]``.  Only rows [M-1, 2M-1) are nonzero.
    """
    m = waveform.size
    width = 3 * m - 2
    pad = np.zeros(width, dtype=complex)
    pad[m - 1 : 2 * m - 1] = waveform
    band = np.zeros((width, 2 * m - 1), dtype=complex)
    # row a = M-1+r takes window M-1-r of conj(pad): entries 2M-2+c-a
    windows = np.lib.stride_tricks.sliding_window_view(np.conj(pad), 2 * m - 1)
    np.multiply(pad[::-1][m - 1 : 2 * m - 1, None], windows[::-1], out=band[m - 1 : 2 * m - 1])
    return band


def rmmse_compress(received, waveform, iterations: int = 3) -> np.ndarray:
    """Iterative per-bin MMSE pulse compression (adaptive sidelobe control).

    Starts from the normalized matched-filter profile, then repeatedly
    rebuilds each range bin's structured covariance from the current
    power estimates of the 2M-1 bins whose returns overlap it and applies
    the resulting MMSE weights.  The noise term is 1e-6 of the current
    peak power; if any covariance is singular, that iteration is redone
    with every bin diagonally loaded at 1e-3 * trace/M.  A peak power that
    underflows the noise term to zero would leave empty bins singular, and
    one that overflows would fill the covariances with inf and NaN, so
    either raises ValueError; so does a finite peak power whose
    covariance sums overflow, caught in the profile an iteration returns.

    Memory: one reused stack of at most ``_COV_BUDGET_BYTES`` (rounded up
    to whole bins, two at least), through which the covariances are filled
    and solved in ceil(n_bins*M*M*16 / _COV_BUDGET_BYTES) balanced chunks
    of bins, plus the (3M-2) x (2M-1) outer-product band outside that
    budget: 6 MB at M = 250, 96 MB at M = 1000.  Covariance row i of a
    chunk is one GEMM of its power windows against the band's plain slice
    H[M-1-i : 3M-2-i, M-1-i : 2M-1-i], the products s_k[i] * conj(s_k[j])
    over k and j, so the (2M-1)*M*M tensor of them is never formed.
    Chunking changes no bit while each chunk's GEMMs are large enough to
    run threaded, as at every size this budget splits; at 2 BLAS threads,
    M = 65-127 in chunks of a few bins rounds apart from one chunk.
    Raises ValueError on non-finite ``received`` or ``waveform``.
    """
    y = np.asarray(received, dtype=complex)
    s = np.asarray(waveform, dtype=complex)
    _require_at_least(1, iterations=iterations)
    _require_finite(received=y, waveform=s)
    m = s.size
    if m >= y.size:
        raise ValueError("waveform must be shorter than the received sequence")
    n_bins = y.size - m + 1
    windows = np.lib.stride_tricks.sliding_window_view(y, m)
    s_energy = float(np.sum(np.abs(s) ** 2))
    x_hat = (windows @ np.conj(s)) / s_energy
    if not np.any(x_hat):
        return np.zeros(n_bins, dtype=complex)

    band = _outer_product_band(s)
    # two bins a chunk at least: a one-row fill runs as a matrix-vector
    # product (GEMV), which sums in another order than a wider chunk's GEMM.
    # At 2 BLAS threads a GEMM small enough to run on one thread may round
    # apart from a threaded one; the budget's chunks are far above that size
    n_chunks = min(-(-n_bins * m * m * 16 // _COV_BUDGET_BYTES), max(n_bins // 2, 1))
    edges = [i * n_bins // n_chunks for i in range(n_chunks + 1)]
    cov = np.empty((-(-n_bins // n_chunks), m, m), dtype=complex)
    w = np.empty((n_bins, m), dtype=complex)

    def solve_all(rho_windows, sigma2, loaded):
        for b0, b1 in zip(edges, edges[1:]):
            c = cov[: b1 - b0]
            a = rho_windows[b0:b1].astype(complex)
            for r in range(m):  # covariance row i = M-1-r
                np.matmul(a, band[r : r + 2 * m - 1, r : r + m], out=c[:, m - 1 - r, :])
            del a  # held through the solve, it would add to the peak
            diag = c.reshape(b1 - b0, m * m)[:, :: m + 1]
            diag += sigma2
            if loaded:
                diag += 1e-3 * np.real(np.trace(c, axis1=1, axis2=2))[:, None] / m
            w[b0:b1] = np.linalg.solve(c, np.broadcast_to(s, (b1 - b0, m))[..., None])[..., 0]

    for _ in range(iterations):
        rho = np.abs(x_hat) ** 2
        peak = rho.max()
        if not np.isfinite(peak):
            raise ValueError("peak power overflows; rescale the received data")
        sigma2 = 1e-6 * peak
        if not sigma2 > 0:
            raise ValueError("peak power underflows to zero; rescale the received data")
        rho_pad = np.concatenate([np.zeros(m - 1), rho, np.zeros(m - 1)])
        rho_windows = np.lib.stride_tricks.sliding_window_view(rho_pad, 2 * m - 1)
        try:
            solve_all(rho_windows, sigma2, loaded=False)
        except np.linalg.LinAlgError:
            solve_all(rho_windows, sigma2, loaded=True)
        x_hat = np.sum(np.conj(rho[:, None] * w) * windows, axis=1)
        if not np.all(np.isfinite(x_hat)):
            raise ValueError("the covariance sums overflow; rescale the received data")
    return x_hat
