"""Waveform generation and receive-side processing: LFM chirps, matched
filtering, ambiguity surfaces, ADC figures of merit, and iterative MMSE
pulse compression.
"""

from dataclasses import dataclass

import numpy as np

from .core import fft_convolve


@dataclass(frozen=True)
class LfmChirp:
    """Linear FM pulse: center frequency, swept bandwidth, duration, amplitude.

    The chirp rate is ``K = B/T`` and the time-bandwidth product ``B*T``
    must be at least 1 for the pulse to be meaningfully compressible.
    """

    fc: float
    bandwidth: float
    duration: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.bandwidth <= 0 or self.duration <= 0:
            raise ValueError("bandwidth and duration must be positive")
        if self.tbp < 1.0:
            raise ValueError("time-bandwidth product must be >= 1")

    @property
    def rate(self) -> float:
        return self.bandwidth / self.duration

    @property
    def tbp(self) -> float:
        return self.bandwidth * self.duration


def sample_lfm(chirp: LfmChirp, f_s: float) -> np.ndarray:
    """Sample the chirp's baseband complex envelope at rate ``f_s``.

    Samples are A*exp(j*pi*K*t^2) on the symmetric support t in
    [-T/2, T/2]; the instantaneous frequency sweeps -B/2 to B/2.
    """
    needed = 2.0 * chirp.bandwidth
    if f_s < needed:
        raise ValueError(f"sample rate {f_s} too low, need >= {needed}")
    n = int(round(chirp.duration * f_s))
    t = (np.arange(n) - (n - 1) / 2.0) / f_s
    return chirp.amplitude * np.exp(1j * (np.pi * chirp.rate * t ** 2))


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
    if not (np.all(np.isfinite(received)) and np.all(np.isfinite(reference))):
        raise ValueError("matched_filter inputs must be finite")
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

    # products[i, :] holds u(t) u*(t + tau_i) over the overlapping support
    products = np.zeros((lags.size, n), dtype=complex)
    for i, lag in enumerate(lags):
        if abs(lag) >= n:
            continue
        if lag >= 0:
            products[i, : n - lag] = u[: n - lag] * np.conj(u[lag:])
        else:
            products[i, -lag:] = u[-lag:] * np.conj(u[: n + lag])
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
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return 6.02 * bits + 1.76


# Covariance rows filled per GEMM: the outer-product scratch is then
# (2M-1)*8*M complex values (16 MB at M = 250) instead of (2M-1)*M*M.
_COV_BLOCK_ROWS = 8

# Bytes of covariance stack filled and solved at once; more bins than fit
# are split into balanced chunks (two of 100 at the defaults, 200 bins and
# M = 250).  Each chunk rebuilds the row-block outer products and narrows
# the GEMMs: two chunks cost about +11% time, four about +22% (2 cores).
_COV_BUDGET_BYTES = 128 * 2**20


def _shift_matrix(waveform: np.ndarray) -> np.ndarray:
    """Rows s_k for k = -(M-1)..(M-1), s_k the k-shifted, zero-filled waveform."""
    m = waveform.size
    shifts = np.zeros((2 * m - 1, m), dtype=complex)
    for idx, k in enumerate(range(-(m - 1), m)):
        if k >= 0:
            shifts[idx, k:] = waveform[: m - k]
        else:
            shifts[idx, : m + k] = waveform[-k:]
    return shifts


def _structured_covariance(rho_windows, shifts, out):
    """Fill ``out[l] = sum_k rho_windows[l, k] * s_k s_k^H`` one row block at a time.

    Every block GEMM spans all 2M-1 shifts, so each entry is summed in the
    same order as one GEMM against the whole (2M-1, M*M) outer-product
    tensor, which is never built.  Products that are zero because s_k is
    zero at the row are stored as zeros instead of being multiplied out,
    which leaves every nonzero sum unchanged.
    """
    n_shifts, m = shifts.shape
    out_flat = out.reshape(out.shape[0], m * m)
    shifts_conj = np.conj(shifts)[:, None, :]
    rows = _COV_BLOCK_ROWS
    block = np.zeros((n_shifts, rows, m), dtype=complex)
    for i0 in range(0, m, rows):
        i1 = min(i0 + rows, m)
        if i1 - i0 < rows:
            block = np.zeros((n_shifts, i1 - i0, m), dtype=complex)
        # s_k (by index k) is nonzero at row i only for k = i..i+M-1:
        # multiply those shifts, and clear the ones the previous block
        # reached but this one does not
        block[max(i0 - rows, 0) : i0] = 0
        live = slice(i0, i1 + m - 1)
        np.multiply(shifts[live, i0:i1, None], shifts_conj[live], out=block[live])
        np.matmul(rho_windows, block.reshape(n_shifts, -1), out=out_flat[:, i0 * m : i1 * m])


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
    of bins without changing a bit, plus one block of (2M-1)*8*M
    outer-product entries outside that budget: 16 MB at M = 250, 256 MB at
    M = 1000.  The (2M-1)*M*M tensor of shifted outer products is never formed.
    Raises ValueError on non-finite ``received`` or ``waveform``.
    """
    y = np.asarray(received, dtype=complex)
    s = np.asarray(waveform, dtype=complex)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(s))):
        raise ValueError("received and waveform must be finite")
    m = s.size
    if m >= y.size:
        raise ValueError("waveform must be shorter than the received sequence")
    n_bins = y.size - m + 1
    windows = np.lib.stride_tricks.sliding_window_view(y, m)
    s_energy = float(np.sum(np.abs(s) ** 2))
    x_hat = (windows @ np.conj(s)) / s_energy
    if not np.any(x_hat):
        return np.zeros(n_bins, dtype=complex)

    shifts = _shift_matrix(s)
    # two bins a chunk at least: a one-row fill runs as a matrix-vector
    # product (GEMV), which sums in another order than a wider chunk's GEMM
    n_chunks = min(-(-n_bins * m * m * 16 // _COV_BUDGET_BYTES), max(n_bins // 2, 1))
    edges = [i * n_bins // n_chunks for i in range(n_chunks + 1)]
    cov = np.empty((-(-n_bins // n_chunks), m, m), dtype=complex)
    w = np.empty((n_bins, m), dtype=complex)

    def solve_all(rho_windows, sigma2, loaded):
        for b0, b1 in zip(edges, edges[1:]):
            c = cov[: b1 - b0]
            _structured_covariance(rho_windows[b0:b1], shifts, c)
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
