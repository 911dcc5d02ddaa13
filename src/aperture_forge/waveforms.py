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


@dataclass(frozen=True)
class AdcModel:
    """Ideal ADC description: bit depth, full-scale voltage, sample rate."""

    bits: int
    v_fs: float
    f_s: float

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.v_fs <= 0 or self.f_s <= 0:
            raise ValueError("v_fs and f_s must be positive")

    @property
    def lsb(self) -> float:
        return self.v_fs / 2 ** self.bits

    @property
    def n_qu(self) -> float:
        return self.lsb ** 2 / 12.0


def adc_metrics(model: AdcModel, sndr_measured: float | None = None) -> dict:
    """Ideal SNR, quantization noise, and (optionally) effective bits.

    snr_ideal follows the full-scale sinusoid rule 6.02*B + 1.76 dB; the
    rule is only approximate below 4 bits, which the ``low_bit_caveat``
    flag reports.  With a measured SNDR the effective number of bits is
    (SNDR - 1.76)/6.02.
    """
    out = {
        "snr_ideal_db": 6.02 * model.bits + 1.76,
        "lsb": model.lsb,
        "n_qu": model.n_qu,
        "low_bit_caveat": model.bits < 4,
        "enob": None,
    }
    if sndr_measured is not None:
        out["enob"] = (sndr_measured - 1.76) / 6.02
    return out


# Covariance rows filled per GEMM: the outer-product scratch is then
# (2M-1)*8*M complex values (16 MB at M = 250) instead of (2M-1)*M*M.
_COV_BLOCK_ROWS = 8


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


def rmmse_compress(
    received,
    waveform,
    iterations: int = 3,
    noise_floor: float | None = None,
) -> np.ndarray:
    """Iterative per-bin MMSE pulse compression (adaptive sidelobe control).

    Starts from the normalized matched-filter profile, then repeatedly
    rebuilds each range bin's structured covariance from the current
    power estimates of the 2M-1 bins whose returns overlap it and applies
    the resulting MMSE weights.  The noise term defaults to 1e-6 of the
    current peak power; singular covariances fall back to diagonal
    loading at 1e-3 * trace/M.  A noise term that is not positive (a
    ``noise_floor`` <= 0, or a peak power that underflows to zero) would
    leave empty bins singular, so it raises ValueError.

    Memory: one n_bins*M*M complex covariance stack, reused by every
    iteration, plus one block of (2M-1)*8*M outer-product entries; the
    (2M-1)*M*M tensor of all shifted outer products is never formed.
    Raises ValueError on non-finite ``received`` or ``waveform``.
    """
    y = np.asarray(received, dtype=complex)
    s = np.asarray(waveform, dtype=complex)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if noise_floor is not None and not noise_floor > 0:
        raise ValueError("noise_floor must be positive")
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
    cov = np.empty((n_bins, m, m), dtype=complex)
    eye = np.eye(m)
    for _ in range(iterations):
        rho = np.abs(x_hat) ** 2
        sigma2 = noise_floor if noise_floor is not None else 1e-6 * rho.max()
        if not sigma2 > 0:
            raise ValueError("peak power underflows to zero; pass a positive noise_floor")
        rho_pad = np.concatenate([np.zeros(m - 1), rho, np.zeros(m - 1)])
        rho_windows = np.lib.stride_tricks.sliding_window_view(rho_pad, 2 * m - 1)
        _structured_covariance(rho_windows, shifts, cov)
        cov += sigma2 * eye
        try:
            w = np.linalg.solve(cov, np.broadcast_to(s, (n_bins, m))[..., None])
        except np.linalg.LinAlgError:
            load = 1e-3 * np.real(np.trace(cov, axis1=1, axis2=2)) / m
            cov.reshape(n_bins, m * m)[:, :: m + 1] += load[:, None]
            w = np.linalg.solve(cov, np.broadcast_to(s, (n_bins, m))[..., None])
        w = rho[:, None] * w[..., 0]
        x_hat = np.sum(np.conj(w) * windows, axis=1)
    return x_hat
