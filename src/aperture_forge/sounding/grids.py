"""Frequency-sweep bookkeeping: tone grids, delay/range ambiguity limits
and bandpass-sampling validity."""

from dataclasses import dataclass

import numpy as np

from ..core import C_LIGHT


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform tone sweep f_start..f_stop inclusive with step ``df``."""

    f_start: float
    f_stop: float
    df: float

    def __post_init__(self):
        if self.f_start <= 0 or self.df <= 0 or self.f_stop <= self.f_start:
            raise ValueError("need 0 < f_start < f_stop and df > 0")
        n = (self.f_stop - self.f_start) / self.df
        if abs(n - round(n)) > 1e-6:
            raise ValueError("span must be an integer number of steps")

    @property
    def s(self) -> int:
        return int(round((self.f_stop - self.f_start) / self.df)) + 1

    @property
    def bandwidth(self) -> float:
        return self.f_stop - self.f_start

    @property
    def delay_resolution(self) -> float:
        return 1.0 / self.bandwidth

    @property
    def t_dur(self) -> float:
        """Maximum unambiguous delay, one over the tone spacing."""
        return 1.0 / self.df

    def frequencies(self) -> np.ndarray:
        return self.f_start + self.df * np.arange(self.s)


def sampling_checks(grid: FrequencyGrid, f_max: float, tol: float = 0.05) -> dict:
    """Delay/range limits of a tone sweep plus the bandpass-sampling test.

    Inverting S tones of bandwidth B spaced df gives delay resolution 1/B
    and an unambiguous window 1/df; both are also reported as one-way
    ranges.  Sampling the band at rate B leaves the delay profile
    alias-free when f_max/B is nearly an integer (the shifted band
    replicas then tile without overlap); ``q`` reports that integer and
    ``tol`` how near counts as near.
    """
    ratio = f_max / grid.bandwidth
    q = int(round(ratio))
    ok = q >= 1 and abs(ratio - q) <= tol
    dtau = grid.delay_resolution
    return {
        "delay_resolution_s": dtau,
        "range_resolution_m": C_LIGHT * dtau,
        "t_dur_s": grid.t_dur,
        "max_range_m": C_LIGHT * grid.t_dur,
        "bandpass_ok": ok,
        "q": q,
    }

