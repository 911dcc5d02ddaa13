"""Scalar link budget and detection-error metrics for a quantum-enhanced
radar operating concept."""

from dataclasses import dataclass

import numpy as np

from ..core import K_BOLTZMANN, _require_at_least, _require_finite_positive


@dataclass(frozen=True)
class QsarParams:
    """Inputs to the received-SNR budget.

    power_w: average transmitted power (W)
    gain: antenna gain (linear)
    wavelength: m
    sigma0: surface backscatter coefficient (linear)
    delta_r: ground range resolution (m)
    standoff: slant range R (m)
    t0_k: reference noise temperature (K)
    noise_figure: receiver noise figure (linear)
    l_a: azimuth antenna length (m)
    v: platform speed (m/s)
    theta_deg: incidence angle, strictly inside (0, 90)
    """

    power_w: float
    gain: float
    wavelength: float
    sigma0: float
    delta_r: float
    standoff: float
    t0_k: float
    noise_figure: float
    l_a: float
    v: float
    theta_deg: float

    def __post_init__(self):
        _require_finite_positive(**{k: v for k, v in vars(self).items() if k != "theta_deg"})
        if not 0.0 < self.theta_deg < 90.0:
            raise ValueError(f"theta_deg must be in (0, 90), got theta_deg={self.theta_deg}")


def detection_error_probabilities(snr) -> dict:
    """Classical vs entangled single-shot error bounds at the linear
    ``snr`` >= 0 (+inf gives 0): eps_c = exp(-snr/4)/2, eps_q = exp(-snr)/2.
    """
    s = float(snr)
    _require_at_least(0, snr=s)
    return {
        "epsilon_c": 0.5 * np.exp(-s / 4.0),
        "epsilon_q": 0.5 * np.exp(-s),
    }


def qsar_metrics(p: QsarParams) -> dict:
    """Budget SNR plus the two error probabilities.

    clear_image flags whether the budget clears the 5 dB floor below
    which imagery is considered unusable.
    """
    num = p.power_w * p.gain ** 2 * p.wavelength ** 3 * p.sigma0 * p.delta_r
    den = (
        2.0 * (4.0 * np.pi) ** 3 * p.standoff ** 3
        * K_BOLTZMANN * p.t0_k * p.noise_figure
        * p.l_a * p.v * np.cos(np.deg2rad(p.theta_deg))
    )
    s = num / den
    eps = detection_error_probabilities(s)
    snr_db = 10.0 * np.log10(s)
    return {
        "snr_linear": s,
        "snr_db": snr_db,
        "epsilon_c": eps["epsilon_c"],
        "epsilon_q": eps["epsilon_q"],
        "clear_image": bool(snr_db >= 5.0),
    }
