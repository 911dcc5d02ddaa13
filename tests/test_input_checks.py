"""Every input check built on ``core._require_finite_positive`` or
``core._require_at_least`` rejects its bad values with a ValueError that
names the key and the value."""

import re
import sys

import numpy as np
import pytest

from aperture_forge.cli.artifacts import ArtifactSink, render_image
from aperture_forge.cli.scenarios import REGISTRY
from aperture_forge.core import (
    Direction,
    _require_at_least,
    _require_finite_positive,
    far_field_distance,
    plane_wave_field,
    wavenumber_spectrum,
)
from aperture_forge.inversion import (
    amplitude_flow,
    error_reduction,
    fp_recover,
    gaussian_problem,
    pupil_radius_bins,
)
from aperture_forge.radiometry import BaselineSet, BrightnessMap
from aperture_forge.sar import (
    LinearPhaseSteering,
    QsarParams,
    SarGeometry,
    chirp_scaling_focus,
    sar_resolutions,
    tomographic_reconstruct,
)
from aperture_forge.sar.scene import PhaseHistory
from aperture_forge.sas import SasGeometry, sas_resolutions, sas_sparse
from aperture_forge.sounding import (
    FrequencyGrid,
    SamplingLattice,
    optimize_sparse_lattice,
    sampling_checks,
    spherical_padp,
    steering_vector,
)
from aperture_forge.waveforms import LfmChirp, adc_snr_ideal_db, rmmse_compress

CHIRP = LfmChirp(1e9, 1e6, 1e-5)
GEOM = SarGeometry(100.0, 400.0, 0.16, 1000.0, 0.03)
LATTICE = SamplingLattice(4, 4, 0.01, 0.01)
QSAR = dict(power_w=5.0, gain=3162.0, wavelength=0.03, sigma0=0.1, delta_r=1.0,
            standoff=1e5, t0_k=290.0, noise_figure=2.0, l_a=3.0, v=150.0)


def _runner(scenario, **params):
    return REGISTRY[scenario].runner(1, ArtifactSink("unused", False, False), **params)


def _tomo(s_step):
    angles = np.linspace(0.0, np.pi, 4, endpoint=False)
    return tomographic_reconstruct(np.ones((4, 5)), angles, s_step)


# (site, key, call with the key set to the value and every other input valid)
POSITIVE = [
    ("plane_wave_field", "f",
     lambda f: plane_wave_field(np.zeros((1, 3)), [0.0], f, Direction(0.0, 0.0))),
    ("far_field_distance", "aperture_d", lambda x: far_field_distance(x, 1e9)),
    ("far_field_distance", "frequency", lambda x: far_field_distance(0.1, x)),
    ("wavenumber_spectrum", "dx", lambda x: wavenumber_spectrum(np.zeros((4, 4)), x, 1.0)),
    ("wavenumber_spectrum", "dt", lambda x: wavenumber_spectrum(np.zeros((4, 4)), 1.0, x)),
    ("LfmChirp", "bandwidth", lambda x: LfmChirp(1e9, x, 1e-5)),
    ("LfmChirp", "duration", lambda x: LfmChirp(1e9, 1e6, x)),
    ("BaselineSet", "du", lambda x: BaselineSet(5, x)),
    ("pupil_radius_bins", "wavelength", lambda x: pupil_radius_bins(0.25, x, 4e-7, 96)),
    ("pupil_radius_bins", "dx", lambda x: pupil_radius_bins(0.25, 5e-7, x, 96)),
    ("SasGeometry", "v_p", lambda x: SasGeometry(x, 0.05, 8, [0.0])),
    ("SasGeometry", "tau_rec", lambda x: SasGeometry(3.2, x, 8, [0.0])),
    ("sas_sparse", "mu", lambda x: sas_sparse(np.zeros(1), None, x)),
    ("sas_resolutions", "delta_f", lambda x: sas_resolutions(x, 0.04, 0.05, 30.0)),
    ("sas_resolutions", "d_transducer", lambda x: sas_resolutions(1.5e4, x, 0.05, 30.0)),
    ("sas_resolutions", "wavelength", lambda x: sas_resolutions(1.5e4, 0.04, x, 30.0)),
    ("sas_resolutions", "r0", lambda x: sas_resolutions(1.5e4, 0.04, 0.05, x)),
    ("SamplingLattice", "d_x", lambda x: SamplingLattice(4, 4, x, 0.01)),
    ("SamplingLattice", "d_y", lambda x: SamplingLattice(4, 4, 0.01, x)),
    ("steering_vector", "f", lambda x: steering_vector(LATTICE, Direction(0.0, 0.0), x)),
    ("optimize_sparse_lattice", "f_eval",
     lambda x: optimize_sparse_lattice(LATTICE, 0.5, 10, 5, 1, x)),
    ("FrequencyGrid", "f_start", lambda x: FrequencyGrid(x, 2e9, 1e8)),
    ("FrequencyGrid", "f_stop", lambda x: FrequencyGrid(1e9, x, 1e8)),
    ("FrequencyGrid", "df", lambda x: FrequencyGrid(1e9, 2e9, x)),
    ("sampling_checks", "f_max", lambda x: sampling_checks(FrequencyGrid(1e9, 2e9, 1e8), x)),
    ("spherical_padp", "r_start", lambda x: spherical_padp(None, None, x, 9.0, 0.25)),
    ("spherical_padp", "r_step", lambda x: spherical_padp(None, None, 3.0, 9.0, x)),
    ("SarGeometry", "prf", lambda x: SarGeometry(100.0, x, 0.16, 1000.0, 0.03)),
    ("SarGeometry", "t_coh", lambda x: SarGeometry(100.0, 400.0, x, 1000.0, 0.03)),
    ("SarGeometry", "r1", lambda x: SarGeometry(100.0, 400.0, 0.16, x, 0.03)),
    ("SarGeometry", "wavelength", lambda x: SarGeometry(100.0, 400.0, 0.16, 1000.0, x)),
    ("PhaseHistory", "f_s", lambda x: PhaseHistory(np.zeros((2, 2)), 0.0, x, CHIRP, GEOM)),
    ("sar_resolutions", "v",
     lambda x: sar_resolutions(SarGeometry(x, 400.0, 0.16, 1000.0, 0.03), CHIRP)),
    ("chirp_scaling_focus", "r_ref", lambda x: chirp_scaling_focus(None, x)),
    ("LinearPhaseSteering", "f_c", lambda x: LinearPhaseSteering(x, 0.1, 1e6, 1000.0)),
    ("LinearPhaseSteering", "d_u", lambda x: LinearPhaseSteering(1e10, x, 1e6, 1000.0)),
    ("LinearPhaseSteering", "d_f", lambda x: LinearPhaseSteering(1e10, 0.1, x, 1000.0)),
    ("LinearPhaseSteering", "r_ref", lambda x: LinearPhaseSteering(1e10, 0.1, 1e6, x)),
    ("tomographic_reconstruct", "s_step", _tomo),
    *[("QsarParams", key, lambda x, key=key: QsarParams(**{**QSAR, key: x}, theta_deg=30.0))
      for key in QSAR],
    ("render_image", "dynamic_range_db",
     lambda x: render_image(np.ones((2, 2)), "power", dynamic_range_db=x)),
    ("sound-squint", "f_design_hz", lambda x: _runner("sound-squint", f_design_hz=x)),
    ("sound-squint", "f_eval_hz", lambda x: _runner("sound-squint", f_eval_hz=x)),
    ("sar-point", "oversample", lambda x: _runner("sar-point", oversample=x)),
    ("sar-speckle", "sigma_mu", lambda x: _runner("sar-speckle", sigma_mu=x)),
    ("radiometry-roundtrip", "t_peak_k", lambda x: _runner("radiometry-roundtrip", t_peak_k=x)),
]

# (site, key, least, call with the key set to the value)
AT_LEAST = [
    ("adc_snr_ideal_db", "bits", 1, adc_snr_ideal_db),
    ("rmmse_compress", "iterations", 1,
     lambda x: rmmse_compress(np.ones(8), np.ones(2), iterations=x)),
    ("BrightnessMap", "n_theta", 1, lambda x: BrightnessMap.from_function(np.add, x, 4)),
    ("BrightnessMap", "n_phi", 1, lambda x: BrightnessMap.from_function(np.add, 4, x)),
    ("BaselineSet", "n", 1, lambda x: BaselineSet(x, 0.5)),
    ("gaussian_problem", "m", 1, lambda x: gaussian_problem(x, 4, 1)),
    ("amplitude_flow", "steps", 0, lambda x: amplitude_flow(None, None, None, steps=x)),
    ("error_reduction", "iters", 0, lambda x: error_reduction(None, None, None, iters=x)),
    ("fp_recover", "sweeps", 0, lambda x: fp_recover(None, None, sweeps=x)),
    ("SasGeometry", "n_pings", 1, lambda x: SasGeometry(3.2, 0.05, x, [0.0])),
    ("sas_sparse", "max_iter", 0, lambda x: sas_sparse(np.zeros(1), None, 1.0, max_iter=x)),
    ("SamplingLattice", "m", 1, lambda x: SamplingLattice(x, 4, 0.01, 0.01)),
    ("SamplingLattice", "n", 1, lambda x: SamplingLattice(4, x, 0.01, 0.01)),
    ("optimize_sparse_lattice", "n_steps", 0,
     lambda x: optimize_sparse_lattice(LATTICE, 0.5, x, 5, 1, 4e10)),
    ("optimize_sparse_lattice", "cool_every", 1,
     lambda x: optimize_sparse_lattice(LATTICE, 0.5, 10, x, 1, 4e10)),
]


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("site, key, call", POSITIVE, ids=[f"{s}-{k}" for s, k, _ in POSITIVE])
def test_a_positive_input_rejects_zero_negative_and_non_finite(site, key, call, value):
    with pytest.raises(ValueError, match=rf"(?<![\w.]){key}={value}(?![\w.])"):
        call(value)


@pytest.mark.parametrize("site, key, least, call", AT_LEAST,
                         ids=[f"{s}-{k}" for s, k, _, _ in AT_LEAST])
def test_a_count_rejects_one_below_its_least(site, key, least, call):
    with pytest.raises(ValueError, match=f"^{key} must be >= {least}, got {key}={least - 1}$"):
        call(least - 1)


def test_the_helpers_name_the_first_bad_key_and_pass_good_values():
    _require_finite_positive(a=1e-300, b=5)
    _require_at_least(2, a=2, b=3.5)
    with pytest.raises(ValueError, match=r"^b must be finite and positive, got b=nan$"):
        _require_finite_positive(a=1.0, b=np.nan, c=0.0)
    with pytest.raises(ValueError, match=r"^b must be >= 2, got b=nan$"):
        _require_at_least(2, a=3, b=float("nan"), c=0)


@pytest.mark.parametrize("t_peak_k", [1e-315, 1e-320, 5e-324])
def test_t_peak_k_rejects_a_subnormal_value(t_peak_k):
    floor = re.escape(repr(sys.float_info.min))
    with pytest.raises(ValueError, match=f"^t_peak_k must be >= {floor}, got t_peak_k={t_peak_k}"):
        _runner("radiometry-roundtrip", t_peak_k=t_peak_k)
