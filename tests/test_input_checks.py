"""Every input check built on ``core._require_finite_positive``,
``core._require_finite`` or ``core._require_at_least`` rejects its bad
values with a ValueError that names the key and the value, and no module
but ``core`` writes a finiteness check of its own."""

import ast
import pathlib
import re
import sys

import numpy as np
import pytest

import aperture_forge
from aperture_forge.cli.artifacts import ArtifactSink, render_image
from aperture_forge.cli.scenarios import REGISTRY
from aperture_forge.core import (
    Direction,
    _require_at_least,
    _require_finite,
    _require_finite_positive,
    add_complex_noise,
    far_field_distance,
    plane_wave_field,
    wavenumber_spectrum,
)
from aperture_forge.inversion import (
    FpSystem,
    amplitude_flow,
    circular_pupil,
    coded_problem,
    error_reduction,
    fp_recover,
    gaussian_problem,
    pr_forward,
    pupil_radius_bins,
)
from aperture_forge.radiometry import BaselineSet, BrightnessMap
from aperture_forge.sar import (
    CaponProblem,
    LinearPhaseSteering,
    QsarParams,
    SarGeometry,
    Scatterer,
    apply_speckle,
    backproject,
    detection_error_probabilities,
    lee_filter,
    project_image,
    sar_resolutions,
    tomographic_reconstruct,
)
from aperture_forge.sar.scene import PhaseHistory
from aperture_forge.sar.speckle import _box_mean
from aperture_forge.sas import SasGeometry, SensingModel, sas_resolutions, sas_sparse
from aperture_forge.sounding import (
    FrequencyGrid,
    PointSourceRay,
    SamplingLattice,
    SweepData,
    optimize_sparse_lattice,
    sampling_checks,
    spherical_padp,
    steering_vector,
    two_ray_path_loss,
)
from aperture_forge.waveforms import LfmChirp, adc_snr_ideal_db, matched_filter, rmmse_compress

CHIRP = LfmChirp(1e9, 1e6, 1e-5)
GEOM = SarGeometry(100.0, 400.0, 0.16, 1000.0, 0.03)
LATTICE = SamplingLattice(4, 4, 0.01, 0.01)
GRID = FrequencyGrid(1e9, 2e9, 1e8)
FP = FpSystem(np.ones((4, 4)), circular_pupil(4, 0), [[0, 0]])
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
    ("coded_problem", "n_masks", 1, lambda x: coded_problem(4, x, 1)),
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


def _with(shape, value):
    """Ones of ``shape`` with ``value`` in the last entry."""
    a = np.ones(shape)
    a.flat[-1] = value
    return a


# (site, key, call with the key set to the value): refuses NaN and +-inf
FINITE = [
    ("Direction", "u", lambda x: Direction(x, 0.0)),
    ("Direction", "v", lambda x: Direction(0.0, x)),
    ("Scatterer", "x0", lambda x: Scatterer(x, 100.0)),
    ("Scatterer", "y0", lambda x: Scatterer(0.0, x)),
    ("SarGeometry", "v", lambda x: SarGeometry(x, 400.0, 0.16, 1000.0, 0.03)),
    ("PhaseHistory", "tau0", lambda x: PhaseHistory(np.zeros((2, 2)), x, 1e7, CHIRP, GEOM)),
    ("CaponProblem", "loading", lambda x: CaponProblem(np.ones((4, 4)), None, x)),
    ("noise_rng", "noise_sigma", lambda x: add_complex_noise(np.zeros(2), x, 1)),
    ("noise_rng", "sigma_mu", lambda x: apply_speckle(np.ones(2), x, 1)),
    ("pupil_radius_bins", "na", lambda x: pupil_radius_bins(x, 5e-7, 4e-7, 96)),
    ("two_ray_path_loss", "rho", lambda x: two_ray_path_loss(x, 0.0)),
    ("two_ray_path_loss", "phi", lambda x: two_ray_path_loss(0.5, x)),
]

# (site, key, entries, call with one entry of the key's array set to the value)
FINITE_ARRAY = [
    ("matched_filter", "received", 4, lambda x: matched_filter(_with(4, x), np.ones(2))),
    ("matched_filter", "reference", 2, lambda x: matched_filter(np.ones(4), _with(2, x))),
    ("rmmse_compress", "received", 8, lambda x: rmmse_compress(_with(8, x), np.ones(2))),
    ("rmmse_compress", "waveform", 2, lambda x: rmmse_compress(np.ones(8), _with(2, x))),
    ("_uniform_grid", "x_grid", 3, lambda x: backproject(None, _with(3, x), [1.0, 2.0])),
    ("_uniform_grid", "r_grid", 2, lambda x: backproject(None, [1.0, 2.0], _with(2, x))),
    ("lee_filter", "z", 64, lambda x: lee_filter(_with((8, 8), x), 0.5)),
    ("PhaseHistory", "data", 4,
     lambda x: PhaseHistory(_with((2, 2), x), 0.0, 1e7, CHIRP, GEOM)),
    ("plane_wave_field", "pos", 3,
     lambda x: plane_wave_field(_with((1, 3), x), [0.0], 1e9, Direction(0.0, 0.0))),
    ("pr_forward", "x", 4, lambda x: pr_forward(_with(4, x), gaussian_problem(8, 4, 1))),
    ("SweepData", "s21", 176, lambda x: SweepData(_with((16, 11), x), LATTICE, GRID)),
    ("render_image", "grid", 4, lambda x: render_image(_with((2, 2), x), "power")),
    ("sas_sparse", "d_stack", 3, lambda x: sas_sparse(_with(3, x), None, 1.0)),
    ("BrightnessMap", "values", 4, lambda x: BrightnessMap(_with((2, 2), x))),
    ("SasGeometry", "rx_offsets", 2, lambda x: SasGeometry(3.2, 0.05, 2, _with(2, x))),
    ("SensingModel", "points", 2, lambda x: _sensing_model(points=_with((1, 2), x))),
    ("PointSourceRay", "position", 3, lambda x: PointSourceRay(tuple(_with(3, x)))),
    ("tomographic_reconstruct", "angles", 2,
     lambda x: tomographic_reconstruct(np.ones((2, 5)), [0.5, x], 1.0)),
    ("tomographic_reconstruct", "projections", 36,
     lambda x: tomographic_reconstruct(_with((4, 9), x), [0.0, 0.5, 1.0, 1.5], 1.0)),
    ("project_image", "image", 9, lambda x: project_image(_with((3, 3), x), [0.0], 1.0)),
    ("fp_recover", "intensities", 16, lambda x: fp_recover(_with((1, 4, 4), x), FP, sweeps=1)),
]


def _sensing_model(frequencies=(1e4,), points=((30.0, 0.0),)):
    return SensingModel(SasGeometry(3.2, 0.05, 2, [0.0]), points, frequencies)


# (site, key, rule, what breaks it, entries, values that break it, the value
# at the boundary that passes, call with one entry of the key's array set to
# the value): a sign rule over an array
ARRAY_SIGN = [
    ("BrightnessMap", "values", ">= 0", "below 0", 4, [-1.0, -1e-300], 0.0,
     lambda x: BrightnessMap(_with((2, 2), x))),
    ("fp_recover", "intensities", ">= 0", "below 0", 16, [-1e-3, -1e-300], 0.0,
     lambda x: fp_recover(_with((1, 4, 4), x), FP, sweeps=1)),
    ("SensingModel", "frequencies", "finite and positive", "not finite and positive", 2,
     [0.0, -1.0, np.nan, np.inf, -np.inf], 1e-300, lambda x: _sensing_model([1e4, x])),
]

# (site, key, call with the key set to the value): the rule is >= 0
NONNEGATIVE = [
    *[row for row in FINITE
      if row[0] in ("SarGeometry", "CaponProblem", "noise_rng", "pupil_radius_bins")
      or row[1] == "rho"],
    ("lee_filter", "sigma_mu", lambda x: lee_filter(np.ones((8, 8)), x)),
    ("detection_error_probabilities", "snr", detection_error_probabilities),
    ("sampling_checks", "tol", lambda x: sampling_checks(GRID, 1e9, x)),
]

# (site, key, call with the key at +inf, what the formula's limit gives)
INF_IS_A_LIMIT = [
    ("lee_filter", "sigma_mu", lambda x: lee_filter(np.arange(64.0).reshape(8, 8), x),
     lambda out: np.array_equal(out, _box_mean(np.arange(64.0).reshape(8, 8), 7))),
    ("detection_error_probabilities", "snr", detection_error_probabilities,
     lambda out: out == {"epsilon_c": 0.0, "epsilon_q": 0.0}),
    ("sampling_checks", "tol", lambda x: sampling_checks(GRID, 1.5e9, x),
     lambda out: out["bandpass_ok"]),  # f_max / B = 1.5, half a step from q = 2
]


# a Python int past float64's range reads as inf
HUGE_INT = pytest.param(10 ** 400, id="10**400")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, HUGE_INT])
@pytest.mark.parametrize("site, key, call", FINITE, ids=[f"{s}-{k}" for s, k, _ in FINITE])
def test_a_finite_input_rejects_nan_and_inf(site, key, call, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {key}={value}$"):
        call(value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("site, key, entries, call", FINITE_ARRAY,
                         ids=[f"{s}-{k}" for s, k, _, _ in FINITE_ARRAY])
def test_a_finite_array_names_its_count_of_bad_entries(site, key, entries, call, value):
    got = re.escape(f"{key}=[1 of {entries} entries non-finite]")
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {got}$"):
        call(value)


@pytest.mark.parametrize("site, key, rule, breaks, entries, values, boundary, call", ARRAY_SIGN,
                         ids=[row[0] + "-" + row[1] for row in ARRAY_SIGN])
def test_an_array_sign_rule_names_its_count_of_bad_entries(site, key, rule, breaks, entries,
                                                          values, boundary, call):
    got = re.escape(f"{key}=[1 of {entries} entries {breaks}]")
    for value in values:
        with pytest.raises(ValueError, match=f"^{key} must be {rule}, got {got}$"):
            call(value)
    call(boundary)


@pytest.mark.parametrize("site, key, call", NONNEGATIVE,
                         ids=[f"{s}-{k}" for s, k, _ in NONNEGATIVE])
def test_a_nonnegative_input_rejects_minus_one(site, key, call):
    with pytest.raises(ValueError, match=f"^{key} must be >= 0, got {key}=-1.0$"):
        call(-1.0)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("site, key, call, limit", INF_IS_A_LIMIT,
                         ids=[f"{s}-{k}" for s, k, _, _ in INF_IS_A_LIMIT])
def test_an_input_with_a_limit_at_inf_rejects_nan_and_minus_inf(site, key, call, limit, value):
    with pytest.raises(ValueError, match=f"^{key} must be >= 0, got {key}={value}$"):
        call(value)


@pytest.mark.parametrize("site, key, call, limit", INF_IS_A_LIMIT,
                         ids=[f"{s}-{k}" for s, k, _, _ in INF_IS_A_LIMIT])
def test_an_input_with_a_limit_at_inf_accepts_inf(site, key, call, limit):
    assert limit(call(np.inf))


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf, HUGE_INT])
@pytest.mark.parametrize("site, key, call", POSITIVE, ids=[f"{s}-{k}" for s, k, _ in POSITIVE])
def test_a_positive_input_rejects_zero_negative_and_non_finite(site, key, call, value):
    with pytest.raises(ValueError, match=rf"(?<![\w.]){key}={value}(?![\w.])"):
        call(value)


@pytest.mark.parametrize("site, key, least, call", AT_LEAST,
                         ids=[f"{s}-{k}" for s, k, _, _ in AT_LEAST])
def test_a_count_rejects_one_below_its_least(site, key, least, call):
    with pytest.raises(ValueError, match=f"^{key} must be >= {least}, got {key}={least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("site, key, least, call", AT_LEAST,
                         ids=[f"{s}-{k}" for s, k, _, _ in AT_LEAST])
def test_a_count_rejects_an_int_past_int64(site, key, least, call):
    with pytest.raises(ValueError, match=f"^{key} must be a 64-bit integer, got {key}={2 ** 63}$"):
        call(2 ** 63)


def test_the_helpers_name_the_first_bad_key_and_pass_good_values():
    _require_finite_positive(a=1e-300, b=5)
    _require_at_least(2, a=2, b=3.5)
    _require_finite(a=-1e300, b=np.zeros((2, 3)), c=1j, d=[], e=np.array([1.0 + 2j]))
    with pytest.raises(ValueError, match=r"^b must be finite, got b=-inf$"):
        _require_finite(a=0.0, b=-np.inf, c=np.nan)
    message = r"^b must be finite, got b=\[2 of 3 entries non-finite\]$"
    with pytest.raises(ValueError, match=message):
        _require_finite(a=[1.0], b=[np.nan, 1.0, complex(0.0, np.inf)])
    with pytest.raises(ValueError, match=r"^b must be finite and positive, got b=nan$"):
        _require_finite_positive(a=1.0, b=np.nan, c=0.0)
    with pytest.raises(ValueError, match=r"^b must be >= 2, got b=nan$"):
        _require_at_least(2, a=3, b=float("nan"), c=0)
    _require_finite_positive(a=[1e-300, 5.0], b=np.ones((2, 2)))
    _require_at_least(0, a=np.zeros(3), b=[])
    with pytest.raises(ValueError, match=r"^b must be >= 0, got b=\[2 of 3 entries below 0\]$"):
        _require_at_least(0, a=[0.0], b=[-1.0, 0.0, np.nan])
    message = r"^b must be finite and positive, got b=\[2 of 3 entries not finite and positive\]$"
    with pytest.raises(ValueError, match=message):
        _require_finite_positive(a=[1.0], b=np.array([0.0, 1.0, np.inf]))


@pytest.mark.parametrize("t_peak_k", [1e-315, 1e-320, 5e-324])
def test_t_peak_k_rejects_a_subnormal_value(t_peak_k):
    floor = re.escape(repr(sys.float_info.min))
    with pytest.raises(ValueError, match=f"^t_peak_k must be >= {floor}, got t_peak_k={t_peak_k}"):
        _runner("radiometry-roundtrip", t_peak_k=t_peak_k)


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def hand_rolled_finite_checks(source):
    """Line of each ``raise ValueError`` inside an ``if`` whose test calls
    ``isfinite`` on a parameter of the enclosing function, or reads a local
    assigned from such a call (a count of bad entries, say).  Inside
    ``__init__`` and ``__post_init__`` a ``self`` field counts as a
    parameter; a local does not."""
    lines = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        a = func.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p and p.arg not in ("self", "cls")}
        init = func.name in ("__init__", "__post_init__")

        def is_param(node):
            if isinstance(node, ast.Attribute):
                return init and _name(node.value) == "self"
            return isinstance(node, ast.Name) and node.id in params

        def checks_param(expr):
            return any(isinstance(call, ast.Call) and _name(call.func) == "isfinite"
                       and any(is_param(n) for arg in call.args for n in ast.walk(arg))
                       for call in ast.walk(expr))

        results = {t.id for node in ast.walk(func)
                   if isinstance(node, ast.Assign) and checks_param(node.value)
                   for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(func):
            if not isinstance(node, ast.If):
                continue
            if not (checks_param(node.test) or any(isinstance(n, ast.Name) and n.id in results
                                                   for n in ast.walk(node.test))):
                continue
            lines += [r.lineno for stmt in node.body + node.orelse for r in ast.walk(stmt)
                      if isinstance(r, ast.Raise) and r.exc is not None
                      and _name(getattr(r.exc, "func", r.exc)) == "ValueError"]
    return sorted(set(lines))


def test_no_module_but_core_hand_rolls_a_finite_check():
    src = pathlib.Path(aperture_forge.__file__).parent
    found = {str(path.relative_to(src)): hand_rolled_finite_checks(path.read_text())
             for path in sorted(src.rglob("*.py")) if path.name != "core.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_the_guard_sees_parameters_and_fields_and_not_locals():
    source = """
import math
import numpy as np

def param(x, *, scale):
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if math.isfinite(scale):
        pass
    else:
        raise ValueError

class Box:
    def __post_init__(self):
        if not np.isfinite([self.a, 1.0]).all():
            raise ValueError("a must be finite")

    def method(self, y):
        local = y + self.a
        if not np.isfinite(local):
            raise ValueError("a local is out of scope")
        if not np.isfinite(self.a):
            raise ValueError("a field outside __init__ is out of scope")
        if not np.isfinite(y):
            raise TypeError("only ValueError counts")
        if not np.isfinite(y):
            return None

def counted(z):
    bad = np.count_nonzero(~np.isfinite(z))
    if bad:
        raise ValueError(f"z must be finite; {bad} samples are not")
    scaled = 2.0 * z
    n_bad = np.count_nonzero(~np.isfinite(scaled))
    if n_bad:
        raise ValueError("a count over a local is out of scope")
"""
    assert hand_rolled_finite_checks(source) == [7, 11, 16, 32]
