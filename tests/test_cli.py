import ast
import hashlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperture_forge.cli.artifacts import DB_NOTE, ArtifactSink, render_image, render_sweep
from aperture_forge.cli.config import (
    ConfigFileError,
    MissingSeedError,
    RunConfig,
    TypeMismatchError,
    UnknownKeyError,
    parse_config,
)
from aperture_forge.cli.main import main
from aperture_forge.cli.scenarios import REGISTRY, run
from aperture_forge.core import SeedRequired
from aperture_forge.sas import sas_sparse
from aperture_forge.sounding import FrequencyGrid, PlaneWaveRay, SamplingLattice, synthesize_sweep

SCENARIOS_SRC = pathlib.Path(inspect.getsourcefile(run))
ALL_MODULES = {"core", "waveforms", "sar", "sounding", "sas", "inversion",
               "radiometry", "cli"}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ------------------------------------------------------------ config parsing


def test_minimal_config_fills_defaults(tmp_path):
    path = write_config(tmp_path, {"scenario": "sound-constants"})
    cfg = parse_config(path)
    assert cfg.scenario == "sound-constants"
    assert cfg.params["f_start_hz"] == 26.5e9
    assert cfg.seed is None
    assert "out" in cfg.defaulted
    assert "params.df_hz" in cfg.defaulted


def test_explicit_params_not_marked_defaulted(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sound-constants",
        "params": {"df_hz": 20e6},
    })
    cfg = parse_config(path)
    assert cfg.params["df_hz"] == 20e6
    assert "params.df_hz" not in cfg.defaulted
    assert "params.f_start_hz" in cfg.defaulted


def test_unknown_top_level_key_is_named(tmp_path):
    path = write_config(tmp_path, {"scenario": "sound-constants", "foo": 1})
    with pytest.raises(UnknownKeyError, match="foo") as err:
        parse_config(path)
    assert err.value.code == 3


def test_unknown_parameter_names_key_and_scenario(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sound-constants",
        "params": {"f_stop_khz": 40e9},
    })
    with pytest.raises(UnknownKeyError, match="f_stop_khz"):
        parse_config(path)


def test_unknown_scenario_rejected(tmp_path):
    path = write_config(tmp_path, {"scenario": "sar-pint"})
    with pytest.raises(UnknownKeyError, match="sar-pint"):
        parse_config(path)


def test_type_mismatch_has_its_own_code(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sound-constants",
        "params": {"df_hz": "10 MHz"},
    })
    with pytest.raises(TypeMismatchError) as err:
        parse_config(path)
    assert err.value.code == 4


def test_bool_does_not_pass_as_number(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sound-constants",
        "params": {"df_hz": True},
    })
    with pytest.raises(TypeMismatchError):
        parse_config(path)


def test_int_accepted_where_float_expected(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sound-constants",
        "params": {"f_max_hz": 40000000000},
    })
    assert parse_config(path).params["f_max_hz"] == 40e9


def test_float_rejected_where_int_expected(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sar-tomo",
        "params": {"n_angles": 90.5},
    })
    with pytest.raises(TypeMismatchError):
        parse_config(path)


def test_run_refuses_a_missing_seed_at_the_first_draw(tmp_path):
    path = write_config(tmp_path, {"scenario": "sar-speckle"})
    config = parse_config(path, out_dir=tmp_path / "out")
    assert config.seed is None
    with pytest.raises(MissingSeedError, match="sar-speckle: .*sigma_mu") as err:
        run(config)
    assert err.value.code == 5
    assert isinstance(err.value.__cause__, SeedRequired)
    assert not (tmp_path / "out").exists()


def test_seed_from_argv_satisfies_stochastic(tmp_path):
    path = write_config(tmp_path, {"scenario": "sar-speckle"})
    cfg = parse_config(path, seed=11)
    assert cfg.seed == 11


def test_seed_must_fit_in_64_bits(tmp_path):
    path = write_config(tmp_path, {"scenario": "sar-speckle", "seed": 2 ** 64})
    with pytest.raises(TypeMismatchError):
        parse_config(path)
    path = write_config(tmp_path, {"scenario": "sar-speckle", "seed": -1})
    with pytest.raises(TypeMismatchError):
        parse_config(path)


def test_the_largest_64_bit_seed_runs(tmp_path):
    path = write_config(tmp_path, {"scenario": "sar-speckle", "seed": 2 ** 64 - 1,
                                   "params": {"n_pix": 16}})
    assert main(["sar-speckle", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 2 ** 64 - 1


def test_missing_file_and_bad_json_use_file_code(tmp_path):
    with pytest.raises(ConfigFileError) as err:
        parse_config(tmp_path / "nope.json")
    assert err.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigFileError):
        parse_config(bad)


def test_scenario_argv_file_disagreement(tmp_path):
    path = write_config(tmp_path, {"scenario": "sound-constants"})
    with pytest.raises(ConfigFileError):
        parse_config(path, scenario="sar-tomo")


# ------------------------------------------------------------- image export


def test_constant_matrix_renders_all_white():
    pgm, _ = render_image(np.full((3, 4), 2.0), scale="power")
    lines = pgm.splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("#") and "10*log10" in lines[1]
    assert lines[2] == "4 3"
    assert lines[3] == "255"
    pixels = np.array([row.split() for row in lines[4:]], dtype=int)
    assert pixels.shape == (3, 4)
    assert (pixels == 255).all()


def test_exactly_dynamic_range_below_peak_maps_to_zero():
    grid = np.array([[1.0, 1e-6], [1e-3, 0.1]])  # 0, -60, -30 and -10 dB
    pgm, _ = render_image(grid, scale="power", dynamic_range_db=60.0)
    pixels = np.array([row.split() for row in pgm.splitlines()[4:]], dtype=int)
    assert pixels[0, 0] == 255
    assert pixels[0, 1] == 0
    assert pixels[1, 0] == int(round(255 / 2))


def test_csv_companion_roundtrips_bit_exact():
    grid = np.array([[1.0, np.pi], [1e-7, 2.0 / 3.0]])
    _, csv = render_image(grid, scale="power")
    back = np.loadtxt(io.StringIO(csv), delimiter=",")
    assert (back == grid).all()


def test_empty_and_bad_grids_rejected():
    with pytest.raises(ValueError):
        render_image(np.zeros((0, 4)), scale="power")
    with pytest.raises(ValueError):
        render_image(np.zeros(5), scale="power")
    with pytest.raises(ValueError):
        render_image(np.full((2, 2), np.nan), scale="field")
    with pytest.raises(ValueError):
        render_image(np.zeros((2, 2)), scale="power", dynamic_range_db=0.0)
    with pytest.raises(ValueError, match="scale"):
        render_image(np.ones((2, 2)), scale="db")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_rendered_pixels_span_at_most_the_dynamic_range(rows, cols, seed):
    rng = np.random.default_rng(seed)
    grid = rng.gamma(1.0, 1.0, (rows, cols)) + 1e-12
    pgm, _ = render_image(grid, scale="power")
    pixels = np.array([row.split() for row in pgm.splitlines()[4:]], dtype=int)
    assert pixels.min() >= 0 and pixels.max() == 255
    peak = np.unravel_index(np.argmax(grid), grid.shape)
    assert pixels[peak] == 255


def test_sweep_export_matches_interchange_layout():
    lat = SamplingLattice(2, 2, 0.005, 0.005)
    grid = FrequencyGrid(1e9, 1.1e9, 50e6)
    ray = PlaneWaveRay(0.2, 0.0, 4e-9, 1.0)
    sweep = synthesize_sweep([ray], lat, grid)
    text = render_sweep(sweep)
    lines = text.splitlines()
    assert lines[0].startswith("# lattice: 2 x 2")
    assert "f_start=1000000000 Hz" in lines[1]
    assert lines[2] == "# position_index, x, y, z, f_Hz, re, im"
    body = np.loadtxt(io.StringIO(text), delimiter=",")
    assert body.shape == (4 * grid.s, 7)
    k = np.flatnonzero(body[:, 0] == 2)[0]  # third position, first tone
    s21 = sweep.s21[2, 0]
    assert body[k, 5] == pytest.approx(s21.real, rel=0, abs=0)
    assert body[k, 6] == pytest.approx(s21.imag, rel=0, abs=0)


# ----------------------------------------------------------------- registry


def test_registry_holds_exactly_the_published_scenarios():
    assert sorted(REGISTRY) == sorted([
        "sar-point", "sar-tomo", "sar-capon", "sar-speckle",
        "sound-constants", "sound-padp", "sound-squint", "sound-sparse-lattice",
        "sas-recon", "pr-recover", "fp-demo", "radiometry-roundtrip",
        "waveform-ambiguity", "qsar-budget",
    ])


def test_every_module_is_reachable_from_some_scenario():
    tree = ast.parse(SCENARIOS_SRC.read_text())
    covered = {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 2}
    covered.add("cli")  # the front end itself
    assert covered == ALL_MODULES


def test_each_runner_signature_is_its_scenario_schema():
    defs = {node.name: node for node in ast.parse(SCENARIOS_SRC.read_text()).body
            if isinstance(node, ast.FunctionDef)}
    for name, scen in REGISTRY.items():
        sig = inspect.signature(scen.runner).parameters.values()
        assert [p.name for p in sig][:2] == ["seed", "sink"], name
        assert all(p.kind is p.KEYWORD_ONLY for p in list(sig)[2:]), name
        for key, default in scen.params.items():
            assert type(default) in (float, int, bool, str), (name, key)
        # a parameter the body never reads is a config key that changes nothing
        body = defs[scen.runner.__name__].body
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert set(scen.params) <= read, (name, sorted(set(scen.params) - read))


def test_defaulted_keys_follow_the_runner_signature(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"scenario": "sound-constants"}))
    assert cfg.defaulted == (
        "params.f_start_hz", "params.f_stop_hz", "params.df_hz", "params.f_max_hz",
        "params.tol", "params.aperture_m", "out", "emit_images", "emit_csv",
    )


# ------------------------------------------------------------------ running


def test_sound_constants_report(tmp_path):
    path = write_config(tmp_path, {"scenario": "sound-constants"})
    report = run(parse_config(path, out_dir=tmp_path / "out"))
    assert report.metrics["s_tones"] == 1351
    assert report.metrics["delay_resolution_ps"] == pytest.approx(74.074, rel=1e-4)
    assert report.metrics["t_dur_ns"] == pytest.approx(100.0)
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["metrics"] == report.metrics
    assert on_disk["conventions"] == DB_NOTE
    for entry in on_disk["artifacts"].values():
        assert sha256_of(tmp_path / "out" / entry["path"]) == entry["sha256"]


def test_manifest_hashes_the_bytes_each_kind_of_artifact_left_on_disk(tmp_path):
    path = write_config(tmp_path, {"scenario": "sound-padp"})
    report = run(parse_config(path, out_dir=tmp_path / "out"))
    # an image with its raw-value CSV, a table and a sweep
    assert set(report.artifacts) == {"delay_map.pgm", "delay_map.csv", "pdp.csv", "sweep.csv"}
    for entry in report.artifacts.values():
        assert sha256_of(tmp_path / "out" / entry["path"]) == entry["sha256"]


def test_runtime_stays_out_of_the_serialized_report(tmp_path):
    path = write_config(tmp_path, {"scenario": "sound-constants"})
    report = run(parse_config(path, out_dir=tmp_path / "out"))
    assert report.runtime_s > 0.0
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "runtime_s" not in json.dumps(on_disk)


@pytest.mark.parametrize("scenario,needs_seed", [
    ("sound-constants", False),
    ("sar-speckle", True),
    ("pr-recover", True),
])
def test_same_config_and_seed_reruns_byte_identical(tmp_path, scenario, needs_seed):
    path = write_config(tmp_path, {"scenario": scenario})
    seed = 5 if needs_seed else None
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run(parse_config(path, seed=seed, out_dir=out))
        reports.append((out / "report.json").read_bytes())
        manifest = json.loads(reports[-1])["artifacts"]
        for entry in manifest.values():
            assert sha256_of(out / entry["path"]) == entry["sha256"]
    assert reports[0] == reports[1]


def test_emit_flags_suppress_artifacts(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sar-tomo",
        "emit_images": False,
        "emit_csv": False,
        "params": {"n_s": 17, "n_angles": 12},
    })
    report = run(parse_config(path, out_dir=tmp_path / "out"))
    assert report.artifacts == {}


def test_module_error_is_wrapped_with_scenario_context(tmp_path):
    path = write_config(tmp_path, {
        "scenario": "sar-point",
        "params": {"r1_m": -5.0},
    })
    from aperture_forge.cli.config import ScenarioError
    with pytest.raises(ScenarioError, match="sar-point") as err:
        run(parse_config(path, out_dir=tmp_path / "out"))
    assert err.value.code == 6


def test_noise_without_seed_fails_at_run_time(tmp_path):
    for scenario in ("sound-padp", "sar-point"):
        path = write_config(tmp_path, {
            "scenario": scenario,
            "params": {"noise_sigma": 0.1},
        })
        with pytest.raises(MissingSeedError, match=f"{scenario}: .*noise_sigma"):
            run(parse_config(path, out_dir=tmp_path / scenario))
        assert not (tmp_path / scenario).exists()


# the scenarios whose default configs draw random numbers
DRAWS_AT_DEFAULTS = {"sound-sparse-lattice", "sar-capon", "sar-speckle", "sas-recon",
                     "pr-recover", "fp-demo"}


@pytest.mark.parametrize("scenario", sorted(REGISTRY))
def test_seedless_default_run_exits_5_only_where_it_draws(tmp_path, capsys, scenario):
    # the short pulse the liveness guard runs keeps waveform-ambiguity fast
    params = {"duration_s": 2e-6} if scenario == "waveform-ambiguity" else {}
    cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
    out = tmp_path / "out"
    code = main([scenario, "--config", str(cfg), "--out", str(out)])
    if scenario in DRAWS_AT_DEFAULTS:
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 5
        assert err["kind"] == "MissingSeedError"
        assert err["message"].startswith(f"{scenario}: seed is required when ")
        assert not out.exists()
    else:
        assert code == 0


@pytest.mark.parametrize("scenario", ["sar-capon", "sas-recon"])
def test_zero_noise_runs_without_a_seed(tmp_path, scenario):
    path = write_config(tmp_path, {"scenario": scenario, "params": {"noise_sigma": 0.0}})
    seedless = run(parse_config(path, out_dir=tmp_path / "none"))
    seeded = run(parse_config(path, seed=3, out_dir=tmp_path / "seeded"))
    assert seedless.metrics == seeded.metrics


# --------------------------------------------------------------- entry point


def test_cli_starts_without_scipy():
    """Importing scipy.signal costs over a second per CLI process."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, aperture_forge.cli.main, aperture_forge.waveforms; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.strip() == "[]"


def test_main_success_and_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "sound-constants"})
    code = main(["sound-constants", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "s_tones = 1351" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_non_finite_metric_exits_6_without_a_report(tmp_path, capsys, monkeypatch):
    def non_finite(seed, sink, **params):
        return {"fine": 1.0, "nan": float("nan"), "inf": np.inf, "count": 3}

    monkeypatch.setattr(REGISTRY["sound-constants"], "runner", non_finite)
    cfg = write_config(tmp_path, {"scenario": "sound-constants"})
    code = main(["sound-constants", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 6
    assert err["error"]["kind"] == "ScenarioError"
    assert err["error"]["message"] == "sound-constants: non-finite metrics: inf, nan"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario,params,message", [
    ("pr-recover", {"noise_sigma": -0.1}, "noise_sigma must be >= 0, got noise_sigma=-0.1"),
    ("radiometry-roundtrip", {"n_u": 1, "du": 0.6}, "above 0.5 aliases"),
    ("pr-recover", {"problem_kind": "bogus"}, "problem_kind must be"),
    ("sas-recon", {"target2": 190}, "target2 190 is not a cell"),
    ("sas-recon", {"target1": -1}, "target1 -1 is not a cell"),
    ("waveform-ambiguity", {"duration_s": 4.4e-7}, "duration_s"),
    ("sound-sparse-lattice", {"d_m": -0.00375}, "d_x=-0.00375"),
    ("sound-squint", {"m": 0}, "got m=0"),
    ("sound-squint", {"d_m": 0.0}, "d_x=0.0"),
    ("sound-padp", {"m": 0}, "got m=0"),
    ("sound-padp", {"d_m": 0.0}, "d_x=0.0"),
    ("sound-sparse-lattice", {"uv_points": 2}, "uv_points=2"),
    ("sound-padp", {"df_hz": 2.675e7}, "df="),
    ("sound-constants", {"aperture_m": 0.0},
     "aperture_d must be finite and positive, got aperture_d=0.0"),
    ("sound-squint", {"f_eval_hz": 0.0},
     "sound-squint: f_eval_hz must be finite and positive, got f_eval_hz=0.0"),
    ("sar-point", {"v_mps": 0.1}, "Doppler outside the support"),
    ("waveform-ambiguity", {"adc_bits": 0, "duration_s": 2e-6}, "bits must be >= 1"),
    ("pr-recover", {"steps": -1}, "steps=-1"),
    ("pr-recover", {"er_iters": -1}, "iters=-1"),
    ("fp-demo", {"sweeps": -1}, "sweeps=-1"),
    ("sas-recon", {"max_iter": -1}, "max_iter=-1"),
    ("sound-sparse-lattice", {"n_steps": -1}, "n_steps=-1"),
    ("sound-sparse-lattice", {"cool_every": 0}, "cool_every=0"),
    ("sound-squint", {"f_eval_hz": -40e9}, "got f_eval_hz=-40000000000.0"),
    ("sound-squint", {"f_design_hz": 0.0}, "got f_design_hz=0.0"),
    ("sound-squint", {"f_design_hz": -26.51e9}, "got f_design_hz=-26510000000.0"),
    ("sound-sparse-lattice", {"f_eval_hz": 0.0}, "got f_eval=0.0"),
    ("sound-sparse-lattice", {"f_eval_hz": -40e9}, "got f_eval=-40000000000.0"),
    # keys only the runner reads, checked before any work
    ("waveform-ambiguity", {"n_delay": 0}, "n_delay=0"),
    ("waveform-ambiguity", {"n_doppler": -1}, "n_doppler=-1"),
    ("waveform-ambiguity", {"n_bins": 2}, "n_bins=2"),
    ("waveform-ambiguity", {"n_bins": -1}, "n_bins=-1"),
    ("waveform-ambiguity", {"sep_bins": 124}, "sep_bins=124"),
    ("waveform-ambiguity", {"sep_bins": -57}, "sep_bins=-57"),
    ("sar-point", {"oversample": 0.0}, "got oversample=0.0"),
    # library parameters checked where the value is first used
    ("sound-constants", {"f_max_hz": -40e9}, "got f_max=-40000000000.0"),
    ("fp-demo", {"wavelength_m": 0.0}, "got wavelength=0.0"),
    ("fp-demo", {"dx_m": -4e-7}, "got dx=-4e-07"),
    ("radiometry-roundtrip", {"n_theta": 0}, "got n_theta=0"),
    ("radiometry-roundtrip", {"n_phi": 0}, "got n_phi=0"),
    ("pr-recover", {"oversampling": 0.0}, "got m=0"),
    # more keys only the runner reads, appended so the rows above keep their ids
    ("sar-tomo", {"n_s": 0}, "n_s must be >= 3, got n_s=0"),
    ("sar-tomo", {"n_s": 1}, "n_s must be >= 3, got n_s=1"),
    ("sar-tomo", {"n_s": -1}, "n_s must be >= 3, got n_s=-1"),
    ("sar-tomo", {"n_s": 2}, "n_s must be >= 3, got n_s=2"),
    ("sar-tomo", {"n_angles": -1}, "n_angles must be >= 2, got n_angles=-1"),
    ("sar-capon", {"n_grid": 0}, "n_grid must be >= 1, got n_grid=0"),
    ("sar-capon", {"n_grid": -1}, "n_grid must be >= 1, got n_grid=-1"),
    ("sound-squint", {"n_u": 0}, "n_u must be >= 1, got n_u=0"),
    ("sound-squint", {"n_u": -1}, "n_u must be >= 1, got n_u=-1"),
    ("sound-squint", {"map_tones": 0}, "map_tones must be >= 1, got map_tones=0"),
    ("sound-squint", {"map_tones": -1}, "map_tones must be >= 1, got map_tones=-1"),
    ("sound-padp", {"map_points": -1}, "map_points must be >= 1, got map_points=-1"),
    ("sound-sparse-lattice", {"uv_points": -1}, "uv_points must be >= 3, got uv_points=-1"),
    ("qsar-budget", {"n_sweep": -1}, "n_sweep must be >= 0, got n_sweep=-1"),
    # and more library parameters
    ("sound-constants", {"tol": -0.5}, "tol must be >= 0, got tol=-0.5"),
    ("fp-demo", {"na": -0.25}, "got na=-0.25"),
    ("sar-point", {"prf_hz": 0.4}, "got t_coh=0.16, prf=0.4"),
    ("sar-point", {"t_coh_s": 1.6e-4}, "got t_coh=0.00016, prf=400.0"),
    # once non-finite metrics, now named before any work
    ("radiometry-roundtrip", {"sigma_l": 0.0},
     "sigma_l must be nonzero (2 * sigma_l**2 > 0), got sigma_l=0.0"),
    ("radiometry-roundtrip", {"t_peak_k": 0.0},
     "t_peak_k must be finite and positive, got t_peak_k=0.0"),
    ("sar-speckle", {"n_pix": 1}, "n_pix must be >= 8, got n_pix=1"),
    ("sar-speckle", {"n_pix": 2}, "n_pix must be >= 8, got n_pix=2"),
    ("sar-speckle", {"sigma_mu": 0.0},
     "sigma_mu must be finite and positive, got sigma_mu=0.0"),
    ("sar-tomo", {"n_s": 4}, "n_s=4, radius_frac=0.35 and s_step=1.0 put no cell centre"),
    ("sar-speckle", {"n_pix": 0}, "n_pix must be >= 8, got n_pix=0"),
    ("sar-speckle", {"n_pix": -1}, "n_pix must be >= 8, got n_pix=-1"),
    ("sar-tomo", {"radius_frac": 350.0}, "radius_frac=350.0 and s_step=1.0 put every cell"),
    # a subnormal peak, whose map loses precision, and the largest power of two
    ("radiometry-roundtrip", {"t_peak_k": 1e-320},
     "t_peak_k must be >= 2.2250738585072014e-308, got t_peak_k=1e-320"),
    ("radiometry-roundtrip", {"t_peak_k": 2.0 ** 1023}, "grid must be finite, got grid=["),
    # a coded problem needs one mask at least
    ("pr-recover", {"problem_kind": "coded", "n_masks": 0}, "n_masks must be >= 1, got n_masks=0"),
    ("pr-recover", {"problem_kind": "coded", "n_masks": -1},
     "n_masks must be >= 1, got n_masks=-1"),
])
def test_invalid_library_input_exits_6_without_a_report(tmp_path, capsys, scenario, params,
                                                        message):
    cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
    code = main([scenario, "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 6
    assert err["error"]["kind"] == "ScenarioError"
    assert message in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def _weak_margin_loop_oracle(rc, strong, weak):
    """waveform-ambiguity's weak-return margin with each return's shoulders
    zeroed by a slice clipped to the residual window."""
    resid = np.abs(rc[weak - 10:weak + 11]).copy()
    for target in (strong, weak):
        lo = max(target - 2 - (weak - 10), 0)
        hi = min(target + 3 - (weak - 10), resid.size)
        if lo < hi:
            resid[lo:hi] = 0.0
    return float(20.0 * np.log10(np.abs(rc[weak]) / max(resid.max(), 1e-30)))


@pytest.mark.parametrize("sep_bins", [12, 3, -2, 40])  # 3 and -2: the two masks overlap
def test_weak_return_residual_matches_the_clipped_slices(tmp_path, monkeypatch, sep_bins):
    n_bins = 200
    strong, weak = n_bins // 3, n_bins // 3 + sep_bins
    seen = {}

    def profile(received, waveform, iterations):
        # falls off with the distance to the nearer return, so a shoulder
        # bin zeroed too few or too many changes the residual's maximum
        bins = np.arange(received.size - waveform.size + 1)
        dist = np.minimum(np.abs(bins - strong), np.abs(bins - weak))
        rng = np.random.default_rng(5)
        seen["rc"] = (1.0 + 0.1 * rng.random(bins.size)) / (1.0 + dist) \
            * np.exp(2j * np.pi * rng.random(bins.size))
        return seen["rc"]

    monkeypatch.setattr("aperture_forge.cli.scenarios.rmmse_compress", profile)
    metrics = REGISTRY["waveform-ambiguity"].runner(
        1, ArtifactSink(tmp_path, False, False), n_bins=n_bins, sep_bins=sep_bins)
    want = _weak_margin_loop_oracle(seen["rc"], strong, weak)
    assert metrics["rmmse_weak_margin_db"] == want


def test_sas_recon_reports_the_objective_of_the_iterate_it_returns(tmp_path, monkeypatch):
    # at max_iter 20 FISTA stops "max_iter" and returns its best iterate,
    # not its last
    seen = {}

    def keeps(d, model, mu, **kwargs):
        seen.update(d=d, model=model, mu=mu, result=sas_sparse(d, model, mu, **kwargs))
        return seen["result"]

    monkeypatch.setattr("aperture_forge.cli.scenarios.sas_sparse", keeps)
    metrics = REGISTRY["sas-recon"].runner(1, ArtifactSink(tmp_path, False, False), max_iter=20)
    x = seen["result"].x
    assert seen["result"].stop == "max_iter"
    r = seen["model"].forward(x) - seen["d"]
    objective = 0.5 * np.vdot(r, r).real + seen["mu"] * np.sum(np.abs(x))
    assert metrics["objective_final"] == pytest.approx(objective, rel=1e-12)


@pytest.mark.parametrize("scenario", sorted(REGISTRY))
def test_a_run_that_fails_after_its_runner_creates_no_directory(tmp_path, capsys,
                                                                 monkeypatch, scenario):
    runner = REGISTRY[scenario].runner

    def fails_after(seed, sink, **params):
        runner(seed, sink, **params)
        raise RuntimeError("failed after the runner")

    monkeypatch.setattr(REGISTRY[scenario], "runner", fails_after)
    params = {"duration_s": 2e-6} if scenario == "waveform-ambiguity" else {}
    cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
    out = tmp_path / "out"
    code = main([scenario, "--config", str(cfg), "--seed", "1", "--out", str(out)])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 6
    assert err["message"] == f"{scenario}: failed after the runner"
    assert not out.exists()


def test_a_failed_run_leaves_an_existing_directory_as_it_was(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "old.csv").write_text("kept\n")
    cfg = write_config(tmp_path, {"scenario": "sar-point", "params": {"v_mps": 0.1}})
    assert main(["sar-point", "--config", str(cfg), "--out", str(out)]) == 6
    assert [p.name for p in out.iterdir()] == ["old.csv"]
    assert (out / "old.csv").read_text() == "kept\n"


def _one_json_error_line(text):
    assert text.count("\n") == 1, text
    return json.loads(text)["error"]


@pytest.mark.parametrize("blocked", ["file", "file/sub", "dangling-link"])
def test_an_out_path_that_cannot_be_a_directory_exits_1_before_the_run(tmp_path, capsys,
                                                                       monkeypatch, blocked):
    def never(seed, sink, **params):
        raise AssertionError("the runner was called")

    monkeypatch.setattr(REGISTRY["sound-constants"], "runner", never)
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dangling-link").symlink_to(tmp_path / "nowhere")
    out = tmp_path / blocked
    cfg = write_config(tmp_path, {"scenario": "sound-constants"})
    code = main(["sound-constants", "--config", str(cfg), "--out", str(out)])
    err = _one_json_error_line(capsys.readouterr().err)
    assert code == 1
    assert err["kind"] == "CliError"
    assert str(out) in err["message"]
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not (tmp_path / "nowhere").exists()


def test_a_write_stage_failure_exits_1_naming_the_path(tmp_path, capsys, monkeypatch):
    runner = REGISTRY["sound-constants"].runner
    out = tmp_path / "out"

    def takes_the_out_path(seed, sink, **params):
        out.write_text("")  # a file lands where the directory goes while the run works
        return runner(seed, sink, **params)

    monkeypatch.setattr(REGISTRY["sound-constants"], "runner", takes_the_out_path)
    cfg = write_config(tmp_path, {"scenario": "sound-constants"})
    code = main(["sound-constants", "--config", str(cfg), "--out", str(out)])
    err = _one_json_error_line(capsys.readouterr().err)
    assert code == 1
    assert err["kind"] == "CliError"
    assert str(out) in err["message"]


def test_a_failed_run_prints_its_warnings_inside_one_json_line(tmp_path):
    """A subprocess, because pytest would intercept the warnings.  Its
    runner warns once and returns a NaN, so no scenario's config is the
    source."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    cfg = write_config(tmp_path, {"scenario": "sound-constants"})
    script = ("import sys\n"
              "import numpy as np\n"
              "from aperture_forge.cli.main import main\n"
              "from aperture_forge.cli.scenarios import REGISTRY\n"
              "REGISTRY['sound-constants'].runner = "
              "lambda seed, sink, **params: {'ratio': np.float64(0.0) / 0.0}\n"
              "sys.exit(main(sys.argv[1:]))\n")
    done = subprocess.run([sys.executable, "-c", script, "sound-constants",
                           "--config", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 6
    err = _one_json_error_line(done.stderr)
    assert err["message"] == "sound-constants: non-finite metrics: ratio"
    assert len(err["warnings"]) == 1 and "invalid value" in err["warnings"][0]


def test_a_successful_run_shows_its_warnings(tmp_path, capsys, monkeypatch):
    runner = REGISTRY["sound-constants"].runner

    def warns(seed, sink, **params):
        warnings.warn("from the runner", RuntimeWarning)
        return runner(seed, sink, **params)

    monkeypatch.setattr(REGISTRY["sound-constants"], "runner", warns)
    cfg = write_config(tmp_path, {"scenario": "sound-constants"})
    with pytest.warns(RuntimeWarning, match="from the runner"):
        assert main(["sound-constants", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_sar_point_runs_with_unequal_cut_lengths(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "sar-point", "params": {"n_x": 32}})
    out = tmp_path / "out"
    assert main(["sar-point", "--config", str(cfg), "--out", str(out)]) == 0
    for name, rows in (("range_cut", 64), ("xr_cut", 32)):
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert len([ln for ln in lines if not ln.startswith("#")]) == rows


@pytest.mark.parametrize("t_peak_k", [1e-300, 1e-160, 1e160, 1e300])
def test_radiometry_error_does_not_depend_on_the_temperature_scale(tmp_path, t_peak_k):
    # the residual's and the reference's squares neither underflow (a
    # wrong 0.0 at 1e-160) nor overflow (exit 6 at 1e160)
    def rel_l2_err(params, name):
        cfg = write_config(tmp_path, {"scenario": "radiometry-roundtrip", "params": params,
                                      "emit_images": False, "emit_csv": False}, f"{name}.json")
        out = tmp_path / name
        assert main(["radiometry-roundtrip", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())["metrics"]["rel_l2_err"]

    want = rel_l2_err({}, "default")
    assert rel_l2_err({"t_peak_k": t_peak_k}, "scaled") == pytest.approx(want, rel=1e-9)


def test_each_warm_scenario_holds_at_most_6_mib_at_its_defaults(tmp_path):
    # the 13 scenarios other than waveform-ambiguity, whose RMMSE stack is
    # bounded by _COV_BUDGET_BYTES instead; sar-point peaks at about 5.1 MiB,
    # the omega-k frame and its magnitudes beside the phase history
    peaks = {}
    for name in sorted(set(REGISTRY) - {"waveform-ambiguity"}):
        config = RunConfig(name, {}, 1, str(tmp_path / name), emit_images=False,
                           emit_csv=False)
        tracemalloc.start()
        try:
            run(config)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert len(peaks) == 13
    assert {name: round(mib, 2) for name, mib in peaks.items() if mib > 6.0} == {}


def test_non_finite_config_number_exits_4_without_a_report(tmp_path, capsys):
    # Python's json reads the NaN and Infinity tokens as floats; the last two
    # numbers overflow float64 and int64
    for name, key, token in (("sound-constants", "tol", "NaN"),
                             ("sound-constants", "f_max_hz", "Infinity"),
                             ("sas-recon", "v_p_mps", str(10 ** 400)),
                             ("sas-recon", "n_pings", str(10 ** 30))):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text('{"scenario": "%s", "params": {"%s": %s}}' % (name, key, token))
        out = tmp_path / key
        code = main([name, "--config", str(cfg), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert code == 4
        assert err["error"]["kind"] == "TypeMismatchError"
        assert f"params.{key}" in err["error"]["message"]
        assert not out.exists()


def test_every_number_key_refuses_a_401_digit_integer(tmp_path):
    keys = [(name, key) for name, scen in sorted(REGISTRY.items())
            for key, default in scen.params.items() if type(default) in (float, int)]
    assert len({type(REGISTRY[name].params[key]) for name, key in keys}) == 2
    for name, key in keys:
        path = write_config(tmp_path, {"scenario": name, "params": {key: 10 ** 400}})
        with pytest.raises(TypeMismatchError, match=f"^params\\.{key}: "):
            parse_config(path)


def test_main_reports_machine_readable_errors(tmp_path, capsys):
    bad = write_config(tmp_path, {"scenario": "sound-constants", "foo": 1})
    code = main(["sound-constants", "--config", str(bad),
                 "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"]["kind"] == "UnknownKeyError"
    assert "foo" in err["error"]["message"]

    missing = main(["sar-speckle", "--config", str(tmp_path / "nope.json")])
    capsys.readouterr()
    assert missing == 2

    noseed = write_config(tmp_path, {"scenario": "sar-speckle"})
    code = main(["sar-speckle", "--config", str(noseed),
                 "--out", str(tmp_path / "out2")])
    err = json.loads(capsys.readouterr().err)
    assert code == 5
    assert err["error"]["kind"] == "MissingSeedError"
