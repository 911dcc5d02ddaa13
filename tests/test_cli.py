import ast
import inspect
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperture_forge.cli.artifacts import (
    DB_NOTE,
    render_image,
    sha256_file,
    write_sweep,
)
from aperture_forge.cli.config import (
    ConfigFileError,
    MissingSeedError,
    TypeMismatchError,
    UnknownKeyError,
    parse_config,
)
from aperture_forge.cli.main import main
from aperture_forge.cli.scenarios import REGISTRY, run
from aperture_forge.sounding import ChannelRay, FrequencyGrid, SamplingLattice, synthesize_sweep

SCENARIOS_SRC = pathlib.Path(inspect.getsourcefile(run))
ALL_MODULES = {"core", "waveforms", "sar", "sounding", "sas", "inversion",
               "radiometry", "cli"}


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


def test_stochastic_scenario_requires_seed(tmp_path):
    path = write_config(tmp_path, {"scenario": "sar-speckle"})
    with pytest.raises(MissingSeedError) as err:
        parse_config(path)
    assert err.value.code == 5


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


def test_constant_matrix_renders_all_white(tmp_path):
    pgm, _ = render_image(np.zeros((3, 4)), tmp_path / "flat.pgm")
    lines = pgm.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("#") and "10*log10" in lines[1]
    assert lines[2] == "4 3"
    assert lines[3] == "255"
    pixels = np.array([row.split() for row in lines[4:]], dtype=int)
    assert pixels.shape == (3, 4)
    assert (pixels == 255).all()


def test_exactly_dynamic_range_below_peak_maps_to_zero(tmp_path):
    grid = np.array([[0.0, -60.0], [-30.0, -10.0]])
    pgm, _ = render_image(grid, tmp_path / "g.pgm", dynamic_range_db=60.0)
    pixels = np.array([row.split() for row in pgm.read_text().splitlines()[4:]],
                      dtype=int)
    assert pixels[0, 0] == 255
    assert pixels[0, 1] == 0
    assert pixels[1, 0] == int(round(255 / 2))


def test_csv_companion_roundtrips_bit_exact(tmp_path):
    grid = np.array([[1.0, np.pi], [1e-7, 2.0 / 3.0]])
    _, csv = render_image(grid, tmp_path / "r.pgm", scale="power")
    back = np.loadtxt(csv, delimiter=",")
    assert (back == grid).all()


def test_empty_and_bad_grids_rejected(tmp_path):
    with pytest.raises(ValueError):
        render_image(np.zeros((0, 4)), tmp_path / "e.pgm")
    with pytest.raises(ValueError):
        render_image(np.zeros(5), tmp_path / "e.pgm")
    with pytest.raises(ValueError):
        render_image(np.full((2, 2), np.nan), tmp_path / "e.pgm")
    with pytest.raises(ValueError):
        render_image(np.zeros((2, 2)), tmp_path / "e.pgm", dynamic_range_db=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_rendered_pixels_span_at_most_the_dynamic_range(rows, cols, seed):
    rng = np.random.default_rng(seed)
    grid = rng.gamma(1.0, 1.0, (rows, cols)) + 1e-12
    with tempfile.TemporaryDirectory() as d:
        pgm, _ = render_image(grid, pathlib.Path(d) / "p.pgm", scale="power")
        pixels = np.array(
            [row.split() for row in pgm.read_text().splitlines()[4:]], dtype=int)
    assert pixels.min() >= 0 and pixels.max() == 255
    peak = np.unravel_index(np.argmax(grid), grid.shape)
    assert pixels[peak] == 255


def test_sweep_export_matches_interchange_layout(tmp_path):
    lat = SamplingLattice.rectangular(2, 2, 0.005, 0.005)
    grid = FrequencyGrid(1e9, 1.1e9, 50e6)
    ray = ChannelRay.plane_wave(0.2, 0.0, 4e-9, 1.0)
    sweep = synthesize_sweep([ray], lat, grid)
    path = write_sweep(tmp_path / "sweep.csv", sweep)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# lattice: 2 x 2")
    assert "f_start=1000000000 Hz" in lines[1]
    assert lines[2] == "# position_index, x, y, z, f_Hz, re, im"
    body = np.loadtxt(path, delimiter=",")
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
        assert sha256_file(tmp_path / "out" / entry["path"]) == entry["sha256"]


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
            assert sha256_file(out / entry["path"]) == entry["sha256"]
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
    path = write_config(tmp_path, {
        "scenario": "sound-padp",
        "params": {"noise_sigma": 0.1},
    })
    with pytest.raises(MissingSeedError):
        run(parse_config(path, out_dir=tmp_path / "out"))


# --------------------------------------------------------------- entry point


def test_cli_starts_without_scipy():
    """Importing scipy.signal costs over a second per CLI process."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, aperture_forge.cli.main, aperture_forge.waveforms; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.strip() == "[]"


# Metrics that are themselves round-off: below these absolute floors a
# difference is noise whatever its relative size.
ROUND_OFF_FLOORS = {
    ("pr-recover", "er_residual_final"): 1e-12,
    ("pr-recover", "objective_final"): 1e-15,
    ("radiometry-roundtrip", "imag_residual"): 1e-12,
}


def test_metrics_agree_across_blas_thread_counts(tmp_path):
    """Bytes may change with the BLAS thread count; metrics agree to 1e-9
    relative (or the round-off floor)."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    scenarios = ("pr-recover", "sound-squint", "waveform-ambiguity",
                 "radiometry-roundtrip")
    configs = {name: write_config(tmp_path, {"scenario": name, "emit_images": False,
                                             "emit_csv": False}, f"{name}.json")
               for name in scenarios}
    metrics = {}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads))
        for name, cfg in configs.items():
            out = tmp_path / f"{name}-{threads}"
            subprocess.run([sys.executable, "-m", "aperture_forge.cli.main", name,
                            "--config", str(cfg), "--seed", "1", "--out", str(out)],
                           capture_output=True, env=env, check=True)
            metrics[name, threads] = json.loads((out / "report.json").read_text())["metrics"]
    for name in scenarios:
        one, two = metrics[name, 1], metrics[name, 2]
        assert set(one) == set(two)
        for key, want in one.items():
            got = two[key]
            if isinstance(want, float):
                tol = max(1e-9 * abs(want), ROUND_OFF_FLOORS.get((name, key), 0.0))
                assert abs(got - want) <= tol, (name, key, want, got)
            else:
                assert got == want, (name, key)


def test_main_success_and_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "sound-constants"})
    code = main(["sound-constants", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "s_tones = 1351" in out
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("scenario,params", [
    ("radiometry-roundtrip", {"sigma_l": 0.0}),
    ("radiometry-roundtrip", {"t_peak_k": 0.0}),
    ("sar-speckle", {"n_pix": 1}),
    ("sar-speckle", {"n_pix": 2}),
    ("sar-speckle", {"sigma_mu": 0.0}),
    ("sar-tomo", {"n_s": 2}),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_metric_exits_6_without_a_report(tmp_path, capsys, scenario, params):
    cfg = write_config(tmp_path, {"scenario": scenario, "params": params})
    code = main([scenario, "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 6
    assert err["error"]["kind"] == "ScenarioError"
    assert "non-finite metrics" in err["error"]["message"]
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("scenario,params,message", [
    ("pr-recover", {"noise_sigma": -0.1}, "noise_sigma must be nonnegative"),
    ("radiometry-roundtrip", {"n_u": 1, "du": 0.6}, "above 0.5 aliases"),
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
    assert not (tmp_path / "out" / "report.json").exists()


def test_non_finite_config_number_exits_4_without_a_report(tmp_path, capsys):
    # Python's json reads the NaN and Infinity tokens as floats
    for key, token in (("tol", "NaN"), ("f_max_hz", "Infinity")):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text('{"scenario": "sound-constants", "params": {"%s": %s}}' % (key, token))
        out = tmp_path / key
        code = main(["sound-constants", "--config", str(cfg), "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert code == 4
        assert err["error"]["kind"] == "TypeMismatchError"
        assert f"params.{key}" in err["error"]["message"]
        assert not (out / "report.json").exists()


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
