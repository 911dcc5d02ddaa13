"""Tests of the benchmark itself: span arithmetic, the tail-percentile
rule, the reference comparator, and the run-time wrapping.

    python3 -m pytest perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _tree():
    # cli.run -> sar.capon_image -> core.steer (twice), then the artifact
    # sink; a second top-level call follows
    return [
        Span("cli.run", 0.0, 10.0, op=0),
        Span("sar.capon_image", 1.0, 6.0, parent=0, op=0),
        Span("core.steer", 2.0, 3.0, parent=1, op=0),
        Span("core.steer", 4.0, 5.0, parent=1, op=0),
        Span("cli.ArtifactSink.image", 7.0, 9.0, parent=0, op=0),
        Span("sar.backproject", 11.0, 12.0, op=1),
    ]


def test_self_time_subtracts_child_spans_across_layers():
    assert tracing.self_times(_tree()) == [3.0, 3.0, 1.0, 1.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("cli.run", 0.0, 10.0), Span("sar.a", 1.0, 4.0, parent=0),
             Span("sar.b", 3.0, 6.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_reduce_charges_each_layer_its_self_time():
    figures = tracing.reduce_spans(_tree(), {0: "sar-capon", 1: "sar-point"})
    assert figures["cli.busy_s"] == 5.0
    assert figures["sar.busy_s"] == 4.0
    assert figures["core.busy_s"] == 2.0
    assert figures["core.calls"] == 2
    # self times add up to the time inside top-level spans, all of it op time
    total = sum(figures[f"{layer}.busy_s"] for layer in tracing.LAYERS)
    assert total == figures["ops_s"] == 11.0
    assert figures["dispatch_s"] == 3.0
    assert figures["cli.artifacts.busy_s"] == 2.0
    assert figures["functions"]["sar.capon_image"]["busy_s"] == 3.0
    assert figures["runs"] == {"sar-capon": 10.0}


def test_op_time_leaves_out_the_cli_entry_point():
    # a CLI process: main() parses the config, calls run(), writes the report
    spans = [
        Span("cli.main", 0.0, 12.0, op=0),
        Span("cli.parse_config", 0.5, 1.0, parent=0, op=0),
        Span("cli.run", 2.0, 10.0, parent=0, op=0),
        Span("sar.capon_image", 3.0, 8.0, parent=2, op=0),
        Span("cli.RunReport.write", 10.5, 11.5, parent=0, op=0),
    ]
    figures = tracing.reduce_spans(spans, {0: "sar-capon"})
    assert figures["ops_s"] == 8.0
    assert figures["dispatch_s"] == 3.0
    assert figures["cli.parse_config.busy_s"] == 0.5
    assert figures["cli.report.busy_s"] == 1.0


@pytest.mark.parametrize("n, index, percentile, rule_met", [
    (1, 0, 100.0, False),
    (5, 0, 0.0, False),
    (11, 0, 0.0, True),
    (20, 9, 100.0 * 9 / 19, True),
    (1000, 989, 100.0 * 989 / 999, True),
])
def test_high_percentile_keeps_ten_passes_above(n, index, percentile, rule_met):
    values = [float(v) for v in range(n)]
    random.Random(n).shuffle(values)
    value, got_percentile, got_rule = measure.high_percentile(values)
    assert value == float(index)
    assert got_percentile == pytest.approx(percentile)
    assert got_rule is rule_met
    if rule_met:
        assert sum(v > value for v in values) == 10


def _reference(threads=2):
    return json.loads(checks.reference_path(1, threads).read_text())


def test_comparator_rejects_a_1e8_relative_perturbation():
    for scenario, metrics in _reference()["scenarios"].items():
        for key, value in metrics.items():
            if type(value) is not float or value == 0.0:
                continue
            if abs(value) * 1e-8 <= checks.ABS_FLOOR.get((scenario, key), 0.0):
                continue
            bumped = dict(metrics, **{key: value * (1 + 1e-8)})
            assert checks.compare_metrics(scenario, bumped, metrics), (scenario, key)


def test_comparator_accepts_round_off():
    ref = _reference()
    for scenario, metrics in ref["scenarios"].items():
        nudged = {k: v * (1 + 1e-12) if type(v) is float else v
                  for k, v in metrics.items()}
        assert checks.compare_metrics(scenario, nudged, metrics) == []
    for profile in ref["profiles"]:
        nudged = [[v * (1 + 1e-12) for v in part] for part in profile]
        assert checks.compare_profile(nudged, profile) == []
    # the scenario metrics recorded at another BLAS thread count differ
    # only by round-off
    other = _reference(threads=1)
    for scenario, metrics in ref["scenarios"].items():
        assert checks.compare_metrics(scenario, other["scenarios"][scenario],
                                      metrics) == []


def test_profiles_move_with_the_blas_thread_count():
    # the ill-conditioned per-bin solves amplify the thread count's
    # round-off, so each thread count has its own recording; the drift
    # stays within 1e-8 of the peak
    for got, want in zip(_reference(threads=1)["profiles"], _reference()["profiles"]):
        bins = [complex(*b) for b in zip(*want)]
        peak = max(map(abs, bins))
        drift = max(abs(complex(*g) - b) for g, b in zip(zip(*got), bins))
        assert drift <= 1e-8 * peak


def test_comparator_rejects_a_1e8_relative_profile_perturbation():
    for profile in _reference()["profiles"]:
        bumped = [[v * (1 + 1e-8) for v in part] for part in profile]
        assert checks.compare_profile(bumped, profile)
        # a single bin is enough
        one = [list(part) for part in profile]
        one[0][7] *= 1 + 1e-8
        one[1][7] *= 1 + 1e-8
        assert checks.compare_profile(one, profile)


def test_comparator_holds_other_values_exact():
    metrics = _reference()["scenarios"]["sas-recon"]
    for key in ("n_iter", "support_ok"):
        changed = dict(metrics, **{key: not metrics[key] if key == "support_ok"
                                   else metrics[key] + 1})
        assert checks.compare_metrics("sas-recon", changed, metrics)
    assert checks.compare_metrics("sas-recon", {**metrics, "extra": 1.0}, metrics)


def test_invariants_flag_non_finite_metrics():
    metrics = _reference()["scenarios"]["sar-capon"]
    names = sorted(metrics)
    assert checks.metric_invariants("sar-capon", metrics, names) == []
    broken = dict(metrics, loading=float("nan"))
    assert checks.metric_invariants("sar-capon", broken, names)


def _bindings():
    """Every attribute of every layer module and of the classes in them."""
    seen = {}
    for mod in tracing.program_modules():
        for attr, obj in vars(mod).items():
            seen[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    seen[(mod.__name__, attr, name)] = member
    return seen


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import aperture_forge.cli.main  # noqa: F401  (loads every layer)
    from aperture_forge import waveforms
    from aperture_forge.cli import artifacts, scenarios

    before = _bindings()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        # bound in its own module and where another layer imported it
        assert scenarios.rmmse_compress is waveforms.rmmse_compress
        assert waveforms.rmmse_compress.__perfbench_span__ == "waveforms.rmmse_compress"
        scenarios.sample_lfm(waveforms.LfmChirp(1e9, 10e6, 1e-6), 25e6)
        artifacts.ArtifactSink(BENCH, emit_images=False, emit_csv=False).manifest()
        with pytest.raises(ValueError):
            scenarios.sample_lfm(waveforms.LfmChirp(1e9, 10e6, 1e-6), 1.0)
    finally:
        tracing.restore(patches)
    assert [(s.name, s.error) for s in tracer.spans] == [
        ("waveforms.sample_lfm", False), ("cli.ArtifactSink.manifest", False),
        ("waveforms.sample_lfm", True)]

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(obj, "__perfbench_span__") for obj in after.values())
    waveforms.sample_lfm(waveforms.LfmChirp(1e9, 10e6, 1e-6), 25e6)
    assert len(tracer.spans) == 3


def test_alloc_peak_is_charged_to_each_open_span():
    tracer = tracing.Tracer(alloc=True)

    def inner():
        return len(bytearray(4_000_000))

    def outer():
        held = bytearray(2_000_000)
        return tracer.call("core.inner", inner, (), {}) + len(held)

    tracemalloc.start()
    try:
        tracer.call("sar.outer", outer, (), {})
    finally:
        tracemalloc.stop()
    peaks = tracing.peak_alloc(tracer.spans)
    assert 6_000_000 <= peaks["sar"] < 6_500_000
    assert 4_000_000 <= peaks["core"] < 4_500_000


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert {w["name"] for w in spec["workloads"]} == {"cli-suite", *run.WORKLOADS}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_mixed_blas_thread_counts(tmp_path, capsys):
    import compare

    for name, threads in (("a", 1), ("b", 2)):
        (tmp_path / name).mkdir()
        record = {"workload": "pulse-compression", "trace": 0, "seed": 1,
                  "attempted": 1, "failed": 0, "checks": "", "metrics": {},
                  "env": {"blas_threads": threads}}
        (tmp_path / name / "r.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 3
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["setup_s", "pass_s_p50"])
def test_compare_flags_a_spread_beyond_the_bound_on_every_metric(name):
    import compare

    spec = {"end_to_end": [{"name": name, "better": "lower", "bound": 0.25}]}
    steady = {"w": {"end_to_end": {name: {"median": 1.0, "spread": 0.1}}}}
    noisy = {"w": {"end_to_end": {name: {"median": 1.0, "spread": 0.3}}}}
    slower = {"w": {"end_to_end": {name: {"median": 1.3, "spread": 0.1}}}}
    verdict = {k: compare.compare(steady, other, spec)[f"w/{name}"]["verdict"]
               for k, other in (("steady", steady), ("noisy", noisy),
                                ("slower", slower))}
    assert verdict == {"steady": "within bound", "noisy": "spread beyond bound",
                       "slower": "worse beyond bound"}
