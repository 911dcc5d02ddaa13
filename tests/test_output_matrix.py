import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from aperture_forge.cli.scenarios import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_matrix", ROOT / "tools" / "output_matrix.py")
output_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_matrix)


def test_output_matrix_writes_one_directory_per_seed_and_thread_count(tmp_path):
    out = tmp_path / "matrix"
    output_matrix.write_matrix(out, ["sound-constants"])
    assert [p.name for p in out.iterdir()] == ["sound-constants"]
    runs = sorted((out / "sound-constants").iterdir())
    assert [p.name for p in runs] == ["seed1-threads1", "seed1-threads2",
                                      "seed2-threads1", "seed2-threads2"]
    for run in runs:
        report = json.loads((run / "report.json").read_text())
        assert report["seed"] == int(run.name[4])
        listed = report["artifacts"]
        assert sorted(p.name for p in run.iterdir()) == sorted([*listed, "report.json"])
        for name, entry in listed.items():
            assert hashlib.sha256((run / name).read_bytes()).hexdigest() == entry["sha256"]


def test_output_matrix_names_the_run_that_fails(tmp_path):
    with pytest.raises(SystemExit) as failed:
        output_matrix.write_matrix(tmp_path / "matrix", ["no-such-scenario"])
    assert "no-such-scenario/seed1-threads1" in str(failed.value)


# waveform-ambiguity (3.4 s a seed) is left to the tool and the bench's RMMSE check
def test_outputs_match_the_recorded_digests(tmp_path):
    scenarios = sorted(set(REGISTRY) - {"waveform-ambiguity"})
    output_matrix.write_matrix(tmp_path, scenarios)
    found = output_matrix.digests(tmp_path)
    recorded = json.loads(output_matrix.DIGESTS.read_text())
    want = {path: digest for path, digest in recorded["digests"].items()
            if path.split("/")[0] in scenarios}
    assert len(found) == len(want) == 252
    moved = output_matrix.differences({"environment": recorded["environment"], "digests": want},
                                      output_matrix.environment(), found)
    assert not moved, "\n".join(moved)
    # ROADMAP item 8: the thread-invariant scenarios write the same bytes at both counts
    split = [path for path in found if "-threads1/" in path
             and path.split("/")[0] not in output_matrix.THREAD_DEPENDENT
             and found[path] != found[path.replace("-threads1/", "-threads2/")]]
    assert not split, "\n".join(split)


# Metrics that are themselves round-off: below these absolute floors a
# difference is noise whatever its relative size.
ROUND_OFF_FLOORS = {
    ("pr-recover", "er_residual_final"): 1e-12,
    ("pr-recover", "objective_final"): 1e-15,
}


def test_metrics_agree_across_blas_thread_counts(tmp_path):
    """The thread-dependent scenarios' bytes may change with the BLAS
    thread count; their metrics agree to 1e-9 relative (or the round-off
    floor).  The other scenarios' bytes are held equal across the counts
    by test_outputs_match_the_recorded_digests."""
    scenarios = output_matrix.THREAD_DEPENDENT
    configs = {}
    for name in scenarios:
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps({"scenario": name, "emit_images": False,
                                             "emit_csv": False}))
    metrics = {}
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
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


def test_differences_name_the_moved_file_and_both_environments():
    recorded = {"environment": {"numpy": "1.0", "blas": "b 1"},
                "digests": {"a/x": "1", "a/y": "2", "a/z": "3"}}
    moved = output_matrix.differences(recorded, {"numpy": "2.0", "blas": "b 1"},
                                      {"a/x": "1", "a/y": "9", "a/w": "4"})
    assert moved == ["environment numpy: recorded 1.0, found 2.0", "not recorded: a/w",
                     "digest moved: a/y", "missing: a/z"]
