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
_CHILD = """
import json, sys
sys.path.insert(0, {tools!r})
import output_matrix
output_matrix.write_in_process({out!r}, {scenarios!r})
print(json.dumps({{"environment": output_matrix.environment(),
                  "digests": output_matrix.digests({out!r})}}))
"""


def test_outputs_match_the_recorded_digests(tmp_path):
    scenarios = sorted(set(REGISTRY) - {"waveform-ambiguity"})
    code = _CHILD.format(tools=str(ROOT / "tools"), out=str(tmp_path), scenarios=scenarios)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    recorded = json.loads(output_matrix.DIGESTS.read_text())
    want = {path: digest for path, digest in recorded["digests"].items()
            if path.split("/")[0] in scenarios and path.split("/")[1].endswith("-threads1")}
    assert len(found["digests"]) == len(want) > 0
    moved = output_matrix.differences({"environment": recorded["environment"], "digests": want},
                                      found["environment"], found["digests"])
    assert not moved, "\n".join(moved)


def test_differences_name_the_moved_file_and_both_environments():
    recorded = {"environment": {"numpy": "1.0", "blas": "b 1"},
                "digests": {"a/x": "1", "a/y": "2", "a/z": "3"}}
    moved = output_matrix.differences(recorded, {"numpy": "2.0", "blas": "b 1"},
                                      {"a/x": "1", "a/y": "9", "a/w": "4"})
    assert moved == ["environment numpy: recorded 1.0, found 2.0", "not recorded: a/w",
                     "digest moved: a/y", "missing: a/z"]
