import hashlib
import importlib.util
import json
import pathlib

import pytest

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
