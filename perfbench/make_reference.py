"""Record the reference outputs that checks.py compares every op against.

    python3 perfbench/make_reference.py

Run from the root of a checkout at the commit whose outputs are the
reference.  For each seed in `checks.REFERENCE_SEEDS` and each BLAS
thread count from 1 to nproc, a fresh process with that thread count
records every scenario's report metrics (the same for artifacts on and
off) and the compressed profile of each pulse-compression scene, into
``perfbench/reference/seed-<seed>-threads-<n>.json``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import SCENARIOS, ImagingBatch, PulseCompression  # noqa: E402


def record(seed, tmp):
    import envinfo

    batch = ImagingBatch()
    batch.scenarios_run = SCENARIOS
    batch.load()
    batch.prepare(seed, tmp)
    scenarios = {name: op().metrics for name, op in batch.ops(0)}
    pulse = PulseCompression()
    pulse.load()
    pulse.prepare(seed, tmp)
    profiles = []
    for scene in range(pulse.N_SCENES):
        [(_, op)] = pulse.ops(scene)
        profile = op()
        profiles.append([profile.real.tolist(), profile.imag.tolist()])
    return {"env": envinfo.environment(seed), "scenarios": scenarios,
            "profiles": profiles}


def main():
    if sys.argv[1:2] == ["--child"]:
        seed, tmp = int(sys.argv[2]), Path(sys.argv[3])
        print(json.dumps(record(seed, tmp)))
        return 0
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in checks.REFERENCE_SEEDS:
        for threads in range(1, len(os.sched_getaffinity(0)) + 1):
            tmp = ROOT / ".perfbench_tmp" / f"reference-{os.getpid()}"
            tmp.mkdir(parents=True, exist_ok=True)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=str(ROOT / "src"))
            try:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", str(seed), str(tmp)],
                    env=env, cwd=ROOT, check=True, capture_output=True, text=True,
                ).stdout
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
                if not any(tmp.parent.iterdir()):
                    tmp.parent.rmdir()
            data = json.loads(out)
            if data["env"]["blas_threads"] != threads:
                raise SystemExit(f"asked for {threads} BLAS threads, got "
                                 f"{data['env']['blas_threads']}")
            path = checks.reference_path(seed, threads)
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
