"""Write every scenario's output directory at seeds 1, 2 and 1, 2 BLAS threads.

Usage: python3 tools/output_matrix.py OUT

Each scenario runs as a fresh CLI process on its default config, with
``OPENBLAS_NUM_THREADS`` set, into OUT/<scenario>/seed<k>-threads<t>: 14
scenarios x 2 seeds x 2 thread counts = 56 directories.  The program is
imported from the ``src/`` beside this script, so two checkouts' outputs
compare with one run each plus ``diff -r OUT_A OUT_B``.  Exits non-zero
naming the first run that fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SEEDS = (1, 2)
BLAS_THREADS = (1, 2)


def write_matrix(out, scenarios):
    out = pathlib.Path(out)
    with tempfile.TemporaryDirectory() as configs:
        for name in scenarios:
            config = pathlib.Path(configs) / f"{name}.json"
            config.write_text(json.dumps({"scenario": name}))
            for seed in SEEDS:
                for threads in BLAS_THREADS:
                    target = out / name / f"seed{seed}-threads{threads}"
                    env = dict(os.environ, PYTHONPATH=str(SRC),
                               OPENBLAS_NUM_THREADS=str(threads))
                    done = subprocess.run(
                        [sys.executable, "-m", "aperture_forge.cli.main", name,
                         "--config", str(config), "--seed", str(seed), "--out", str(target)],
                        capture_output=True, text=True, env=env)
                    if done.returncode != 0:
                        raise SystemExit(f"{target}: exit {done.returncode}\n{done.stderr}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to hold the output directories")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from aperture_forge.cli.scenarios import REGISTRY

    write_matrix(args.out, sorted(REGISTRY))


if __name__ == "__main__":
    main()
