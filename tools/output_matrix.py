"""Write every scenario's output directory at seeds 1, 2 and 1, 2 BLAS threads.

Usage: python3 tools/output_matrix.py [OUT] [--record FILE | --check FILE]

One fresh interpreter per BLAS thread count, with ``OPENBLAS_NUM_THREADS``
set, runs each scenario on its default config through the CLI's config
parsing into OUT/<scenario>/seed<k>-threads<t>: 14 scenarios x 2 seeds x
2 thread counts = 56 directories (in a temporary directory when OUT is
not given).  The program is imported from the ``src/`` beside this
script.  The interpreters run with ``-W error``, so a warning fails its
run.  Exits non-zero naming the first run that fails.

``--record FILE`` writes the SHA-256 of every file in the 56 directories,
with the numpy and BLAS versions they were made with, to FILE as JSON.
``--check FILE`` recomputes them and exits non-zero naming every file
whose digest moved, or both environments when they differ.  The
committed record is ``tools/output_digests.json``.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
DIGESTS = TOOLS / "output_digests.json"
SEEDS = (1, 2)
BLAS_THREADS = (1, 2)
# scenarios whose bytes differ between 1 and 2 BLAS threads (ROADMAP item 8);
# every other scenario writes the same bytes at both counts
THREAD_DEPENDENT = ("pr-recover", "sound-squint", "waveform-ambiguity")


def write_matrix(out, scenarios):
    """Run ``write_in_process`` in one fresh interpreter per BLAS thread
    count, with warnings as errors; a failing run exits naming its
    directory."""
    code = (f"import output_matrix; "
            f"output_matrix.write_in_process({str(out)!r}, {list(scenarios)!r})")
    for threads in BLAS_THREADS:
        env = dict(os.environ, PYTHONPATH=str(TOOLS), OPENBLAS_NUM_THREADS=str(threads))
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, env=env)
        if done.returncode != 0:
            raise SystemExit(f"threads {threads}: exit {done.returncode}\n{done.stderr}")


def write_in_process(out, scenarios):
    """The directories at the thread count this process's
    ``OPENBLAS_NUM_THREADS`` names, run through the CLI's config parsing,
    so their bytes match CLI runs'."""
    sys.path.insert(0, str(SRC))
    from aperture_forge.cli.config import CliError, parse_config
    from aperture_forge.cli.scenarios import run

    threads = os.environ["OPENBLAS_NUM_THREADS"]
    with tempfile.TemporaryDirectory() as configs:
        for name in scenarios:
            config = pathlib.Path(configs) / f"{name}.json"
            config.write_text(json.dumps({"scenario": name}))
            for seed in SEEDS:
                target = pathlib.Path(out) / name / f"seed{seed}-threads{threads}"
                try:
                    run(parse_config(config, scenario=name, seed=seed, out_dir=str(target)))
                except CliError as err:
                    raise SystemExit(f"{target}: {type(err).__name__}: {err}") from err


def digests(out):
    """SHA-256 of every file under ``out``, keyed by its relative path."""
    out = pathlib.Path(out)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def environment():
    """The numpy and BLAS versions of this interpreter: the outputs' bytes
    depend on both."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def differences(recorded, env, found):
    """What moved between a ``--record`` file's content and the current
    environment and digests: one line per differing environment entry
    (naming both values) and per file whose digest moved, appeared or
    went missing.  Empty when everything matches."""
    lines = [f"environment {key}: recorded {recorded['environment'].get(key)}, found {value}"
             for key, value in env.items() if recorded["environment"].get(key) != value]
    want = recorded["digests"]
    for path in sorted(set(want) | set(found)):
        if path not in found:
            lines.append(f"missing: {path}")
        elif path not in want:
            lines.append(f"not recorded: {path}")
        elif want[path] != found[path]:
            lines.append(f"digest moved: {path}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="directory to hold the output directories")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", metavar="FILE", help="write the digests to FILE")
    mode.add_argument("--check", metavar="FILE", help="compare the digests with FILE")
    args = parser.parse_args(argv)
    if args.out is None and not (args.record or args.check):
        parser.error("give OUT, --record FILE or --check FILE")
    sys.path.insert(0, str(SRC))
    from aperture_forge.cli.scenarios import REGISTRY

    with tempfile.TemporaryDirectory() as scratch:
        out = args.out or scratch
        write_matrix(out, sorted(REGISTRY))
        found = digests(out)
    if args.record:
        record = {"environment": environment(), "digests": found}
        pathlib.Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    elif args.check:
        moved = differences(json.loads(pathlib.Path(args.check).read_text()),
                            environment(), found)
        if moved:
            raise SystemExit("\n".join(moved))
        print(f"{len(found)} files match {args.check}")


if __name__ == "__main__":
    main()
