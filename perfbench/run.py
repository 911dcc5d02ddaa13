"""aperture-forge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Workloads (all closed loops with one caller, one
process working at a time):

  cli-suite          each pass runs the 14 scenarios with default configs
                     and artifacts on, each as a fresh CLI process
  imaging-batch      one warm process calls cli.scenarios.run() over the
                     13 scenarios other than waveform-ambiguity, artifacts off
  pulse-compression  one warm process calls waveforms.rmmse_compress() on
                     dense scenes

Every op's output is checked (checks.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A fuller record, with the environment, goes
to ``.perfbench_results/`` and the traced spans next to it.
"""

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from worker import DEADLINE_ENV, SCENARIOS, SPAWN_ENV, WORKLOADS  # noqa: E402

RESULTS_DIR = ROOT / ".perfbench_results"
TMP_DIR = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 5  # fresh interpreters whose set-up is timed, per run
RUN_BUDGET_S = 150  # no pass starts later than this into a run

END_TO_END = {
    "setup_s": "s",
    "pass_s_p50": "s",
    "pass_s_hi": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
FUNCTIONS = (
    "waveforms.rmmse_compress", "waveforms.ambiguity_surface",
    "sar.capon_image", "sar.conventional_image", "sar.matched_image",
    "sar.backproject",
    "radiometry.visibility_samples", "radiometry.invert_visibilities",
    "inversion.amplitude_flow", "inversion.error_reduction", "inversion.fp_recover",
    "sas.build_sensing_model", "sas.sas_sparse",
    "sounding.optimize_sparse_lattice", "sounding.fib_weights",
    "sounding.array_factor",
)
PER_LAYER = {
    **{f"{layer}.{fig}": unit for layer in tracing.LAYERS for fig, unit in (
        ("calls", "count"), ("busy_s", "s"), ("errors", "count"),
        ("peak_alloc_mb", "MB"))},
    **{f"{fn}.busy_s": "s" for fn in FUNCTIONS},
    "waveforms.rmmse_compress.calls": "count",
    "sas.sas_sparse.iters": "count",
    "cli.import_s": "s",
    "cli.process_s": "s",
    "cli.parse_config.busy_s": "s",
    "cli.artifacts.busy_s": "s",
    "cli.artifacts.bytes": "B",
    "cli.report.busy_s": "s",
    **{f"cli.run.{name}.s": "s" for name in SCENARIOS},
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


class RunError(Exception):
    """The benchmark cannot produce a result."""


def _spawn(cmd, deadline):
    """Run one child to completion; returns (returncode, stdout, stderr, wall_s).

    The child learns the monotonic spawn time from its environment so it
    can time its own start-up.  A child still running at ``deadline`` is
    killed and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[DEADLINE_ENV] = repr(deadline)
    start = time.monotonic()
    env[SPAWN_ENV] = repr(start)
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(deadline + 25.0 - start, 1.0))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err, time.monotonic() - start


def _layer_metrics(figures, peak_alloc, untraced_s, traced_s, import_s,
                   process_s=None, artifact_bytes=None):
    """Per-layer metrics from the figures of each traced pass."""
    def med(get):
        return statistics.median(get(f) for f in figures)

    def fn(name, field):
        return med(lambda f: f["functions"].get(name, {}).get(field, 0))

    process_s = process_s or [0.0] * len(figures)
    artifact_bytes = artifact_bytes or [0] * len(figures)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = med(lambda f: f[f"{layer}.calls"])
        metrics[f"{layer}.busy_s"] = med(lambda f: f[f"{layer}.busy_s"])
        metrics[f"{layer}.errors"] = med(lambda f: f[f"{layer}.errors"])
        metrics[f"{layer}.peak_alloc_mb"] = peak_alloc[layer] / 2 ** 20
    for name in FUNCTIONS:
        metrics[f"{name}.busy_s"] = fn(name, "busy_s")
    metrics["waveforms.rmmse_compress.calls"] = fn("waveforms.rmmse_compress", "calls")
    metrics["sas.sas_sparse.iters"] = fn("sas.sas_sparse", "count")
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["cli.process_s"] = statistics.median(process_s)
    for name in ("cli.parse_config.busy_s", "cli.artifacts.busy_s", "cli.report.busy_s"):
        metrics[name] = med(lambda f: f[name])
    metrics["cli.artifacts.bytes"] = statistics.median(artifact_bytes)
    for name in SCENARIOS:
        metrics[f"cli.run.{name}.s"] = med(lambda f: f["runs"].get(name, 0.0))
    metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                      / statistics.median(untraced_s) - 1.0)
    # the part of a traced pass charged to a wrapped function below run(),
    # or to a CLI process outside run(); time left in run()'s own code or
    # between calls is not covered
    covered = [f["ops_s"] - f["dispatch_s"] + p for f, p in zip(figures, process_s)]
    metrics["trace.coverage_frac"] = statistics.median(
        c / t for c, t in zip(covered, traced_s))
    return metrics


def _end_to_end(setup_s, pass_s, completed, loop_s, peak_rss_mb, record):
    hi, percentile, rule_met = measure.high_percentile(pass_s)
    record["pass_s_hi_percentile"] = percentile
    record["pass_s_hi_rule_met"] = rule_met
    record["passes"] = len(pass_s)
    return {
        "setup_s": statistics.median(setup_s),
        "pass_s_p50": statistics.median(pass_s),
        "pass_s_hi": hi,
        "ops_per_s": completed / loop_s,
        "peak_rss_mb": peak_rss_mb,
    }


# ------------------------------------------------------------ in-process


def run_worker_workload(name, seed, seconds, trace, tmp, deadline):
    setup_s, import_s = [], []
    for _ in range(SETUP_SAMPLES - 1):
        code, out, err, _ = _spawn([sys.executable, HERE / "worker.py", name, seed,
                                    seconds, trace, tmp, "--probe"], deadline)
        if code != 0:
            raise RunError(f"set-up probe failed ({code}): {err.strip()[-2000:]}")
        probe = json.loads(out)
        setup_s.append(probe["setup_s"])
        import_s.append(probe["import_s"])
    code, out, err, _ = _spawn([sys.executable, HERE / "worker.py", name, seed,
                                seconds, trace, tmp], deadline)
    if code != 0:
        raise RunError(f"worker failed ({code}): {err.strip()[-2000:]}")
    res = json.loads((tmp / "worker.json").read_text())
    setup_s.append(res["setup_s"])
    import_s.append(res["import_s"])
    record = {key: res[key] for key in ("env", "checks", "attempted", "failed",
                                        "problems")}
    if not trace:
        completed = res["attempted"] - res["failed"]
        record["pass_s"] = res["pass_s"]
        record["setup_samples_s"] = setup_s
        record["metrics"] = _end_to_end(setup_s, res["pass_s"], completed,
                                        res["loop_s"], res["peak_rss_mb"], record)
    else:
        traced = res["traced"]
        record["metrics"] = _layer_metrics(
            traced["figures"], traced["peak_alloc"], traced["untraced_pass_s"],
            traced["traced_pass_s"], import_s, artifact_bytes=traced["artifact_bytes"])
        record["spans"] = json.loads((tmp / "spans.json").read_text())
    return record


# ------------------------------------------------------------ cli-suite


class CliSuite:
    """Each pass runs every scenario once, each as a fresh CLI process
    with artifacts on; the parent checks each op's report and artifact
    checksums, then deletes the op's files so disk use stays flat."""

    def __init__(self, seed, tmp, deadline):
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.children = []  # per op: scenario, mode, wall_s, import_s, spans

    def prepare(self):
        start = time.perf_counter()
        self.configs = {}
        for name in SCENARIOS:
            path = self.tmp / f"{name}.json"
            path.write_text(json.dumps({"scenario": name}))
            self.configs[name] = path
        return time.perf_counter() - start

    def run_pass(self, modes=("plain",)):
        """Every scenario once per mode, the modes interleaved op by op.

        Returns each mode's pass time (the sum of its processes' wall
        times) and the artifact bytes its processes wrote.
        """
        ops = []
        for name in SCENARIOS:
            for mode in modes:
                op_dir = self.tmp / f"op{self.attempted + len(ops)}"
                record_file = op_dir.with_suffix(".json")
                code, _, err, wall = _spawn(
                    [sys.executable, HERE / "child.py", mode, record_file, "--", name,
                     "--config", self.configs[name], "--seed", self.seed,
                     "--out", op_dir],
                    self.deadline)
                ops.append((name, mode, op_dir, record_file, code, err, wall))
        elapsed = dict.fromkeys(modes, 0.0)
        pass_bytes = dict.fromkeys(modes, 0)
        for name, mode, op_dir, record_file, code, err, wall in ops:
            problems, child = self._check(name, op_dir, record_file, code, err)
            elapsed[mode] += wall
            pass_bytes[mode] += child.pop("bytes", 0)
            child.update(scenario=name, mode=mode, wall_s=wall, op=self.attempted)
            self.children.append(child)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems[:20 - len(self.problems)])
            shutil.rmtree(op_dir, ignore_errors=True)
            record_file.unlink(missing_ok=True)
        return elapsed, pass_bytes

    def _check(self, name, op_dir, record_file, code, err):
        if code != 0:
            return [f"{name}: exit code {code}: {err.strip()[-500:]}"], {}
        child = json.loads(record_file.read_text())
        report = json.loads((op_dir / "report.json").read_text())
        problems = self.checker.scenario(name, report["metrics"])
        if not report["artifacts"]:
            problems.append(f"{name}: no artifacts written")
        child["bytes"] = 0
        for entry in report["artifacts"].values():
            path = op_dir / entry["path"]
            data = path.read_bytes()
            child["bytes"] += len(data)
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                problems.append(f"{name}: checksum mismatch for {entry['path']}")
        return problems, child


def run_cli_suite(seed, seconds, trace, tmp, deadline):
    code, out, err, _ = _spawn([sys.executable, HERE / "envinfo.py", seed], deadline)
    if code != 0:
        raise RunError(f"environment probe failed ({code}): {err.strip()[-2000:]}")
    env = json.loads(out)
    suite = CliSuite(seed, tmp, deadline)
    suite.checker = checks.Checker(seed, env["blas_threads"])
    config_s = suite.prepare()
    record = {"env": env, "checks": suite.checker.mode}

    if not trace:
        pass_s, loop_s = measure.timed_passes(
            lambda _: suite.run_pass()[0]["plain"], seconds, deadline)
        # set-up: writing the configs, then each fresh CLI process up to
        # the point its first op could be issued
        setup_s = [config_s + c["import_s"] for c in suite.children if "import_s" in c]
        if not setup_s:
            raise RunError(f"no CLI process started: {suite.problems[:3]}")
        completed = suite.attempted - suite.failed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        record["pass_s"] = pass_s
        record["setup_samples_s"] = setup_s
        record["op_wall_s"] = [[c["scenario"], c["wall_s"]] for c in suite.children]
        record["metrics"] = _end_to_end(setup_s, pass_s, completed, loop_s,
                                        peak_rss_mb, record)
    else:
        # each scenario runs untraced and traced back to back, so drift in
        # the machine's speed does not read as tracing overhead; then one
        # pass with tracemalloc on for the allocation peaks
        pass_s = {"plain": [], "spans": []}
        traced_bytes = []

        def paired_pass(_):
            elapsed, pass_bytes = suite.run_pass(("plain", "spans"))
            for mode, seconds_taken in elapsed.items():
                pass_s[mode].append(seconds_taken)
            traced_bytes.append(pass_bytes["spans"])
            return sum(elapsed.values())

        measure.timed_passes(paired_pass, 2 * seconds / 3, deadline)
        suite.run_pass(("alloc",))
        by_mode = {mode: [c for c in suite.children if c["mode"] == mode]
                   for mode in ("plain", "spans", "alloc")}
        traced_children = by_mode["spans"]
        per_pass = len(SCENARIOS)
        figures, process_s, spans = [], [], []
        for i in range(0, len(traced_children), per_pass):
            pass_spans, op_scenario = [], {}
            pass_children = traced_children[i:i + per_pass]
            for child in pass_children:
                child_spans = tracing.spans_from_json(child.get("spans", []))
                offset = len(pass_spans)
                for span in child_spans:
                    span.op = child["op"]
                    if span.parent is not None:
                        span.parent += offset
                pass_spans.extend(child_spans)
                op_scenario[child["op"]] = child["scenario"]
            figures.append(tracing.reduce_spans(pass_spans, op_scenario))
            # the processes' time outside run(): interpreter start, imports,
            # config parsing, report writing and exit
            process_s.append(sum(c["wall_s"] for c in pass_children)
                             - figures[-1]["ops_s"])
            spans.append(tracing.spans_to_json(pass_spans))
        alloc_spans = [s for c in by_mode["alloc"]
                       for s in tracing.spans_from_json(c.get("spans", []))]
        import_s = [c["import_s"] for c in by_mode["plain"] if "import_s" in c]
        record["metrics"] = _layer_metrics(
            figures, tracing.peak_alloc(alloc_spans), pass_s["plain"], pass_s["spans"],
            import_s, process_s=process_s, artifact_bytes=traced_bytes)
        record["spans"] = spans
    record.update(attempted=suite.attempted, failed=suite.failed,
                  problems=suite.problems)
    return record


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-suite", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aperture_forge" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    # a terminated benchmark still stops and reaps the process it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_BUDGET_S
    compileall.compile_dir(SRC, quiet=1)
    tmp = TMP_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.workload == "cli-suite":
            record = run_cli_suite(args.seed, args.seconds, args.trace, tmp, deadline)
        else:
            record = run_worker_workload(args.workload, args.seed, args.seconds,
                                         args.trace, tmp, deadline)
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    units = PER_LAYER if args.trace else END_TO_END
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace,
                  error_rate=record["failed"] / max(record["attempted"], 1))
    spans = record.pop("spans", None)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"{args.workload} seed {args.seed}: {record['attempted']} ops, "
          f"{record['failed']} failed; checks: {record['checks']}")
    print("environment: " + json.dumps(record["env"], sort_keys=True))
    if "passes" in record:
        print(f"pass_s_hi is percentile {record['pass_s_hi_percentile']:.1f} of "
              f"{record['passes']} passes" + ("" if record["pass_s_hi_rule_met"] else
                                              " (too few passes for 10 above it)"))
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    for name, unit in units.items():
        print(f"{name} = {record['metrics'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
