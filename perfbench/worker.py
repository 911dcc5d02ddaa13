"""One warm process running an in-process workload.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE TMP_DIR [--probe]

run.py starts it with the program's ``src`` on ``PYTHONPATH`` and the
monotonic time of the spawn in ``PERFBENCH_SPAWN_T``, so set-up is timed
from interpreter start.  No pass starts after the monotonic time in
``PERFBENCH_DEADLINE_T``.  With ``--probe`` it only sets up and reports
its set-up time; otherwise it warms up, runs the timed passes and writes
its findings to ``TMP_DIR/worker.json`` (spans to ``spans.json``, one
list per traced pass, the allocation pass last).

Workloads are closed loops: one caller, the next op issued when the last
returns.
"""

import functools
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import measure
import tracing

SPAWN_ENV = "PERFBENCH_SPAWN_T"
DEADLINE_ENV = "PERFBENCH_DEADLINE_T"
SCENARIOS = (
    "sound-constants", "sound-padp", "sound-squint", "sound-sparse-lattice",
    "sar-point", "sar-tomo", "sar-capon", "sar-speckle", "sas-recon",
    "pr-recover", "fp-demo", "radiometry-roundtrip", "waveform-ambiguity",
    "qsar-budget",
)


class ImagingBatch:
    """`cli.scenarios.run(config)` over the 13 scenarios other than
    waveform-ambiguity, artifacts off, in one warm process.  A pass is
    the 13 runs."""

    name = "imaging-batch"
    scenarios_run = tuple(s for s in SCENARIOS if s != "waveform-ambiguity")

    def load(self):
        from aperture_forge.cli import config, scenarios

        self.scenarios = scenarios
        self.parse_config = config.parse_config

    def prepare(self, seed, tmp):
        self.configs = []
        for name in self.scenarios_run:
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(
                {"scenario": name, "emit_images": False, "emit_csv": False}))
            self.configs.append(self.parse_config(
                path, seed=seed, out_dir=str(tmp / "runs" / name)))

    def ops(self, pass_index):
        return [(c.scenario, functools.partial(self._run, c)) for c in self.configs]

    def _run(self, config):
        # looked up on the module at call time, so a traced pass sees the wrapper
        return self.scenarios.run(config)

    def check(self, checker, scenario, report):
        problems = checker.scenario(scenario, report.metrics)
        if report.artifacts:
            problems.append(f"{scenario}: artifacts written with emit flags off")
        return problems

    def artifact_bytes(self, report):
        return sum(os.path.getsize(Path(report.path).parent / entry["path"])
                   for entry in report.artifacts.values())

    def warm_up(self):
        for _, op in self.ops(0):
            op()


class PulseCompression:
    """`waveforms.rmmse_compress` on dense complex-Gaussian scenes.

    The pulse is waveform-ambiguity's default (10 us LFM sampled at
    25 MHz, M = 250), with 200 bins and 3 iterations.  Every bin holds a
    return, so a sparse-support shortcut gains here only what it saves on
    arbitrary scenes.  A pass is one compression; passes cycle through
    `N_SCENES` scenes drawn from the seed.
    """

    name = "pulse-compression"
    N_BINS = 200
    N_SCENES = 4
    ITERATIONS = 3
    NOISE_SIGMA = 0.01

    def load(self):
        from aperture_forge import waveforms

        self.waveforms = waveforms

    def prepare(self, seed, tmp):
        import numpy as np

        wf = self.waveforms
        self.pulse = wf.sample_lfm(wf.LfmChirp(1e9, 10e6, 10e-6), 25e6)
        rng = np.random.default_rng(seed)
        self.scenes = []
        for _ in range(self.N_SCENES):
            refl = (rng.standard_normal(self.N_BINS)
                    + 1j * rng.standard_normal(self.N_BINS)) / np.sqrt(2.0)
            y = np.convolve(refl, self.pulse)
            noise = rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
            self.scenes.append(y + noise * (self.NOISE_SIGMA / np.sqrt(2.0)))

    def ops(self, pass_index):
        scene = pass_index % self.N_SCENES
        return [(scene, functools.partial(self._compress, self.scenes[scene]))]

    def _compress(self, y):
        return self.waveforms.rmmse_compress(y, self.pulse, iterations=self.ITERATIONS)

    def check(self, checker, scene, profile):
        return checker.profile(scene, [profile.real.tolist(), profile.imag.tolist()],
                               self.N_BINS)

    def artifact_bytes(self, profile):
        return 0

    def warm_up(self):
        # the first full-size compression of a process runs about 10% slower
        self._compress(self.scenes[0])


WORKLOADS = {w.name: w for w in (ImagingBatch, PulseCompression)}


class Session:
    """Runs passes of one workload and checks every op's output."""

    MAX_PROBLEMS = 20

    def __init__(self, workload, checker):
        self.workload = workload
        self.checker = checker
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.op_scenario = {}
        self.pass_spans = []
        self.pass_bytes = []  # artifact bytes written, per pass

    def run_pass(self, index):
        outcomes = []
        start = time.perf_counter()
        for label, op in self.workload.ops(index):
            op_id = self.attempted + len(outcomes)
            self.op_scenario[op_id] = label
            if self.tracer is not None:
                self.tracer.op = op_id
            try:
                outcomes.append((label, op(), None))
            except Exception as exc:  # a failed op is counted, not fatal
                outcomes.append((label, None, f"{label}: {type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - start
        self.pass_bytes.append(0)
        for label, output, error in outcomes:
            problems = [error] if error else self.workload.check(self.checker, label,
                                                                 output)
            if not error:
                self.pass_bytes[-1] += self.workload.artifact_bytes(output)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems[: self.MAX_PROBLEMS - len(self.problems)])
        if self.tracer is not None:
            self.pass_spans.append(self.tracer.spans)
            self.tracer.spans = []
        return elapsed


def _traced_pass(session, index, alloc=False):
    session.tracer = tracing.Tracer(alloc=alloc)
    patches = tracing.install(session.tracer)
    if alloc:
        tracemalloc.start()
    try:
        return session.run_pass(index)
    finally:
        if alloc:
            tracemalloc.stop()
        tracing.restore(patches)
        session.tracer = None


def main(argv):
    name, seed, seconds, trace, tmp = argv[:5]
    seed, seconds, trace, tmp = int(seed), float(seconds), int(trace), Path(tmp)
    spawn_t = float(os.environ[SPAWN_ENV])
    deadline = float(os.environ[DEADLINE_ENV])
    workload = WORKLOADS[name]()
    workload.load()
    import_s = time.monotonic() - spawn_t
    workload.prepare(seed, tmp)
    setup_s = time.monotonic() - spawn_t
    if "--probe" in argv:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    import envinfo

    env = envinfo.environment(seed)
    session = Session(workload, checks.Checker(seed, env["blas_threads"]))
    workload.warm_up()
    result = {"setup_s": setup_s, "import_s": import_s, "env": env,
              "checks": session.checker.mode}
    if not trace:
        result["pass_s"], result["loop_s"] = measure.timed_passes(
            session.run_pass, seconds, deadline)
    else:
        # untraced and traced passes alternate, so drift in the machine's
        # speed does not read as tracing overhead; one more pass runs with
        # tracemalloc on for the allocation peaks
        plain, traced, traced_bytes = [], [], []

        def alternate(index):
            if index % 2 == 0:
                plain.append(session.run_pass(index))
                return plain[-1]
            traced.append(_traced_pass(session, index))
            traced_bytes.append(session.pass_bytes[-1])
            return traced[-1]

        passes = len(measure.timed_passes(alternate, 2 * seconds / 3, deadline,
                                          min_passes=2)[0])
        _traced_pass(session, passes, alloc=True)
        *spans, alloc_spans = session.pass_spans
        result["traced"] = {
            "untraced_pass_s": plain,
            "traced_pass_s": traced,
            "figures": [tracing.reduce_spans(s, session.op_scenario) for s in spans],
            "artifact_bytes": traced_bytes,
            "peak_alloc": tracing.peak_alloc(alloc_spans),
        }
        (tmp / "spans.json").write_text(json.dumps(
            [tracing.spans_to_json(p) for p in session.pass_spans]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=session.attempted, failed=session.failed,
                  problems=session.problems)
    (tmp / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
