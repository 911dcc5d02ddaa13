"""Per-layer tracing done from outside the program.

`install` wraps every public function and method of the aperture_forge
layers at run time, wherever the function is bound: in its own module and
in every module that imported it, so a call from one layer into another
is charged to the callee.  Each call becomes one `Span`, kept in memory
until the run ends.  `restore` puts every original object back.

The reducers at the bottom turn spans into per-layer figures.  This
module uses only the standard library, so the orchestrator can reduce the
spans that benchmark child processes write without importing numpy.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import astuple, dataclass

PACKAGE = "aperture_forge"
LAYERS = ("core", "waveforms", "sounding", "sar", "sas", "inversion",
          "radiometry", "cli")

# figures read off a call's return value, by span name
RESULT_COUNTERS = {"sas.sas_sparse": lambda result: result.n_iter}

# the artifact writers of the CLI; their inclusive time is cli.artifacts
ARTIFACT_SPANS = ("cli.ArtifactSink.image", "cli.ArtifactSink.table",
                  "cli.ArtifactSink.sweep", "cli.ArtifactSink.manifest")

# the CLI's scenario dispatcher, run(), and its entry point, main()
RUN_SPAN = "cli.run"
MAIN_SPAN = "cli.main"


@dataclass
class Span:
    """One call into a layer.  ``parent`` is the index of the enclosing
    span in the same list, ``op`` the benchmark op that made the call,
    ``alloc`` the peak bytes tracemalloc saw above the level at entry."""

    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    error: bool = False
    alloc: int | None = None
    count: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def spans_to_json(spans):
    return [list(astuple(s)) for s in spans]


def spans_from_json(rows):
    return [Span(*row) for row in rows]


class Tracer:
    """Records spans for calls made through the wrappers `install` makes.

    With ``alloc`` set, each span also records its allocation peak; that
    needs tracemalloc running and slows every call, so the benchmark uses
    it only in a pass of its own.
    """

    def __init__(self, alloc=False):
        self.spans = []
        self.alloc = alloc
        self.op = None
        self._stack = []  # indices of the open spans
        self._memory = []  # [base, high] of the open spans, alloc mode only

    def call(self, name, fn, args, kwargs):
        span = Span(name, parent=self._stack[-1] if self._stack else None,
                    op=self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.alloc:
            self._enter_memory()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self.alloc:
                span.alloc = self._exit_memory()
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            span.count = counter(result)
        return result

    def _enter_memory(self):
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        if self._memory:
            # the interval since the last event belonged to the enclosing span
            self._memory[-1][1] = max(self._memory[-1][1], peak)
        self._memory.append([current, current])

    def _exit_memory(self):
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, high = self._memory.pop()
        high = max(high, peak)
        if self._memory:
            self._memory[-1][1] = max(self._memory[-1][1], high)
        return high - base


def _layer_of(module_name):
    parts = module_name.split(".")
    if parts[0] != PACKAGE or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    traced.__perfbench_span__ = name
    return traced


def program_modules():
    """The loaded modules of the program's layers, in name order."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and _layer_of(name) is not None]


def install(tracer):
    """Wrap the public functions and methods of every loaded layer module.

    Returns the list of ``(owner, attribute, original)`` patches that
    `restore` undoes.  Properties and private names stay unwrapped; their
    time is charged to the public call that used them.
    """
    modules = program_modules()
    wrappers = {}
    patches = []
    for mod in modules:
        layer = _layer_of(mod.__name__)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = _wrapper(tracer, f"{layer}.{obj.__qualname__}", obj)
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        wrapped = _wrapper(tracer, f"{layer}.{member.__qualname__}",
                                           member)
                    elif isinstance(member, (staticmethod, classmethod)):
                        func = member.__func__
                        wrapped = type(member)(
                            _wrapper(tracer, f"{layer}.{func.__qualname__}", func))
                    else:
                        continue
                    patches.append((obj, name, member))
                    setattr(obj, name, wrapped)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


# ------------------------------------------------------------------ reducers


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += max(end - start, 0.0)
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - _covered(clipped))
    return out


def reduce_spans(spans, op_scenario):
    """Per-layer, per-function and CLI figures of one traced pass.

    ``spans`` is one list whose parent indices point into itself.
    ``op_scenario`` maps op id to the scenario the op ran.  Per-layer and
    CLI figures are keyed by metric name; per-function figures sit under
    ``"functions"`` and each scenario's `run()` time under ``"runs"``.
    ``"ops_s"`` is the time inside the ops' work: every `run()` call, and
    every other top-level call except `main()`.  ``"dispatch_s"`` is the
    self time of `run()`: scenario code that calls no wrapped function.
    """
    figures = {}
    for layer in LAYERS:
        figures[f"{layer}.calls"] = 0
        figures[f"{layer}.busy_s"] = 0.0
        figures[f"{layer}.errors"] = 0
    by_name = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span.layer
        figures[f"{layer}.calls"] += 1
        figures[f"{layer}.busy_s"] += own
        figures[f"{layer}.errors"] += int(span.error)
        entry = by_name.setdefault(span.name, {"calls": 0, "busy_s": 0.0,
                                               "inclusive_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["busy_s"] += own
        entry["count"] += span.count or 0
        if not _nested_in(spans, span, span.name):
            entry["inclusive_s"] += span.duration
    figures["functions"] = by_name
    figures["cli.artifacts.busy_s"] = sum(
        by_name.get(n, {}).get("inclusive_s", 0.0) for n in ARTIFACT_SPANS)
    figures["cli.report.busy_s"] = by_name.get("cli.RunReport.write", {}).get(
        "inclusive_s", 0.0)
    figures["cli.parse_config.busy_s"] = by_name.get("cli.parse_config", {}).get(
        "inclusive_s", 0.0)
    figures["ops_s"] = sum(
        span.duration for span in spans
        if span.name == RUN_SPAN or (span.parent is None and span.name != MAIN_SPAN))
    figures["dispatch_s"] = by_name.get(RUN_SPAN, {}).get("busy_s", 0.0)
    runs = {}
    for span in spans:
        if span.name == RUN_SPAN and span.op in op_scenario:
            scenario = op_scenario[span.op]
            runs[scenario] = runs.get(scenario, 0.0) + span.duration
    figures["runs"] = runs
    return figures


def _nested_in(spans, span, name):
    """True when an ancestor of ``span`` has the given name."""
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def peak_alloc(spans):
    """Largest allocation peak of any span, per layer, in bytes."""
    peaks = dict.fromkeys(LAYERS, 0)
    for span in spans:
        if span.alloc is not None:
            peaks[span.layer] = max(peaks[span.layer], span.alloc)
    return peaks
