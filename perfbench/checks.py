"""Output checks for every op.

For the seeds in `REFERENCE_SEEDS` the outputs were recorded at the
commit that defined the benchmark (`make_reference.py`), once per BLAS
thread count, because some outputs differ in their last digits between
thread counts.  An op's outputs must match them: floats within
`REL_TOL` relative error, everything else exactly.  For any other seed,
or a thread count with no recording, only the invariants are checked:
the same metric names, finite numbers, and (in the CLI) exit code 0 and
artifact checksums.  `Checker.mode` says which applied.

Standard library only.
"""

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = (1, 2)  # the default seed and one held out
REL_TOL = 1e-9

# Metrics that are themselves round-off: differences below the floor are
# noise whatever their relative size.
ABS_FLOOR = {
    ("pr-recover", "er_residual_final"): 1e-12,
    ("pr-recover", "objective_final"): 1e-15,
    ("radiometry-roundtrip", "imag_residual"): 1e-12,
}


def reference_path(seed, threads):
    return REFERENCE_DIR / f"seed-{seed}-threads-{threads}.json"


def compare_metrics(scenario, got, want):
    """Problems found comparing one scenario's metrics with the reference."""
    problems = []
    if set(got) != set(want):
        problems.append(f"{scenario}: metric names differ from the reference: "
                        f"{sorted(set(got) ^ set(want))}")
    for key in sorted(set(got) & set(want)):
        a, b = got[key], want[key]
        if type(b) is float and type(a) in (int, float):
            floor = ABS_FLOOR.get((scenario, key), 0.0)
            if not abs(a - b) <= max(REL_TOL * abs(b), floor):
                problems.append(f"{scenario}.{key} = {a!r}, reference {b!r}")
        elif type(a) is not type(b) or a != b:
            problems.append(f"{scenario}.{key} = {a!r}, reference {b!r}")
    return problems


def metric_invariants(scenario, got, names):
    """Problems with one scenario's metrics that hold for any seed."""
    problems = []
    if set(got) != set(names):
        problems.append(f"{scenario}: metric names differ from the reference: "
                        f"{sorted(set(got) ^ set(names))}")
    for key, value in sorted(got.items()):
        if type(value) is float and not math.isfinite(value):
            problems.append(f"{scenario}.{key} is not finite: {value!r}")
    return problems


def compare_profile(got, want):
    """Compare complex profiles given as ``[re, im]`` lists of lists:
    each bin within `REL_TOL` of its reference value.  No floor applies:
    at one BLAS thread count the profiles repeat bit for bit, and no bin
    of a dense scene is round-off."""
    if len(got[0]) != len(want[0]):
        return [f"profile has {len(got[0])} bins, reference {len(want[0])}"]
    bad = [i for i, (a, b, c, d) in enumerate(zip(got[0], got[1], want[0], want[1]))
           if not math.hypot(a - c, b - d) <= REL_TOL * math.hypot(c, d)]
    if bad:
        return [f"{len(bad)} profile bins differ from the reference, first {bad[0]}"]
    return []


def profile_invariants(got, n_bins):
    values = got[0] + got[1]
    if len(got[0]) != n_bins or len(got[1]) != n_bins:
        return [f"profile has {len(got[0])} bins, expected {n_bins}"]
    if not all(math.isfinite(v) for v in values):
        return ["profile is not finite"]
    return []


class Checker:
    """Checks for one run: reference comparison when a recording exists
    for this seed and BLAS thread count, invariants otherwise."""

    def __init__(self, seed, threads):
        path = reference_path(seed, threads)
        if seed in REFERENCE_SEEDS and path.is_file():
            self.reference = json.loads(path.read_text())
            self.mode = f"reference {path.name}"
        else:
            self.reference = None
            self.mode = (f"invariants only: no reference for seed {seed} "
                         f"at {threads} BLAS threads")
        # metric names do not depend on the seed; any recording has them
        self.names = {}
        recordings = sorted(REFERENCE_DIR.glob("seed-*.json"))
        if recordings:
            recorded = json.loads(recordings[0].read_text())["scenarios"]
            self.names = {k: sorted(v) for k, v in recorded.items()}

    def scenario(self, scenario, metrics):
        if self.reference is not None:
            want = self.reference["scenarios"].get(scenario)
            if want is None:
                return [f"{scenario}: no reference recorded"]
            return compare_metrics(scenario, metrics, want)
        return metric_invariants(scenario, metrics, self.names.get(scenario, ()))

    def profile(self, scene, got, n_bins):
        if self.reference is not None:
            return compare_profile(got, self.reference["profiles"][scene])
        return profile_invariants(got, n_bins)
