"""Compare two sets of benchmark results, or summarize one.

    python3 perfbench/compare.py FIRST_DIR [SECOND_DIR] [--json OUT]

Each directory holds the result records run.py writes to
``.perfbench_results/``.  For every workload and end-to-end metric it
prints each set's median, quartiles and spread (the distance between the
quartiles as a share of the median), and, given two sets, how far the
second median moved against the metric's bound in BENCHMARK.json.
Traced records are summarized as per-layer medians.

Results taken at different BLAS thread counts are not comparable (some
outputs differ with it), so a mix of thread counts is refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))
            if not p.name.endswith("-spans.json")]


def summarize(records, spec):
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {"runs": len(plain), "traced_runs": len(traced),
                 "seeds": sorted({r["seed"] for r in runs}),
                 "seconds": sorted({r["seconds"] for r in runs}),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "checks": sorted({r["checks"] for r in runs}),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in plain]
            if not values:
                continue
            stats = {"median": statistics.median(values), "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update(q1=q1, q3=q3, spread=measure.quartile_spread(values))
            entry["end_to_end"][metric["name"]] = stats
        if traced:
            entry["per_layer"] = {
                m["name"]: statistics.median(r["metrics"][m["name"]] for r in traced)
                for m in spec["per_layer"]}
        out[workload] = entry
    return out


def compare(first, second, spec):
    """Per workload and metric: the second median's change and verdict."""
    verdicts = {}
    for workload, entry in first.items():
        if workload not in second:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = entry["end_to_end"].get(name)
            b = second[workload]["end_to_end"].get(name)
            if a is None or b is None:
                continue
            change = b["median"] / a["median"] - 1.0
            worse = change if metric["better"] == "lower" else -change
            spreads = [s.get("spread", 0.0) for s in (a, b)]
            if worse > metric["bound"]:
                verdict = "worse beyond bound"
            elif max(spreads) > metric["bound"]:
                verdict = "spread beyond bound"
            else:
                verdict = "within bound"
            verdicts[f"{workload}/{name}"] = {"change": change, "bound": metric["bound"],
                                              "verdict": verdict}
    return verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second", nargs="?")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sets = [load(args.first)] + ([load(args.second)] if args.second else [])
    threads = {r["env"]["blas_threads"] for records in sets for r in records}
    if len(threads) > 1:
        print(f"refused: results were taken at different BLAS thread counts "
              f"{sorted(threads, key=str)}", file=sys.stderr)
        return 3

    summaries = [summarize(records, spec) for records in sets]
    environment = dict(sets[0][0]["env"]) if sets[0] else {}
    environment.pop("seed", None)
    result = {"environment": environment, "sets": summaries}
    for i, summary in enumerate(summaries, 1):
        for workload, entry in summary.items():
            print(f"set {i} {workload}: {entry['runs']} runs, {entry['failed']} of "
                  f"{entry['attempted']} ops failed")
            for name, stats in entry["end_to_end"].items():
                print(f"  {name:12} median {stats['median']:.6g}  "
                      f"spread {stats.get('spread', float('nan')):.3f}")
    if len(summaries) == 2:
        result["comparison"] = compare(*summaries, spec)
        for key, v in result["comparison"].items():
            print(f"{key:32} {v['change']:+.3f} (bound {v['bound']}) {v['verdict']}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
