"""aperture-forge entry point.

Usage: aperture-forge <scenario> --config <path> [--seed N] [--out DIR]

Failures print one JSON object on stderr with a stable numeric code so
scripts can branch on the kind of error without scraping messages; the
warnings the failed run raised go inside it, as its ``warnings`` list.
A successful run shows its warnings as usual.
"""

import argparse
import json
import sys
import warnings

from .config import CliError, parse_config
from .scenarios import REGISTRY, run


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aperture-forge",
        description="run a canned simulation + reconstruction scenario",
    )
    parser.add_argument("scenario", choices=sorted(REGISTRY),
                        help="which pipeline to run")
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every random draw in the run")
    parser.add_argument("--out", default=None,
                        help="artifact directory (default runs/<scenario>)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            config = parse_config(args.config, scenario=args.scenario,
                                  seed=args.seed, out_dir=args.out)
            report = run(config)
        except CliError as err:
            payload = {"error": {
                "code": err.code,
                "kind": type(err).__name__,
                "message": str(err),
                "warnings": [str(w.message) for w in caught],
            }}
            print(json.dumps(payload), file=sys.stderr)
            return err.code
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    for name in sorted(report.metrics):
        print(f"{name} = {report.metrics[name]}")
    print(f"runtime_s = {report.runtime_s:.3f}")
    print(f"report: {report.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
