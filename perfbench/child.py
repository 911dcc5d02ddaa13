"""One process of the cli-suite workload.

    python3 perfbench/child.py MODE RECORD_FILE -- SCENARIO --config PATH ...

Runs the ``aperture-forge`` entry point with the arguments after ``--``,
as a fresh interpreter with the program's ``src`` on ``PYTHONPATH``.  It
writes to RECORD_FILE the time from the spawn (``PERFBENCH_SPAWN_T``)
until the CLI was imported and, when MODE is ``spans`` or ``alloc``, the
spans of the traced calls.  MODE ``plain`` wraps nothing.
"""

import json
import os
import sys
import time


def main():
    mode, record_file = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    from aperture_forge.cli import main as cli_main

    record = {"import_s": time.monotonic() - float(os.environ["PERFBENCH_SPAWN_T"])}
    if mode == "plain":
        code = cli_main.main(cli_args)
    else:
        import tracemalloc

        import tracing

        tracer = tracing.Tracer(alloc=mode == "alloc")
        patches = tracing.install(tracer)
        if tracer.alloc:
            tracemalloc.start()
        try:
            code = cli_main.main(cli_args)
        finally:
            tracemalloc.stop()
            tracing.restore(patches)
            record["spans"] = tracing.spans_to_json(tracer.spans)
    with open(record_file, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
