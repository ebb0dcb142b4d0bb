"""Traced entry point for one CLI request, used by the cli-readme traced pass.

    python3 perfbench/cli_entry.py OUT_JSON <reidemeister cli arguments...>

Times ``import reidemeister.cli``, wraps every layer (tracing.py), runs the
CLI exactly as ``python -m reidemeister.cli`` would, and writes the import
time and the span summary to OUT_JSON.  The CLI's stdout, stderr and exit
code pass through unchanged.
"""

import json
import sys
import time

t0 = time.perf_counter()
import reidemeister.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    code = cli.run(argv)
    sys.stdout.flush()
    with open(out_path, "w") as handle:
        json.dump({"import_s": import_s, "summary": tracer.summary()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
