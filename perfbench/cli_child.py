"""Run one ``polyadc`` subcommand with the benchmark's tracer installed.

Usage: python3 cli_child.py SPAN_FILE SUBCOMMAND [ARGS...]

Behaves like ``python3 -m polyadc.cli SUBCOMMAND [ARGS...]`` (same output
and exit code) and writes the spans and counters of the run to SPAN_FILE.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

import polyadc.cli  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = polyadc.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
