"""Traced stand-in for ``python -m hypertoric.cli``.

    python3 perfbench/cli_shim.py <subcommand> --input <file> ...

It times ``import hypertoric.cli``, wraps the library's layers, runs the
CLI's ``main`` with the given arguments and exits with its code.  stdout is
the CLI's own; the trace summary is written as the last line of stderr,
after ``MARKER``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

MARKER = "perfbench-trace "


def main(argv) -> int:
    start = perf_counter()
    import hypertoric.cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.count("cli.import_s", import_s)
    try:
        code = hypertoric.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
