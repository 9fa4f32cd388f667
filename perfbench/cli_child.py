"""Run one ``delcode`` CLI command with the span wrappers installed.

Usage: python3 perfbench/cli_child.py OUT_JSON OP_ID [delcode arguments...]

With no delcode arguments it only imports the CLI and installs the wrappers,
which is the traced form of the benchmark's set-up probe.  The spans,
counters, the moment ``delcode.cli`` finished importing and the child's peak
RSS are written to OUT_JSON when the command returns.
"""

import json
import resource
import sys
import time

import delcode.cli

IMPORTED = time.perf_counter()

from tracing import Tracer  # noqa: E402  (imported after the timestamp on purpose)


def main(argv):
    out, op, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.op = op
    missing = tracer.install()
    code = 0
    try:
        if cli_args:
            code = delcode.cli.main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump(
                {
                    "imported": IMPORTED,
                    "spans": tracer.spans,
                    "counters": tracer.counters,
                    "missing": missing,
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
