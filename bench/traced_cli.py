"""Run one nvbeat CLI command with the span tracer installed.

    python3 traced_cli.py SPANS.json [nvbeat arguments...]

The command's output and exit code are those of ``nvbeat``; the spans and
aggregates go to SPANS.json for the benchmark to merge. The modules holding
traced functions are imported before the tracer installs, so the CLI's lazy
imports find the wrapped functions. Expects ``src`` on PYTHONPATH, as ``run.py`` sets it.
"""

import json
import sys

import nvbeat.analytic  # noqa: F401
import nvbeat.cli
import nvbeat.dynamics  # noqa: F401
import nvbeat.estimation  # noqa: F401
from spans import Tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.run = "cli"
    tracer.install()
    try:
        code = nvbeat.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
