"""List the statements of src/nvbeat that neither the tests nor the benchmark run.

    python tools/line_trace.py

Run from the repository root. A line tracer (``sys.settrace``) on the
modules under src/nvbeat runs, in this one process, the Tier-1 suite and
then one unit of each benchmark workload at seed 101, every CLI command of
the session through ``nvbeat.cli.main``, and last the CLI's ``__main__``
body (``nvbeat principal``). It prints one line per module with unrun
statements, ``module.py: [line, ...]``, by each statement's first line;
docstrings are not statements here. Subprocesses are not followed. It exits
1 when it prints a module line, else 0.
"""

import ast
import collections
import contextlib
import io
import os
import runpy
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "nvbeat")
HITS = collections.defaultdict(set)  # file -> lines run


def _local(frame, event, arg):
    if event == "line":
        HITS[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(SRC) else None


def _heads(path):
    """(first line, lines that run it) of every statement but a docstring:
    decorators and the header of a compound statement, all of a simple one."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or (isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant) and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(first, last + 1)


def _cli(argv):
    """A CompletedProcess-like result of nvbeat.cli.main run in this process."""
    import nvbeat.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nvbeat.cli.main(argv)
    return types.SimpleNamespace(returncode=code, stdout=out.getvalue().encode(),
                                 stderr=err.getvalue().encode())


def main():
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sys.settrace(_global)
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(101, workdir)
            if name == "cli_session":
                wl.plain_launcher = _cli  # set-up's synth too
            wl.load(wl.setup())
            for op in workloads.run_unit(wl, 0):
                if not op.ok:
                    print("%s %s failed: %s" % (name, op.name, op.detail), file=sys.stderr)
    sys.modules.pop("nvbeat.cli")  # runpy warns about a module it finds loaded
    sys.argv = ["nvbeat", "principal"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        runpy.run_module("nvbeat.cli", run_name="__main__")
    sys.settrace(None)
    code = 0
    for module in sorted(os.listdir(SRC)):
        path = os.path.join(SRC, module)
        if module.endswith(".py"):
            unrun = sorted(k for k, lines in _heads(path) if HITS[path].isdisjoint(lines))
            if unrun:
                print("%s: %s" % (module, unrun))
                code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
