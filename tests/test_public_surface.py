"""Every public function and class of the package has a user.

A user is package code in a function, a class or the ``if __name__ ==
"__main__"`` guard, the benchmark's workloads and tracer, or the acceptance
tests. Unit tests do not count: a name only they call is code nothing
needs. Other module-level code does not count: a public name that only
builds a module constant can be built in place. A mention inside the
definition of a name that has no user does not count either, so a chain of
unused helpers fails as a whole.
Comments and docstrings are not mentions; the benchmark's tracer names its
targets in strings, so in the user files a string that is exactly a name is.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
USERS = ("bench/workloads.py", "bench/spans.py", "tests/test_acceptance.py")
MAIN_GUARD = "__name__ == '__main__'"  # as ast.unparse writes it
# public names kept without a user, each for a stated reason
ALLOWED = {
    "principal_sigmas": "the fit's principal-frame sigmas (ROADMAP item 5)",
}


def _mentions(tree, strings=False):
    """Every name a tree uses: Name ids and attribute names, and with
    ``strings`` every string constant that is exactly an identifier."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def _unused_public_names():
    """(name, module) of each public name no user reaches."""
    defined, uses, reached = {}, {}, set()
    for path in sorted((ROOT / "src" / "nvbeat").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # of module-level code, only the main guard runs a call
                if isinstance(node, ast.If) and ast.unparse(node.test) == MAIN_GUARD:
                    reached |= _mentions(node)
            elif node.name.startswith("_"):  # private helpers use what they name
                reached |= _mentions(node)
            else:
                defined[node.name] = path.stem
                uses[node.name] = _mentions(node) - {node.name}
    for rel in USERS:
        reached |= _mentions(ast.parse((ROOT / rel).read_text()), strings=True)
    live, todo = set(), reached & set(defined)
    while todo:  # what a used name's definition mentions is used too
        name = todo.pop()
        live.add(name)
        todo |= (uses[name] & set(defined)) - live
    return sorted((name, mod) for name, mod in defined.items() if name not in live)


def test_every_public_name_has_a_user():
    unused = _unused_public_names()
    assert [name for name, _ in unused] == sorted(ALLOWED), unused
