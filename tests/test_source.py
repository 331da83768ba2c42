"""Static checks over the package source, read with ``ast`` and nothing else."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vibronic"
PRIVATE = re.compile(r"_[^_]")  # one leading underscore: not public, not a dunder


def _uncalled_private_functions(sources: dict[str, str]) -> list[str]:
    """Private functions and methods that no code outside their own ``def`` names.

    A name counts wherever it is read as a variable or an attribute; a
    mention in a docstring or a comment does not.
    """
    defs, uses = [], []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if PRIVATE.match(node.name):
                    defs.append((name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((name, node.attr, node.lineno))
    return [f"{module}: {func} (line {lo})" for module, func, lo, hi in defs
            if not any(used == func and (where != module or not lo <= line <= hi)
                       for where, used, line in uses)]


def test_every_private_function_has_a_caller_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _uncalled_private_functions(sources) == []


def test_a_helper_left_behind_by_a_fold_is_found():
    # a recursive helper calls only itself; a docstring that names it is no caller
    source = '''
def _kept(x):
    return x


def _left(n):
    """Calls ``_left`` and itself."""
    return _left(n - 1) if n else 0


class Thing:
    def _method(self):
        return _kept(1)

    def run(self):
        return self._method()
'''
    assert _uncalled_private_functions({"m.py": source}) == ["m.py: _left (line 6)"]
