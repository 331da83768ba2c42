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


def _named(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _unraised_exception_classes(sources: dict[str, str]) -> list[str]:
    """Exception classes that no ``raise`` in the sources names.

    A class is an exception class when one of its bases is: a name ending in
    ``Error`` or ``Exception``, or another such class defined here.  Naming a
    class in an ``except`` clause or returning it does not raise it.
    """
    classes, raised = {}, set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (name, node.lineno, [_named(b) for b in node.bases])
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_named(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))

    def is_exception(bases) -> bool:
        return any(re.search(r"(Error|Exception)$", base or "")
                   or (base in classes and is_exception(classes[base][2])) for base in bases)

    return [f"{module}: {cls} (line {line})" for cls, (module, line, bases) in classes.items()
            if is_exception(bases) and cls not in raised]


def test_every_exception_class_is_raised_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unraised_exception_classes(sources) == []


def test_an_exception_class_left_behind_by_a_removal_is_found():
    # still caught and still subclassed, but no raise names it any more
    source = '''
class KeptError(ValueError):
    pass


class LeftError(KeptError):
    """Raised when ``LeftError`` was still a refusal."""


class Record:
    pass


def run(x):
    try:
        if x:
            raise KeptError("x")
        raise errors.OtherError
    except (KeptError, LeftError):
        return LeftError
'''
    assert _unraised_exception_classes({"m.py": source}) == ["m.py: LeftError (line 6)"]


#: numpy.linalg's eigensolvers: both dense solves run scipy's LAPACK on one copy of H
NUMPY_EIGENSOLVERS = {f"numpy.linalg.{name}" for name in ("eig", "eigh", "eigvalsh")}


def _numpy_eigensolver_uses(sources: dict[str, str]) -> list[str]:
    """Names and attributes that resolve, through the module's imports, to a numpy eigensolver."""
    found = []
    for name, text in sources.items():
        tree = ast.parse(text)
        aliases = {}  # local name -> dotted name it was imported as
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:  # "import numpy.linalg" binds numpy
                    top = a.name.split(".")[0]
                    aliases[a.asname or top] = a.name if a.asname else top
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                aliases.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})

        def dotted(node) -> str | None:
            if isinstance(node, ast.Name):
                return aliases.get(node.id)
            if isinstance(node, ast.Attribute):
                base = dotted(node.value)
                return base and f"{base}.{node.attr}"
            return None

        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                    and dotted(node) in NUMPY_EIGENSOLVERS):
                found.append(f"{name}: {dotted(node)} (line {node.lineno})")
    return found


def test_the_package_calls_no_numpy_eigensolver():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _numpy_eigensolver_uses(sources) == []


def test_a_numpy_eigensolver_is_found_under_any_import():
    # scipy's eigh and numpy's other linalg routines pass; a docstring naming eigh does not count
    source = '''
import numpy as np
import numpy.linalg
import scipy.linalg
from numpy import linalg as la
from numpy.linalg import eigvalsh as values, norm


def solve(h):
    """Not ``np.linalg.eigh``."""
    w = scipy.linalg.eigh(h)[0] + norm(h) + np.linalg.svd(h)[1]
    return np.linalg.eigh(h), la.eig(h), values(h), numpy.linalg.eigvalsh(h), w
'''
    assert _numpy_eigensolver_uses({"m.py": source}) == [
        "m.py: numpy.linalg.eigh (line 12)",
        "m.py: numpy.linalg.eig (line 12)",
        "m.py: numpy.linalg.eigvalsh (line 12)",
        "m.py: numpy.linalg.eigvalsh (line 12)",
    ]


def _terms_stores(sources: dict[str, str]) -> list[str]:
    """Stores to an attribute named ``terms``, or to its items, outside ``PauliSum.__init__``.

    A ``PauliSum`` sorts its terms by string once, in its constructor; a
    store anywhere else could leave them in another order.  Deleting the
    attribute counts as a store.
    """
    found = []
    for name, text in sources.items():
        tree = ast.parse(text)
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "PauliSum"
                   for init in cls.body
                   if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                   for node in ast.walk(init)}
        for node in ast.walk(tree):
            target = node.value if isinstance(node, ast.Subscript) else node
            if (isinstance(node, (ast.Attribute, ast.Subscript))
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(target, ast.Attribute) and target.attr == "terms"
                    and id(node) not in allowed):
                found.append((name, node.lineno))
    return [f"{name}: .terms (line {line})" for name, line in sorted(found)]


def test_only_the_pauli_sum_constructor_stores_its_terms():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _terms_stores(sources) == []


def test_a_store_to_terms_is_found_in_any_form():
    # the constructor may store; reads, and stores to other attributes, pass
    source = '''
class PauliSum:
    def __init__(self, n, terms):
        self.terms = dict(sorted(terms.items()))
        self.terms["I" * n] = 0.0

    def add(self, string, c):
        self.terms[string] = c


def reorder(ps, other):
    ps.terms = dict(reversed(ps.terms.items()))
    ps.n, other.terms = 1, {}
    ps.terms |= other.terms
    del other.terms
    return sorted(ps.terms), other.n_qubits
'''
    assert _terms_stores({"m.py": source}) == [
        "m.py: .terms (line 8)",
        "m.py: .terms (line 12)",
        "m.py: .terms (line 13)",
        "m.py: .terms (line 14)",
        "m.py: .terms (line 15)",
    ]
