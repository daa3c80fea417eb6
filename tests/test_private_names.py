"""Every private module-level name of the package is read somewhere in it.

A private name has one leading underscore and is bound at a module's top
level by ``def``, ``class`` or an assignment.  It counts as read when any
module of the package loads it by name or as an attribute.  A deletion
that leaves a helper with no caller behind fails here.  Likewise every
name a module-level import binds is read in its own module, and only
``exceptions``, home of the argument contract, imports ``numbers``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nskd"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def bound_names(node: ast.stmt) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_private_names(sources: dict) -> list:
    """``module.name`` for each private module-level name that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for node in tree.body for name in bound_names(node) if is_private(name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_no_unread_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_helper():
    sources = {
        "a": "_TABLE = 1\n_dead: int = 2\ndef _helper():\n    return _TABLE\n__all__ = []\n",
        "b": "import a\nclass _Unused:\n    pass\na._helper()\n",
    }
    assert unread_private_names(sources) == ["a._dead", "b._Unused"]


# names imported only to be looked up from outside: rates re-exports attack.alice_bob_stats,
# attack.table_joint and info.mutual_information for perfbench/tracing.py to patch, until
# in-package tracing replaces that (ROADMAP item 3)
IMPORTED_FOR_EXPORT = {"rates.alice_bob_stats", "rates.mutual_information", "rates.table_joint"}


def unused_imports(sources: dict) -> list:
    """``module.name`` for each name bound by a module-level import that its module never reads."""
    unused = []
    for module, source in sources.items():
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{module}.{name}" for name in bound if name not in read]
    return sorted(unused)


def test_no_unused_module_imports():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name in unused_imports(sources) if name not in IMPORTED_FOR_EXPORT] == []


def test_the_check_sees_an_unused_import():
    sources = {
        "a": "from __future__ import annotations\nimport os.path\nimport sys as system\nfrom x import y, z\n"
        "def f():\n    import json\n    return os.sep, y\n",
        "b": "import numpy as np\nnp.zeros(1)\n",
    }
    assert unused_imports(sources) == ["a.system", "a.z"]


def modules_importing(sources: dict, package: str) -> list:
    """The modules that import ``package`` or a submodule of it, at any depth of their code."""
    def imports(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == package for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == package

    return sorted(module for module, source in sources.items() if any(map(imports, ast.walk(ast.parse(source)))))


def test_only_exceptions_imports_numbers():
    # a count or probability is checked by exceptions._as_count or _as_fraction, never by hand
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert modules_importing(sources, "numbers") == ["exceptions"]


def test_the_check_sees_a_numbers_import():
    sources = {
        "a": "import numbers\n",
        "b": "def f(n):\n    from numbers import Integral\n    return isinstance(n, Integral)\n",
        "c": "import os, numbers.abc as x\n",
        "d": "import numbersx\nfrom .numbers import y\nfrom . import numbers\n",
    }
    assert modules_importing(sources, "numbers") == ["a", "b", "c"]
