"""Every public member of the package's classes is read outside the tests.

A member is a method or property a class body defines, a field it
declares (a dataclass or named-tuple field, a class attribute), or an
attribute its ``__init__`` sets on ``self``, with no leading underscore.
It counts as read when a module of the package or of ``perfbench/``
loads an attribute of that name, or the README writes ``.name``.  A
load through a module, such as ``np.allclose``, reads no member.  So a
member that only the tests read fails here, unless ALLOWED names it,
with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nskd"

# member -> why it stays although only tests read it
ALLOWED = {
    "attack.AliceBobStats.qber": "alice_bob_stats reports it; ROADMAP item 16 leaves it to the owner",
    "attack.AliceBobStats.i_ab": "alice_bob_stats reports it; rates reads I(A:B) without it",
    "attack.AliceBobStats.i_ae": "alice_bob_stats reports it; rates reads I(A:E) without it",
    "attack.AliceBobStats.i_be": "alice_bob_stats reports it; ROADMAP item 16 leaves it to the owner",
    "exceptions.Signaling.party": "a caller that catches Signaling reads it",
    "exceptions.Signaling.setting": "a caller that catches Signaling reads it",
    "exceptions.Signaling.deviation": "a caller that catches Signaling reads it",
    "rates.IntrinsicCertificate.lower": "the lower end of the bracket that ROADMAP item 1 certifies",
    "rates.IntrinsicCertificate.dual": "the tangent dual that ROADMAP item 1 proves feasible",
    "rates.AdBlockEnsemble.p_accept": "acceptance criterion 7 checks it against brute force",
    "rates.AdBlockEnsemble.eve_information": "acceptance criterion 7 checks it against brute force",
}


def members(tree: ast.Module) -> list:
    """(class, member) for each public member that a module-level class defines."""
    out = []
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                targets = [t for n in ast.walk(node) if isinstance(n, ast.Assign) for t in n.targets]
                names = [t.attr for t in targets if isinstance(t, ast.Attribute) and getattr(t.value, "id", "") == "self"]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)]
            else:
                names = []
            out += [(cls.name, name) for name in names if not name.startswith("_")]
    return out


def attribute_reads(tree: ast.Module, modules: set) -> set:
    """Every attribute name the code loads, except from a name bound to a module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name in modules}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id in aliases)
    }


def unread_members(package: dict, readers: dict, readme: str) -> list:
    """``module.Class.member`` for each public member of ``package`` that no source and no README reads."""
    read = set(re.findall(r"\.([A-Za-z_]\w*)", readme))
    for source in [*package.values(), *readers.values()]:
        read |= attribute_reads(ast.parse(source), set(package))
    return sorted(
        f"{module}.{cls}.{name}"
        for module, source in package.items()
        for cls, name in members(ast.parse(source))
        if name not in read
    )


def test_every_public_member_is_read_outside_the_tests():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {p.name: p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))}
    assert unread_members(package, readers, (ROOT / "README.md").read_text()) == sorted(ALLOWED)


def test_the_check_sees_a_member_only_tests_read():
    package = {
        "shapes": "import numpy as np\n"
        "class Box:\n"
        "    table: object\n"
        "    size = 4\n"
        "    def __init__(self):\n        self.rows = self.cols = 2\n"
        "    @property\n    def area(self):\n        return self.rows\n"
        "    def allclose(self, other):\n        return np.allclose(self.table, other.table)\n"
        "    def _cells(self):\n        return self.size\n",
        "use": "from . import shapes\nshapes.cols\n",
    }
    readers = {"bench.py": "import nskd\nfrom nskd import shapes\nnskd.area\n"}
    unread = ["shapes.Box.allclose", "shapes.Box.area", "shapes.Box.cols"]
    assert unread_members(package, readers, "see `Box.table`") == unread
