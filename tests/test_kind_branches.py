"""Ceilings on the exact-or-float branch points of each module.

The scalar kind is decided in ``btpgeo.scalars``; every other module asks
the kind it holds.  A branch point is counted by ``ast`` as in the ROADMAP
("Known excess"): each ``if``, ``while``, comprehension filter and
conditional expression whose test reads the kind (a name or attribute
containing ``exact``, an attribute ``kind``, a name ``ExactComplex`` or
``object``, or a comparison with an attribute ``dtype``, whatever the dtype
is spelled as), plus each ``is_exact``, ``kind_of``, ``common_kind`` or
``isinstance(..., ExactComplex)`` call outside such a test.  A change that
adds a branch point has to raise its module's ceiling here, in the open.

``goldens`` and ``cli`` are clients of the library: they read only the
public names of the other btpgeo modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "btpgeo"

CEILINGS = {
    "__init__.py": 0,
    "charts.py": 3,
    "cli.py": 1,
    "forms.py": 0,
    "frames.py": 1,
    "goldens.py": 0,
    "jets.py": 0,
    "lie.py": 3,
    "linalg.py": 3,
    "scalars.py": 13,
    "tensor.py": 0,
}


def _reads_kind(test) -> bool:
    for n in ast.walk(test):
        if isinstance(n, ast.Name) and (
                "exact" in n.id or "ExactComplex" in n.id or n.id == "object"):
            return True
        if isinstance(n, ast.Attribute) and (
                "exact" in n.attr or "ExactComplex" in n.attr or n.attr == "kind"):
            return True
        if isinstance(n, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "dtype"
                for x in (n.left, *n.comparators)):
            return True
    return False


def _is_kind_call(n) -> bool:
    if not isinstance(n, ast.Call):
        return False
    f = n.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name in ("is_exact", "kind_of", "common_kind"):
        return True
    return name == "isinstance" and len(n.args) == 2 and any(
        "ExactComplex" in (getattr(x, "id", None) or getattr(x, "attr", None) or "")
        for x in ast.walk(n.args[1]))


def branch_points(source: str) -> int:
    tree = ast.parse(source)
    tests = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.If, ast.While, ast.IfExp)):
            tests.append(n.test)
        elif isinstance(n, ast.comprehension):
            tests.extend(n.ifs)
    kind_tests = [t for t in tests if _reads_kind(t)]
    inside = {id(n) for t in kind_tests for n in ast.walk(t)}
    calls = [n for n in ast.walk(tree) if _is_kind_call(n) and id(n) not in inside]
    return len(kind_tests) + len(calls)


def test_counter_counts_each_form_once():
    src = """
if exact:
    pass
x = a if m.kind.exact else b
y = [c for c in cs if isinstance(c, ExactComplex)]
k = kind_of(c)
while arr.dtype == object:
    pass
if is_exact(c) and kind_of(c) is EXACT:
    pass
if value > 0:
    pass
if a.dtype == complex and not a.imag.any():
    pass
v = a.real if FLOAT.dtype != a.dtype else a
z = is_exact(c)
w = common_kind(cs)
"""
    assert branch_points(src) == 10


def test_every_module_has_a_ceiling():
    assert sorted(p.name for p in SRC.glob("*.py")) == sorted(CEILINGS)


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_branch_points_within_ceiling(module):
    assert branch_points((SRC / module).read_text()) <= CEILINGS[module]


def private_reads(source: str) -> list:
    """The underscore names a module imports from, or reads off, the other
    btpgeo modules (relative imports)."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level:
            for alias in n.names:
                if n.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    reads.append(f"{n.module}.{alias.name}")
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules and n.attr.startswith("_")):
            reads.append(f"{n.value.id}.{n.attr}")
    return reads


def test_private_read_counter():
    src = """
from . import charts, lie as L
from .scalars import EC, _raw
charts._jet_coefficients(g, kind)
L._ec(1)
charts.wallach_metric()
obj._private
"""
    assert private_reads(src) == ["scalars._raw", "charts._jet_coefficients", "L._ec"]


@pytest.mark.parametrize("module", ["goldens.py", "cli.py"])
def test_clients_read_only_public_names(module):
    assert private_reads((SRC / module).read_text()) == []
