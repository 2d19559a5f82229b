"""Every module-level import and private helper in the package is used.

There is no linter in this repository; these stdlib checks keep deletions
and refactors from leaving dead imports or helpers behind.  Names a module
lists in ``__all__`` count as used, and ``__init__.py`` is skipped because
it only re-exports.  A private helper (``def _name`` or ``class _name`` at
module level) counts as used when some module references it outside its
own body.  The fixed-point oracle must also stay independent of the series
pipeline: it may take only the rational type and the spec from the package,
and the engine's modules import nothing from it.  The test-side reference
``tests/window.py`` takes only the spec, besides ``fractions`` and ``math``.  The package keeps no
cache keyed by a spec or a degree: the only memoised functions are the
tables keyed by a ring's shape.
A Laurent block's integer storage stays private to ``laurent.py``: every
other module reads blocks through their methods and the ``terms`` view.
That storage has one shape: a block holds one degree, a + j + |h| of every term.
The engine past ``laurent.py`` builds its blocks from int monomials, so it
imports none of the ring's class constructors from ``cohomology``.  The
package imports nothing but itself and the standard library, and neither
``dataclasses`` nor ``typing`` from it: loading those (``dataclasses``
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``) was most of the
package's import time, which every CLI run pays.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import concavex
from concavex.laurent import LaurentBlock

MODULES = sorted(
    p for p in Path(concavex.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported_names(tree)
    return sorted(
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom fractions import Fraction as Rat\n"
        "from itertools import chain\n"
        "__all__ = ['chain']\n"
        "def f(x: Rat) -> float:\n    return os.path.sep\n"
    )
    assert _unused_imports(source) == ["line 2: math"]


def _references(tree: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _dead_private_helpers(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = sum((_references(t) for t in trees.values()), Counter())
    return sorted(
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and used[node.name] == _references(node)[node.name]
    )


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _dead_private_helpers(sources) == []


def test_checker_flags_a_dead_private_helper():
    sources = {
        "a.py": "def _used():\n    return 1\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n",
        "b.py": "from .a import _used\nx = _used()\n",
    }
    assert _dead_private_helpers(sources) == ["a.py: _dead"]


def _package_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each import from the package, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "concavex":
                    continue
                module = module.partition(".")[2]
            found |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                (alias.name, "") for alias in node.names
                if alias.name.split(".")[0] == "concavex"
            }
    return found


def _top_modules(source: str) -> set[str]:
    """The top-level modules a source imports by absolute name, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules a source imports at any depth that are neither stdlib nor the package."""
    return sorted(_top_modules(source) - sys.stdlib_module_names - {"concavex"})


@pytest.mark.parametrize(
    "path", sorted(Path(concavex.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_the_package_imports_only_the_standard_library(path):
    assert _foreign_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_import_outside_the_standard_library():
    source = (
        "from __future__ import annotations\nimport json, numpy.linalg\n"
        "from . import qseries\nfrom .laurent import LaurentBlock\nimport concavex.mirror\n"
        "def f():\n    import sympy as sp\n    from hypothesis import given\n"
    )
    assert _foreign_imports(source) == ["hypothesis", "numpy", "sympy"]


SLOW_TO_IMPORT = {"dataclasses", "typing"}


def _slow_imports(source: str) -> list[str]:
    """The modules of SLOW_TO_IMPORT a source imports, at any depth."""
    return sorted(_top_modules(source) & SLOW_TO_IMPORT)


@pytest.mark.parametrize(
    "path", sorted(Path(concavex.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_the_package_imports_neither_dataclasses_nor_typing(path):
    assert _slow_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_dataclasses_and_typing():
    source = (
        "import json\nfrom dataclasses import dataclass\n"
        "def f():\n    import typing\n    from .typing import x\n"
    )
    assert _slow_imports(source) == ["dataclasses", "typing"]


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    """Checked in a child interpreter without site: pytest itself loads both."""
    src = str(Path(concavex.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import concavex.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_oracle_shares_only_the_rational_type_and_the_spec():
    source = (Path(concavex.__file__).parent / "localization.py").read_text(encoding="utf-8")
    assert _package_imports(source) == {("cohomology", "Rat"), ("geometry", "GeometrySpec")}


def test_the_window_reference_shares_only_the_spec():
    """tests/window.py checks every printed N, f and g: it reads no engine code."""
    source = (Path(__file__).parent / "window.py").read_text(encoding="utf-8")
    assert _top_modules(source) == {"fractions", "math", "concavex"}
    assert _package_imports(source) == {("geometry", "GeometrySpec")}


def test_checker_finds_every_top_level_module():
    source = (
        "import math, os.path\nfrom fractions import Fraction\nfrom . import qseries\n"
        "from concavex.geometry import GeometrySpec\n"
        "def f():\n    import itertools\n"
    )
    assert _top_modules(source) == {"math", "os", "fractions", "concavex", "itertools"}


ENGINE = ["cohomology.py", "laurent.py", "qseries.py", "geometry.py", "eulerdata.py"]


@pytest.mark.parametrize("name", ENGINE)
def test_engine_imports_nothing_from_the_oracle(name):
    source = (Path(concavex.__file__).parent / name).read_text(encoding="utf-8")
    assert [
        (module, alias) for module, alias in _package_imports(source)
        if "localization" in (module.rpartition(".")[2], alias)
    ] == []


RING_CONSTRUCTORS = {"CohClass", "zero", "one", "scalar", "monomial", "hyperplane", "linear"}


def _ring_imports(source: str) -> list[str]:
    """The ring class constructors a source imports from cohomology, at any depth."""
    return sorted(
        name for module, name in _package_imports(source)
        if module.rpartition(".")[2] == "cohomology" and name in RING_CONSTRUCTORS
    )


@pytest.mark.parametrize("name", ["eulerdata.py", "mirror.py", "qseries.py", "geometry.py"])
def test_engine_past_laurent_imports_no_ring_class_constructor(name):
    source = (Path(concavex.__file__).parent / name).read_text(encoding="utf-8")
    assert _ring_imports(source) == []


def test_checker_flags_a_ring_class_import():
    source = (
        "from .cohomology import Rat, linear\n"
        "from concavex.cohomology import CohClass as C, _ring\n"
        "def f():\n    from .cohomology import one\n"
        "from .laurent import scalar\n"
    )
    assert _ring_imports(source) == ["CohClass", "linear", "one"]


def test_checker_finds_every_package_import():
    source = (
        "import math\nfrom fractions import Fraction\nfrom .cohomology import Rat\n"
        "from . import qseries\nimport concavex.mirror\n"
        "def f():\n    from concavex.laurent import LaurentBlock\n"
    )
    assert _package_imports(source) == {
        ("cohomology", "Rat"), ("", "qseries"), ("concavex.mirror", ""),
        ("laurent", "LaurentBlock"),
    }


def _memoised(source: str) -> list[str]:
    """Each use of functools.cache or lru_cache: the function it decorates, else its line."""
    tree = ast.parse(source)
    decorates = {
        id(sub): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
        for sub in ast.walk(dec)
    }
    return sorted(
        decorates.get(id(n), f"line {n.lineno}")
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        and (getattr(n, "id", None) or getattr(n, "attr", None) or n.name) in {"cache", "lru_cache"}
    )


def test_only_the_ring_tables_are_memoised():
    found = [name for p in MODULES for name in _memoised(p.read_text(encoding="utf-8"))]
    assert sorted(found) == ["_ring", "_slot_perm"]


def test_checker_finds_every_memoised_function():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.cache\ndef a(dims):\n    return dims\n"
        "@functools.lru_cache(maxsize=None)\ndef b(spec):\n    return spec\n"
        "c = functools.cache(lambda spec: spec)\n"
    )
    assert _memoised(source) == ["a", "b", "line 2", "line 9"]


# the stored codes and denominator of a block, its cached view, the slot
# permutations of the code layout and the helpers that handle them; the ring
# record cohomology._ring is not here, because cohomology reads it too
BLOCK_STORAGE = {
    "_codes", "_den", "_view",
    "_slot_perm",
    "_same_ring", "_one_degree", "_block", "_lincomb",
}


def _storage_reads(source: str) -> list[str]:
    return sorted(
        f"line {n.lineno}: {name}"
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        and (name := getattr(n, "id", None) or getattr(n, "attr", None) or n.name)
        in BLOCK_STORAGE
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "laurent.py"], ids=lambda p: p.name
)
def test_only_laurent_reads_the_integer_storage_of_a_block(path):
    assert _storage_reads(path.read_text(encoding="utf-8")) == []


def test_a_block_holds_one_degree():
    assert LaurentBlock((1,), {(-1, 1, (0,)): 2, (-1, 0, (1,)): 3}).deg == 0
    with pytest.raises(ValueError, match=r"terms of degrees \[0, 1\] in one block"):
        LaurentBlock((1,), {(0, 0, (0,)): 1, (0, 0, (1,)): 1})


def test_checker_flags_a_storage_read():
    source = (
        "from .laurent import _lincomb as lc, LaurentBlock\n"
        "def f(b):\n    return b._den, b.terms, b.dims\n"
    )
    assert _storage_reads(source) == ["line 1: _lincomb", "line 3: _den"]
