"""Checks of the source text that stand in for a linter."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "herisson").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports and never references; its __all__ counts as use."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for name, line in imported.items() if name not in used]


def _private_definitions(tree: ast.Module):
    """(name, statement) of each module-level _name function, class or assigned constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _is_cached_property(stmt) -> bool:
    return isinstance(stmt, ast.FunctionDef) and any(
        ast.unparse(deco).split(".")[-1] == "cached_property" for deco in stmt.decorator_list)


def _field_definitions(tree: ast.Module, field_classes):
    """(name, statement) of each cached_property of each class, and of each annotated
    field of the classes named in field_classes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if _is_cached_property(stmt):
                    yield stmt.name, stmt
                elif node.name in field_classes and isinstance(stmt, ast.AnnAssign):
                    yield stmt.target.id, stmt


def _unread(trees, definitions, refs) -> list[tuple[str, str]]:
    """(file, name) of each (name, statement) of definitions(tree) that no (node id, name)
    of refs reads outside that statement."""
    found = []
    for path, tree in trees:
        for name, stmt in definitions(tree):
            own = {id(node) for node in ast.walk(stmt)}
            if not any(ref == name and key not in own for key, ref in refs):
                found.append((path.name, name))
    return found


def unused_private_names(paths: list[Path]) -> list[tuple[str, str]]:
    """(file, name) of each module-level _name function, class or constant that no
    module in paths reads (a Name or an attribute) outside its own definition."""
    trees = [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]
    refs = [(id(node), node.id if isinstance(node, ast.Name) else node.attr)
            for _path, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    return _unread(trees, _private_definitions, refs)


def unused_fields(paths: list[Path], field_classes) -> list[tuple[str, str]]:
    """(file, name) of each cached_property, and each field of the classes named in
    field_classes, that no module in paths reads as an attribute outside its definition."""
    trees = [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]
    refs = [(id(node), node.attr) for _path, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    return _unread(trees, lambda tree: _field_definitions(tree, field_classes), refs)


_UNIT = re.compile(r"#\s*(absolute|radians|relative to \S)")


def bare_tolerances(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level *_TOL or RANK_CUTOFF constant whose line has no
    comment that opens with its unit: absolute, radians or relative to a named scale."""
    source = path.read_text()
    comments = {tok.start[0]: tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    found = []
    for stmt in ast.parse(source, filename=str(path)).body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                if (name.endswith("_TOL") or name == "RANK_CUTOFF") and not _UNIT.match(comments.get(stmt.lineno, "")):
                    found.append((stmt.lineno, name))
    return found


SMALL_LITERAL = 1e-3


def small_literals(path: Path) -> list[tuple[int, float]]:
    """(line, value) of each float literal 0 < x < SMALL_LITERAL in the body of a function or lambda
    (not in its default arguments): a tolerance there has neither a name nor a unit."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for stmt in node.body if isinstance(node.body, list) else [node.body]:
                found |= {(lit.lineno, lit.value) for lit in ast.walk(stmt) if isinstance(lit, ast.Constant)
                          and type(lit.value) is float and 0.0 < lit.value < SMALL_LITERAL}
    return sorted(found)


def _names_an_array(annotation) -> bool:
    """Whether an annotation is np.ndarray, alone or in a union (X | Y, Optional[X], Union[X, Y])."""
    if isinstance(annotation, (ast.Attribute, ast.Name)):
        return (annotation.attr if isinstance(annotation, ast.Attribute) else annotation.id) == "ndarray"
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _names_an_array(annotation.left) or _names_an_array(annotation.right)
    if isinstance(annotation, ast.Subscript) and ast.unparse(annotation.value).split(".")[-1] in ("Optional", "Union"):
        inner = annotation.slice
        return any(map(_names_an_array, inner.elts if isinstance(inner, ast.Tuple) else [inner]))
    return False


def array_dataclasses(path: Path) -> list[tuple[str, bool]]:
    """(name, compared by value) of each @dataclass class with a field annotated np.ndarray.
    Compared by value means the generated __eq__, which compares the arrays, whose truth value
    is ambiguous: such a class must pass eq=False or define __eq__."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            if ast.unparse(call.func if call else deco).split(".")[-1] != "dataclass":
                continue
            if any(isinstance(stmt, ast.AnnAssign) and _names_an_array(stmt.annotation) for stmt in node.body):
                identity = call is not None and any(
                    kw.arg == "eq" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                    for kw in call.keywords)
                own_eq = any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__eq__" for stmt in node.body)
                found.append((node.name, not identity and not own_eq))
    return found


def test_no_array_dataclass_compares_by_value():
    package = sorted((ROOT / "src" / "herisson").glob("*.py"))
    found = dict(entry for path in package for entry in array_dataclasses(path))
    assert {"Fan", "RingIndex", "Herisson", "CongruenceVerdict", "SolveOutcome"} <= found.keys()
    assert [name for name, by_value in found.items() if by_value] == []


def test_array_dataclasses_compared_by_value_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import dataclasses\nfrom dataclasses import dataclass\nfrom typing import Optional\nimport numpy as np\n\n\n"
        "@dataclass\nclass Plain:\n    a: np.ndarray\n\n\n"
        "@dataclass(frozen=True)\nclass InUnion:\n    a: int\n    b: np.ndarray | None = None\n\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass InOptional:\n    b: Optional[np.ndarray] = None\n\n\n"
        "@dataclass(frozen=True, eq=False)\nclass Identity:\n    a: np.ndarray\n\n\n"
        "@dataclass(eq=True)\nclass OwnEq:\n    a: np.ndarray\n\n"
        "    def __eq__(self, other):\n        return self is other\n\n\n"
        "@dataclass\nclass NoArrays:\n    a: list[int]\n\n\n"
        "class NotADataclass:\n    a: np.ndarray\n"
    )
    assert array_dataclasses(source) == [
        ("Plain", True), ("InUnion", True), ("InOptional", True), ("Identity", False), ("OwnEq", False)]


def cache_mentions(path: Path) -> list[tuple[str, str, bool]]:
    """(class, name, named) of each cached_property of each class in path: named when the class
    docstring holds the name as a whole word, its underscores read as underscores or spaces
    (oriented_areas or "oriented areas")."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        doc = ast.get_docstring(node) or ""
        for stmt in node.body:
            if _is_cached_property(stmt):
                word = r"[_\s]+".join(map(re.escape, stmt.name.split("_")))
                found.append((node.name, stmt.name, re.search(rf"\b{word}\b", doc) is not None))
    return found


def test_class_docstrings_name_every_cache():
    package = sorted((ROOT / "src" / "herisson").glob("*.py"))
    found = [entry for path in package for entry in cache_mentions(path)]
    assert {cls for cls, _name, _named in found} == {"Fan", "Herisson"}
    assert [(cls, name) for cls, name, named in found if not named] == []


def test_caches_missing_from_class_docstrings_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import functools\nfrom functools import cached_property\n\n\n"
        "class Named:\n    \"\"\"Caches ring_index and oriented\n    areas.\"\"\"\n\n"
        "    @cached_property\n    def ring_index(self):\n        return 1\n\n"
        "    @functools.cached_property\n    def oriented_areas(self):\n        return 2\n\n"
        "    @property\n    def plain(self):\n        return 3\n\n\n"
        "class Missing:\n    \"\"\"Holds arcsine and a scaled ring_index_map.\"\"\"\n\n"
        "    @cached_property\n    def arcs(self):\n        return 1\n\n"
        "    @cached_property\n    def scale(self):\n        return 2\n\n"
        "    @cached_property\n    def ring_index(self):\n        return 3\n\n\n"
        "class Bare:\n    @cached_property\n    def value(self):\n        return 1\n"
    )
    assert cache_mentions(source) == [
        ("Named", "ring_index", True), ("Named", "oriented_areas", True),
        ("Missing", "arcs", False), ("Missing", "scale", False), ("Missing", "ring_index", False),
        ("Bare", "value", False)]


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = [(str(path.relative_to(ROOT)), *entry) for path in SOURCES for entry in unused_imports(path)]
    assert found == []


def test_unused_imports_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom a import b, c as d\nfrom e import f\n"
        "__all__ = ['f']\n"
        "np.zeros(d)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "b")]


def test_no_unused_private_functions():
    # a private helper, constant or class that only tests read is dead code in the package
    package = sorted((ROOT / "src" / "herisson").glob("*.py"))
    assert len(package) > 5
    private = [name for path in package for name, _stmt in _private_definitions(ast.parse(path.read_text()))]
    assert {"_PROBE_STRIDES", "_KINDS", "_Abort", "_InputError"} <= set(private)
    assert unused_private_names(package) == []


def test_unused_private_functions_are_found(tmp_path):
    (tmp_path / "a.py").write_text("def _used():\n    pass\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n")
    (tmp_path / "b.py").write_text("import a\n\n\ndef __getattr__(name):\n    return a._used\n")
    assert unused_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [("a.py", "_recursive")]


def test_no_unread_caches_or_ring_fields():
    # a cache or ring array that only tests read is dead code in the package
    package = sorted((ROOT / "src" / "herisson").glob("*.py"))
    names = {name for path in package for name, _stmt in _field_definitions(ast.parse(path.read_text()), {"RingIndex"})}
    assert {"ring_index", "signed_lengths", "first3", "edge_rows", "start"} <= names
    assert unused_fields(package, {"RingIndex"}) == []


def test_unread_caches_and_fields_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from functools import cached_property\n\n\n"
        "class Index:\n    read: int\n    dead: int\n\n\n"
        "class Other:\n    unlisted: int\n\n\n"
        "class Surface:\n    @cached_property\n    def used(self):\n        return self.index.read\n\n"
        "    @cached_property\n    def recursive(self):\n        return self.recursive\n\n"
        "    @cached_property\n    def stored(self):\n        return 1\n\n"
        "    def reset(self, dead, stored):\n        self.stored = stored\n        return dead\n"
    )
    (tmp_path / "b.py").write_text("def f(surface):\n    return surface.used\n")
    assert unused_fields([tmp_path / "a.py", tmp_path / "b.py"], {"Index"}) == [
        ("a.py", "dead"), ("a.py", "recursive"), ("a.py", "stored")]


def test_unused_private_constants_and_classes_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "_READ = 1\n_STORED = _READ\n_TYPED: int = 3\n__dunder__ = 4\n\n\n"
        "class _Raised(Exception):\n    pass\n\n\nclass _Unused(_Raised):\n    pass\n"
    )
    (tmp_path / "b.py").write_text("import a\n\n\ndef f():\n    raise a._Raised(a._TYPED)\n")
    assert unused_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [("a.py", "_STORED"), ("a.py", "_Unused")]


def test_every_tolerance_names_its_unit():
    package = sorted((ROOT / "src" / "herisson").glob("*.py"))
    names = {t.id for path in package for stmt in ast.parse(path.read_text()).body if isinstance(stmt, ast.Assign)
             for t in stmt.targets if isinstance(t, ast.Name)}
    assert {"UNIT_TOL", "CONVEXITY_TOL", "HEMISPHERE_TOL", "AREA_TOL", "CONSISTENCY_SOLVE_TOL", "RANK_CUTOFF"} <= names
    assert [(path.name, *entry) for path in package for entry in bare_tolerances(path)] == []


def test_bare_tolerances_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "A_TOL = 1e-9           # absolute\nB_TOL = 1e-9\nC_TOL = 1e-9  # relative, rule-(iv) equality\n"
        "D_TOL: float = 1e-6  # radians: a gap\nRANK_CUTOFF = 1e-10\nE_TOL = 1e-8  # relative to scale**2\n"
        "F_TOL = 1e-8\n# absolute: on the line before\nOTHER = 1.0\n\n\ndef f():\n    LOCAL_TOL = 1\n"
    )
    assert bare_tolerances(source) == [(2, "B_TOL"), (3, "C_TOL"), (5, "RANK_CUTOFF"), (7, "F_TOL")]


def test_no_small_literal_in_function_bodies():
    package = sorted((ROOT / "src" / "herisson").glob("*.py"))
    assert [(path.name, *entry) for path in package for entry in small_literals(path)] == []


def test_small_literals_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "MODULE_TOL = 1e-9\n\n\nclass Options:\n    tol: float = 1e-10\n\n\n"
        "def f(x, tol=1e-8):\n    y = x + 1e-12 - 1e-4 + 0.0 + 1e-3 + 0\n\n"
        "    def inner():\n        return 5e-7\n\n"
        "    return y, inner, lambda z: z * 2e-6\n"
    )
    assert small_literals(source) == [(9, 1e-12), (9, 1e-4), (12, 5e-7), (14, 2e-6)]
