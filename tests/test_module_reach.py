"""Every ``lingua_ray`` module has an importer outside the test suites,
every public top-level function and class is referenced by the program,
and so is every private top-level function, class and constant of
``lingua_ray`` and ``__ray_entry__.py``: a module or name that only its
own tests use is code the program never runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [ROOT / "lingua_ray", ROOT / "__ray_entry__.py", ROOT / "tools",
           ROOT / "bench.py", ROOT / "perfbench"]


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _program_files():
    for base in PROGRAM:
        for path in ([base] if base.is_file() else sorted(base.rglob("*.py"))):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _imported_names(path: Path) -> set[str]:
    """Dotted names an ``import`` in ``path`` loads, with every parent
    package and, for ``from pkg import name``, ``pkg.name`` too (it is a
    module when ``name`` is one)."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            targets = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            names.update(".".join(parts[:i + 1]) for i in range(len(parts)))
    return names


def test_every_lingua_ray_module_has_a_program_importer():
    modules = {_module_name(p): p for p in (ROOT / "lingua_ray").rglob("*.py")}
    imported = set()
    for path in _program_files():
        imported |= _imported_names(path) - {_module_name(path)}
    unreached = sorted(m for m in modules
                       if m != "lingua_ray" and m not in imported)
    assert unreached == [], f"no importer outside tests/: {unreached}"


# Names that only tests use (qualified name -> the test that does).
# Each is a candidate for deletion; none may join without a reason.
TEST_ONLY = {
    "lingua_ray.pipelines.accuracy.write_report":
        "tests/test_accuracy_pipeline.py",
    "lingua_ray.stages.dedup.jaccard": "tests/test_dedup_ann.py",
    "lingua_ray.stages.dedup_index.append_to_index":
        "tests/test_dedup_index.py",
    "lingua_ray.stages.dedup_index.append_to_minhash_index":
        "tests/test_dedup_index.py",
    # the scalar reference that fingerprint64_array is checked against
    # (tests/test_dedup_ann.py compares them too): safety code, kept
    "lingua_ray.functions.textstats._fingerprint64": "tests/test_property.py",
}


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or the
    plain-name targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
               else stmt.targets if isinstance(stmt, ast.Assign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _referenced_names() -> set[str]:
    """Every name a program file loads, reads as an attribute or imports,
    outside the top-level statement that defines it: a recursive call or
    a constant's own assignment is not a use.  A re-export in a package
    ``__init__.py`` is not a use either: it would keep a name that
    nothing calls looking referenced."""
    names = set()
    for path in _program_files():
        reexports = path.name == "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) \
                        and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    used.add(node.name.rpartition(".")[2])
            names |= used - set(_defined_names(stmt))
    return names


def _unreached(paths, wanted) -> set[str]:
    """Qualified top-level names in ``paths`` that ``wanted(stmt, name)``
    selects and no program file references."""
    referenced = _referenced_names()
    return {f"{_module_name(path)}.{name}"
            for path in paths
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
            for name in _defined_names(stmt)
            if wanted(stmt, name) and name not in referenced}


def _check_test_only(unreached: set[str], private: bool):
    expected = {n for n in TEST_ONLY
                if n.rpartition(".")[2].startswith("_") == private}
    assert sorted(unreached - expected) == [], \
        "referenced nowhere outside its own definition"
    assert sorted(expected - unreached) == [], \
        "now referenced by the program (or deleted): drop from TEST_ONLY"
    for name in expected:
        short = name.rpartition(".")[2]
        assert short in (ROOT / TEST_ONLY[name]).read_text(encoding="utf-8"), \
            name


def test_every_public_lingua_ray_function_is_referenced():
    def public_def(stmt, name):
        return (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                and not name.startswith("_"))

    _check_test_only(_unreached(sorted((ROOT / "lingua_ray").rglob("*.py")),
                                public_def), private=False)


def test_every_private_top_level_name_is_referenced():
    """Private functions, classes and module-level constants too: a helper
    or constant left behind when its last caller is deleted is dead."""
    def private(stmt, name):
        return name.startswith("_") and not name.startswith("__")

    paths = sorted((ROOT / "lingua_ray").rglob("*.py")) \
        + [ROOT / "__ray_entry__.py"]
    _check_test_only(_unreached(paths, private), private=True)


def test_program_uses_no_private_dataset_attributes():
    """No program file reaches into ``ray.data.Dataset`` internals: a private
    attribute can change or vanish in any Ray release."""
    import ray.data

    private = {a for a in dir(ray.data.Dataset)
               if a.startswith("_") and not a.startswith("__")}
    private |= {"_logical_plan", "_plan"}
    hits = [f"{path.relative_to(ROOT)}:{node.lineno} .{node.attr}"
            for path in _program_files()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in private]
    assert hits == [], f"private Ray Dataset attributes: {hits}"
