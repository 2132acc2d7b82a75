"""Every ``lingua_ray`` module has an importer outside the test suites: a
module that only its own tests import is code the program never runs."""

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
