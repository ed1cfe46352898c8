"""The package namespace lists only names that exist, and no source file
imports a name it never uses (checked on the syntax tree, so the suite needs
no linter)."""

import ast
import pathlib

import siltcheck

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = (sorted((ROOT / "src" / "siltcheck").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def test_every_exported_name_resolves():
    assert [n for n in siltcheck.__all__ if not hasattr(siltcheck, n)] == []


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of every name an import binds that is never read, either
    as a name, as the root of an attribute chain or as an entry of __all__."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): _unused_imports(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}
