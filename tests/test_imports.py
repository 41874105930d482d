"""Every module under src/ and tests/ reads each name it imports."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
# the package's re-exports are read by its importers, not by itself
_REEXPORTS = _ROOT / "src" / "fracimp" / "__init__.py"


def _unused_imports(path: Path) -> list[str]:
    """"<path>:<line> <name>" for each name `path` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(_ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    modules = sorted([*(_ROOT / "src").rglob("*.py"), *(_ROOT / "tests").rglob("*.py")])
    assert modules and _REEXPORTS in modules
    unused = [entry for path in modules if path != _REEXPORTS for entry in _unused_imports(path)]
    assert unused == []
