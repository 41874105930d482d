"""Every module under src/ and tests/ reads each name it imports, and every top-level
name that src/ defines is read somewhere in src/."""

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


def _top_level_names(tree: ast.Module) -> dict[str, int]:
    """Each function, class and assigned name at the top of a module, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:  # `a, *b = ...` binds both
                names.update((sub.id, node.lineno) for sub in ast.walk(target)
                             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store))
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Each name a module reads: loaded by name, as an attribute or in an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_top_level_name_in_src_is_read_in_src():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((_ROOT / "src").rglob("*.py"))}
    assert trees and _REEXPORTS in trees
    public = next(ast.literal_eval(node.value) for node in trees[_REEXPORTS].body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    read = set().union(*map(_read_names, trees.values()))
    orphans = [f"{path.relative_to(_ROOT)}:{line} {name}" for path, tree in trees.items()
               for name, line in _top_level_names(tree).items()
               if name not in read and name not in public and not name.startswith("__")]
    assert orphans == []
