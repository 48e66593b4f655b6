"""The package namespace: every exported name resolves, none twice; and no
module imports a name it never uses."""

import ast
from pathlib import Path

import qgspectra

PACKAGE = Path(qgspectra.__file__).resolve().parent


def test_all_names_resolve_once():
    names = qgspectra.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(qgspectra, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of ``path`` that no name in the module reads;
    an import whose lines carry ``# noqa: F401`` is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []
