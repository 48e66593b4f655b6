"""The package namespace: every exported name resolves, none twice; no
module imports a name it never uses; every private helper is used; the
CLI imports no private name; one helper checks integers; and each module
imports only the package modules below it."""

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
    a name whose own line carries ``# noqa: F401`` is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    # `import a.b` binds `a`
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_every_private_name_is_used():
    """Each module-level private name is read somewhere in the package
    outside its own definition, so no duplicate helper outlives its
    callers."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and not any(
                    other == name and (where != module or not node.lineno <= line <= node.end_lineno)
                    for where, line, other in reads
                ):
                    unused.append(f"{module}:{node.lineno}: {name}")
    assert unused == []


def test_cli_imports_no_private_name():
    """The CLI is a view over the public API: it reaches no route through
    an underscore name of another module."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [
        f"cli.py:{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def test_one_integer_rule():
    """``graphs._whole`` is the one integer check: ``operator.index`` is
    called nowhere else, and no ``int(name)`` truncates an argument.  The
    CLI, which parses text, is exempt."""
    calls, truncations = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text())
        owners = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "operator.index":
                calls.append(f"{path.stem}.{owners.get(id(node))}")
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "int" and any(
                    isinstance(arg, ast.Name) for arg in node.args):
                truncations.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert calls == ["graphs._whole"]
    assert truncations == []


def _calls_thread_local(node: ast.AST) -> bool:
    """Whether ``node`` calls ``threading.local`` (or a bare ``local``)."""
    return any(
        isinstance(call, ast.Call) and (
            isinstance(call.func, ast.Attribute) and call.func.attr == "local"
            or isinstance(call.func, ast.Name) and call.func.id == "local")
        for call in ast.walk(node)
    )


def test_no_module_level_caches():
    """Graph-derived tables live on the graph: no module rebinds a global,
    the one module-level weak dict is the vertex-step table, which a pass
    looks up once, and no module keeps a ``threading.local()``, so per-thread
    buffers die with the call that made them instead of staying pinned to
    each thread."""
    rebound, weak, per_thread = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        rebound += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Global)]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [f"{path.stem}.{ast.unparse(t)}" for t in targets]
                if "WeakKeyDictionary" in ast.unparse(node.value):
                    weak += names
                if _calls_thread_local(node.value):
                    per_thread += names
    assert rebound == []
    assert weak == ["orbits._STEP_TABLES"]
    assert per_thread == []


# the package modules each module may import; None: any of them
LAYERS = {
    "graphs": set(),
    "lyndon": {"graphs"},
    "orbits": {"graphs"},
    "quantize": {"graphs"},
    "classify": {"graphs", "orbits"},
    "spectral": {"orbits", "quantize"},
    "cli": None,
    "__init__": None,
}


def _package_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that ``path`` imports, anywhere in it; a name
    imported from the package itself counts as ``__init__`` unless it is a
    module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "qgspectra")
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: from .orbits, or from . import orbits
                parts = (node.module or "").split(".")
            elif (node.module or "").split(".")[0] == "qgspectra":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name if alias.name in modules else "__init__"
                             for alias in node.names)
    return found


def test_module_layering():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert set(LAYERS) == modules
    breaches = [
        f"{module} -> {name}"
        for module, allowed in sorted(LAYERS.items()) if allowed is not None
        for name in sorted(_package_imports(PACKAGE / f"{module}.py", modules) - allowed)
    ]
    assert breaches == []
