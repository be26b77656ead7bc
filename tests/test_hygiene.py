"""Source hygiene: no module imports a name it never reads, and no private
helper of the package goes unread."""
import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = sorted(
    os.path.relpath(os.path.join(folder, name), ROOT)
    for folder in (os.path.join(ROOT, "src", "augbias"), os.path.dirname(__file__))
    for name in os.listdir(folder)
    if name.endswith(".py") and name != "__init__.py"
)
PACKAGE = os.path.join(ROOT, "src", "augbias")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by a module-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, including names inside string annotations."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= read_names(ast.parse(node.value, mode="eval"))
    return read


def test_unused_import_scan_sees_its_cases():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
                     "def f(x: 'c') -> None:\n    return np.ones(1)\n")
    unused = set(imported_names(tree)) - read_names(tree)
    assert unused == {"os", "e"}


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_module_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{path} imports names it never reads: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each `_`-prefixed module-level function, class or constant, with its
    line; dunder names such as __all__ are not helpers."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def read_anywhere(trees) -> set[str]:
    """Every name the trees read, bare or as an attribute (`module._name`)."""
    read = set()
    for tree in trees:
        read |= read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return read


def test_private_helper_scan_sees_its_cases():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\n"
                     "def _f(x: '_C'):\n    return _A + x._g()\n"
                     "class _C:\n    pass\n"
                     "def _g():\n    pass\n"
                     "def _h():\n    pass\n")
    unread = set(private_definitions(tree)) - read_anywhere([tree])
    assert unread == {"_B", "_f", "_h"}


def test_every_private_helper_is_read():
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    read = read_anywhere(trees.values())
    unread = {f"{name}:{line} {helper}" for name, tree in trees.items()
              for helper, line in private_definitions(tree).items() if helper not in read}
    assert not unread, f"private helpers nothing in the package reads: {sorted(unread)}"
