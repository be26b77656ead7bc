"""Source hygiene: no module imports a name it never reads."""
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
