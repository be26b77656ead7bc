"""Source hygiene: no module imports a name it never reads, no private
helper of the package goes unread, and every public function and class of
the package is reached from outside its own definition."""
import ast
import glob
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
# Code outside the package that calls into it: the per-call bench and the
# benchmark harness.
CALLERS = [os.path.join(ROOT, "bench", "step_costs.py"),
           *sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))]

# Public definitions that nothing reaches yet, each with why it stays.
UNREACHED_PUBLIC = {
    "estimate_delta_y": "to be wired into the set-up, so a summary reports the measured label bias",
    "estimate_delta_P": "to be wired into the set-up, so a summary reports the measured input shift",
    "bias_radius": "the label-bias constraint-set radius, for the restricted-curvature criterion",
    "shift_radius": "the input-shift constraint-set radius, for the restricted-curvature criterion",
    "in_constraint_set": "the constraint-set test that theory mode is to run on its iterates",
    "bound_report": "the bound check that theory mode is to write into every summary",
    "read_trace_csv": "the public reader of the files write_trace_csv writes",
}


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


def parse(path) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def package_trees() -> list[ast.Module]:
    return [parse(os.path.join(PACKAGE, name)) for name in sorted(os.listdir(PACKAGE))
            if name.endswith(".py") and name != "__init__.py"]


def unreached_public(trees, callers) -> set[str]:
    """Public module-level functions and classes of `trees` that no other
    module-level statement of `trees` reads and no tree in `callers` reads.
    Imports are not reads, and a definition's reads of its own name do not
    count, so a function that only calls itself is unreached."""
    statements = [node for tree in trees for node in tree.body]
    reads = [(node, read_anywhere([node])) for node in statements]
    outside = read_anywhere(callers)
    return {node.name for node in statements
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in outside
            and not any(node.name in read for other, read in reads if other is not node)}


def test_public_definition_scan_sees_its_cases():
    tree = ast.parse("def f(n):\n    return f(n - 1) + g()\n"
                     "def g():\n    pass\n"
                     "def h():\n    pass\n"
                     "class C:\n    pass\n"
                     "TABLE = {'c': C}\n"
                     "def _p():\n    pass\n")
    caller = ast.parse("import m\nm.h()\n")
    assert unreached_public([tree], [caller]) == {"f"}


def test_every_public_definition_is_reached():
    unreached = unreached_public(package_trees(), [parse(path) for path in CALLERS])
    assert unreached == set(UNREACHED_PUBLIC), (
        f"unreached and not allowed: {sorted(unreached - set(UNREACHED_PUBLIC))}; "
        f"allowed but now reached: {sorted(set(UNREACHED_PUBLIC) - unreached)}")


# Methods whose signature a protocol fixes, so a parameter may go unread.
PROTOCOL_METHODS = {"__exit__"}


def unread_parameters(tree: ast.Module) -> set[str]:
    """`function(parameter)` for every parameter of every function or method
    in the tree that the function's body never reads, nested functions
    included; protocol methods are exempt."""
    unread = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in PROTOCOL_METHODS:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread |= {f"{node.name}({p.arg})" for p in params if p.arg not in read}
    return unread


def test_unread_parameter_scan_sees_its_cases():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + g(*c)\n"
                     "def g(x):\n    def h():\n        return x\n    return h\n"
                     "class C:\n    def m(self, y):\n        y = 1\n        return self\n"
                     "    def __exit__(self, *exc):\n        pass\n")
    assert unread_parameters(tree) == {"f(b)", "f(d)", "f(e)", "m(y)"}


def test_every_parameter_is_read():
    unread = {f"{os.path.basename(tree_path)}: {name}"
              for tree_path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
              for name in unread_parameters(parse(tree_path))}
    assert not unread, f"parameters their function never reads: {sorted(unread)}"
