import ast
from pathlib import Path

import groverlab

ROOT_NAMES = {
    "__version__",
    "DegeneratePlaneError",
    "OrthogonalStartError",
    "SearchProblem",
    "CHECK_NAMES",
    "CheckReport",
    "SweepResult",
    "run_sweep",
    "to_csv",
    "to_json",
}

#: public names the package keeps although no other line of it uses them:
#: the paper's quadratic series of t0, tested against t0
UNUSED_KEPT = {"t0_series"}

SRC = Path(groverlab.__file__).parent


def test_root_exports_the_reproduction_names():
    for name in ROOT_NAMES:
        assert hasattr(groverlab, name), name
    assert groverlab.__version__ == "0.1.0"


def public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public top-level function, class
    and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def test_every_public_name_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, module, node.lineno))
    root = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for module, tree in trees.items():
        for name, first, last in public_definitions(tree):
            used = any(
                used_name == name and not (used_module == module and first <= line <= last)
                for used_name, used_module, line in uses
            )
            if not (used or name in root or name in UNUSED_KEPT):
                unused.append(f"{module}: {name}")
    assert unused == []
