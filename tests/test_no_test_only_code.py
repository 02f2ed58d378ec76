"""Every top-level function and class in ``src/recaudit``, and every method
that is not a dunder, is referenced by the program or its benchmark: by a
name, an attribute, an import, or a dotted name string (the benchmark's
tracer wraps functions named that way). A definition that only the tests
reach is dead weight; wire it into the pipeline or delete it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "recaudit"

ALLOWED = {
    # The reference the finite-difference gradient check differentiates: it
    # runs the SGD step's own forward pass, so the check tests training.
    "loss_and_grads",
}


def _definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return names


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(node.value.split("."))
    return refs


def _unreferenced() -> dict[str, str]:
    """Name -> module of each definition in the package that neither the
    package nor the benchmark references."""
    program = sorted(PACKAGE.glob("*.py"))
    defined, referenced = {}, set()
    for path in [*program, *sorted((ROOT / "perfbench").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree)
        if path in program:
            defined.update(dict.fromkeys(_definitions(tree), path.name))
    return {name: module for name, module in defined.items() if name not in referenced}


def test_every_definition_is_used_outside_the_tests():
    unused = sorted(f"{module}: {name}" for name, module in _unreferenced().items() if name not in ALLOWED)
    assert not unused, f"defined in src/recaudit but referenced only by tests: {unused}"


def test_the_allowlist_holds_only_unreferenced_definitions():
    # An allowed name that the program has since started to use, or that was
    # deleted, no longer needs its exemption.
    assert ALLOWED <= _unreferenced().keys()
