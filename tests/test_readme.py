"""Every test that README.md names as ``tests/<file>.py::<Name>`` or
``tests/<file>.py::<Class>::<name>`` is defined there: the file defines the
class or function at top level, and the class defines the method. A test
renamed or deleted without its README mention fails here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = re.compile(r"tests/(\w+\.py)::(\w+)(?:::(\w+))?")


def _defines(body: list[ast.stmt], name: str) -> ast.stmt | None:
    """The class or function named ``name`` among the statements, or None."""
    kinds = (ast.ClassDef, ast.FunctionDef)
    return next((node for node in body if isinstance(node, kinds) and node.name == name), None)


def test_every_test_the_readme_names_is_defined():
    references = REFERENCE.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(references) >= 9
    missing = []
    for path, name, member in references:
        node = _defines(ast.parse((ROOT / "tests" / path).read_text(encoding="utf-8")).body, name)
        if node is None or (member and not (isinstance(node, ast.ClassDef) and _defines(node.body, member))):
            missing.append("::".join(filter(None, (f"tests/{path}", name, member))))
    assert not missing, f"README names tests that are not defined: {missing}"
