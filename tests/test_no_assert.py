"""No `assert` statement in `src/hatlab`.

`python -O` strips assert statements, so a check that the package relies on
must raise explicitly.  The lint walks each module's AST and reports every
assert by module and line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hatlab"


def assert_lines(tree: ast.AST, module: str) -> list[str]:
    return [f"{module}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_lint_finds_a_nested_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0\n")
    assert assert_lines(tree, "m") == ["m:3"]


def test_no_assert_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += assert_lines(ast.parse(path.read_text()), path.stem)
    assert found == []
