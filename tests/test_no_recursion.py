"""No function in `src/hatlab` calls itself.

Searches run on explicit stacks so that their depth is limited by memory,
not by the interpreter's recursion limit.  The lint walks each module's AST
and flags every function or closure whose body calls its own name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hatlab"

ALLOWED: set[str] = set()  # no exceptions: every search runs on an explicit stack


def self_calling_functions(tree: ast.AST, prefix: str) -> list[str]:
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                if any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == child.name
                    for call in ast.walk(child)
                ):
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(tree, prefix)
    return found


def test_lint_finds_a_closure_that_calls_itself():
    tree = ast.parse("def outer():\n    def dfs(k):\n        dfs(k + 1)\n    dfs(0)\n")
    assert self_calling_functions(tree, "m") == ["m.outer.dfs"]


def test_no_search_in_src_recurses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += self_calling_functions(ast.parse(path.read_text()), path.stem)
    assert sorted(set(found) - ALLOWED) == []
    assert sorted(ALLOWED - set(found)) == []  # keep the allowlist exact
