"""`tests/oracles.py` imports no solver from `hatlab`.

An oracle that calls the code it checks agrees with it by construction.
The lint walks the oracle module's AST and allows, from `hatlab`, only data
types, constants, errors, the `bits` helpers, `rng.chance` and
`hat_game.best_response` (a test input to the two-player reference
search, not a search under test).  A whole-module import gives access to
everything, so it is refused too.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"

ALLOWED = {
    "hatlab.blockers": {"DEFAULT_VERIFY_BUDGET", "PointTuple", "VerifyResult"},
    "hatlab.errors": {"BudgetExceededError", "CapExceededError"},
    "hatlab.graph_core": {"DEFAULT_ENUM_CAP", "Graph", "VertexSet"},
    "hatlab.hat_game": {"DEFAULT_TABLE_BUDGET", "GameValue", "WinningFamily", "best_response"},
    "hatlab.hitting_sets": {"DEFAULT_HIT_BUDGET", "HittingSetResult"},
    "hatlab.rng": {"chance"},
}


def disallowed_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "hatlab"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hatlab":
            if node.module == "hatlab.bits":
                continue
            allowed = ALLOWED.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in allowed]
    return found


def test_lint_finds_solver_imports():
    source = (
        "import hatlab.graph_core\n"
        "from hatlab.bits import iter_bits\n"
        "from hatlab.graph_core import VertexSet, max_independent_set\n"
        "def f():\n"
        "    from hatlab.hitting_sets import greedy_hitting\n"
    )
    assert disallowed_imports(ast.parse(source)) == [
        "hatlab.graph_core",
        "hatlab.graph_core.max_independent_set",
        "hatlab.hitting_sets.greedy_hitting",
    ]


def test_oracles_import_no_solver():
    assert disallowed_imports(ast.parse(ORACLES.read_text())) == []
