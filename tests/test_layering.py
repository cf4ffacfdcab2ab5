"""`hatlab.hat_game` and `hatlab.blockers` import no graph module.

The game side builds its families and blockers by itself, so the suite's
game–graph checks compare two computations that share no code.  The lint
walks each module's AST and reports every import that reaches a graph module,
whether written as ``from .x import …``, ``from . import x``,
``import hatlab.x`` or ``from hatlab.x import …``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hatlab"

GRAPH_MODULES = {f"hatlab.{m}" for m in ("graph_core", "constructions", "hitting_sets", "random_subgraphs")}


def graph_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            base = ".".join(filter(None, ("hatlab" if node.level else "", node.module)))
            # `from hatlab import x` and `from . import x` name submodules
            modules = [f"{base}.{alias.name}" for alias in node.names] if base == "hatlab" else [base]
        else:
            continue
        found += [m for m in modules if ".".join(m.split(".")[:2]) in GRAPH_MODULES]
    return found


def test_lint_finds_graph_imports():
    source = (
        "from .bits import iter_bits\n"
        "from .graph_core import Graph\n"
        "from . import constructions, rng\n"
        "import hatlab.hitting_sets\n"
        "from hatlab.random_subgraphs import alpha_star_star_mc\n"
        "from hatlab import graph_core\n"
        "import hatlab, hatlab.errors\n"
        "def f():\n"
        "    from .constructions import kneser_hypercube\n"
    )
    assert graph_imports(ast.parse(source)) == [
        "hatlab.graph_core",
        "hatlab.constructions",
        "hatlab.hitting_sets",
        "hatlab.random_subgraphs",
        "hatlab.graph_core",
        "hatlab.constructions",
    ]


@pytest.mark.parametrize("module", ("hat_game.py", "blockers.py"))
def test_game_module_imports_no_graph_module(module):
    assert graph_imports(ast.parse((SRC / module).read_text())) == []
