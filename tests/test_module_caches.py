"""The caches in `src/hatlab` are the two module-level ones listed here.

A cached module-level function keeps its results for the life of the
process, after the call that filled it has returned.  Each one kept on
purpose is named in ``EXPECTED`` (ROADMAP aim 3 gives their bounds).  A
cache built by a call, or on a nested function or a method, is easy to
miss in review, so the lint walks each module's whole AST and reports
every use of ``lru_cache`` or ``cache`` (bare or ``functools.``-qualified,
or imported under another name): one decorating a module-level function by
that function's name, any other by its line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hatlab"

EXPECTED = {
    "graph_core._bit_table",
    "rng._lanes",
}

CACHES = ("lru_cache", "cache")


def _is_cache(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in CACHES
    if isinstance(node, ast.alias):
        return node.name in CACHES and node.asname is not None
    return isinstance(node, ast.Name) and node.id in CACHES


def cache_uses(tree: ast.Module, module: str) -> set[str]:
    named = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                named[id(decorator)] = f"{module}.{node.name}"
    return {named.get(id(node), f"{module}:{node.lineno}") for node in ast.walk(tree) if _is_cache(node)}


def test_lint_finds_each_decorator_form():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache, partial\n"
        "@functools.lru_cache(maxsize=1)\ndef a(x): return x\n"  # lines 3-4
        "@cache\ndef b(x): return x\n"
        "@lru_cache\ndef c(x): return x\n"
        "@functools.cache\ndef d(x): return x\n"
        "@staticmethod\ndef e(x): return x\n"  # lines 11-12
        "def f(x):\n"
        "    g = lru_cache(maxsize=None)(partial(a, x))\n"  # line 14: built by a call
        "    h = functools.cache(b)\n"  # line 15
        "    @lru_cache\n"  # line 16: a nested function
        "    def i(y): return y\n"
        "    return g, h, i\n"
        "class K:\n"
        "    @functools.lru_cache\n"  # line 20: a method
        "    def j(self): return 1\n"
        "from functools import cache as memo\n"  # line 22: another name
    )
    assert cache_uses(tree, "m") == {
        "m.a", "m.b", "m.c", "m.d", "m:14", "m:15", "m:16", "m:20", "m:22",
    }


def test_module_caches_are_the_listed_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= cache_uses(ast.parse(path.read_text()), path.stem)
    assert found == EXPECTED
