"""The module-level caches in `src/hatlab` are the two listed here.

A cached module-level function keeps its results for the life of the
process, after the call that filled it has returned.  Each one kept on
purpose is named in ``EXPECTED`` (ROADMAP aim 3 gives their bounds); the
lint walks each module's AST and fails on any other function decorated
with ``lru_cache`` or ``cache``, bare, called or ``functools.``-qualified.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hatlab"

EXPECTED = {
    "graph_core._bit_table",
    "rng._lanes",
}


def _is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in ("lru_cache", "cache")
    return isinstance(decorator, ast.Name) and decorator.id in ("lru_cache", "cache")


def cached_functions(tree: ast.Module, module: str) -> set[str]:
    return {
        f"{module}.{node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_cache(d) for d in node.decorator_list)
    }


def test_lint_finds_each_decorator_form():
    tree = ast.parse(
        "import functools\n"
        "@functools.lru_cache(maxsize=1)\ndef a(x): return x\n"
        "@cache\ndef b(x): return x\n"
        "@lru_cache\ndef c(x): return x\n"
        "@functools.cache\ndef d(x): return x\n"
        "@staticmethod\ndef e(x): return x\n"
    )
    assert cached_functions(tree, "m") == {"m.a", "m.b", "m.c", "m.d"}


def test_module_caches_are_the_listed_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= cached_functions(ast.parse(path.read_text()), path.stem)
    assert found == EXPECTED
