"""Per-layer metrics: what the traced run counts at each hatlab boundary.

Names follow ``<module>.<function>.<stat>``.  ``self_s`` is summed span
self time; ``calls`` counts spans; the other counts come from the hooks
below, which read a call's arguments and result.  Rates divide a count by
the function's inclusive (not self) time.
"""

from __future__ import annotations

from hatlab import hat_game
from hatlab.errors import BudgetExceededError

from metricnames import UNITS


def _arg(args: tuple, kwargs: dict, pos: int, key: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _mis(args, kwargs, result, exc, counters):
    counters["graph_core.max_independent_set.vertices"] += _arg(args, kwargs, 0, "G").n
    if isinstance(exc, BudgetExceededError):
        counters["graph_core.budget_nodes"] += exc.nodes


def _enum_max(args, kwargs, result, exc, counters):
    if result is not None:
        counters["graph_core.enumerate_maximum_independent_sets.sets"] += len(result)


def _hitting(args, kwargs, result, exc, counters):
    if result is not None:
        counters["hitting_sets.min_hitting_set.nodes"] += result.nodes
        counters["hitting_sets.min_hitting_set.exact"] += result.exact


def _two_player(args, kwargs, result, exc, counters):
    fam = _arg(args, kwargs, 0, "family")
    budget = _arg(args, kwargs, 1, "budget", hat_game.DEFAULT_TABLE_BUDGET)
    counters["hat_game.exact_value_two_players.tables"] += min(fam.r ** (1 << fam.n), budget)


def _ascent(args, kwargs, result, exc, counters):
    if result is not None:
        counters["hat_game.coordinate_ascent.sweeps"] += len(result[1])


def _verify(args, kwargs, result, exc, counters):
    nodes = result.nodes if result is not None else getattr(exc, "nodes", 0)
    counters["blockers.verify_blocker.nodes"] += nodes


def _mc(args, kwargs, result, exc, counters):
    counters["random_subgraphs.alpha_star_star_mc.samples"] += _arg(args, kwargs, 1, "samples")


HOOKS = {
    "graph_core.max_independent_set": _mis,
    "graph_core.enumerate_maximum_independent_sets": _enum_max,
    "hitting_sets.min_hitting_set": _hitting,
    "hat_game.exact_value_two_players": _two_player,
    "hat_game.coordinate_ascent": _ascent,
    "blockers.verify_blocker": _verify,
    "random_subgraphs.alpha_star_star_mc": _mc,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(by_name: dict, counters: dict) -> dict[str, float]:
    """Every traced per-layer metric of one pass, from span totals and counters.

    The caller adds the metrics that do not come from spans:
    ``graph_core.certified_gap``, ``acceptance.*`` and ``trace.*``.
    """
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out: dict[str, float] = {}
    for name in UNITS:
        head, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and head.count(".") == 1:
            out[name] = by_name.get(head, empty)[stat]
        elif name in counters:
            out[name] = counters[name]
    for stat in ("calls", "self_s"):
        out[f"constructions.{stat}"] = sum(
            row[stat] for fn, row in by_name.items() if fn.startswith("constructions.")
        )

    def total(fn):
        return by_name.get(fn, empty)

    out["hitting_sets.min_hitting_set.exact_ratio"] = _ratio(
        counters.get("hitting_sets.min_hitting_set.exact", 0), total("hitting_sets.min_hitting_set")["calls"]
    )
    out["hat_game.exact_value_two_players.tables_per_s"] = _ratio(
        counters.get("hat_game.exact_value_two_players.tables", 0),
        total("hat_game.exact_value_two_players")["total_s"],
    )
    out["blockers.verify_blocker.nodes_per_call"] = _ratio(
        counters.get("blockers.verify_blocker.nodes", 0), total("blockers.verify_blocker")["calls"]
    )
    out["random_subgraphs.alpha_star_star_mc.samples_per_s"] = _ratio(
        counters.get("random_subgraphs.alpha_star_star_mc.samples", 0),
        total("random_subgraphs.alpha_star_star_mc")["total_s"],
    )
    for name in UNITS:
        out.setdefault(name, 0)
    return out
