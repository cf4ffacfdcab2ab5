"""The four benchmark workloads: seeded inputs, a fixed call list, output checks.

Every workload is a closed loop driven by one caller: the ops run in list
order, each after the previous one returns.  An op resolves the hatlab
function it calls through its module at call time, so a traced run (which
rebinds module attributes) sees the call.

``setup(name, seed)`` builds a workload's inputs and returns its ops.  The
seed only reaches the program as generated inputs: graph seeds, Monte-Carlo
seeds and random restarts.  Budgeted searches are seed-independent, so
``certified_gap`` is the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from hatlab import cli, constructions, graph_core, hat_game, hitting_sets, random_subgraphs
from hatlab.errors import BudgetExceededError

import checks


@dataclass
class Op:
    """One call of the closed loop.

    ``check`` returns None when the result is right, else the reason it is
    wrong.  It runs after the timed loop and may look at other ops' results
    through ``results`` (label -> result).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], str | None]


@dataclass(frozen=True)
class Interval:
    """Certified bounds from a budgeted search; lower == upper when it finished."""

    lower: int
    upper: int


def _seed32(seed: int, k: int) -> int:
    return random.Random(f"{seed}:{k}").getrandbits(32)


# ---------------------------------------------------------------------------
# suite: the full `hatlab suite` battery, as a user runs it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteRun:
    status: int
    records: list
    table: str


def _run_suite() -> SuiteRun:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status, records = cli.run(["suite"], capture=True)
    return SuiteRun(status, records, out.getvalue())


def _check_suite(res: SuiteRun, _results: dict) -> str | None:
    passed = [r for r in res.records if r.get("pass") is True]
    if res.status != 0 or len(res.records) != 13 or len(passed) != 13:
        return f"suite exit {res.status}, {len(passed)}/{len(res.records)} criteria passed"
    if "ALL PASS: 13/13" not in res.table:
        return "suite table does not report ALL PASS: 13/13"
    return None


def _suite(seed: int) -> list[Op]:
    # the battery's inputs are fixed by the program; the seed is unused here
    return [Op("suite", _run_suite, _check_suite)]


# ---------------------------------------------------------------------------
# mis-frontier: few large, deep searches in graph_core and hitting_sets
# ---------------------------------------------------------------------------

BUDGETED = ("mis.K4^2@100k", "mis.K3^3@30k")


def _mis_op(label: str, G, alpha: int | None) -> Op:
    def check(res, _results):
        return checks.mis_result(G, res, alpha)

    return Op(label, lambda: graph_core.max_independent_set(G), check)


def _budgeted_mis(G, budget: int) -> Interval:
    try:
        res = graph_core.max_independent_set(G, budget=budget)
    except BudgetExceededError as exc:
        return Interval(exc.lower_bound, exc.upper_bound)
    return Interval(res.alpha, res.alpha)


def _budgeted_op(label: str, G, budget: int) -> Op:
    def check(res, _results):
        return checks.interval(res, G.n)  # alpha unknown: closing these is the aim

    return Op(label, lambda: _budgeted_mis(G, budget), check)


def _h_op(label: str, G, h: int) -> Op:
    def check(res, _results):
        return checks.hitting_result(G, res, h)

    return Op(label, lambda: hitting_sets.h_of_graph(G), check)


def _mis_frontier(seed: int) -> list[Op]:
    k3 = constructions.kneser_hypercube(3)
    k4 = constructions.kneser_hypercube(4)
    cay = constructions.cayley_distance_graph(6, 1)
    return [
        _mis_op("mis.K6", constructions.kneser_hypercube(6), 32),
        _mis_op("mis.K3^2", constructions.hamming_power(k3, 2), 22),
        _mis_op("mis.cayley6,1", cay, 22),
        _mis_op("mis.gnp100", constructions.random_gnp(100, 0.2, _seed32(seed, 1)), None),
        _mis_op("mis.edgeless1024", graph_core.make_graph(1024, []), 1024),
        _h_op("h.shift4", constructions.shift_graph(4), 5),
        _h_op("h.cayley6,1", cay, 4),
        _budgeted_op(BUDGETED[0], constructions.hamming_power(k4, 2), 100_000),
        _budgeted_op(BUDGETED[1], constructions.hamming_power(k3, 3), 30_000),
    ]


def certified_gap(results: dict) -> int:
    """Sum of upper - lower over the budgeted MIS instances that ran."""
    return sum(r.upper - r.lower for label, r in results.items() if label in BUDGETED)


# ---------------------------------------------------------------------------
# games: two-player table search and coordinate ascent in hat_game
# ---------------------------------------------------------------------------

P2_N3 = Fraction(11, 32)


def _two_player_op(label: str, fam, exact: Fraction | None,
                   budget: int = hat_game.DEFAULT_TABLE_BUDGET) -> Op:
    def call():
        return hat_game.exact_value_two_players(fam, budget=budget)

    def check(res, _results):
        return checks.game_value(fam, res, exact, "exact" if exact is not None else "lower_bound")

    return Op(label, call, check)


def _nested_op(label: str, fam, t: int, seed: int, ceiling: Fraction) -> Op:
    def check(res, _results):
        return checks.game_value(fam, res, None, "lower_bound", ceiling=ceiling)

    return Op(label, lambda: hat_game.nested_lower_bound(fam, t, seed=seed), check)


def _games(seed: int) -> list[Op]:
    fam = {
        (kind, n): hat_game.winning_family(kind, n)
        for kind, n in (("dictator", 3), ("intersecting", 3), ("monotone", 3),
                        ("dictator", 4), ("dictator", 2))
    }
    # a t-player value never exceeds the (t-1)-player one: p(3,3) <= 11/32 and
    # p(4,2) <= p(2,2) = 5/16; every two-player value is at most 3/8
    return [
        _two_player_op("p2.dictator3", fam["dictator", 3], P2_N3),
        _two_player_op("p2.intersecting3", fam["intersecting", 3], P2_N3),
        _two_player_op("p2.monotone3", fam["monotone", 3], P2_N3),
        _two_player_op("p2.dictator4@20k", fam["dictator", 4], None, budget=20_000),
        _nested_op("p3.intersecting3", fam["intersecting", 3], 3, _seed32(seed, 1), P2_N3),
        _nested_op("p3.dictator3", fam["dictator", 3], 3, _seed32(seed, 2), P2_N3),
        _nested_op("p4.dictator2", fam["dictator", 2], 4, _seed32(seed, 3), Fraction(5, 16)),
    ]


# ---------------------------------------------------------------------------
# sampling: many small MIS calls on induced subgraphs, the subset DP, the RNG
# ---------------------------------------------------------------------------


def _edge_k4_union(edges: int, k4s: int, seed: int):
    """Disjoint edges plus disjoint K4 blocks, vertices shuffled by the seed."""
    n = 2 * edges + 4 * k4s
    order = list(range(n))
    random.Random(seed).shuffle(order)
    pairs = [(2 * i, 2 * i + 1) for i in range(edges)]
    base = 2 * edges
    for b in range(k4s):
        block = range(base + 4 * b, base + 4 * b + 4)
        pairs += [(u, v) for u in block for v in block if u < v]
    return graph_core.make_graph(n, [(order[u], order[v]) for u, v in pairs])


def _mc_op(label: str, G, samples: int, seed: int, exact_label: str | None = None,
           exact: Fraction | None = None) -> Op:
    def check(res, results):
        ref = exact if exact_label is None else results[exact_label].estimate
        return checks.mc_estimate(G, res, samples, ref)

    return Op(label, lambda: random_subgraphs.alpha_star_star_mc(G, samples, seed), check)


def _sampling(seed: int) -> list[Op]:
    g15 = constructions.random_gnp(15, 0.3, _seed32(seed, 1))
    g40 = constructions.random_gnp(40, 0.2, _seed32(seed, 2))
    g60 = constructions.random_gnp(60, 0.3, _seed32(seed, 3))
    union = _edge_k4_union(8, 1, _seed32(seed, 4))
    removal_g = constructions.random_gnp(40, 0.2, _seed32(seed, 5))
    threshold = Fraction(1, 3)

    def check_exact(res, _results):
        return checks.exact_alpha_star_star(g15, res)

    def check_margin(res, _results):
        return checks.margin(union, res, Fraction(9, 20))

    def check_removal(res, _results):
        return checks.removal(removal_g, res, 10)

    return [
        _mc_op("mc.edgeless100", graph_core.make_graph(100, []), 2000, _seed32(seed, 6),
               exact=Fraction(1, 2)),
        _mc_op("mc.gnp40", g40, 2000, _seed32(seed, 7)),
        _mc_op("mc.gnp60", g60, 1000, _seed32(seed, 8)),
        Op("exact.gnp15", lambda: random_subgraphs.alpha_star_star_exact(g15), check_exact),
        _mc_op("mc.gnp15", g15, 400, _seed32(seed, 9), exact_label="exact.gnp15"),
        Op("margin.8edges+K4",
           lambda: random_subgraphs.alpha_star_star_margin(union, samples=1500, seed=_seed32(seed, 10)),
           check_margin),
        Op("removal.gnp40",
           lambda: random_subgraphs.removal_trace(removal_g, 10, _seed32(seed, 11), threshold),
           check_removal),
    ]


BUILDERS = {"suite": _suite, "mis-frontier": _mis_frontier, "games": _games, "sampling": _sampling}


def setup(name: str, seed: int) -> list[Op]:
    """Build the inputs of workload ``name`` from ``seed`` and return its ops."""
    return BUILDERS[name](seed)
