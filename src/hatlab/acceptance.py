"""Acceptance battery: one check per shipped claim, exact where stated.

Each criterion is a body returning ``(passed, detail)``, registered with
``_criterion``, which numbers it, times it, applies its time limit and
builds its :class:`CheckResult`; ``ALL_CHECKS`` lists the criteria in
registration order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import product as iter_product
from math import comb, inf
from typing import Callable

from .blockers import (
    blocker_schedule,
    build_ell_tuples,
    lemma_bound,
    lift_blockers,
    pair_blockers,
    verify_blocker,
)
from .constructions import cayley_distance_graph, hamming_power, kneser_hypercube, random_gnp, shift_graph
from .graph_core import (
    Graph,
    enumerate_maximum_independent_sets,
    make_graph,
    max_independent_set,
)
from .hat_game import exact_value_two_players, winning_family, winning_set_of_strategy
from .hitting_sets import covering_code_check, h_of_graph
from .random_subgraphs import (
    alpha_star_star_exact,
    alpha_star_star_margin,
    alpha_star_star_mc,
    hajnal_check,
)
from .rng import randrange, u64


@dataclass(frozen=True)
class CheckResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float


ALL_CHECKS: list[Callable[[], CheckResult]] = []


def _criterion(name: str, limit: float = inf):
    """Register a check body as the next criterion of ``ALL_CHECKS``.

    The body returns ``(passed, detail)``; the criterion also fails unless
    the body took less than ``limit`` seconds.
    """

    def register(body: Callable[[], tuple[bool, str]]) -> Callable[[], CheckResult]:
        cid = len(ALL_CHECKS) + 1

        @wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = body()
            seconds = time.perf_counter() - t0
            return CheckResult(cid, name, passed and seconds < limit, detail, seconds)

        ALL_CHECKS.append(check)
        return check

    return register


# ---------------------------------------------------------------------------
# Shared computations
# ---------------------------------------------------------------------------


def _p2(kind: str, n: int) -> Fraction:
    return exact_value_two_players(winning_family(kind, n)).value


def _alpha_bar_power(n: int, t: int) -> Fraction:
    return max_independent_set(hamming_power(kneser_hypercube(n), t)).alpha_bar


def _certify_level2(n: int, seeds: tuple[int, ...]) -> tuple[int, bool]:
    """Build and verify lifted level-2 blocker families; (count, all passed)."""
    fam = winning_family("dictator", n)
    # measure target forcing two disjoint tuples where the space allows it
    target = None if n == 4 else Fraction(12, 1 << n)
    count = 0
    ok = True
    for seed in seeds:
        lifted = lift_blockers(
            pair_blockers(n), build_ell_tuples(n, 2, seed=seed, target_measure=target)
        )
        for b in lifted.blockers:
            count += 1
            ok &= verify_blocker(b, fam).is_blocker
    return count, ok


def _union_graph(component_edges: list[list[tuple[int, int]]], sizes: list[int], seed: int) -> Graph:
    """Disjoint union of components with vertices shuffled by a seeded permutation."""
    n = sum(sizes)
    order = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates driven by the counter stream
        j = randrange(i + 1, seed, i)
        order[i], order[j] = order[j], order[i]
    edges = []
    base = 0
    for size, comp in zip(sizes, component_edges):
        edges.extend((order[base + u], order[base + v]) for u, v in comp)
        base += size
    return make_graph(n, edges)


def _edge_k4_union(a: int, b: int, seed: int) -> Graph:
    """a disjoint edges plus b disjoint K4 blocks, shuffled."""
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    comps = [[(0, 1)]] * a + [k4] * b
    sizes = [2] * a + [4] * b
    return _union_graph(comps, sizes, seed)


# ---------------------------------------------------------------------------
# Criteria, numbered in the order they are registered
# ---------------------------------------------------------------------------


@_criterion("kneser_alpha_baseline", limit=1.0)
def check_1_kneser_alpha() -> tuple[bool, str]:
    passed = True
    details = []
    for n in range(2, 6):
        res = max_independent_set(kneser_hypercube(n))
        passed &= res.alpha == 1 << (n - 1)
        details.append(f"n={n}:{res.alpha}")
    return passed, "alpha(K(n))=2^(n-1) for n=2..5 [" + " ".join(details) + "]"


@_criterion("game_graph_identity", limit=300.0)
def check_2_game_graph_identity() -> tuple[bool, str]:
    passed = True
    details = []
    for n in (2, 3):
        lhs = _p2("intersecting", n)
        rhs = _alpha_bar_power(n, 2)
        passed &= lhs == rhs
        details.append(f"n={n}:{lhs}={rhs}")
    return passed, "; ".join(details)


@_criterion("power_monotonicity")
def check_3_power_monotonicity() -> tuple[bool, str]:
    seq2 = [_alpha_bar_power(2, t) for t in (1, 2, 3)]
    seq3 = [_alpha_bar_power(3, t) for t in (1, 2)]
    ok2 = all(seq2[i] >= seq2[i + 1] for i in range(len(seq2) - 1))
    ok3 = all(seq3[i] >= seq3[i + 1] for i in range(len(seq3) - 1))
    detail = (
        "K(2) powers " + ">=".join(str(b) for b in seq2)
        + "; K(3) powers " + ">=".join(str(b) for b in seq3)
    )
    return ok2 and ok3, detail


@_criterion("folklore_three_eighths")
def check_4_folklore_bound() -> tuple[bool, str]:
    passed = lemma_bound(Fraction(1, 2), 2, Fraction(1)) == Fraction(3, 8)
    vals = []
    for n in (1, 2, 3):
        v = _p2("dictator", n)
        passed &= v <= Fraction(3, 8)
        vals.append(f"p(2,{n})={v}")
    detail = f"lemma gives 3/8; certified lower bounds for the 2-player limit: {', '.join(vals)}"
    return passed, detail


@_criterion("strict_player_monotonicity")
def check_5_strict_monotonicity() -> tuple[bool, str]:
    passed = True
    details = []
    delta = Fraction(1, (1 << 12) * 144)  # 2^-12 * (1/12) / 12 from the level-2 schedule
    level2 = blocker_schedule(2)[1]
    for n in (1, 2, 3):
        p2 = _p2("dictator", n)
        passed &= p2 < Fraction(1, 2)
        upper3 = lemma_bound(p2, level2.k, level2.beta)
        passed &= upper3 == p2 - delta and upper3 < p2
        details.append(f"n={n}: p(2,n)={p2} < 1/2, upper(3,n)={upper3}")
    # the lemma applies because the level-2 blockers certify (criterion 6 machinery)
    count, certified = _certify_level2(4, (101,))
    passed &= certified
    details.append(f"level-2 blockers certified at n=4 ({count} checked)")
    return passed, "; ".join(details)


def _brute_force_blocker_oracle(n: int) -> list[int]:
    """Winning sets (as masks over B^2, flat x0*N+x1) of all two-player dictator strategies."""
    fam = winning_family("dictator", n)
    tables = list(iter_product(range(fam.r), repeat=1 << n))
    return [winning_set_of_strategy(fam, (t0, t1))[0] for t0 in tables for t1 in tables]


@_criterion("blocker_certification", limit=600.0)
def check_6_blocker_certification() -> tuple[bool, str]:
    passed = True
    details = []
    for n in (4, 5, 6):
        count, ok = _certify_level2(n, (101, 202, 303))
        passed &= ok and count >= 20
        details.append(f"n={n}:{count} certified")
    # verifier agreement against full strategy enumeration at n=2
    oracle_sets = _brute_force_blocker_oracle(2)
    fam = winning_family("dictator", 2)
    candidates = 200
    agree = 0
    seed = 424242
    for c in range(candidates):
        size = 1 + randrange(6, seed, c, 0)
        chosen: list[int] = []
        k = 0
        while len(chosen) < size:
            pick = randrange(16, seed, c, 1, k)
            k += 1
            if pick not in chosen:
                chosen.append(pick)
        amask = sum(1 << p for p in chosen)
        tuples = [(p // 4, p % 4) for p in chosen]
        verdict = verify_blocker(tuples, fam).is_blocker
        brute = all(w & amask for w in oracle_sets)
        agree += verdict == brute
    passed &= agree == candidates
    details.append(f"verifier vs brute force: {agree}/{candidates} agree")
    return passed, "; ".join(details)


@_criterion("schedule_exactness")
def check_7_schedule_exactness() -> tuple[bool, str]:
    sch = blocker_schedule(3)
    expected_k = (2, 12, 32_449_872)
    expected_beta = (Fraction(1), Fraction(1, 12), Fraction(1, 24 * comb(24, 12)))
    passed = all(s.k == k and s.beta == b for s, k, b in zip(sch, expected_k, expected_beta))
    return passed, "; ".join(f"d={s.d}: k={s.k}, beta={s.beta}" for s in sch)


@_criterion("shift_graph_regression", limit=60.0)
def check_8_shift_graph_regression() -> tuple[bool, str]:
    passed = True
    details = []
    for k in (1, 2, 3):
        G = shift_graph(k)
        res = max_independent_set(G)
        sets = enumerate_maximum_independent_sets(G)
        hres = h_of_graph(G)
        passed &= res.alpha == k * k and len(sets) == comb(2 * k, k) and hres.h == k + 1 and hres.exact
        details.append(f"k={k}: alpha={res.alpha}, #max={len(sets)}, h={hres.h}")
    return passed, "; ".join(details)


@_criterion("distance_graph_regression", limit=300.0)
def check_9_distance_graph_regression() -> tuple[bool, str]:
    G = cayley_distance_graph(4, 1)
    res = max_independent_set(G)
    passed = res.alpha == 5
    sets = enumerate_maximum_independent_sets(G)
    balls = set()
    for c in range(16):
        ball = 1 << c
        for j in range(4):
            ball |= 1 << (c ^ (1 << j))
        balls.add(ball)
    passed &= {vs.bits for vs in sets} == balls and len(sets) == 16
    hres = h_of_graph(G)
    code = list(hres.witness.indices())
    passed &= hres.exact and covering_code_check(4, 1, code) and hres.h >= 2
    alpha6 = max_independent_set(cayley_distance_graph(6, 1)).alpha
    passed &= alpha6 == 22
    detail = (
        f"m=4: alpha=5, 16 radius-1 balls are the maximum sets, h={hres.h} "
        f"(covering code ok, h>=2); m=6: alpha={alpha6}"
    )
    return passed, detail


@_criterion("hajnal_property")
def check_10_hajnal_property() -> tuple[bool, str]:
    failures = 0
    total = 0
    for pi, p in enumerate((0.1, 0.2, 0.3, 0.4, 0.5)):
        for g in range(200):
            G = random_gnp(12, p, seed=u64(8600, pi, g) & ((1 << 32) - 1))
            total += 1
            if not hajnal_check(G).passed:
                failures += 1
    detail = f"intersection+union >= 2*alpha on {total} G(12,p) samples, {failures} failures"
    return failures == 0, detail


@_criterion("alpha_star_star_oracles")
def check_11_alpha_star_star_oracles() -> tuple[bool, str]:
    single_edge = make_graph(2, [(0, 1)])
    edgeless = make_graph(6, [])
    passed = alpha_star_star_exact(single_edge).estimate == Fraction(3, 8)
    passed &= alpha_star_star_exact(edgeless).estimate == Fraction(1, 2)
    graphs = 50
    agree = 0
    for g in range(graphs):
        n = 6 + g % 7  # sizes 6..12
        p = 0.15 + 0.05 * (g % 5)
        G = random_gnp(n, p, seed=u64(1100, g) & ((1 << 32) - 1))
        exact = alpha_star_star_exact(G).estimate
        mc = alpha_star_star_mc(G, samples=400, seed=2000 + g)
        if abs(float(mc.estimate) - float(exact)) <= 5.0 * mc.stderr:
            agree += 1
    passed &= agree == graphs
    return passed, f"edge=3/8, edgeless=1/2 exact; MC within 5 stderr on {agree}/{graphs} graphs"


MARGIN_CORPUS = (
    (1, 4), (1, 3), (1, 2), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (8, 1),
    (2, 3), (3, 2), (2, 2), (4, 2), (5, 2), (3, 3), (7, 1), (6, 2), (4, 3), (5, 3),
)


@_criterion("margin_bound")
def check_12_margin_bound() -> tuple[bool, str]:
    passed = True
    worst = None
    for idx, (a, b) in enumerate(MARGIN_CORPUS):
        G = _edge_k4_union(a, b, seed=7000 + idx)
        rep = alpha_star_star_margin(G, samples=1500, seed=7500 + idx)
        low, high = Fraction(1, 50), Fraction(1, 5)
        passed &= low <= rep.tau <= high and rep.passed
        gap = float(rep.bound) - float(rep.estimate)
        if worst is None or gap < worst[0]:
            worst = (gap, a, b, rep.mode)
    detail = (
        f"{len(MARGIN_CORPUS)} graphs with tau in [0.02,0.2] all meet the bound; "
        f"smallest slack {worst[0]:.4f} at (edges={worst[1]}, K4s={worst[2]}, {worst[3]})"
    )
    return passed, detail


DETERMINISM_COMMANDS = (
    ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1", "--seed", "5"],
    ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "2", "--seed", "9"],
    ["hatgame", "--kind", "intersecting", "--players", "3", "--hats", "2", "--seed", "3"],
    ["blockers", "build", "--bits", "4", "--seed", "3"],
    ["blockers", "build", "--bits", "5", "--seed", "11"],
    ["blockers", "build", "--bits", "6", "--seed", "7", "--verify"],
    ["subgraph", "alphastarstar", "--construct", "gnp:40,0.2,3", "--mc", "--samples", "200", "--seed", "2"],
    ["subgraph", "alphastarstar", "--construct", "gnp:10,0.4,5", "--mc", "--samples", "300", "--seed", "8"],
    ["subgraph", "t16", "--construct", "gnp:14,0.62,19"],
    ["alpha", "--construct", "gnp:25,0.3,21"],
)


def _strip_volatile(records: list[dict]) -> list[dict]:
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("wall_ms", None)
        rec.pop("argv", None)
        out.append(rec)
    return out


@_criterion("determinism_replay")
def check_13_determinism() -> tuple[bool, str]:
    from .cli import run as cli_run

    matched = 0
    for cmd in DETERMINISM_COMMANDS:
        status_a, rec_a = cli_run(cmd, capture=True)
        status_b, rec_b = cli_run(cmd, capture=True)
        matched += status_a == status_b == 0 and _strip_volatile(rec_a) == _strip_volatile(rec_b)
    detail = f"{matched}/{len(DETERMINISM_COMMANDS)} seeded commands bit-identical across two runs"
    return matched == len(DETERMINISM_COMMANDS), detail
