import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from hatlab import random_subgraphs
from hatlab.acceptance import MARGIN_CORPUS, _edge_k4_union
from hatlab.bits import iter_bits
from hatlab.constructions import kneser_hypercube, random_gnp
from hatlab.errors import SizeLimitError
from hatlab.graph_core import (
    VertexSet,
    induced_subgraph,
    make_graph,
    max_independent_set,
    subset_alpha,
)
from hatlab.hat_game import best_response, winning_family
from hatlab.random_subgraphs import (
    EXACT_SUBSET_GUARD,
    Estimate,
    alpha_star_star_exact,
    alpha_star_star_margin,
    alpha_star_star_mc,
    exact_components,
    hajnal_check,
    partition_bound_eval,
    removal_trace,
)

from hatlab.rng import coin_mask, randrange

from oracles import brute_alpha, brute_alpha_star_star, dp_alpha_star_star

C5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
SINGLE_EDGE = make_graph(2, [(0, 1)])


def k4_block(base):
    return [(base + i, base + j) for i in range(4) for j in range(i + 1, 4)]


# -- exact alpha** -----------------------------------------------------------


def test_exact_single_edge():
    assert alpha_star_star_exact(SINGLE_EDGE).estimate == Fraction(3, 8)


def test_exact_edgeless_is_half():
    for n in (1, 4, 9):
        assert alpha_star_star_exact(make_graph(n, [])).estimate == Fraction(1, 2)


def test_exact_matches_independent_oracle():
    graphs = [C5, make_graph(4, k4_block(0)), random_gnp(8, 0.4, seed=3), random_gnp(10, 0.25, seed=4)]
    for G in graphs:
        assert alpha_star_star_exact(G).estimate == brute_alpha_star_star(G)


def test_exact_guard():
    # the guard bounds the largest loop-free component, not n
    G = random_gnp(16, 0.9, seed=1)
    assert exact_components(G) is None and exact_components(G, guard=16) == [(1 << 16) - 1]
    with pytest.raises(SizeLimitError):
        alpha_star_star_exact(G)
    # overridable
    assert alpha_star_star_exact(G, guard=16).estimate == dp_alpha_star_star(G)
    sparse = random_gnp(16, 0.1, seed=1)
    assert alpha_star_star_exact(sparse).estimate == dp_alpha_star_star(sparse)
    with pytest.raises(SizeLimitError):
        alpha_star_star_exact(sparse, guard=max(map(int.bit_count, exact_components(sparse))) - 1)


@pytest.mark.parametrize("edges, k4s", ((0, 4), (3, 3), (4, 3)))
def test_exact_edge_k4_unions_past_the_table_match_dp_oracle(edges, k4s):
    G = _edge_k4_union(edges, k4s, seed=edges + 10 * k4s)
    assert G.n > EXACT_SUBSET_GUARD
    assert alpha_star_star_exact(G).estimate == dp_alpha_star_star(G)


def test_exact_takes_components_on_the_loop_free_part():
    # K(4): the all-ones word's one neighbour is the looped all-zero word,
    # so the loop-free part splits 14 + 1
    K = kneser_hypercube(4)
    assert sorted(map(int.bit_count, exact_components(K))) == [1, 14]
    assert alpha_star_star_exact(K).estimate == dp_alpha_star_star(K)
    # two 8-vertex blocks (a cycle and chords) joined only through a looped vertex
    block = [(v, (v + 1) % 8) for v in range(8)] + random_gnp(8, 0.4, seed=3).edges()
    edges = block + [(u + 8, v + 8) for u, v in block] + [(16, 16), (16, 0), (16, 8)]
    G = make_graph(17, edges)
    assert exact_components(G) == [0xFF, 0xFF00]
    assert alpha_star_star_exact(G).estimate == dp_alpha_star_star(G)
    # every vertex looped: no component, alpha(G[W]) = 0
    assert alpha_star_star_exact(make_graph(20, [(v, v) for v in range(20)])).estimate == 0


def test_exact_on_thousands_of_components():
    n = 4096
    assert alpha_star_star_exact(make_graph(n, [])).estimate == Fraction(1, 2)
    res = alpha_star_star_exact(make_graph(n, [(v, v + 1) for v in range(0, n, 2)]))
    assert (res.estimate, res.samples) == (Fraction(3, 8), 1 << n)


def test_subset_table_dies_with_its_graph():
    # the table of 2^n alphas is kept with the graph, not in a module cache
    G = random_gnp(12, 0.3, seed=5)
    first = alpha_star_star_exact(G).estimate
    assert alpha_star_star_exact(G).estimate == first
    dead = weakref.ref(G)
    del G
    gc.collect()
    assert dead() is None


def test_alpha_star_star_never_exceeds_alpha_bar():
    for seed in range(6):
        G = random_gnp(10, 0.3, seed=seed)
        assert alpha_star_star_exact(G).estimate <= max_independent_set(G).alpha_bar


# -- Monte-Carlo -------------------------------------------------------------


def test_mc_edgeless_large():
    res = alpha_star_star_mc(make_graph(100, []), samples=10_000, seed=17)
    assert abs(float(res.estimate) - 0.5) <= 5 * res.stderr


def test_mc_agrees_with_exact():
    for seed in range(5):
        G = random_gnp(9 + seed, 0.3, seed=100 + seed)
        exact = float(alpha_star_star_exact(G).estimate)
        mc = alpha_star_star_mc(G, samples=600, seed=seed)
        assert abs(float(mc.estimate) - exact) <= 5 * mc.stderr


def test_mc_single_sample_support():
    G = C5
    res = alpha_star_star_mc(G, samples=1, seed=9)
    assert res.stderr == 0.0
    assert float(res.estimate) in {k / 5 for k in range(3)}


def test_mc_deterministic():
    G = random_gnp(30, 0.2, seed=5)
    a = alpha_star_star_mc(G, samples=50, seed=8)
    b = alpha_star_star_mc(G, samples=50, seed=8)
    assert a == b
    c = alpha_star_star_mc(G, samples=50, seed=9)
    assert a != c


# -- Hajnal ------------------------------------------------------------------


def test_hajnal_star():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    rep = hajnal_check(star)
    assert rep.alpha == 3
    assert rep.intersection.bits == 0b1110 and rep.union.bits == 0b1110
    assert rep.passed


def test_hajnal_c5():
    rep = hajnal_check(C5)
    assert rep.intersection_size == 0 and rep.union_size == 5 and rep.alpha == 2
    assert rep.passed


def test_hajnal_random_corpus():
    for seed in range(50):
        assert hajnal_check(random_gnp(12, 0.3, seed=3000 + seed)).passed


def test_hajnal_large_alpha_consequence():
    # alpha > n/2 forces at least (2*alpha - n) vertices common to all optima
    for seed in range(10):
        G = random_gnp(12, 0.12, seed=500 + seed)
        rep = hajnal_check(G)
        if 2 * rep.alpha > G.n:
            assert rep.intersection_size >= 2 * rep.alpha - G.n


# -- removal process ---------------------------------------------------------


def test_removal_complete_graph():
    K5 = make_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    tr = removal_trace(K5, 1, seed=3, threshold=Fraction(0))
    assert [s.alpha for s in tr.steps] == [1, 1, 1, 1]
    assert not any(s.successful for s in tr.steps)


def test_removal_edgeless_always_drops():
    tr = removal_trace(make_graph(6, []), 3, seed=5, threshold=Fraction(0))
    assert [s.alpha for s in tr.steps] == [5, 4, 3]
    assert all(s.successful for s in tr.steps)


def test_removal_threshold_marks_success():
    K5 = make_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    tr = removal_trace(K5, 3, seed=3, threshold=Fraction(1, 2))
    assert all(s.successful for s in tr.steps)  # alpha=1 < 5/2 before each step


def test_removal_invariants():
    for seed in range(5):
        G = random_gnp(12, 0.3, seed=700 + seed)
        tr = removal_trace(G, 4, seed=seed, threshold=Fraction(1, 4))
        alphas = [tr.alpha_initial] + [s.alpha for s in tr.steps]
        assert all(a >= b >= a - 1 for a, b in zip(alphas, alphas[1:]))
        assert len(tr.steps) == G.n - 4
        removed = [s.removed_vertex for s in tr.steps]
        assert len(set(removed)) == len(removed)
        for prev_alpha, step in zip(alphas, tr.steps):
            expect = prev_alpha < Fraction(1, 4) * G.n or step.alpha < prev_alpha
            assert step.successful == expect


def test_removal_deterministic():
    G = random_gnp(10, 0.3, seed=2)
    assert removal_trace(G, 2, seed=4, threshold=Fraction(0)) == removal_trace(
        G, 2, seed=4, threshold=Fraction(0)
    )


# -- margin check ------------------------------------------------------------


def test_margin_triangles():
    tri3 = make_graph(
        9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8)]
    )
    rep = alpha_star_star_margin(tri3)
    assert rep.alpha_bar == Fraction(1, 3) and rep.tau == Fraction(1, 12)
    assert rep.bound == Fraction(1, 3) - Fraction(1, 432)
    assert rep.mode == "exact" and rep.passed


def test_margin_rejects_low_ratio():
    K5 = make_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(ValueError):
        alpha_star_star_margin(K5)


def test_margin_rejects_high_ratio():
    with pytest.raises(ValueError):
        alpha_star_star_margin(SINGLE_EDGE)  # alpha_bar = 1/2


def test_margin_mc_mode_for_large_graphs():
    # one edge plus four K4 blocks: n=18, alpha=5, tau=1/36, each component
    # within the exact guard
    G = make_graph(18, [(0, 1)] + k4_block(2) + k4_block(6) + k4_block(10) + k4_block(14))
    rep = alpha_star_star_margin(G, samples=400, seed=11)
    assert rep.alpha_bar == Fraction(5, 18) and rep.tau == Fraction(1, 36)
    assert (rep.mode, rep.estimate, rep.samples) == ("exact", Fraction(1, 4), 1 << 18)
    assert rep.passed
    # a connected graph past the guard is sampled
    G = random_gnp(16, 0.5, seed=1)
    rep = alpha_star_star_margin(G, samples=400, seed=11)
    assert (rep.mode, rep.samples, rep.alpha_bar) == ("monte_carlo", 400, Fraction(5, 16))
    assert rep.passed


# -- partition bound ---------------------------------------------------------


def test_partition_single_part_gives_half_alpha_bar():
    G = C5
    res = partition_bound_eval(G, [VertexSet(5, 0b11111)])
    assert res.mode == "exact"
    assert res.estimate == max_independent_set(G).alpha_bar / 2


def test_partition_singletons_reproduce_alpha_star_star():
    for seed in (1, 2):
        G = random_gnp(9, 0.35, seed=seed)
        parts = [VertexSet.from_indices(9, [v]) for v in range(9)]
        assert partition_bound_eval(G, parts) == alpha_star_star_exact(G)
        res = partition_bound_eval(G, parts, samples=300, seed=seed, mode="monte_carlo")
        assert res == alpha_star_star_mc(G, samples=300, seed=seed)


def test_exact_partition_bound_pinned_past_subset_guard():
    # n > EXACT_SUBSET_GUARD, so every union is searched rather than read
    # from the subset table; the empty part makes each union occur twice
    G = random_gnp(18, 0.3, seed=4)
    parts = [VertexSet.from_indices(18, range(i, 18, 5)) for i in range(5)] + [VertexSet(18, 0)]
    res = partition_bound_eval(G, parts, mode="exact")
    assert (res.samples, res.mode, res.estimate) == (1 << 6, "exact", Fraction(9, 32))


def test_partition_rv_sampler_matches_best_response_value():
    # two-player game at n=2: the four preimage partitions of any fixed
    # player-1 table realize the averaged best-response value exactly
    from hatlab.constructions import kneser_hypercube

    fam = winning_family("dictator", 2)
    G = kneser_hypercube(2)
    for g2 in ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1)):
        masks = [0] * fam.r
        for x1, g in enumerate(g2):
            masks[g] |= 1 << x1
        parts = [VertexSet(4, m) for m in masks]
        res = partition_bound_eval(G, parts, fam)
        _, value = best_response(fam, g2)
        assert res.estimate == value


def test_partition_mc_with_a_family_is_the_mean_over_its_point_draws():
    # sample s draws the point randrange(2^n, seed, s) of the family's cube;
    # the union of the parts of the sets holding it is scored by brute force
    G = random_gnp(12, 0.3, seed=17)
    for kind, seed in (("dictator", 3), ("intersecting", 4)):
        fam = winning_family(kind, 3)
        parts = [VertexSet.from_indices(12, range(i, 12, fam.r)) for i in range(fam.r)]
        total = 0
        for s in range(200):
            x = randrange(1 << fam.n, seed, s)
            W = sum(part.bits for part, members in zip(parts, fam.sets) if members >> x & 1)
            total += brute_alpha(induced_subgraph(G, VertexSet(12, W))) if W else 0
        res = partition_bound_eval(G, parts, fam, samples=200, seed=seed, mode="monte_carlo")
        assert (res.mode, res.samples, res.estimate) == ("monte_carlo", 200, float(Fraction(total, 12 * 200)))


def test_partition_mc_agrees_with_exact():
    G = random_gnp(10, 0.3, seed=21)
    parts = [VertexSet.from_indices(10, [2 * i, 2 * i + 1]) for i in range(5)]
    exact = partition_bound_eval(G, parts, mode="exact")
    mc = partition_bound_eval(G, parts, mode="monte_carlo", samples=800, seed=5)
    assert abs(float(mc.estimate) - float(exact.estimate)) <= 5 * mc.stderr


def test_partition_bound_is_exact_unless_mc():
    # exact by default even past the subset table's n <= 15, where the
    # size-picked "auto" mode ran Monte-Carlo; "auto" itself is gone
    G = random_gnp(20, 0.3, seed=8)
    parts = [VertexSet.from_indices(20, range(i, 20, 4)) for i in range(4)]
    res = partition_bound_eval(G, parts)
    assert (res.mode, res.estimate, res.stderr) == ("exact", Fraction(87, 320), None)
    with pytest.raises(ValueError, match="mode must be 'exact' or 'monte_carlo'"):
        partition_bound_eval(G, parts, mode="auto")


def test_partition_validation():
    G = C5
    with pytest.raises(ValueError):
        partition_bound_eval(G, [VertexSet(5, 0b00111)])  # not covering
    with pytest.raises(ValueError):
        partition_bound_eval(G, [VertexSet(5, 0b111), VertexSet(5, 0b110)])  # overlap
    with pytest.raises(ValueError):
        partition_bound_eval(G, [VertexSet(5, 0b11111)], winning_family("dictator", 2))


def test_empty_graph_is_refused_by_every_estimator():
    G = induced_subgraph(C5, VertexSet(5, 0))
    calls = (
        lambda: alpha_star_star_exact(G),
        lambda: alpha_star_star_mc(G),
        lambda: partition_bound_eval(G, []),
        lambda: partition_bound_eval(G, [], mode="monte_carlo"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="graph must have at least one vertex"):
            call()


# -- component memo past the subset table ------------------------------------


def reference_estimate(G, masks, mode):
    """The estimate from one whole-graph ``subset_alpha`` per mask: no memo, no split."""
    alphas = [subset_alpha(G, W) for W in masks]
    n, s = G.n, len(alphas)
    total, sq = sum(alphas), sum(a * a for a in alphas)
    mean = Fraction(total, n * s)
    if mode == "exact":
        return Estimate(n, mode, mean, None, s)
    var = (Fraction(sq, n * n) - Fraction(total * total, n * n * s)) / (s - 1)
    return Estimate(n, mode, float(mean), math.sqrt(float(var) / s), s)


def shuffled_union(blocks, loops=(), seed=0):
    """Disjoint union of connected blocks, each a path plus G(m, 0.3)
    chords (a block of one is an isolated vertex), with a self-loop at each
    vertex position in ``loops``, and labels shuffled."""
    n = sum(blocks)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    edges, base = [(v, v) for v in loops], 0
    for i, m in enumerate(blocks):
        edges += [(base + v, base + v + 1) for v in range(m - 1)]
        edges += [(base + u, base + v) for u, v in random_gnp(m, 0.3, seed=i).edges()]
        base += m
    return make_graph(n, [(order[u], order[v]) for u, v in edges])


DISCONNECTED = {
    "isolated": lambda: make_graph(20, []),
    "looped_isolated": lambda: shuffled_union([1] * 11 + [6], loops=(0, 1, 2, 3, 4, 13), seed=1),
    "sizes_1_to_20": lambda: shuffled_union(range(1, 21), seed=2),
    "one_past_the_table": lambda: shuffled_union([17, 1, 1, 2, 1], loops=(3,), seed=3),
}


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_component_memo_matches_whole_graph_searches(name):
    G = DISCONNECTED[name]()
    assert G.n > EXACT_SUBSET_GUARD
    samples, seed, r = 120, 5, 6
    draws = [coin_mask(G.n, seed, s) for s in range(samples)]
    assert alpha_star_star_mc(G, samples, seed) == reference_estimate(G, draws, "monte_carlo")
    parts = [VertexSet.from_indices(G.n, range(i, G.n, r)) for i in range(r)]
    masks = [part.bits for part in parts]
    unions = [sum(masks[i] for i in iter_bits(R)) for R in range(1 << r)]
    assert partition_bound_eval(G, parts) == reference_estimate(G, unions, "exact")
    unions = [sum(masks[i] for i in iter_bits(coin_mask(r, seed, s))) for s in range(samples)]
    res = partition_bound_eval(G, parts, samples=samples, seed=seed, mode="monte_carlo")
    assert res == reference_estimate(G, unions, "monte_carlo")


@pytest.mark.parametrize("blocks, loops", (
    ((15,), ()), ((9,), (2,)), ((3, 4, 5), ()), ((1, 1, 6), (1,)), ((2, 2, 2, 2, 7), (0, 5, 14)),
))
def test_exact_per_component_matches_whole_graph_oracles(blocks, loops):
    # connected, disconnected and looped graphs of at most 15 vertices: the
    # value is the one the whole-graph table gave, bit for bit
    G = shuffled_union(blocks, loops, seed=len(blocks))
    est = alpha_star_star_exact(G)
    assert (est.mode, est.samples, est.stderr) == ("exact", 1 << G.n, None)
    assert est.estimate == dp_alpha_star_star(G)
    if G.n <= 10:
        assert est.estimate == brute_alpha_star_star(G)


# check 12's corpus: (mode, estimate, stderr) of each report, all exact
MARGIN_PINS = (
    ("exact", Fraction(1, 4), None),
    ("exact", Fraction(57, 224), None),
    ("exact", Fraction(21, 80), None),
    ("exact", Fraction(9, 32), None),
    ("exact", Fraction(39, 128), None),
    ("exact", Fraction(51, 160), None),
    ("exact", Fraction(21, 64), None),
    ("exact", Fraction(75, 224), None),
    ("exact", Fraction(87, 256), None),
    ("exact", Fraction(111, 320), None),
    ("exact", Fraction(69, 256), None),
    ("exact", Fraction(33, 112), None),
    ("exact", Fraction(9, 32), None),
    ("exact", Fraction(39, 128), None),
    ("exact", Fraction(5, 16), None),
    ("exact", Fraction(9, 32), None),
    ("exact", Fraction(11, 32), None),
    ("exact", Fraction(51, 160), None),
    ("exact", Fraction(93, 320), None),
    ("exact", Fraction(105, 352), None),
)


def margin_corpus():
    for idx, (a, b) in enumerate(MARGIN_CORPUS):
        yield (a, b), _edge_k4_union(a, b, seed=7000 + idx), 7500 + idx


def test_margin_corpus_reports_pinned():
    reports, slack = [], {}
    for ab, G, seed in margin_corpus():
        rep = alpha_star_star_margin(G, samples=1500, seed=seed)
        reports.append((rep.mode, rep.estimate, rep.stderr))
        slack[ab] = rep.bound - rep.estimate
    assert reports == list(MARGIN_PINS)
    assert min(slack.values()) == slack[1, 4] == Fraction(107, 3888)


def test_margin_corpus_reads_component_tables_without_search(monkeypatch):
    # each row reads the subset tables of its edges and K4s and runs no search
    calls = []

    def spy(G, W):
        calls.append(W)
        return subset_alpha(G, W)

    monkeypatch.setattr(random_subgraphs, "subset_alpha", spy)
    for _, G, seed in margin_corpus():
        assert alpha_star_star_margin(G, samples=1500, seed=seed).mode == "exact"
    assert calls == []
