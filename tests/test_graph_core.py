import sys
from fractions import Fraction

import pytest

from hatlab import graph_core
from hatlab.errors import BudgetExceededError, CapExceededError, GraphFormatError, SizeLimitError
from hatlab.graph_core import (
    DEFAULT_NODE_BUDGET,
    Graph,
    VertexSet,
    _bit_table,
    _color_bound,
    _flip,
    enumerate_maximal_independent_sets,
    enumerate_maximum_independent_sets,
    induced_subgraph,
    make_graph,
    max_independent_set,
    parse_graph_text,
    subset_alpha,
    subset_alpha_table,
    write_graph_text,
)
from hatlab.constructions import (
    cayley_distance_graph,
    hamming_power,
    kneser_hypercube,
    random_gnp,
    shift_graph,
)
from hatlab.bits import iter_bits
from hatlab.random_subgraphs import hajnal_check
from hatlab.rng import chance, randrange, u64

import oracles
from oracles import (
    brute_alpha,
    brute_maximal_sets,
    brute_maximum_sets,
    complement_rows,
    is_independent,
    maximal_intersecting_families,
    reference_color_bound,
    reference_search,
)

TRIANGLE = make_graph(3, [(0, 1), (1, 2), (0, 2)])
C5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
PATH3 = make_graph(3, [(0, 1), (1, 2)])


def corpus(count=30, max_n=13, seed=90210):
    graphs = []
    for g in range(count):
        n = 4 + g % (max_n - 3)
        p = 0.15 + 0.1 * (g % 6)
        graphs.append(random_gnp(n, p, seed=seed + g))
    return graphs


# -- construction ------------------------------------------------------------


def test_make_graph_triangle():
    assert all(TRIANGLE.degree(v) == 2 for v in range(3))


def test_make_graph_edgeless():
    G = make_graph(2, [])
    assert max_independent_set(G).alpha == 2


def test_make_graph_self_loop_excludes_vertex():
    G = make_graph(1, [(0, 0)])
    res = max_independent_set(G)
    assert res.alpha == 0 and len(res.witness) == 0


def test_make_graph_rejects_bad_index():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])


def test_duplicate_edges_collapse():
    G = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert G.n_edges == 1


def test_graph_rejects_asymmetric_rows():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


# -- exact solver ------------------------------------------------------------


def test_alpha_triangle():
    assert max_independent_set(TRIANGLE).alpha == 1


def test_alpha_matches_brute_force_on_corpus():
    for G in corpus():
        assert max_independent_set(G).alpha == brute_alpha(G)


def test_alpha_matches_brute_force_larger():
    for n, seed in ((16, 5), (18, 6), (20, 7)):
        G = random_gnp(n, 0.25, seed=seed)
        assert max_independent_set(G).alpha == brute_alpha(G)


def test_witness_is_independent_and_loop_free():
    for G in corpus(12):
        res = max_independent_set(G)
        assert is_independent(G, res.witness.bits)
        assert len(res.witness) == res.alpha
        assert res.alpha_bar == Fraction(res.alpha, G.n)


def test_witness_deterministic():
    G = random_gnp(14, 0.3, seed=77)
    a = max_independent_set(G)
    b = max_independent_set(G)
    assert a.witness == b.witness


def test_budget_exceeded_carries_bounds():
    G = random_gnp(40, 0.2, seed=1)
    with pytest.raises(BudgetExceededError) as exc:
        max_independent_set(G, budget=20)
    assert 0 <= exc.value.lower_bound <= exc.value.upper_bound <= 40


# Witness masks of the fixed branching order; a change here is a tie-break
# change, which the search core must not make silently.
CORPUS_WITNESSES = [
    11, 31, 41, 23, 166, 27, 191, 1428, 1668, 5520, 11, 18, 27, 43, 156,
    304, 168, 560, 2295, 3468, 7, 7, 14, 96, 123, 218, 888, 1410, 2634, 2060,
]


def test_witnesses_pinned_on_corpus():
    assert [max_independent_set(G).witness.bits for G in corpus()] == CORPUS_WITNESSES


def test_witnesses_pinned_on_frontier_graphs():
    k3 = kneser_hypercube(3)
    for G, alpha, bits in (
        (kneser_hypercube(6), 32, 0xAAAAAAAAAAAAAAAA),
        (hamming_power(k3, 2), 22, 0xAA70CC50AA228C00),
        (cayley_distance_graph(6, 1), 22, 0xF771711071101000),
        (random_gnp(100, 0.2, seed=201), 19, 0xC0510808010B2010083020C00),
        (make_graph(1024, []), 1024, (1 << 1024) - 1),
    ):
        res = max_independent_set(G)
        assert (res.alpha, res.witness.bits) == (alpha, bits)


# The least node budget that finishes each search, and the interval that one
# node fewer certifies: any change to the tree (vertex order, bound,
# tie-break) moves them.
LEAST_BUDGETS = {
    "K(3)^2": (lambda: hamming_power(kneser_hypercube(3), 2), (64, 22, 25), (7_260, 22, 27)),
    "cayley:6,1": (lambda: cayley_distance_graph(6, 1), (5_222, 22, 32), (11_201, 22, 32)),
    "gnp:100,0.2,201": (lambda: random_gnp(100, 0.2, seed=201), (20_276, 19, 36), (49_937, 19, 36)),
    "shift:4": (lambda: shift_graph(4), (792, 16, 28), (2_540, 16, 28)),
}


@pytest.mark.parametrize("name", list(LEAST_BUDGETS))
def test_least_finishing_budgets_pinned(name):
    build, *pins = LEAST_BUDGETS[name]
    G = build()
    for search, (budget, lower, upper) in zip(
        (max_independent_set, enumerate_maximum_independent_sets), pins
    ):
        search(G, budget=budget)
        with pytest.raises(BudgetExceededError) as exc:
            search(G, budget=budget - 1)
        e = exc.value
        assert (e.lower_bound, e.upper_bound, e.nodes) == (lower, upper, budget), search


def test_budgeted_intervals_pinned():
    for G, budget, interval in (
        (hamming_power(kneser_hypercube(4), 2), 100_000, (86, 103, 100_001)),
        (hamming_power(kneser_hypercube(3), 3), 30_000, (134, 145, 30_001)),
    ):
        with pytest.raises(BudgetExceededError) as exc:
            max_independent_set(G, budget=budget)
        e = exc.value
        assert (e.lower_bound, e.upper_bound, e.nodes) == interval
        assert f"alpha in [{interval[0]}, {interval[1]}]" in str(e)


def test_deep_searches_need_no_recursion():
    G = make_graph(1500, [])
    everything = (1 << 1500) - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert max_independent_set(G).witness.bits == everything
        assert [vs.bits for vs in enumerate_maximum_independent_sets(G)] == [everything]
        assert [vs.bits for vs in enumerate_maximal_independent_sets(G)] == [everything]
        assert max_independent_set(make_graph(2048, [])).alpha == 2048
        # 500 disjoint paths on three vertices: nothing is isolated, and the
        # unique maximum set (the path ends) sits 1000 frames down the stack
        paths = [e for i in range(500) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2))]
        P3s = make_graph(1500, paths)
        ends = sum(1 << 3 * i | 1 << 3 * i + 2 for i in range(500))
        res = max_independent_set(P3s)
        assert (res.alpha, res.witness.bits) == (1000, ends)
        assert [vs.bits for vs in enumerate_maximum_independent_sets(P3s)] == [ends]
        assert sys.getrecursionlimit() == 200  # no search touches the limit
    finally:
        sys.setrecursionlimit(limit)


def test_edgeless_4096_takes_one_node():
    # the isolated vertices are taken at the root, before any branching
    assert max_independent_set(make_graph(4096, []), budget=1).alpha == 4096


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 4096])
def test_flip_reverses_the_bits_below_a_whole_byte(n):
    k = (n + 7) // 8
    full = (1 << n) - 1
    for mask in (0, full, 1, 1 << n - 1, full // 3, full // 5, u64(39, n) & full):
        flipped = _flip(mask, k)
        assert flipped == int(format(mask, f"0{8 * k}b")[::-1], 2), mask
        assert _flip(flipped, k) == mask
    assert _flip(full, k) == full << 8 * k - n


def test_bit_table_holds_one_size_and_only_for_a_search():
    _bit_table.cache_clear()
    edgeless = make_graph(100, [])
    max_independent_set(edgeless)
    enumerate_maximum_independent_sets(edgeless)
    subset_alpha(edgeless, 12345)
    assert _bit_table.cache_info().currsize == 0  # the reduction left nothing to branch on
    max_independent_set(C5)
    enumerate_maximum_independent_sets(random_gnp(20, 0.5, 1))
    info = _bit_table.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def _differential_graph(g):
    """Seeded random graph: sparse ones have isolated vertices, some have loops."""
    n = 1 + randrange(22, 31, g)
    p = (0.05, 0.1, 0.2, 0.35, 0.6)[g % 5]
    loop_rate = 0.1 if g % 3 == 0 else 0.0
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if chance(p, 32, g, u, v)]
    edges += [(v, v) for v in range(n) if chance(loop_rate, 33, g, v)]
    return make_graph(n, edges)


def _flipped_search(G, P, budget):
    """``_search`` on P as its one part with nothing taken, run on G's
    relabelled rows; the last mask comes back in G's labels."""
    rows = G._flipped
    k = len(rows) // 8
    return _flip(graph_core._search(rows, 0, [_flip(P, k)], budget)[-1], k)


def _reduced(G, P):
    """``_reduce`` of P on G's relabelled rows, in G's labels."""
    rows = G._flipped
    k = len(rows) // 8
    taken, parts = graph_core._reduce(rows, _flip(P, k))
    return _flip(taken, k), [_flip(part, k) for part in parts]


def _search_outcome(search):
    """The witness mask, or (lower, upper, nodes) when the budget runs out."""
    try:
        return search()
    except BudgetExceededError as e:
        return (e.lower_bound, e.upper_bound, e.nodes)


def test_search_matches_reference_search():
    # with nothing taken and P as one part, the search is the reference's
    huge = 1 << 40
    budgeted = 0
    for g in range(1200):
        G = _differential_graph(g)
        rows, allowed = complement_rows(G)
        if not allowed:
            continue
        witness = reference_search(rows, allowed, huge)[-1]
        assert _flipped_search(G, allowed, huge) == witness
        for budget in (1, 3, 10, 40):
            ref = _search_outcome(lambda: reference_search(rows, allowed, budget)[-1])
            got = _search_outcome(lambda: _flipped_search(G, allowed, budget))
            assert got == ref, (g, budget)
            budgeted += isinstance(got, tuple)
        maxima = sorted(reference_search(rows, allowed, huge, witness.bit_count()))
        assert [vs.bits for vs in enumerate_maximum_independent_sets(G)] == maxima
    assert budgeted > 1000


def _certified(search, alpha, budget):
    """The alpha a budgeted search returns, or the interval it raises,
    which must hold alpha after exactly ``budget + 1`` nodes."""
    try:
        return search()
    except BudgetExceededError as e:
        assert e.lower_bound <= alpha <= e.upper_bound and e.nodes == budget + 1
        return None


def test_reduced_searches_are_exact_or_certified(monkeypatch):
    # the degree <= 1 rules and the component split change the tree, so
    # against the reference only alpha, independence and the interval hold
    huge = 1 << 40
    reduced = exhausted = 0
    for g in range(1200):
        G = _differential_graph(g)
        rows, allowed = complement_rows(G)
        taken, parts = _reduced(G, allowed)
        reduced += taken != 0 or len(parts) > 1
        masks = [u64(34, g, j) & ((1 << G.n) - 1) for j in range(3)]
        alphas = [reference_search(rows, allowed & W, huge)[-1].bit_count() if allowed & W else 0
                  for W in masks]
        alpha = reference_search(rows, allowed, huge)[-1].bit_count() if allowed else 0
        for budget in (1, 3, 10, 40, DEFAULT_NODE_BUDGET):
            res = _certified(lambda: max_independent_set(G, budget=budget), alpha, budget)
            if res is None:
                exhausted += 1
            else:
                assert res.alpha == len(res.witness) == alpha and is_independent(G, res.witness.bits)
            monkeypatch.setattr(graph_core, "DEFAULT_NODE_BUDGET", budget)
            for W, sub_alpha in zip(masks, alphas):
                assert _certified(lambda: subset_alpha(G, W), sub_alpha, budget) in (None, sub_alpha)
            monkeypatch.undo()
    assert reduced > 800 and exhausted > 700


def test_subset_alpha_is_the_search_on_the_induced_subgraph(monkeypatch):
    # same alpha, interval and node count: G[W] keeps W's vertex order
    exhausted = 0
    for g in range(400):
        G = _differential_graph(g)
        W = u64(38, g) & ((1 << G.n) - 1)
        H = induced_subgraph(G, VertexSet(G.n, W))
        for budget in (1, 3, 10, 40, DEFAULT_NODE_BUDGET):
            want = _search_outcome(lambda: max_independent_set(H, budget=budget).alpha)
            monkeypatch.setattr(graph_core, "DEFAULT_NODE_BUDGET", budget)
            assert _search_outcome(lambda: subset_alpha(G, W)) == want, (g, budget)
            monkeypatch.undo()
            exhausted += isinstance(want, tuple)
    assert exhausted > 100


def _components(G, U):
    """The vertex sets of the components of G[U], by plain search."""
    comps = []
    while U:
        comp = frontier = U & -U
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= G.adj[v]
            frontier = reach & U & ~comp
            comp |= frontier
        comps.append(comp)
        U ^= comp
    return comps


def test_reduction_keeps_alpha_and_leaves_degree_two_components():
    # what the search relies on: the parts are the components of a union in
    # which every vertex has at least two neighbours, taken touches none of
    # them, and the taken vertices plus the parts' alphas make alpha(G[P])
    brute = 0
    for g in range(1200):
        G = _differential_graph(g)
        for P in [G._allowed] + [G._allowed & u64(36, g, j) for j in range(3)]:
            taken, parts = _reduced(G, P)
            U = sum(parts)
            assert not taken & U and (taken | U) & ~P == 0 and is_independent(G, taken)
            assert all((G.adj[v] & U).bit_count() >= 2 for v in iter_bits(U)), g
            assert sorted(parts) == sorted(_components(G, U)), g
            assert all(not G.adj[v] & U for v in iter_bits(taken)), g
            if G.n <= 14:
                alphas = [brute_alpha(induced_subgraph(G, VertexSet(G.n, m))) if m else 0
                          for m in [P] + parts]
                assert taken.bit_count() + sum(alphas[1:]) == alphas[0], g
                brute += 1
    assert brute > 3000


def test_components_share_one_budget_and_sum_their_bounds():
    # C7 on 0..6, C5 on 7..11, the edge 12-13 and vertex 14: the rules take
    # 12 and 14, then C5 (root bound 3) is searched before C7 (root bound 4)
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
    G = make_graph(15, edges + [(12, 13)])
    assert _reduced(G, G._allowed) == (1 << 12 | 1 << 14, [0b111110000000, 0b1111111])
    for budget, interval in ((1, (2, 9, 2)), (2, (4, 8, 3)), (4, (4, 8, 5))):
        with pytest.raises(BudgetExceededError) as exc:
            max_independent_set(G, budget=budget)
        assert (exc.value.lower_bound, exc.value.upper_bound, exc.value.nodes) == interval
    assert max_independent_set(G, budget=5).alpha == 7
    # equal sizes go lowest vertex first: C5 (root bound 3) before K5 (1),
    # or K5 before C5, and the interval shows which was searched first
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for low, high, intervals in ((c5, k5, ((0, 4, 2), (2, 3, 3))), (k5, c5, ((1, 4, 2), (1, 4, 3)))):
        G = make_graph(10, low + [(5 + u, 5 + v) for u, v in high])
        for budget, interval in zip((1, 2), intervals):
            with pytest.raises(BudgetExceededError) as exc:
                max_independent_set(G, budget=budget)
            assert (exc.value.lower_bound, exc.value.upper_bound, exc.value.nodes) == interval
        assert max_independent_set(G, budget=3).alpha == 3


def test_degree_one_rule_closes_sparse_gnp():
    # 214 edges: the rules leave one 33-vertex component, which 18 nodes
    # close (the plain search took 52.6 s); 17 leave an interval
    G = random_gnp(200, 0.01, 4)
    taken, parts = _reduced(G, G._allowed)
    assert (taken.bit_count(), [part.bit_count() for part in parts]) == (100, [33])
    res = max_independent_set(G, budget=18)
    assert res.alpha == 117 and is_independent(G, res.witness.bits)
    with pytest.raises(BudgetExceededError, match=r"alpha in \[117, 119\]"):
        max_independent_set(G, budget=17)


def test_truncated_coloring_is_the_top_of_the_full_coloring():
    # classes below kmin are built but not recorded; the rest match the full
    # coloring, once the relabelled vertex bits are mapped back
    for g in range(200):
        G = _differential_graph(g)
        rows, allowed = complement_rows(G)
        P = allowed & u64(35, g)
        if not P:
            continue
        order, bound = reference_color_bound(P, rows)
        flipped = G._flipped
        k = len(flipped) // 8
        for kmin in range(bound[-1] + 2):
            top = [i for i, b in enumerate(bound) if b >= kmin]
            expected = ([1 << order[i] for i in top], [bound[i] for i in top])
            f_order, f_bound = _color_bound(_flip(P, k), flipped, _bit_table(8 * k), kmin)
            assert ([_flip(bit, k) for bit in f_order], f_bound) == expected, (g, kmin)


def test_hamming_products_match_reference_search():
    # The rules settle all of K(4)^2 but K'(4)^2 (196 vertices), and all of
    # K(3)^3 but three K'(3)^2 (36 vertices, 64 nodes each) and K'(3)^3
    # (216).  Searched last, from the witness so far, the largest component
    # is the reference search on it, shifted by the size and nodes before it.
    k3 = kneser_hypercube(3)
    for G, sizes, before, used, budget, interval in (
        (hamming_power(kneser_hypercube(4), 2), [196], 15, 0, 2_000, (86, 103, 2_001)),
        (hamming_power(k3, 3), [36, 36, 36, 216], 55, 192, 500, (133, 145, 693)),
    ):
        rows, allowed = complement_rows(G)
        taken, parts = _reduced(G, allowed)
        assert [part.bit_count() for part in parts] == sizes
        lower, upper, nodes = _search_outcome(lambda: reference_search(rows, parts[-1], budget)[-1])
        got = _search_outcome(lambda: max_independent_set(G, budget=used + budget))
        assert got == (before + lower, before + upper, used + nodes) == interval
    # From node 667 on, the first subtrees of K'(4)^2 that found nothing
    # (39, 11 and 5 nodes) are replayed from the memo: budgets that run out
    # at and inside them certify what searching them again would
    G = hamming_power(kneser_hypercube(4), 2)
    rows, allowed = complement_rows(G)
    part = _reduced(G, allowed)[1][-1]
    for budget in range(664, 730):
        lower, upper, nodes = _search_outcome(lambda: reference_search(rows, part, budget)[-1])
        got = _search_outcome(lambda: max_independent_set(G, budget=budget))
        assert got == (15 + lower, 15 + upper, nodes), budget
    # K(6) is settled by the rules alone: no part is left to search
    G = kneser_hypercube(6)
    taken, parts = _reduced(G, G._allowed)
    assert parts == [] and taken == max_independent_set(G, budget=1).witness.bits
    assert taken.bit_count() == 32 and is_independent(G, taken)


def _twin_graph(g):
    """A seeded random graph with each vertex blown up into two adjacent
    twins: branching on either twin leaves the same candidates, so the
    subtrees that find nothing come round again."""
    m = 14 + randrange(9, 39, g)
    p = (0.3, 0.4, 0.5)[g % 3]
    base = [(i, j) for i in range(m) for j in range(i + 1, m) if chance(p, 40, g, i, j)]
    edges = [(2 * i, 2 * i + 1) for i in range(m)]
    edges += [(2 * i + a, 2 * j + b) for i, j in base for a in (0, 1) for b in (0, 1)]
    return make_graph(2 * m, edges)


def _counting(monkeypatch, module, name, counts):
    """Count the calls of ``module.name`` under ``counts[name]``."""
    fn = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)


def _twin_corpus_matches_reference_search(monkeypatch):
    """On the twin graphs, every witness, interval, node count and tie list
    is the reference's; returns how many graphs the search colored fewer
    children of, and its colorings in their unbudgeted searches."""
    huge = 1 << 40
    counts = dict.fromkeys(("_color_bound", "reference_color_bound"), 0)
    _counting(monkeypatch, graph_core, "_color_bound", counts)
    _counting(monkeypatch, oracles, "reference_color_bound", counts)
    replayed = colorings = 0
    for g in range(100):
        G = _twin_graph(g)
        rows, allowed = complement_rows(G)
        counts.update(dict.fromkeys(counts, 0))
        witness = reference_search(rows, allowed, huge)[-1]
        assert _flipped_search(G, allowed, huge) == witness
        replayed += counts["_color_bound"] < counts["reference_color_bound"]
        colorings += counts["_color_bound"]
        for budget in range(1, 60):
            ref = _search_outcome(lambda: reference_search(rows, allowed, budget)[-1])
            assert _search_outcome(lambda: _flipped_search(G, allowed, budget)) == ref, (g, budget)
        maxima = sorted(reference_search(rows, allowed, huge, witness.bit_count()))
        assert [vs.bits for vs in enumerate_maximum_independent_sets(G)] == maxima, g
    return replayed, colorings


def test_replayed_subtrees_match_reference_search(monkeypatch):
    # the replays leave the search as the reference's; on a replayed graph
    # the search colors fewer children
    replayed, _ = _twin_corpus_matches_reference_search(monkeypatch)
    assert replayed >= 30, replayed


@pytest.mark.parametrize("cap, colorings", [(1, 1361), (2, 1325), (3, 1315)], ids=["1", "2", "3"])
def test_evicting_memo_matches_reference_search(monkeypatch, cap, colorings):
    # a memo this small evicts on nearly every store and moves its key on
    # every hit; whichever keys it keeps, the search is the reference's.
    # 1,315 colorings is what an unbounded memo reads; emptying the memo
    # when full reads 1,335 at cap 3, and dropping the newest key 1,323 and
    # 1,319 at caps 2 and 3
    monkeypatch.setattr(graph_core, "_MEMO_CAP", cap)
    assert _twin_corpus_matches_reference_search(monkeypatch)[1] == colorings


def test_replays_save_three_quarters_of_the_colorings_on_k4_squared(monkeypatch):
    # 100,000 nodes, 8,491 colorings: the rest of the children are read
    # from the memo, and 99,999 are colored without it
    counts = {"_color_bound": 0}
    _counting(monkeypatch, graph_core, "_color_bound", counts)
    with pytest.raises(BudgetExceededError) as exc:
        max_independent_set(hamming_power(kneser_hypercube(4), 2), budget=100_000)
    assert (exc.value.lower_bound, exc.value.upper_bound, exc.value.nodes) == (86, 103, 100_001)
    assert counts["_color_bound"] == 8_491


# -- enumeration of maximum sets ---------------------------------------------


def test_enumerate_maximum_c5():
    sets = enumerate_maximum_independent_sets(C5)
    assert {vs.bits for vs in sets} == brute_maximum_sets(C5)
    assert len(sets) == 5 and all(len(vs) == 2 for vs in sets)


def test_enumerate_maximum_edgeless():
    G = make_graph(3, [])
    sets = enumerate_maximum_independent_sets(G)
    assert len(sets) == 1 and sets[0].bits == 0b111


def test_enumerate_maximum_contains_witness_on_corpus():
    for G in corpus(10):
        res = max_independent_set(G)
        sets = enumerate_maximum_independent_sets(G)
        assert {vs.bits for vs in sets} == brute_maximum_sets(G)
        assert res.witness.bits in {vs.bits for vs in sets}
        assert all(len(vs) == res.alpha for vs in sets)


def test_enumerate_maximum_cap():
    G = make_graph(12, [])  # exactly one maximum set, cap must not trigger
    assert len(enumerate_maximum_independent_sets(G, cap=1)) == 1
    H = make_graph(6, [(0, 1), (2, 3), (4, 5)])  # 8 maximum sets
    with pytest.raises(CapExceededError) as exc:
        enumerate_maximum_independent_sets(H, cap=3)
    assert exc.value.found == 4


def test_enumerate_maximum_budget_exhaustion_names_alpha():
    H = make_graph(12, [(2 * i, 2 * i + 1) for i in range(6)])  # 64 maximum sets
    # 20 nodes finish the alpha search but not the enumeration
    assert max_independent_set(H, budget=20).alpha == 6
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_maximum_independent_sets(H, budget=20)
    assert exc.value.lower_bound == exc.value.upper_bound == 6
    assert exc.value.nodes == 21


def test_enumerate_maximum_keeps_ties_past_the_cap_until_the_end():
    # On 102 of these 900 graphs the search holds cap + 1 ties of a size
    # below alpha before it reaches alpha (gnp:14,0.5,8 has a single maximum
    # set), so the cap may only be judged once the search ends.
    assert len(enumerate_maximum_independent_sets(random_gnp(14, 0.5, 8), cap=1)) == 1
    for p in (0.2, 0.35, 0.5):
        for s in range(300):
            G = random_gnp(14, p, s)
            maxima = brute_maximum_sets(G)
            sets = enumerate_maximum_independent_sets(G, cap=len(maxima))
            assert {vs.bits for vs in sets} == maxima, (p, s)
            # the two-pass oracle: alpha first, then every clique of that size
            rows, allowed = complement_rows(G)
            alpha = max_independent_set(G).alpha
            assert [vs.bits for vs in sets] == sorted(reference_search(rows, allowed, 1 << 40, alpha))
            with pytest.raises(CapExceededError) as exc:
                enumerate_maximum_independent_sets(G, cap=len(maxima) - 1)
            assert exc.value.found == len(maxima), (p, s)


def test_enumerate_maximum_is_one_search_under_one_budget(monkeypatch):
    G = cayley_distance_graph(6, 1)
    calls = []
    search = graph_core._search

    def spy(adj, taken, parts, budget, *rest):
        calls.append(rest)
        return search(adj, taken, parts, budget, *rest)

    monkeypatch.setattr(graph_core, "_search", spy)
    monkeypatch.setattr(graph_core, "max_independent_set", None)  # no alpha pre-pass
    # one budget bounds the whole enumeration: 11,201 nodes find all 64
    # maximum sets, and one node fewer certifies only an interval
    assert len(enumerate_maximum_independent_sets(G, budget=11_201)) == 64
    assert calls == [(True, graph_core.DEFAULT_ENUM_CAP)]
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_maximum_independent_sets(G, budget=11_200)
    e = exc.value
    assert e.nodes == 11_201 and e.lower_bound <= 22 <= e.upper_bound
    assert f"alpha in [{e.lower_bound}, {e.upper_bound}]" in str(e)


def test_enumerate_maximum_exhaustion_certifies_alpha():
    exhausted = 0
    for g in range(160):
        n = 6 + g % 11
        p = (0.1, 0.2, 0.35, 0.6)[g % 4]
        loop_rate = 0.15 if g % 3 == 0 else 0.0
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if chance(p, 36, g, u, v)]
        edges += [(v, v) for v in range(n) if chance(loop_rate, 37, g, v)]
        G = make_graph(n, edges)
        alpha = brute_alpha(G)
        for budget in (1, 2, 4, 8, 16, 32, 64):
            try:
                sets = enumerate_maximum_independent_sets(G, budget=budget)
            except BudgetExceededError as e:
                exhausted += 1
                assert e.lower_bound <= alpha <= e.upper_bound, (g, budget)
                assert e.nodes == budget + 1
            else:
                assert {vs.bits for vs in sets} == brute_maximum_sets(G), (g, budget)
    assert exhausted > 300


# -- maximal sets ------------------------------------------------------------


def test_maximal_triangle():
    sets = enumerate_maximal_independent_sets(TRIANGLE)
    assert {vs.bits for vs in sets} == {0b001, 0b010, 0b100}


def test_maximal_path3():
    sets = enumerate_maximal_independent_sets(PATH3)
    assert {vs.bits for vs in sets} == {0b101, 0b010}


def test_maximal_min_size_filter():
    sets = enumerate_maximal_independent_sets(PATH3, min_size=2)
    assert {vs.bits for vs in sets} == {0b101}


def test_maximal_matches_brute_on_corpus():
    for G in corpus(10, max_n=10):
        got = {vs.bits for vs in enumerate_maximal_independent_sets(G)}
        assert got == brute_maximal_sets(G)


def test_maximal_sets_of_kneser_are_intersecting_families():
    # independent sets of the disjoint-support graph (with the all-zero
    # self-loop) are exactly the intersecting families of {0,1}^n
    for n in (2, 3):
        got = {vs.bits for vs in enumerate_maximal_independent_sets(kneser_hypercube(n))}
        assert got == maximal_intersecting_families(n)


def test_maximal_cap():
    with pytest.raises(CapExceededError):
        enumerate_maximal_independent_sets(TRIANGLE, cap=2)


def test_maximal_enumeration_is_budgeted(monkeypatch):
    # the root call and its three children: four nodes, read from the
    # library budget at call time
    monkeypatch.setattr(graph_core, "DEFAULT_NODE_BUDGET", 4)
    assert len(enumerate_maximal_independent_sets(TRIANGLE)) == 3
    monkeypatch.setattr(graph_core, "DEFAULT_NODE_BUDGET", 3)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_maximal_independent_sets(TRIANGLE)
    assert exc.value.nodes == 4
    assert "maximal-set enumeration exceeded 3 nodes" in str(exc.value)


# -- induced subgraphs -------------------------------------------------------


def test_induced_triangle_edge():
    H = induced_subgraph(TRIANGLE, VertexSet.from_indices(3, [0, 2]))
    assert H.n == 2 and H.has_edge(0, 1)


def test_induced_empty_sentinel():
    H = induced_subgraph(TRIANGLE, VertexSet(3, 0))
    assert H.n == 0
    assert max_independent_set(H).alpha == 0


def test_no_loop_free_vertex_gives_the_empty_set():
    # every search starts from an empty candidate set on both graphs
    looped = make_graph(4, [(v, v) for v in range(4)] + [(0, 1)])
    sentinel = induced_subgraph(TRIANGLE, VertexSet(3, 0))
    for G in (looped, sentinel):
        empty = [VertexSet(G.n, 0)]
        res = max_independent_set(G)
        assert res.alpha == 0 and [res.witness] == empty
        assert enumerate_maximum_independent_sets(G) == empty
        assert enumerate_maximal_independent_sets(G) == empty
        assert subset_alpha(G, (1 << G.n) - 1) == subset_alpha(G, 0) == 0
        rep = hajnal_check(G)
        assert (rep.alpha, rep.intersection, rep.union) == (0, empty[0], empty[0])


def test_induced_kneser2_restriction():
    K2 = kneser_hypercube(2)
    H = induced_subgraph(K2, VertexSet.from_indices(4, [1, 2, 3]))
    # kept words 01, 10, 11 -> only 01 and 10 have disjoint supports
    assert H.edges() == [(0, 1)]


def test_induced_alpha_monotone():
    for G in corpus(8) + [make_graph(6, [(0, 0), (1, 2), (3, 3), (4, 5)])]:
        alpha = max_independent_set(G).alpha
        for bits in (0, 0b1011, (1 << G.n) - 1, 0b11):
            S = VertexSet(G.n, bits & ((1 << G.n) - 1))
            sub_alpha = max_independent_set(induced_subgraph(G, S)).alpha
            assert subset_alpha(G, S.bits) == sub_alpha <= alpha


def test_self_loops_restrict_through_induced():
    G = make_graph(3, [(0, 0), (0, 1)])
    H = induced_subgraph(G, VertexSet.from_indices(3, [0, 2]))
    assert H.has_loop(0) and not H.has_loop(1)
    assert max_independent_set(H).alpha == 1


# -- subset DP ---------------------------------------------------------------


def test_subset_alpha_table_matches_solver():
    looped = (
        make_graph(9, random_gnp(9, 0.2, seed=40).edges() + [(0, 0), (3, 3), (6, 6)]),
        make_graph(9, random_gnp(9, 0.5, seed=41).edges() + [(4, 4), (7, 7)]),
    )
    for G in (random_gnp(9, 0.3, seed=12),) + looped:
        table = subset_alpha_table(G)
        for mask in (0, 0b101, 0b111111111, 0b100100100, 0b011011010):
            sub = induced_subgraph(G, VertexSet(9, mask))
            assert table[mask] == max_independent_set(sub).alpha == subset_alpha(G, mask)


def test_subset_alpha_table_is_the_largest_independent_submask_of_every_mask():
    # the largest independent submask of W is W itself, if independent, or
    # that of W less one vertex; self-looped vertices are never in one
    looped = 0
    for g in range(40):
        n = 1 + g % 10
        p = 0.1 + g % 5 * 0.15
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if chance(p, 37, g, u, v)]
        G = make_graph(n, edges + [(v, v) for v in range(n) if chance(0.25, 38, g, v)])
        best = [0] * (1 << n)
        for W in range(1, 1 << n):
            if is_independent(G, W):
                best[W] = W.bit_count()
            else:
                best[W] = max(best[W & ~(1 << v)] for v in iter_bits(W))
        assert subset_alpha_table(G) == best, g
        looped += G.loops_mask != 0
    assert looped > 25


def test_subset_alpha_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        subset_alpha(TRIANGLE, 0b1000)


def test_subset_alpha_table_with_loops():
    G = make_graph(3, [(0, 0), (1, 2)])
    table = subset_alpha_table(G)
    assert table[0b111] == 1 and table[0b001] == 0


# -- text format -------------------------------------------------------------


def test_text_round_trip():
    for G in corpus(6):
        assert parse_graph_text(write_graph_text(G)) == G


def test_text_self_loop_round_trip():
    G = make_graph(2, [(0, 0), (0, 1)])
    text = write_graph_text(G)
    assert "e 0 0" in text
    assert parse_graph_text(text) == G


def test_text_labels_are_comments():
    text = write_graph_text(TRIANGLE, labels=["a", "b", "c"])
    assert "c label 1 b" in text
    assert parse_graph_text(text) == TRIANGLE


def test_text_rejects_malformed_lines():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph_text("graph 2 1\nx 0 1\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph_text("e 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("graph 2 2\ne 0 1\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph_text("graph 2 1\ne 0 5\n")


def test_text_refuses_past_the_size_limit_at_the_header():
    # the header is refused before the malformed edge line after it is read
    with pytest.raises(SizeLimitError, match="line 1: .* over 4096"):
        parse_graph_text("graph 4097 1\ne x y\n")
    assert parse_graph_text("graph 4096 0\n").n == 4096
