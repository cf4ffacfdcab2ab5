import sys
from fractions import Fraction

import pytest

from hatlab.constructions import cayley_distance_graph, random_gnp, shift_graph
from hatlab.graph_core import VertexSet, enumerate_maximum_independent_sets, make_graph
from hatlab.hitting_sets import (
    covering_code_check,
    greedy_hitting,
    h_of_graph,
    min_hitting_set,
)
from hatlab.rng import randrange

from oracles import brute_min_hitting, reference_greedy_hitting, reference_min_hitting_set

C5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])


def vs(universe, *indices):
    return VertexSet.from_indices(universe, indices)


# -- generic engine ----------------------------------------------------------


def test_disjoint_singletons():
    res = min_hitting_set([vs(2, 0), vs(2, 1)])
    assert res.h == 2 and res.exact and res.lower_bound_cert == 2


def test_single_set():
    res = min_hitting_set([vs(4, 1, 3)])
    assert res.h == 1
    # the universe is the sets' vertex count, so their top vertex is in it
    assert min_hitting_set([vs(4, 3)]).witness == vs(4, 3)


def test_c5_maximum_sets_need_three():
    sets = enumerate_maximum_independent_sets(C5)
    res = min_hitting_set(sets)
    assert res.h == 3 == brute_min_hitting([s.bits for s in sets], 5)
    assert all(s.bits & res.witness.bits for s in sets)


def test_empty_target_rejected():
    # an empty target set, no targets, and targets on two vertex counts (the
    # universe once came as its own argument, and a set past it failed with
    # an IndexError)
    for sets in ([VertexSet(3, 0)], [], [vs(4, 3), vs(2, 1)], [vs(2, 1), vs(4, 3)]):
        for solve in (min_hitting_set, greedy_hitting):
            with pytest.raises(ValueError):
                solve(sets)


def test_matches_brute_force_on_corpus():
    for seed in range(12):
        G = random_gnp(10, 0.25 + 0.05 * (seed % 3), seed=9000 + seed)
        sets = enumerate_maximum_independent_sets(G)
        res = h_of_graph(G)
        assert res.exact
        assert res.h == brute_min_hitting([s.bits for s in sets], G.n)
        assert all(s.bits & res.witness.bits for s in sets)
        assert res.lower_bound_cert <= res.h


def test_c5_closes_at_the_root():
    # every vertex meets two of the five targets, so three vertices are
    # needed, which the greedy seed already holds
    res = min_hitting_set(enumerate_maximum_independent_sets(C5))
    assert (res.h, res.exact, res.nodes) == (3, True, 1)


def test_budget_exhaustion_returns_inexact_upper_bound():
    sets = enumerate_maximum_independent_sets(shift_graph(3))
    res = min_hitting_set(sets, budget=2)
    assert (res.h, res.exact, res.nodes) == (6, False, 3)
    assert all(s.bits & res.witness.bits for s in sets)
    assert res.h >= min_hitting_set(sets).h


def test_shift4_search_pinned():
    res = min_hitting_set(enumerate_maximum_independent_sets(shift_graph(4)))
    assert (res.h, res.nodes, res.exact, res.witness.bits) == (5, 15_537, True, 2155905160)
    # 70 targets, each vertex in at most 20: the counting bound beats the packing's 2
    assert res.lower_bound_cert == 4


def _outcome(res):
    return (res.h, res.witness.bits, res.nodes, res.exact, res.lower_bound_cert, res.num_targets)


def _answer(res):
    """The outcome without its node count."""
    return (res.h, res.witness.bits, res.exact, res.lower_bound_cert, res.num_targets)


def _random_collections():
    """60 collections of 1-20 sets of 1-4 vertices on 4-14 vertices."""
    for c in range(60):
        universe = 4 + randrange(11, 31, c, 0)
        sets = []
        for j in range(1 + randrange(20, 31, c, 1)):
            size = 1 + randrange(4, 31, c, 2, j)
            sets.append(vs(universe, *(randrange(universe, 31, c, 3, j, k) for k in range(size))))
        yield universe, sets


def test_search_matches_reference_recursion():
    exact_seen = set()
    for universe, sets in _random_collections():
        for budget in (1, 3, 10, 40, 200, 5_000_000):
            got = min_hitting_set(sets, budget=budget)
            want = reference_min_hitting_set(sets, universe, budget=budget, counting_bound=True)
            assert _outcome(got) == _outcome(want)
            exact_seen.add(got.exact)
    assert exact_seen == {True, False}


def _corpus():
    """The random collections, then C5's, shift:2's, shift:3's and
    cayley:4,1's maximum independent sets."""
    yield from _random_collections()
    for G in (C5, shift_graph(2), shift_graph(3), cayley_distance_graph(4, 1)):
        yield G.n, enumerate_maximum_independent_sets(G)


def test_counting_bound_keeps_the_answer_of_the_bound_free_search():
    # a valid bound prunes only subtrees without a strictly smaller hitting
    # set, so the same improvements happen in the same order, in no more nodes
    fewer = 0
    for universe, sets in _corpus():
        got = min_hitting_set(sets)
        plain = reference_min_hitting_set(sets, universe)
        assert got.exact and _answer(got) == _answer(plain)
        assert got.nodes <= plain.nodes
        fewer += got.nodes < plain.nodes
    assert fewer > 0


def test_root_counting_bound_never_exceeds_h():
    for universe, sets in _corpus():
        masks = [s.bits for s in sets]
        delta = max(sum(1 for m in masks if (m >> v) & 1) for v in range(universe))
        assert -(-len(masks) // delta) <= brute_min_hitting(masks, universe)


def test_deep_search_needs_no_recursion():
    # 120 disjoint triangles: every edge is a target, and the search goes
    # one level deeper per chosen vertex, about 240 levels
    sets = [vs(360, 3 * i + a, 3 * i + b) for i in range(120) for a, b in ((0, 1), (1, 2), (0, 2))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        res = min_hitting_set(sets, budget=2000)
        assert sys.getrecursionlimit() == 200
    finally:
        sys.setrecursionlimit(limit)
    assert _outcome(res) == _outcome(
        reference_min_hitting_set(sets, 360, budget=2000, counting_bound=True)
    )
    # 360 targets, each vertex in two: the counting bound, 180, beats the packing's 120
    assert (res.h, res.nodes, res.exact, res.lower_bound_cert) == (240, 2001, False, 180)


# -- greedy ------------------------------------------------------------------


def test_greedy_c5_between_h_and_four():
    sets = enumerate_maximum_independent_sets(C5)
    g = greedy_hitting(sets)
    assert 3 <= len(g) <= 4
    assert all(s.bits & g.bits for s in sets)


def test_greedy_is_the_reference_greedy():
    # the seed is computed on the search's target index; the reference
    # recounts every unhit set's vertices each round
    collections = [sets for _, sets in _corpus()]
    collections += [enumerate_maximum_independent_sets(shift_graph(k)) for k in (1, 2, 3, 4)]
    for sets in collections:
        assert greedy_hitting(sets) == reference_greedy_hitting(sets)


def test_greedy_single_and_nested():
    assert len(greedy_hitting([vs(5, 2, 4)])) == 1
    nested = [vs(6, 1), vs(6, 1, 3), vs(6, 1, 3, 5)]
    g = greedy_hitting(nested)
    assert g.bits == 0b10


# -- h of named graphs -------------------------------------------------------


@pytest.mark.parametrize("k", (1, 2, 3))
def test_shift_graph_h(k):
    res = h_of_graph(shift_graph(k))
    assert res.h == k + 1 and res.exact


def test_cayley_h_is_covering_code_number():
    res = h_of_graph(cayley_distance_graph(4, 1))
    assert res.h == 4 and res.num_targets == 16
    code = list(res.witness.indices())
    assert covering_code_check(4, 1, code)
    assert res.h >= 2  # at least 2t


def test_threshold_flag_widens_targets():
    # C5: maximum sets have size 2; with eps=1/5 the singleton-free maximal
    # sets of size >= 1 join in (all five maximal sets have size 2 already),
    # while a star gains its center singleton
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    plain = h_of_graph(star)
    widened = h_of_graph(star, threshold_eps=Fraction(1, 2))
    assert plain.num_targets == 1 and plain.h == 1
    assert widened.num_targets == 2  # {leaves} and {center}
    assert widened.h == 2
    # alpha - eps * n below zero asks for no least size: every maximal set
    assert h_of_graph(star, threshold_eps=Fraction(1)).num_targets == 2


# -- covering codes ----------------------------------------------------------


def test_negative_threshold_is_refused():
    # a negative eps asks for sets larger than alpha, so no target existed
    with pytest.raises(ValueError, match="threshold_eps"):
        h_of_graph(shift_graph(2), threshold_eps=Fraction(-1, 2))


def test_covering_radius_m_covers_all():
    assert covering_code_check(4, 4, [0])


def test_covering_radius_zero_single_word():
    assert not covering_code_check(4, 0, [0])


def test_covering_empty_code():
    assert not covering_code_check(3, 1, [])


def test_covering_rejects_bad_words():
    with pytest.raises(ValueError):
        covering_code_check(3, 1, [9])
