import math
from fractions import Fraction

import pytest

from hatlab.constructions import (
    ProductIndex,
    cayley_distance_graph,
    hamming_power,
    hamming_product,
    hypercube_labels,
    kneser_hypercube,
    random_gnp,
    shift_graph,
    shift_graph_labels,
)
from hatlab.errors import SizeLimitError
from hatlab.graph_core import (
    VertexSet,
    enumerate_maximum_independent_sets,
    graph_fingerprint,
    induced_subgraph,
    make_graph,
    max_independent_set,
)
from hatlab.rng import u64

from oracles import reference_gnp

K2_EDGE = make_graph(2, [(0, 1)])


def test_product_index_round_trip():
    codec = ProductIndex((3, 4, 2))
    for flat in range(codec.size):
        assert codec.flat(codec.coords(flat)) == flat
    assert codec.flat((1, 2, 0)) == 1 * 8 + 2 * 2 + 0


def test_kneser_n2_structure():
    G = kneser_hypercube(2)
    assert set(G.edges()) == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 2)}
    assert max_independent_set(G).alpha == 2


def test_kneser_n1():
    G = kneser_hypercube(1)
    assert G.has_loop(0) and G.has_edge(0, 1) and not G.has_loop(1)
    assert max_independent_set(G).alpha == 1


@pytest.mark.parametrize("n", range(2, 6))
def test_kneser_alpha_half(n):
    res = max_independent_set(kneser_hypercube(n))
    assert res.alpha == 1 << (n - 1)
    assert res.alpha_bar == Fraction(1, 2)


def test_kneser_guard():
    with pytest.raises(SizeLimitError):
        kneser_hypercube(21)


def test_product_of_edges_is_c4():
    P = hamming_product(K2_EDGE, K2_EDGE)
    assert P.n == 4
    assert set(P.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_product_associativity_is_exact_equality():
    G, H, M = kneser_hypercube(1), K2_EDGE, make_graph(3, [(0, 1), (1, 2)])
    assert hamming_product(hamming_product(G, H), M) == hamming_product(
        G, hamming_product(H, M)
    )


def test_product_size_guard():
    with pytest.raises(SizeLimitError, match="over 4096 vertices"):
        hamming_product(kneser_hypercube(7), kneser_hypercube(6))


def test_every_constructor_refuses_past_the_size_limit():
    # each check runs before any work and never computes the refused power
    for build in (
        lambda: kneser_hypercube(13),
        lambda: shift_graph(33),
        lambda: cayley_distance_graph(10**8, 1),
        lambda: random_gnp(4097, 0.5, seed=1),
        lambda: hamming_power(kneser_hypercube(2), 10**8),
    ):
        with pytest.raises(SizeLimitError, match="over 4096 vertices"):
            build()
    assert shift_graph(32).n == 4032


def test_power_of_one_vertex_graph_is_itself():
    for G in (random_gnp(1, 0.5, seed=1), make_graph(1, [(0, 0)])):
        assert hamming_power(G, 10**9) is G and hamming_power(G, 2) == hamming_product(G, G)


def test_power_t1_is_identity():
    G = kneser_hypercube(2)
    assert hamming_power(G, 1) == G


def test_power_size():
    assert hamming_power(kneser_hypercube(2), 3).n == 64


def test_self_loop_propagation():
    P = hamming_power(kneser_hypercube(2), 2)
    # (x, v) is looped iff x or v is the all-zero word (index 0)
    for g in range(4):
        for h in range(4):
            assert P.has_loop(g * 4 + h) == (g == 0 or h == 0)


def fiber_subgraph(P, codec, free_pos, fixed):
    flats = codec.fiber(free_pos, fixed)
    return induced_subgraph(P, VertexSet.from_indices(P.n, flats))


def test_fiber_isomorphic_to_factor():
    G = kneser_hypercube(2)
    H = make_graph(3, [(0, 1), (1, 2)])
    P = hamming_product(G, H)
    codec = ProductIndex((G.n, H.n))
    # varying the H coordinate with a loop-free G coordinate fixed gives H
    for g in (1, 2, 3):
        assert fiber_subgraph(P, codec, 1, (g,)) == H
    # varying the G coordinate reproduces G (H is loop-free everywhere)
    for h in range(3):
        assert fiber_subgraph(P, codec, 0, (h,)) == G
    # fixing the self-looped G vertex loops the whole fiber; off-diagonal
    # adjacency still matches H
    F = fiber_subgraph(P, codec, 1, (0,))
    assert all(F.has_loop(v) for v in range(F.n))
    assert [row & ~(1 << v) for v, row in enumerate(F.adj)] == [
        row & ~(1 << v) for v, row in enumerate(H.adj)
    ]


def test_power_fibers_in_k2_squared():
    G = kneser_hypercube(2)
    P = hamming_power(G, 2)
    codec = ProductIndex((4, 4))
    for pos in (0, 1):
        assert fiber_subgraph(P, codec, pos, (2,)) == G


def test_shift_k1():
    G = shift_graph(1)
    assert G.n == 2 and G.has_edge(0, 1) and not G.has_loop(0)
    assert max_independent_set(G).alpha == 1


@pytest.mark.parametrize("k", (1, 2, 3))
def test_shift_alpha_and_count(k):
    G = shift_graph(k)
    assert G.n == 2 * k * (2 * k - 1)
    assert max_independent_set(G).alpha == k * k
    assert len(enumerate_maximum_independent_sets(G)) == math.comb(2 * k, k)


def test_shift_maximum_sets_have_split_form():
    k = 2
    G = shift_graph(k)
    labels = shift_graph_labels(k)
    pairs = [tuple(map(int, lab.strip("()").split(","))) for lab in labels]
    for vs in enumerate_maximum_independent_sets(G):
        member_pairs = [pairs[v] for v in vs.indices()]
        S = {a for a, _ in member_pairs}
        T = {b for _, b in member_pairs}
        assert len(S) == k and len(T) == k and not S & T
        assert set(member_pairs) == {(s, t) for s in S for t in T}


def test_cayley_m4_adjacency_rule():
    G = cayley_distance_graph(4, 1)
    for x in range(16):
        for y in range(16):
            assert G.has_edge(x, y) == ((x ^ y).bit_count() > 2)
    assert G.loops_mask == 0


def test_cayley_m4_alpha_and_balls():
    G = cayley_distance_graph(4, 1)
    assert max_independent_set(G).alpha == 5
    balls = set()
    for c in range(16):
        ball = 1 << c
        for j in range(4):
            ball |= 1 << (c ^ (1 << j))
        balls.add(ball)
    assert {vs.bits for vs in enumerate_maximum_independent_sets(G)} == balls


def test_cayley_m6_alpha_kleitman():
    assert max_independent_set(cayley_distance_graph(6, 1)).alpha == 22


def test_cayley_translation_invariance():
    G = cayley_distance_graph(6, 1)
    for i in range(5):
        s = u64(31, i) % 64
        x = u64(32, i) % 64
        y = u64(33, i) % 64
        assert G.has_edge(x, y) == G.has_edge(x ^ s, y ^ s)


def test_cayley_parameter_guards():
    with pytest.raises(ValueError):
        cayley_distance_graph(5, 1)
    with pytest.raises(ValueError):
        cayley_distance_graph(4, 2)
    with pytest.raises(SizeLimitError):
        cayley_distance_graph(14, 1)


def test_gnp_extremes():
    assert random_gnp(6, 0.0, seed=4).n_edges == 0
    assert random_gnp(6, 1.0, seed=4).n_edges == 15


def test_gnp_edge_count_within_4_sigma():
    G = random_gnp(30, 0.5, seed=2024)
    mean, sigma = 217.5, math.sqrt(435 * 0.25)
    assert abs(G.n_edges - mean) <= 4 * sigma


def test_gnp_rows_match_per_pair_chance():
    # row u is one chance_mask pass; lanes straddle the 64- and 128-bit words
    for n in (1, 2, 63, 64, 65, 127, 128, 129, 200):
        for p in (0.0, 1.0, 2**-60, 1 - 2**-53, 0.2, 0.62):
            for seed in (7, -(1 << 70) - 3):
                assert random_gnp(n, p, seed).adj == reference_gnp(n, p, seed), (n, p, seed)


def test_gnp_fingerprints_pinned():
    # captured when every pair drew its own scalar chance
    assert graph_fingerprint(random_gnp(200, 0.01, 4)) == "5b85bb93feff"
    assert graph_fingerprint(random_gnp(1000, 0.5, 4)) == "2050aacfa328"
    assert graph_fingerprint(random_gnp(2000, 0.01, 4)) == "599ed389f8e3"


def test_gnp_reproducible():
    assert random_gnp(20, 0.37, seed=9) == random_gnp(20, 0.37, seed=9)
    assert random_gnp(20, 0.37, seed=9) != random_gnp(20, 0.37, seed=10)


def test_hypercube_labels_convention():
    labels = hypercube_labels(3)
    assert labels[0] == "000" and labels[1] == "100" and labels[4] == "001"
