import gc
import hashlib
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest

from hatlab import hat_game
from hatlab.constructions import hamming_power, kneser_hypercube
from hatlab.errors import SizeLimitError
from hatlab.graph_core import enumerate_maximal_independent_sets, max_independent_set
from hatlab.hat_game import (
    DEFAULT_TABLE_BUDGET,
    KINDS,
    WinningFamily,
    best_response,
    check_positive_correlation,
    coordinate_ascent,
    exact_value_one_player,
    exact_value_two_players,
    nested_lower_bound,
    r_v_distribution,
    winning_family,
    winning_set_of_strategy,
)
from hatlab.rng import randrange

from oracles import (
    balanced_up_closed_sets,
    brute_best_response_table,
    brute_others_correct,
    best_table_within,
    brute_two_player_value,
    maximal_intersecting_families,
    packed_table_improvements,
    reference_exact_value_two_players,
    simulate_strategy,
)

HALF = Fraction(1, 2)


# -- families ----------------------------------------------------------------


def test_dictator_family():
    fam = winning_family("dictator", 3)
    assert fam.r == 3
    assert all(Fraction(fam.sets[i].bit_count(), 1 << fam.n) == HALF for i in range(3))
    # W_i is the set of words with coordinate i+1 equal to 1
    assert fam.sets[0] == sum(1 << w for w in range(8) if w & 1)


def test_dictator_sets_match_their_definition():
    # bit w of set i is bit i of w; the sets used to be summed one word at a time
    for n in range(1, 13):
        sets = winning_family("dictator", n).sets
        assert all(
            (sets[i] >> w) & 1 == (w >> i) & 1 for i in range(n) for w in range(1 << n)
        ), n


def test_intersecting_family_n2_structure():
    fam = winning_family("intersecting", 2)
    assert fam.r == 2
    # each family holds word 11 and exactly one of {01, 10}
    assert set(fam.sets) == {0b1010, 0b1100}


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_intersecting_measures_and_maximality(n):
    fam = winning_family("intersecting", n)
    assert all(Fraction(fam.sets[i].bit_count(), 1 << fam.n) == HALF for i in range(fam.r))
    if n <= 3:
        assert set(fam.sets) == maximal_intersecting_families(n)
    # Bron–Kerbosch on K(n) shares no code with the up-set route; same sorted order
    mis = enumerate_maximal_independent_sets(kneser_hypercube(n))
    assert fam.sets == tuple(sorted(vs.bits for vs in mis))


def test_monotone_n2_is_the_dictators():
    assert winning_family("monotone", 2).sets == winning_family("dictator", 2).sets


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_monotone_families_balanced_and_up_closed(n):
    fam = winning_family("monotone", n)
    half = 1 << (n - 1)
    for mask in fam.sets:
        assert mask.bit_count() == half
        for w in range(1 << n):
            if (mask >> w) & 1:
                for j in range(n):
                    assert (mask >> (w | (1 << j))) & 1


def test_monotone_families_are_complete():
    # the explicit-stack enumeration finds every balanced up-closed set, sorted
    fams = [winning_family("monotone", n).sets for n in (1, 2, 3, 4, 5)]
    assert [len(sets) for sets in fams] == [1, 2, 4, 24, 621]
    assert all(list(sets) == sorted(sets) for sets in fams)
    for n in (1, 2, 3, 4):
        assert set(fams[n - 1]) == balanced_up_closed_sets(n)


def test_every_maximal_intersecting_family_is_balanced_monotone():
    for n in (2, 3, 4):
        inter = set(winning_family("intersecting", n).sets)
        mono = set(winning_family("monotone", n).sets)
        assert inter <= mono


def test_family_guards():
    with pytest.raises(SizeLimitError):
        winning_family("intersecting", 5)
    with pytest.raises(SizeLimitError):
        winning_family("monotone", 6)
    with pytest.raises(ValueError):
        winning_family("nonsense", 2)


# -- winning sets of strategies ----------------------------------------------


def test_single_player_winning_set():
    fam = winning_family("dictator", 2)
    mask, measure = winning_set_of_strategy(fam, ((1,),))
    assert mask == fam.sets[1] and measure == HALF


def test_two_player_n1_forced():
    fam = winning_family("dictator", 1)
    mask, measure = winning_set_of_strategy(fam, ((0, 0), (0, 0)))
    assert measure == Fraction(1, 4)
    assert mask == 1 << (1 * 2 + 1)  # only the all-ones pair wins


def test_winning_set_matches_simulation_oracle():
    cases = [
        ("dictator", 2, 2, 11),
        ("dictator", 2, 3, 12),
        ("intersecting", 2, 2, 13),
        ("monotone", 3, 2, 14),
        ("dictator", 1, 4, 15),
    ]
    for kind, n, t, seed in cases:
        fam = winning_family(kind, n)
        N = 1 << n
        tables = tuple(
            tuple(randrange(fam.r, seed, i, v) for v in range(N ** (t - 1)))
            for i in range(t)
        )
        mask, measure = winning_set_of_strategy(fam, tables)
        count, oracle_measure = simulate_strategy(fam, tables)
        assert mask.bit_count() == count and measure == oracle_measure


def test_winning_set_guard():
    # 4096^2 = 2^24 tuples, past DEFAULT_MASK_GUARD
    fam = winning_family("dictator", 12)
    with pytest.raises(SizeLimitError):
        winning_set_of_strategy(fam, ((0,) * 4096,) * 2)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind, top in (
    ("dictator", hat_game.DICTATOR_MAX_N), ("intersecting", hat_game.INTERSECTING_MAX_N),
    ("monotone", hat_game.MONOTONE_MAX_N)) for n in range(1, top + 1)])
def test_one_player_value_is_half(kind, n):
    # every built-in set has half the cube, so the least index wins the tie
    res = exact_value_one_player(winning_family(kind, n))
    assert (res.value, res.witness) == (HALF, ((0,),))


def test_one_player_guesses_the_least_index_of_a_largest_set():
    # sets 1 and 3 hold three of the four points; set 1 comes first
    fam = WinningFamily(2, "custom", (0b0011, 0b0111, 0b0100, 0b1110, 0b1001))
    res = exact_value_one_player(fam)
    assert (res.t, res.value, res.witness) == (1, Fraction(3, 4), ((1,),))
    res = exact_value_one_player(WinningFamily(2, "custom", (0b0001, 0b1111)))
    assert (res.value, res.witness) == (1, ((1,),))


# -- best response and two-player values --------------------------------------


def test_best_response_n1():
    fam = winning_family("dictator", 1)
    table, value = best_response(fam, (0, 0))
    assert value == Fraction(1, 4)


def test_best_response_matches_exhaustive_player0_tables():
    fam = winning_family("dictator", 2)
    g2 = (0, 0, 0, 0)
    _, value = best_response(fam, g2)
    best = max(
        simulate_strategy(fam, ((a, b, c, d), g2))[1]
        for a in range(2)
        for b in range(2)
        for c in range(2)
        for d in range(2)
    )
    assert value == best


def test_best_response_dominates_arbitrary_tables():
    fam = winning_family("dictator", 2)
    for seed in range(5):
        g2 = tuple(randrange(2, 40, seed, v) for v in range(4))
        t0 = tuple(randrange(2, 41, seed, v) for v in range(4))
        _, value = best_response(fam, g2)
        assert value >= simulate_strategy(fam, (t0, g2))[1]


def test_two_player_n1_dictator():
    assert exact_value_two_players(winning_family("dictator", 1)).value == Fraction(1, 4)


def test_two_player_matches_double_enumeration():
    fam = winning_family("dictator", 2)
    gv = exact_value_two_players(fam)
    assert gv.mode == "exact"
    assert gv.value == brute_two_player_value(fam)


def test_two_player_witness_realizes_value():
    for kind, n in (("dictator", 2), ("intersecting", 2), ("dictator", 3)):
        gv = exact_value_two_players(winning_family(kind, n))
        _, measure = winning_set_of_strategy(winning_family(kind, n), gv.witness)
        assert measure == gv.value


def test_two_player_budget_gives_lower_bound_mode():
    fam = winning_family("dictator", 2)
    gv = exact_value_two_players(fam, budget=5)
    assert gv.mode == "lower_bound"
    assert gv.value <= exact_value_two_players(fam).value


def _table_search_cases():
    cases = []
    for kind in KINDS:
        for n in (1, 2, 3):
            full = winning_family(kind, n).r ** (1 << n)
            budgets = {DEFAULT_TABLE_BUDGET, 1, 2, 5, full - 1, full} - {0}
            cases += [(kind, n, budget) for budget in sorted(budgets)]
    # nested_lower_bound's bottom level, the games benchmark's budgeted
    # dictator search, and small budgets past n = 3
    cases += [("dictator", 4, 20_000), ("intersecting", 3, 50_000)]
    cases += [("intersecting", 4, b) for b in (1, 7, 400)]
    cases += [("monotone", 4, b) for b in (1, 9, 400)]
    cases += [("dictator", 5, b) for b in (1, 6, 300)]
    # 8-byte (n = 6) and 16-byte (n = 7) columns
    cases += [("dictator", 6, b) for b in (1, 2, 5)]
    cases += [("dictator", 7, b) for b in (1, 3)]
    return cases


@lru_cache(maxsize=None)
def _reference_table_search(kind, n, budget):
    return reference_exact_value_two_players(winning_family(kind, n), budget)


@pytest.mark.parametrize("kind,n,budget", _table_search_cases())
def test_two_player_matches_reference_table_search(kind, n, budget):
    fam = winning_family(kind, n)
    # an exhaustive search answers the same at every budget past r^N
    expected = _reference_table_search(kind, n, min(budget, fam.r ** (1 << n)))
    assert exact_value_two_players(fam, budget) == expected


def test_two_player_search_fails_loudly_on_a_miscount(monkeypatch):
    fam = winning_family("dictator", 2)
    count, g2, nodes = hat_game._best_player1_table(fam, 5)
    monkeypatch.setattr(
        hat_game, "_best_player1_table", lambda family, budget: (count + 1, g2, nodes)
    )
    with pytest.raises(RuntimeError, match="disagrees"):
        exact_value_two_players(fam, 5)


SEARCH_KINDS = (*KINDS, "random")


def _search_family(kind, n):
    """A family of ``kind``; "random" gives three sets of unequal sizes
    that need not hold the all-ones point, which every set of the three
    kinds holds, so the last view's gain depends on the guess."""
    if kind != "random":
        return winning_family(kind, n)
    N = 1 << n
    return WinningFamily(n, kind, tuple(1 + randrange((1 << N) - 1, 25, n, i) for i in range(3)))


def _oracle_budgets(kind, n, limit, improvements):
    """Budgets up to ``limit`` to compare the table search at: all of them,
    and one past the last table, up to n = 2; past that, each improvement's
    index and its neighbours (budgets that end among the leaves of a
    depth N-2 node) and 200 seeded ones, which mostly end inside a cut
    node's span."""
    if n <= 2:
        return range(1, limit + 2)
    budgets = {1, limit - 1, limit}
    budgets |= {i + d for i, _, _ in improvements for d in (-1, 0, 1)}
    budgets |= {1 + randrange(limit, 24, n, SEARCH_KINDS.index(kind), j) for j in range(200)}
    return sorted(b for b in budgets if 1 <= b <= limit)


@pytest.mark.parametrize(
    "kind,n,limit",
    [(kind, n, _search_family(kind, n).r ** (1 << n)) for kind in SEARCH_KINDS for n in (1, 2, 3)]
    + [("dictator", 4, 3_000), ("intersecting", 4, 3_000), ("monotone", 4, 3_000)],
)
def test_table_search_matches_packed_scan_at_every_budget(kind, n, limit):
    # the branch and bound answers, at each budget, what a table-by-table
    # scan of the same first tables answers: same count, same first table
    fam = _search_family(kind, n)
    improvements = packed_table_improvements(fam, limit)
    budgets = _oracle_budgets(kind, n, limit, improvements)
    assert n <= 2 or len(budgets) >= 200
    for budget in budgets:
        count, g2, _ = hat_game._best_player1_table(fam, budget)
        assert (count, g2) == best_table_within(improvements, budget), budget


@pytest.mark.parametrize(
    "kind,n,budget,nodes",
    [
        ("dictator", 3, 3**8, 708),
        ("intersecting", 3, 4**8, 2_264),
        ("monotone", 3, 4**8, 2_264),
        ("dictator", 4, 20_000, 2_503),
    ],
    ids=("dictator-3", "intersecting-3", "monotone-3", "dictator-4"),
)
def test_table_search_node_counts_pinned(kind, n, budget, nodes):
    # a looser cut (bound < best) finds the same tables in more nodes
    assert hat_game._best_player1_table(winning_family(kind, n), budget)[2] == nodes


@pytest.mark.parametrize("n", (1, 2, 3))
def test_folklore_bound_dictator(n):
    assert exact_value_two_players(winning_family("dictator", n)).value <= Fraction(3, 8)


def test_value_denominator_divides_power_of_two():
    gv = exact_value_two_players(winning_family("intersecting", 2))
    assert (1 << (2 * 2 * 2)) % gv.value.denominator == 0


def test_two_player_value_equals_power_ratio_n2():
    lhs = exact_value_two_players(winning_family("intersecting", 2)).value
    rhs = max_independent_set(hamming_power(kneser_hypercube(2), 2)).alpha_bar
    assert lhs == rhs


def test_family_sandwich_two_players():
    for n in (1, 2, 3):
        vals = {
            kind: exact_value_two_players(winning_family(kind, n)).value
            for kind in ("dictator", "intersecting", "monotone")
        }
        assert vals["monotone"] >= vals["intersecting"] >= vals["dictator"]


def test_dictator_value_monotone_in_n():
    v = [exact_value_two_players(winning_family("dictator", n)).value for n in (1, 2, 3)]
    assert v[0] <= v[1] <= v[2]
    assert all(x < HALF for x in v)


# -- t >= 3 lower bounds -----------------------------------------------------


def test_nested_lower_bound_t3_n1_forced():
    gv = nested_lower_bound(winning_family("dictator", 1), 3)
    assert gv.value == Fraction(1, 8) and gv.mode == "lower_bound"


def test_nested_lower_bound_below_two_player_value():
    fam = winning_family("dictator", 2)
    lb = nested_lower_bound(fam, 3, seed=7, restarts=3)
    assert lb.value <= exact_value_two_players(fam).value
    assert lb.value > 0


def test_nested_lower_bound_witness_consistent():
    fam = winning_family("dictator", 2)
    gv = nested_lower_bound(fam, 3, seed=5, restarts=2)
    _, measure = winning_set_of_strategy(fam, gv.witness)
    assert measure == gv.value


RESTART_PINS = [
    ("intersecting", 3, 3, 0, Fraction(59, 256), "77644e163c79e2ad"),
    ("intersecting", 3, 3, 1, Fraction(29, 128), "b8e87f1fd5396a3c"),
    ("intersecting", 3, 3, 7, Fraction(29, 128), "8c4d682167dc9f97"),
    ("dictator", 3, 3, 0, Fraction(29, 128), "75517b1fcc701210"),
    ("dictator", 3, 3, 1, Fraction(15, 64), "2fdd9cdab0a3dc46"),
    ("dictator", 3, 3, 7, Fraction(31, 128), "a18c0c0353f19439"),
    ("dictator", 2, 4, 0, Fraction(15, 128), "e7ffdfaab945ca72"),
    ("dictator", 2, 4, 1, Fraction(7, 64), "711f8855f7e37bdb"),
    ("dictator", 2, 4, 7, Fraction(31, 256), "1a88a4dcfa62b7da"),
]


@pytest.mark.parametrize(
    "kind,n,t,seed,value,digest",
    RESTART_PINS,
    ids=[f"{kind}-{n}-t{t}-seed{seed}" for kind, n, t, seed, _, _ in RESTART_PINS],
)
def test_nested_lower_bound_restart_stream_pinned(kind, n, t, seed, value, digest):
    # captured before the restart tables were drawn a row at a time; the
    # digest is the first 16 hex digits of sha256 over repr(witness)
    gv = nested_lower_bound(winning_family(kind, n), t, seed=seed)
    assert gv.value == value
    assert hashlib.sha256(repr(gv.witness).encode()).hexdigest()[:16] == digest


def test_view_shapes_die_with_their_family():
    # the evaluator works out view positions per call and keeps no state: a
    # family outlives no search with anything beyond its three fields, and
    # nothing else holds on to it
    fam = winning_family("dictator", 2)
    first = nested_lower_bound(fam, 4, seed=1, restarts=1).value
    assert nested_lower_bound(fam, 4, seed=1, restarts=1).value == first
    assert vars(fam).keys() == {"n", "kind", "sets"}
    dead = weakref.ref(fam)
    del fam
    gc.collect()
    assert dead() is None


def test_coordinate_ascent_never_decreases():
    fam = winning_family("dictator", 2)
    tables = [
        [randrange(fam.r, 99, i, v) for v in range(16)] for i in range(3)
    ]
    _, history = coordinate_ascent(fam, tables)
    assert all(history[i] <= history[i + 1] for i in range(len(history) - 1))


@pytest.mark.parametrize("t", (2, 3, 4, 5))
@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("kind", KINDS)
def test_others_correct_matches_per_tuple_oracle(kind, n, t):
    # every player i, so other players sit on both sides of i and at both
    # ends of i's view
    fam = winning_family(kind, n)
    views = (1 << n) ** (t - 1)
    for seed in (53, 54):
        tables = [tuple(randrange(fam.r, seed, t, i, v) for v in range(views)) for i in range(t)]
        for i in range(t):
            masks = hat_game._others_correct(fam, tables, i)
            assert masks == brute_others_correct(fam, tables, i), (seed, i)


@pytest.mark.parametrize(
    "kind,n,t",
    [(kind, n, t) for t in (3, 4) for kind in ("dictator", "intersecting", "monotone") for n in (1, 2)]
    + [("dictator", 3, 3), ("intersecting", 3, 3)],
)
def test_coordinate_ascent_matches_per_tuple_oracle(kind, n, t):
    fam = winning_family(kind, n)
    views = (1 << n) ** (t - 1)
    tables = [tuple(randrange(fam.r, 31, t, i, v) for v in range(views)) for i in range(t)]
    final, history = coordinate_ascent(fam, tables)
    work = list(tables)
    for k, value in enumerate(history):
        # the ascent restarted from the oracle's tables after k sweeps
        # finishes as the full run does, sweep for sweep
        assert coordinate_ascent(fam, work) == (final, history[k:]), k
        for i in range(t):
            work[i] = brute_best_response_table(fam, work, i)
        assert simulate_strategy(fam, work)[1] == value
    # and stops at a fixed point: no player's best response moves
    assert tuple(work) == final
    assert all(brute_best_response_table(fam, work, i) == work[i] for i in range(t))


def test_nested_lower_bound_four_players_forced():
    gv = nested_lower_bound(winning_family("dictator", 1), 4)
    assert gv.value == Fraction(1, 16)  # every guess forced, all hats must be 1


def test_nested_lower_bound_rejects_small_t():
    with pytest.raises(ValueError):
        nested_lower_bound(winning_family("dictator", 1), 2)


def test_nested_lower_bound_needs_a_restart():
    for restarts in (0, -3):
        with pytest.raises(ValueError, match="restarts"):
            nested_lower_bound(winning_family("dictator", 1), 3, restarts=restarts)


# -- malformed strategies -----------------------------------------------------

# on a dictator family for n = 2 (r = 2, 4 views per player of two); before
# the guesses were checked, most of these returned a value (a -1 read the
# last set, a long or short table was sliced, tables built for n = 3 went
# unread) or failed with a bare IndexError; ascent with no players failed
# with an UnboundLocalError, and the winning set of no players was a sure win
REFUSED = {
    "best_response:guess-1": lambda fam: best_response(fam, [-1] * 4),
    "best_response:guess2": lambda fam: best_response(fam, [0, 0, 2, 0]),
    "best_response:3-guesses": lambda fam: best_response(fam, [0] * 3),
    "winning_set:9-guesses": lambda fam: winning_set_of_strategy(fam, ((0,) * 4, (0,) * 9)),
    "winning_set:3-guesses": lambda fam: winning_set_of_strategy(fam, ((0,) * 4, (0,) * 3)),
    "winning_set:guess2": lambda fam: winning_set_of_strategy(fam, ((0,) * 4, (2,) * 4)),
    "winning_set:n3": lambda fam: winning_set_of_strategy(fam, ((0,) * 8, (0,) * 8)),
    "winning_set:2-tables-t3": lambda fam: winning_set_of_strategy(fam, ((0,) * 16,) * 2),
    "winning_set:no-players": lambda fam: winning_set_of_strategy(fam, ()),
    "ascent:guess-1": lambda fam: coordinate_ascent(fam, [[-1] * 16] * 3),
    "ascent:15-guesses": lambda fam: coordinate_ascent(fam, [[0] * 15] * 3),
    "ascent:2-tables": lambda fam: coordinate_ascent(fam, [[0] * 16] * 2),
    "ascent:no-players": lambda fam: coordinate_ascent(fam, []),
    "correlation:J-1": lambda fam: check_positive_correlation(fam, (-1,), 0),
    "correlation:i2": lambda fam: check_positive_correlation(fam, (0,), 2),
}


@pytest.mark.parametrize("call", list(REFUSED.values()), ids=list(REFUSED))
def test_malformed_strategies_are_refused(call):
    with pytest.raises(ValueError):
        call(winning_family("dictator", 2))


# -- induced index sets and correlation ---------------------------------------


def test_r_v_all_ones_and_zeros():
    fam = winning_family("dictator", 3)
    assert r_v_distribution(fam, 0b111) == (0, 1, 2)
    assert r_v_distribution(fam, 0) == ()


def test_r_v_marginals_half_intersecting():
    fam = winning_family("intersecting", 3)
    size = 1 << 3
    for i in range(fam.r):
        hits = sum(i in r_v_distribution(fam, v) for v in range(size))
        assert Fraction(hits, size) == HALF


def test_correlation_marginal_is_half():
    for kind in ("dictator", "intersecting", "monotone"):
        fam = winning_family(kind, 3)
        for i in range(fam.r):
            prob, ok = check_positive_correlation(fam, (), i)
            assert prob == HALF and ok


def test_correlation_intersecting_always_passes():
    fam = winning_family("intersecting", 3)
    idx = range(fam.r)
    for i in idx:
        for j in idx:
            for k in idx:
                prob, ok = check_positive_correlation(fam, (j, k), i)
                assert ok and prob >= HALF


def test_correlation_dictator_independent_coordinates():
    fam = winning_family("dictator", 2)
    prob, ok = check_positive_correlation(fam, (0,), 1)
    assert prob == HALF and ok


def test_correlation_names_a_bad_index():
    fam = winning_family("dictator", 3)
    with pytest.raises(ValueError, match=r"index 7 is not in range\(3\)"):
        check_positive_correlation(fam, [7], 0)
    with pytest.raises(ValueError, match=r"index -1 is not in range\(3\)"):
        check_positive_correlation(fam, [0, 1], -1)


def test_correlation_empty_conditioning_event():
    fam = WinningFamily(1, "dictator", (0b10, 0b01))  # disjoint sets
    with pytest.raises(ValueError):
        check_positive_correlation(fam, (0, 1), 0)
