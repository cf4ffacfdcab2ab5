import hashlib
import json
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hatlab import blockers
from hatlab.bits import point_to_str
from hatlab.blockers import (
    BlockerFamily,
    blocker_schedule,
    build_ell_tuples,
    family_to_json,
    lemma_bound,
    lift_blockers,
    pair_blockers,
    tuples_from_json,
    verify_blocker,
)
from hatlab.cli import run
from hatlab.errors import BudgetExceededError, RetryLimitError, SizeLimitError
from hatlab.hat_game import KINDS, exact_value_two_players, winning_family
from hatlab.rng import randrange

from oracles import reference_verify_blocker, two_player_winning_masks


# -- schedule ----------------------------------------------------------------


def test_schedule_level_values():
    sch = blocker_schedule(3)
    assert [(s.k, s.beta) for s in sch] == [
        (2, Fraction(1)),
        (12, Fraction(1, 12)),
        (32_449_872, Fraction(1, 24 * comb(24, 12))),
    ]
    assert sch[1].ell == 6 and sch[2].ell == comb(24, 12)


def test_schedule_recursion_shape():
    # level 4 is a tower-function blowup (k(4) has ~2*10^7 digits), so the
    # recursion is only checked through the materializable levels
    sch = blocker_schedule(3)
    for prev, cur in zip(sch, sch[1:]):
        ell = comb(2 * prev.k, prev.k)
        assert cur.k == prev.k * ell
        assert cur.beta == prev.beta / (2 * ell)


def test_schedule_refuses_level_4():
    with pytest.raises(SizeLimitError):
        blocker_schedule(4)


# -- pair blockers -----------------------------------------------------------


def test_pair_blockers_n1():
    fam = pair_blockers(1)
    assert fam.blockers == (frozenset({(0,), (1,)}),)
    assert fam.union_measure == 1


def test_pair_blockers_n2():
    fam = pair_blockers(2)
    assert set(fam.blockers) == {
        frozenset({(0b00,), (0b11,)}),
        frozenset({(0b01,), (0b10,)}),
    }


@pytest.mark.parametrize(
    "t,n,message",
    # 2-bit words in a 1-bit space (their union measure would read 2), and
    # 1-tuples in a 2-tuple space
    [(1, 1, "word must lie"), (2, 2, "arity t = 2")],
)
def test_family_refuses_tuples_outside_its_space(t, n, message):
    with pytest.raises(ValueError, match=message):
        BlockerFamily(t, n, pair_blockers(2).blockers)


def test_every_dictator_hits_each_pair_exactly_once():
    n = 4
    fam = pair_blockers(n)
    wf = winning_family("dictator", n)
    for W in wf.sets:
        for pair in fam.blockers:
            hits = sum((W >> x) & 1 for (x,) in pair)
            assert hits == 1


# -- ell-tuples ---------------------------------------------------------------


def test_tuples_n4_are_weight_two_words():
    tf = build_ell_tuples(4, 2, seed=1)
    assert tf.t == 1 and len(tf.blockers) == 1 and tf.union_measure == Fraction(6, 16)
    assert sorted(tf.blockers[0]) == [(3,), (5,), (6,), (9,), (10,), (12,)]
    assert tf.union_measure >= Fraction(1, 12)


def test_tuples_distinct_members_and_exact_measure():
    for seed in (2, 9, 44):
        tf = build_ell_tuples(6, 2, seed=seed, target_measure=Fraction(12, 64))
        assert all(len(Y) == 6 for Y in tf.blockers)
        flat = [w for Y in tf.blockers for (w,) in Y]
        assert len(flat) == len(set(flat))
        assert tf.union_measure == Fraction(len(tf.blockers) * 6, 64)


def test_tuples_are_unions_of_k_atoms():
    # an ell-tuple's atoms are its coordinates grouped by the words that
    # contain them: 2k nonempty parts whose k-unions are exactly its words
    n, k = 6, 2
    tf = build_ell_tuples(n, k, seed=3, target_measure=Fraction(12, 64))
    assert len(tf.blockers) == 2
    for Y in tf.blockers:
        words = {w for (w,) in Y}
        atoms: dict[frozenset[int], int] = {}
        for c in range(n):
            key = frozenset(w for w in words if (w >> c) & 1)
            atoms[key] = atoms.get(key, 0) | 1 << c
        assert len(atoms) == 2 * k and all(atoms.values())
        assert words == {sum(sub) for sub in combinations(atoms.values(), k)}


def test_tuples_deterministic_by_seed():
    a = build_ell_tuples(5, 2, seed=8)
    b = build_ell_tuples(5, 2, seed=8)
    assert a == b


def test_tuples_retry_limit():
    # only one disjoint tuple exists at n=4, so a larger target cannot be met
    with pytest.raises(RetryLimitError):
        build_ell_tuples(4, 2, seed=1, target_measure=Fraction(1, 2))


def test_unreachable_tuple_target_refused_before_any_draw(monkeypatch):
    # every word has weight in [k, n - k], and disjoint tuples of C(2k, k)
    # words cover at most floor(words / ell) * ell of them
    def no_draw(*args):
        raise AssertionError("a partition was drawn")

    monkeypatch.setattr(blockers, "_sample_partition", no_draw)
    for n, target, ceiling in ((4, Fraction(7, 16), "3/8"), (6, Fraction(49, 64), "3/4")):
        with pytest.raises(RetryLimitError, match=f"cover at most {ceiling}$") as err:
            build_ell_tuples(n, 2, seed=1, target_measure=target)
        assert err.value.attempts == 0
    monkeypatch.undo()
    # the ceiling itself is a target that may be met: at n=4 one tuple covers it
    assert len(build_ell_tuples(4, 2, seed=1, target_measure=Fraction(6, 16)).blockers) == 1


def test_tuples_need_enough_coordinates():
    with pytest.raises(ValueError):
        build_ell_tuples(3, 2, seed=1)


# -- lifting -----------------------------------------------------------------


def test_lift_sizes_and_measure_match_schedule():
    sch = blocker_schedule(2)[1]
    base = pair_blockers(4)
    tf = build_ell_tuples(4, 2, seed=5)
    lifted = lift_blockers(base, tf)
    assert lifted.t == 2 and lifted.k == sch.k == 12
    assert len(lifted.blockers) == len(base.blockers) * len(tf.blockers)
    assert lifted.union_measure == base.union_measure * tf.union_measure
    assert lifted.union_measure >= sch.beta


def test_lift_is_a_product_of_families():
    # arity adds and union measure multiplies, at any arities
    tf = build_ell_tuples(4, 2, seed=5)
    level2 = lift_blockers(pair_blockers(4), tf)
    for a, b in ((pair_blockers(2), pair_blockers(2)), (level2, tf), (tf, level2)):
        lifted = lift_blockers(a, b)
        assert lifted.t == a.t + b.t and lifted.k == a.k * b.k
        assert lifted.union_measure == a.union_measure * b.union_measure


def test_lift_requires_matching_space():
    with pytest.raises(ValueError):
        lift_blockers(pair_blockers(4), build_ell_tuples(5, 2, seed=1))


# -- verification ------------------------------------------------------------


def test_single_tuple_is_not_a_blocker():
    fam = winning_family("dictator", 2)
    res = verify_blocker([(0b01, 0b01)], fam)
    assert not res.is_blocker
    assert res.counterexample is not None
    # the returned partial strategy must actually avoid the tuple
    avoided = False
    for player, table in res.counterexample.items():
        for view, g in table.items():
            point = (0b01, 0b01)[player]
            if not (fam.sets[g] >> point) & 1:
                avoided = True
    assert avoided


def test_lifted_blockers_verify_at_n4():
    lifted = lift_blockers(pair_blockers(4), build_ell_tuples(4, 2, seed=5))
    fam = winning_family("dictator", 4)
    for b in lifted.blockers:
        assert verify_blocker(b, fam).is_blocker


def test_verifier_agrees_with_strategy_enumeration():
    fam = winning_family("dictator", 2)
    oracle = two_player_winning_masks(fam)
    assert len(oracle) == 256
    seed = 51
    for c in range(50):
        size = 1 + randrange(6, seed, c)
        chosen = set()
        k = 0
        while len(chosen) < size:
            chosen.add(randrange(16, seed, c, k))
            k += 1
        amask = sum(1 << p for p in chosen)
        tuples = [(p // 4, p % 4) for p in chosen]
        brute = all(w & amask for w in oracle)
        assert verify_blocker(tuples, fam).is_blocker == brute


def test_verify_refuses_malformed_candidates():
    # n comes from the family and t from the tuples: no tuples, two arities,
    # a single player, and a point past n = 2 are refused
    fam = winning_family("dictator", 2)
    for A in ([], [(0, 1), (0, 1, 2)], [(3, 1, 2), (0, 1)], [(0,), (1,)], [(0, 4)]):
        with pytest.raises(ValueError):
            verify_blocker(A, fam)


def test_verify_budget_exhaustion_is_loud():
    lifted = lift_blockers(pair_blockers(4), build_ell_tuples(4, 2, seed=5))
    fam = winning_family("dictator", 4)
    with pytest.raises(BudgetExceededError):
        verify_blocker(next(iter(lifted.blockers)), fam, budget=3)


def test_verify_three_player_blocker():
    # B^3 blocker from lifting a verified B^2 blocker never gets cheap, but
    # tiny hand cases work: the full cube B^3 at n=1 blocks everything
    fam = winning_family("dictator", 1)
    all_tuples = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    assert verify_blocker(all_tuples, fam).is_blocker
    # removing the all-ones tuple leaves the always-guess strategy unblocked
    assert not verify_blocker(all_tuples[:-1], fam).is_blocker


def _random_candidate(n, t, seed, c):
    N = 1 << n
    space = N**t
    size = 1 + randrange(min(space, 4 * N * t), seed, n, t, c)
    chosen = set()
    k = 0
    while len(chosen) < size:
        flat = randrange(space, seed, n, t, c, k)
        k += 1
        chosen.add(tuple((flat // N**j) % N for j in range(t)))
    return chosen


def _outcome(verify, *args, **kwargs):
    try:
        res = verify(*args, **kwargs)
    except BudgetExceededError as exc:
        return ("exhausted", exc.nodes, str(exc))
    return (res.is_blocker, res.nodes, res.counterexample)


@pytest.mark.parametrize("kind", KINDS)
def test_verifier_matches_reference_dfs(kind):
    # forward checking prunes only subtrees with no avoiding assignment, so
    # wherever the reference DFS finishes the verdict and the lexicographically
    # first counterexample agree, with no more nodes; the budget runs out only
    # where the reference's does, with the same nodes and message
    seen = set()
    for n in (1, 2, 3):
        fam = winning_family(kind, n)
        for t in (2, 3, 4):
            for c in range(4):
                A = _random_candidate(n, t, 77, c)
                for budget in (7, 50, 20_000):
                    got = _outcome(verify_blocker, A, fam, budget=budget)
                    ref = _outcome(reference_verify_blocker, n, t, A, fam, budget=budget)
                    if got[0] == "exhausted":
                        assert got == ref
                    elif ref[0] != "exhausted":
                        assert (got[0], got[2]) == (ref[0], ref[2]) and got[1] <= ref[1]
                    seen.add(got[0])
    assert seen == {True, False, "exhausted"}


def test_deep_candidate_needs_no_recursion(tmp_path):
    # 600 triples at n=5 whose player-0 point has x_1 = 0: guessing the first
    # dictator set on every view avoids them all, 1171 variables deep
    A = set()
    k = 0
    while len(A) < 600:
        a = [randrange(32, 4, k, j) for j in range(3)]
        k += 1
        A.add((a[0] & ~1, a[1], a[2]))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps([[point_to_str(x, 5) for x in a] for a in sorted(A)]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        res = verify_blocker(A, winning_family("dictator", 5))
        status, records = run(["blockers", "verify", "--file", str(path)], capture=True)
        assert sys.getrecursionlimit() == 200
    finally:
        sys.setrecursionlimit(limit)
    assert not res.is_blocker and res.nodes == 1171
    guesses = [g for table in res.counterexample.values() for g in table.values()]
    assert len(guesses) == 1171 and set(guesses) == {0}
    assert status == 0
    (rec,) = records[0]["values"]["results"]
    assert (rec["is_blocker"], rec["nodes"]) == (False, 1171)


def test_level2_certificate_nodes_pinned():
    lifted = lift_blockers(pair_blockers(4), build_ell_tuples(4, 2, seed=101))
    fam = winning_family("dictator", 4)
    results = [verify_blocker(b, fam) for b in lifted.blockers]
    assert all(res.is_blocker for res in results)
    assert [res.nodes for res in results] == [20] * 8


def test_level2_certificate_node_total_pinned_at_n6():
    # check 6's n = 6 certificates: 5,303,808 nodes without forward checking
    fam = winning_family("dictator", 6)
    nodes = 0
    for seed in (101, 202, 303):
        tf = build_ell_tuples(6, 2, seed=seed, target_measure=Fraction(12, 64))
        for b in lift_blockers(pair_blockers(6), tf).blockers:
            res = verify_blocker(b, fam)
            assert res.is_blocker
            nodes += res.nodes
    assert nodes == 8064


# -- numeric bound -----------------------------------------------------------


def test_lemma_bound_folklore():
    assert lemma_bound(Fraction(1, 2), 2, Fraction(1)) == Fraction(3, 8)


def test_lemma_bound_level2():
    got = lemma_bound(Fraction(3, 8), 12, Fraction(1, 12))
    assert got == Fraction(3, 8) - Fraction(1, 144 * (1 << 12))


def test_lemma_bound_zero_measure():
    assert lemma_bound(Fraction(1, 3), 5, Fraction(0)) == Fraction(1, 3)


def test_lemma_bound_consistent_with_exact_values():
    for n in (1, 2, 3):
        p1 = Fraction(1, 2)
        p2 = exact_value_two_players(winning_family("dictator", n)).value
        assert lemma_bound(p1, 2, Fraction(1)) >= p2


# -- JSON rendering ----------------------------------------------------------


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_level2_families_pinned():
    # the nine families behind suite checks 5 and 6, as rendered to JSON
    families = []
    for n in (4, 5, 6):
        target = None if n == 4 else Fraction(12, 1 << n)
        for seed in (101, 202, 303):
            tf = build_ell_tuples(n, 2, seed=seed, target_measure=target)
            families.append(family_to_json(lift_blockers(pair_blockers(n), tf)))
    assert _sha256(families) == "a401e86936b292ee0e0911cfa7f871565f1cf37751c4738e16937221f356b0a8"


def test_blockers_build_records_pinned():
    # 84 runs, each with its exit status and records apart from wall_ms; the
    # 12/16 target at 4 bits is out of reach (exit 1, no record)
    runs = []
    for bits in (4, 5, 6, 7):
        for seed in (1, 3, 7, 11, 101, 202, 303):
            for extra in ([], ["--target-measure", f"12/{1 << bits}"], ["--verify"]):
                argv = ["blockers", "build", "--bits", str(bits), "--seed", str(seed), *extra]
                status, records = run(argv, capture=True)
                records = [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]
                runs.append([status, records])
    assert [status for status, _ in runs].count(1) == 7
    assert _sha256(runs) == "5d8b0631151b0bd8dbd0acac2a4135e810bec140610f9fbc606bb8ad6e50a9d8"


def test_family_json_round_trip():
    lifted = lift_blockers(pair_blockers(4), build_ell_tuples(4, 2, seed=5))
    obj = family_to_json(lifted)
    assert obj["k"] == 12 and obj["t"] == 2
    n, t, tuples = tuples_from_json(obj["blockers"][0])
    assert (n, t) == (4, 2)
    assert frozenset(tuples) in lifted.blockers


def test_tuples_from_json_rejects_malformed_candidates():
    for obj in ([], [[]], [[1, 2]], [["01"], []], [["01", "1"]], 5, "01", {"blockers": []}):
        with pytest.raises(ValueError):
            tuples_from_json(obj)
