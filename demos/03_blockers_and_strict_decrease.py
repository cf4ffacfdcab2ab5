#!/usr/bin/env python3
"""Blockers: certified point sets that force the game value strictly down.

A blocker meets every realizable winning set.  Disjoint blockers of size k
covering measure beta force p(t+1) <= p(t) - 2^(-k) * beta / k.  The demo
builds the inductive families, verifies them exhaustively, and reproduces
the folklore 3/8 ceiling for two players.
"""

from fractions import Fraction

from hatlab import (
    blocker_schedule,
    build_ell_tuples,
    exact_value_two_players,
    lemma_bound,
    lift_blockers,
    pair_blockers,
    verify_blocker,
    winning_family,
)
from hatlab.bits import point_to_str

print("=" * 72)
print("Size/measure schedule of the inductive construction")
print("=" * 72)
for s in blocker_schedule(3):
    print(f"  level {s.d}: k = {s.k:,}   beta = {s.beta}   ell = {s.ell}")
print("  -> k grows as a tower; only level 2 is ever materialized")

print()
print("=" * 72)
print("Level 1 -> folklore bound: pairs {x, complement(x)} block one player")
print("=" * 72)
bound = lemma_bound(Fraction(1, 2), 2, Fraction(1))
print(f"  p(1) = 1/2, pairs have k=2 and union measure 1 -> p(2) <= {bound}")
for n in (1, 2, 3):
    v = exact_value_two_players(winning_family("dictator", n)).value
    print(f"  exact p(2,{n}) = {v} <= 3/8: {v <= bound}")

print()
print("=" * 72)
print("Level 2: lift pairs by random disjoint 6-tuples, verify exhaustively")
print("=" * 72)
for n in (4, 5):
    base = pair_blockers(n)
    target = None if n == 4 else Fraction(12, 1 << n)
    tuples = build_ell_tuples(n, 2, seed=11, target_measure=target)
    fam = lift_blockers(base, tuples)
    wf = winning_family("dictator", n)
    verdicts = [verify_blocker(b, wf).is_blocker for b in fam.blockers]
    print(f"  n={n}: {len(fam.blockers)} blockers of size {fam.k}, union measure "
          f"{fam.union_measure}, all verified: {all(verdicts)}")

one = sorted(next(iter(lift_blockers(pair_blockers(4), build_ell_tuples(4, 2, seed=11)).blockers)))
print("\n  one level-2 blocker at n=4 (pairs of 4-bit words):")
for a, b in one[:6]:
    print(f"    ({point_to_str(a, 4)}, {point_to_str(b, 4)})")
print("    ... 12 tuples total: every two-player strategy wins somewhere on it")

print()
print("=" * 72)
print("What a failed candidate looks like")
print("=" * 72)
wf = winning_family("dictator", 4)
res = verify_blocker([(0b0001, 0b0110), (0b1110, 0b0110)], wf)
print(f"  two arbitrary tuples: is_blocker = {res.is_blocker}")
print(f"  avoiding partial strategy found in {res.nodes} assignments:")
for player, table in res.counterexample.items():
    for view, g in table.items():
        shown = ",".join(point_to_str(x, 4) for x in view)
        print(f"    player {player} on view ({shown}) guesses set {g}")

print()
print("Chaining the bound: with p(2) <= 3/8 and the level-2 schedule,")
sch = blocker_schedule(2)[1]
print(f"  p(3) <= {lemma_bound(Fraction(3, 8), sch.k, sch.beta)}  (= 3/8 - 2^-12/144)")
