#!/usr/bin/env python3
"""h(G): the smallest vertex set meeting every maximum independent set.

Two named families show how large h can get relative to the structure of
the optima: the shift graph (few vertices, many optima, h ~ sqrt(n)) and
the Cayley distance graph on bit words, where hitting sets are exactly
covering codes.
"""

from fractions import Fraction

from hatlab import (
    cayley_distance_graph,
    covering_code_check,
    enumerate_maximum_independent_sets,
    greedy_hitting,
    h_of_graph,
    make_graph,
    max_independent_set,
    shift_graph,
)
from hatlab.bits import point_to_str
from hatlab.constructions import shift_graph_labels

print("=" * 72)
print("Shift graph: arcs on {1..2k}, adjacent when they form a directed 2-path")
print("=" * 72)
for k in (1, 2, 3):
    G = shift_graph(k)
    res = max_independent_set(G)
    sets = enumerate_maximum_independent_sets(G)
    hres = h_of_graph(G)
    print(f"  k={k}: n={G.n:2d}, alpha={res.alpha:2d} (=k^2), "
          f"{len(sets):2d} maximum sets, h={hres.h} (=k+1)")
labels = shift_graph_labels(2)
witness = h_of_graph(shift_graph(2)).witness
print(f"  a minimum hitting set for k=2: {[labels[v] for v in witness.indices()]}")
print("  -> every maximum set is S x T for an equal split of {1..2k}; no k")
print("     arcs can touch them all, but a directed (k+1)-cycle can")

print()
print("=" * 72)
print("Cayley distance graph: m-bit words, adjacent when distance > m - 2t")
print("=" * 72)
G = cayley_distance_graph(4, 1)
res = max_independent_set(G)
sets = enumerate_maximum_independent_sets(G)
print(f"  m=4, t=1: n=16, alpha={res.alpha}, maximum sets = {len(sets)} radius-1 balls")
hres = h_of_graph(G)
code = list(hres.witness.indices())
print(f"  h = {hres.h}: witness {[point_to_str(w, 4) for w in code]}")
print(f"  the witness is a radius-1 covering code: {covering_code_check(4, 1, code)}")
print(f"  removing any word breaks coverage: "
      f"{not covering_code_check(4, 1, code[:-1])}")
alpha6 = max_independent_set(cayley_distance_graph(6, 1)).alpha
print(f"  m=6, t=1: alpha = {alpha6} (= C(6,0)+C(6,1)+C(6,2))")

print()
print("=" * 72)
print("Greedy vs exact, and the threshold variant")
print("=" * 72)
c5 = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
sets = enumerate_maximum_independent_sets(c5)
print(f"  5-cycle: greedy hits with {len(greedy_hitting(sets))}, exact h = "
      f"{h_of_graph(c5).h}")
star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
plain = h_of_graph(star)
widened = h_of_graph(star, threshold_eps=Fraction(1, 2))
print(f"  star K(1,3): h = {plain.h} over {plain.num_targets} maximum set(s); "
      f"widening to maximal sets within eps=1/2 of the optimum gives "
      f"h = {widened.h} over {widened.num_targets} targets")
