"""Exact minimum hitting sets, specialized to maximum independent sets.

``h(G)`` is the least number of vertices meeting every maximum independent
set of G.  The engine is enumeration-first: materialize the target sets,
index them by vertex, then run branch and bound on an explicit stack whose
nodes keep the unhit targets as one int mask (branch on a smallest unhit
set; lower-bound by counting, since k vertices hit at most k times the
largest vertex degree in the targets, and by a greedily packed disjoint
sub-collection).  The incumbent is seeded by greedy max-coverage on the
same index.  Deterministic tie-breaks by least vertex index throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bits import iter_bits
from .graph_core import (
    DEFAULT_ENUM_CAP,
    Graph,
    VertexSet,
    enumerate_maximal_independent_sets,
    enumerate_maximum_independent_sets,
    max_independent_set,
)

DEFAULT_HIT_BUDGET = 5_000_000


@dataclass(frozen=True)
class HittingSetResult:
    h: int
    witness: VertexSet
    num_targets: int
    lower_bound_cert: int
    exact: bool
    nodes: int


def greedy_hitting(sets: Sequence[VertexSet]) -> VertexSet:
    """The greedy seed of ``min_hitting_set``, its witness at budget 0."""
    return min_hitting_set(sets, budget=0).witness


class _Meets(dict):
    """``meets[i]``, the mask of the targets sharing a vertex with target i,
    built the first time a packing picks target i."""

    def __init__(self, masks: list[int], occ: list[int]):
        self.masks, self.occ = masks, occ

    def __missing__(self, i: int) -> int:
        near = 0
        for v in iter_bits(self.masks[i]):
            near |= self.occ[v]
        self[i] = near
        return near


def _packing_bound(unhit: int, meets: _Meets) -> int:
    """Size of a greedily packed pairwise-disjoint sub-collection of the
    unhit targets, taken in index order."""
    count = 0
    while unhit:
        unhit &= ~meets[(unhit & -unhit).bit_length() - 1]
        count += 1
    return count


def min_hitting_set(
    sets: Sequence[VertexSet], budget: int = DEFAULT_HIT_BUDGET
) -> HittingSetResult:
    """Exact minimum hitting set of the given collection.

    Depth-first branch and bound on an explicit stack of (chosen mask,
    chosen size, unhit-target mask) nodes.  The targets are indexed once
    per call: ``occ[v]`` masks those containing v, ``meets[i]`` those
    sharing a vertex with target i (built when a packing first picks i),
    and ``groups`` holds them by size.  A child drops ``occ[v]`` from its
    parent's unhit mask, and the pivot is a smallest unhit target, first on
    ties.  A node is pruned unless it can still beat the best: k more
    vertices hit at most k * max_v |occ[v]| unhit targets (the counting
    bound), and each target of a greedily packed disjoint sub-collection
    needs a vertex of its own (the packing bound).  A node's children go on
    the stack at once, first child on top.  The first incumbent is the
    greedy seed, which adds the vertex in the most unhit targets (least
    index on ties) until all are hit.  On budget exhaustion the best found
    is returned with ``exact=False``; the certificate is the larger root
    bound.  The collection must be nonempty, hold no empty set, and keep
    every set on one vertex count.
    """
    if len({s.n for s in sets}) != 1:
        raise ValueError("need a nonempty collection of target sets on one vertex count")
    if any(not s.bits for s in sets):
        raise ValueError("an empty target set cannot be hit")
    masks = [s.bits for s in sets]
    occ = [0] * sets[0].n
    by_size: dict[int, int] = {}
    for i, m in enumerate(masks):
        bit = 1 << i
        for v in iter_bits(m):
            occ[v] |= bit
        by_size[m.bit_count()] = by_size.get(m.bit_count(), 0) | bit
    meets = _Meets(masks, occ)
    groups = [by_size[size] for size in sorted(by_size)]
    degree = max(map(int.bit_count, occ))
    everything = (1 << len(masks)) - 1
    best_mask = 0
    unhit = everything
    while unhit:
        counts = [*map(int.bit_count, map(unhit.__and__, occ))]
        v = counts.index(max(counts))
        best_mask |= 1 << v
        unhit &= ~occ[v]
    best_size = best_mask.bit_count()
    root_cert = max(_packing_bound(everything, meets), -(-len(masks) // degree))
    nodes = 0
    stack = [(0, 0, everything)]
    while stack:
        chosen_mask, chosen_size, unhit = stack.pop()
        nodes += 1
        if nodes > budget:
            break
        if not unhit:
            if chosen_size < best_size:
                best_size, best_mask = chosen_size, chosen_mask
            continue
        if chosen_size - (-unhit.bit_count() // degree) >= best_size:
            continue
        if chosen_size + _packing_bound(unhit, meets) >= best_size:
            continue
        # branch on the elements of a smallest unhit set (first on ties)
        for group in groups:
            smallest = unhit & group
            if smallest:
                break
        pivot = masks[(smallest & -smallest).bit_length() - 1]
        for v in reversed(list(iter_bits(pivot))):
            stack.append((chosen_mask | 1 << v, chosen_size + 1, unhit & ~occ[v]))
    return HittingSetResult(
        h=best_size,
        witness=VertexSet(sets[0].n, best_mask),
        num_targets=len(sets),
        lower_bound_cert=root_cert,
        exact=nodes <= budget,
        nodes=nodes,
    )


def h_of_graph(
    G: Graph,
    cap: int = DEFAULT_ENUM_CAP,
    budget: int = DEFAULT_HIT_BUDGET,
    threshold_eps: Fraction | None = None,
) -> HittingSetResult:
    """Minimum vertex set meeting every maximum independent set of G.

    With ``threshold_eps`` the targets widen to all containment-maximal
    independent sets of size at least (alpha_bar - eps) * n, reusing the
    same engine.  ``budget`` bounds the independent-set search behind the
    targets (alpha with ``threshold_eps``) as well as the hitting-set search.
    """
    if threshold_eps is not None and threshold_eps < 0:
        raise ValueError(f"threshold_eps must be >= 0, got {threshold_eps}")
    if threshold_eps is None:
        targets = enumerate_maximum_independent_sets(G, cap=cap, budget=budget)
    else:
        need = max_independent_set(G, budget=budget).alpha - threshold_eps * G.n
        targets = enumerate_maximal_independent_sets(G, min_size=max(0, math.ceil(need)), cap=cap)
    return min_hitting_set(targets, budget=budget)


def covering_code_check(m: int, radius: int, code: Sequence[int]) -> bool:
    """True iff every m-bit word is within Hamming distance ``radius`` of the code."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    size = 1 << m
    words = list(code)
    for w in words:
        if not 0 <= w < size:
            raise ValueError(f"codeword {w} out of range for {m} bits")
    if not words:
        return False
    for x in range(size):
        if all((x ^ c).bit_count() > radius for c in words):
            return False
    return True
