"""Independence statistics of random induced subgraphs.

The central quantity is the expected best independent-set fraction inside a
uniformly random vertex subset W:

    alpha_star_star(G) = E_W[ max over independent I of |I ∩ W| ] / n
                       = E_W[ alpha(G[W]) ] / n.

alpha is additive over connected components, and so is its mean over W.
Exact mode averages the subset DP of each component of G's loop-free part
over all its 2^|c| subsets; Monte-Carlo mode draws one unbiased coin per
vertex per sample from a counter-based stream keyed (seed, sample, vertex),
so estimates are bit-identical for any evaluation order.  Monte-Carlo
alpha** and the partition bound are one statistic over different streams
of vertex masks; they, and exact alpha**, return one :class:`Estimate`,
which the quarter-plus-tau margin check extends.  Past the subset table a
mask is scored one connected component at a time, and each subset of a
component is searched at most once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .bits import iter_bits
from .errors import SizeLimitError
from .graph_core import (
    DEFAULT_ENUM_CAP,
    Graph,
    VertexSet,
    _components,
    enumerate_maximum_independent_sets,
    induced_subgraph,
    max_independent_set,
    subset_alpha,
)
from .hat_game import WinningFamily, r_v_distribution
from .rng import coin_mask, randrange

DEFAULT_SAMPLES = 2000
EXACT_SUBSET_GUARD = 15
EXACT_PARTS_GUARD = 20


@dataclass(frozen=True)
class Estimate:
    """Mean of alpha(G[W]) / n over ``samples`` vertex masks W of an n-vertex G."""

    n: int
    mode: str  # "exact" | "monte_carlo"
    estimate: Fraction | float
    stderr: float | None
    samples: int


@dataclass(frozen=True)
class RemovalStep:
    removed_vertex: int
    alpha: int
    successful: bool


@dataclass(frozen=True)
class RemovalTrace:
    n: int
    alpha_initial: int
    steps: tuple[RemovalStep, ...]


@dataclass(frozen=True)
class HajnalReport:
    alpha: int
    intersection: VertexSet
    union: VertexSet

    @property
    def intersection_size(self) -> int:
        return len(self.intersection)

    @property
    def union_size(self) -> int:
        return len(self.union)

    @property
    def passed(self) -> bool:
        return self.intersection_size + self.union_size >= 2 * self.alpha


@dataclass(frozen=True)
class MarginReport(Estimate):
    """Check of the quarter-plus-tau bound on alpha_star_star."""

    alpha_bar: Fraction
    tau: Fraction
    bound: Fraction

    @property
    def passed(self) -> bool:
        if self.mode == "exact":
            return self.estimate <= self.bound
        return float(self.estimate) <= float(self.bound) + 3.0 * (self.stderr or 0.0)


def _mean_alpha(G: Graph, masks: Iterable[int], mode: str) -> Estimate:
    """Mean of alpha(G[W]) / n over the vertex masks W.

    alpha(G[W]) is read from the subset table when n <= EXACT_SUBSET_GUARD
    or, in mode "exact", there are at least 2^n masks (then a list).
    Otherwise it is the sum of alpha(G[W & c]) over G's components c, as no
    edge joins two; each component keeps a dict of the W & c it has
    searched, so it is searched at most 2^|c| times, and on a connected G
    once per distinct W (unions of parts repeat).  Mode "exact" gives the
    Fraction mean and no standard error; mode "monte_carlo" gives the float
    mean and its standard error.  Both come from exact integer sums, which
    makes them independent of summation order, so Monte-Carlo records stay
    bit-identical across runs.
    """
    n = G.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if n <= EXACT_SUBSET_GUARD or (mode == "exact" and 1 << n <= len(masks)):
        alpha = G._subset_alphas.__getitem__
    else:
        memos = [(c, {}) for c in _components(G.adj, (1 << n) - 1)]

        def alpha(W: int) -> int:
            a = 0
            for c, memo in memos:
                w = W & c
                try:
                    a += memo[w]
                except KeyError:
                    memo[w] = x = subset_alpha(G, w)
                    a += x
            return a

    s = total = sq = 0
    for W in masks:
        a = alpha(W)
        s += 1
        total += a
        sq += a * a
    mean = Fraction(total, n * s)
    if mode == "exact":
        return Estimate(n, mode, mean, None, s)
    if s < 2:
        return Estimate(n, mode, float(mean), 0.0, s)
    var = (Fraction(sq, n * n) - Fraction(total * total, n * n * s)) / (s - 1)
    return Estimate(n, mode, float(mean), math.sqrt(float(var) / s), s)


def exact_components(G: Graph, guard: int = EXACT_SUBSET_GUARD) -> list[int] | None:
    """The connected components of G's loop-free part as masks, or None when
    one has more than ``guard`` vertices: the one rule for whether alpha**
    is exact.

    A looped vertex is in no independent set, so it is left out, and the
    blocks that only loops join are separate components (those of the
    loop-free part of K(n)^t).
    """
    parts = _components(G.adj, G._allowed)
    return None if any(c.bit_count() > guard for c in parts) else parts


def alpha_star_star_exact(G: Graph, guard: int = EXACT_SUBSET_GUARD) -> Estimate:
    """Exact rational average of alpha(G[W])/n over all 2^n subsets W.

    The mean of alpha(G[W]) is the sum over the ``exact_components`` c of
    the mean of alpha(G[S]) over the 2^|c| subsets S of c, read from c's
    subset table, so ``guard`` bounds the largest component, not n.  A
    loop-free connected G reads its own table, so through n =
    EXACT_SUBSET_GUARD its exact and Monte-Carlo estimates share one.
    """
    n = G.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    parts = exact_components(G, guard)
    if parts is None:
        raise SizeLimitError(
            f"exact mode enumerates the 2^|c| subsets of each component c; one exceeds guard {guard}"
        )
    top = max(map(int.bit_count, parts), default=0)
    total = 0  # the mean of alpha(G[W]) times 2^top
    for c in parts:
        H = G if c == (1 << n) - 1 else induced_subgraph(G, VertexSet(n, c))
        total += sum(H._subset_alphas) << (top - H.n)
    return Estimate(n, "exact", Fraction(total, n << top), None, 1 << n)


def alpha_star_star_mc(G: Graph, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> Estimate:
    """Unbiased Monte-Carlo estimate with standard error."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    return _mean_alpha(G, (coin_mask(G.n, seed, s) for s in range(samples)), "monte_carlo")


def hajnal_check(G: Graph, cap: int = DEFAULT_ENUM_CAP) -> HajnalReport:
    """Intersection and union of all maximum independent sets.

    The reported flag checks |intersection| + |union| >= 2 * alpha(G), which
    holds for every graph.
    """
    sets = enumerate_maximum_independent_sets(G, cap=cap)
    inter = (1 << G.n) - 1 if G.n else 0
    union = 0
    for vs in sets:
        inter &= vs.bits
        union |= vs.bits
    alpha = len(sets[0])
    return HajnalReport(alpha, VertexSet(G.n, inter), VertexSet(G.n, union))


def removal_trace(G: Graph, m: int, seed: int, threshold: Fraction) -> RemovalTrace:
    """Remove n - m uniformly random vertices one at a time, tracking alpha.

    A step is successful when alpha was already below threshold * n before
    the step (n the original vertex count), or when the step strictly
    decreased alpha.
    """
    if not 0 <= m <= G.n:
        raise ValueError("target size m must lie in [0, n]")
    remaining = list(range(G.n))
    mask = (1 << G.n) - 1
    alpha_prev = max_independent_set(G).alpha
    alpha_initial = alpha_prev
    cutoff = threshold * G.n
    steps = []
    for step in range(1, G.n - m + 1):
        idx = randrange(len(remaining), seed, step)
        v = remaining.pop(idx)
        mask &= ~(1 << v)
        alpha_now = subset_alpha(G, mask)
        successful = alpha_prev < cutoff or alpha_now < alpha_prev
        steps.append(RemovalStep(v, alpha_now, successful))
        alpha_prev = alpha_now
    return RemovalTrace(G.n, alpha_initial, tuple(steps))


def alpha_star_star_margin(G: Graph, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MarginReport:
    """Check alpha_star_star(G) <= 1/4 + tau - tau^2/3 where alpha_bar = 1/4 + tau.

    Requires 0 < tau < 1/4 (raises ValueError otherwise).  The estimate is
    exact when every component fits ``exact_components``' guard; otherwise
    the Monte-Carlo estimate must stay below the bound plus three standard
    errors.
    """
    res = max_independent_set(G)
    tau = res.alpha_bar - Fraction(1, 4)
    if not 0 < tau < Fraction(1, 4):
        raise ValueError(
            f"independence ratio {res.alpha_bar} out of range: need 1/4 < alpha_bar < 1/2"
        )
    bound = Fraction(1, 4) + tau - tau * tau / 3
    if exact_components(G) is None:
        est = alpha_star_star_mc(G, samples, seed)
    else:
        est = alpha_star_star_exact(G)
    return MarginReport(**vars(est), alpha_bar=res.alpha_bar, tau=tau, bound=bound)


def _validate_partition(G: Graph, partition: Sequence[VertexSet]) -> list[int]:
    masks = []
    union = 0
    total = 0
    for part in partition:
        if part.n != G.n:
            raise ValueError("partition parts must live on the graph's vertex set")
        masks.append(part.bits)
        union |= part.bits
        total += part.bits.bit_count()
    if union != (1 << G.n) - 1 or total != G.n:
        raise ValueError("parts must cover every vertex exactly once")
    return masks


_BITS = bytes.maketrans(b"01", b"\0\1")  # bin() digits as compress() selectors


def partition_bound_eval(
    G: Graph,
    partition: Sequence[VertexSet],
    family: WinningFamily | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "exact",
) -> Estimate:
    """Expected best independent fraction inside a sampled union of parts.

    For an index set R drawn from the sampler, the inner value is
    alpha(G[union of parts in R]) / n; the result estimates its expectation
    for the GIVEN partition.  With no family each part is in R
    independently with probability 1/2; with a :class:`WinningFamily`, R
    is the index set of the sets containing a uniform point of the
    family's cube, so part indices align with winning-set indices.

    Mode "exact" enumerates the sampler's distribution and needs r <= 20
    without a family; mode "monte_carlo" draws ``samples`` index sets from
    the stream keyed by ``seed``.
    """
    masks = _validate_partition(G, partition)
    r = len(masks)
    if family is not None and family.r != r:
        raise ValueError("partition must have one part per winning set")
    if mode == "exact":
        if family is not None:
            # transposed: every winning set adds its part to each member point's union
            unions = [0] * (1 << family.n)
            for members, part in zip(family.sets, masks):
                for v in compress(range(1 << family.n), bin(members)[:1:-1].encode().translate(_BITS)):
                    unions[v] |= part
        elif r > EXACT_PARTS_GUARD:
            raise SizeLimitError(f"exact mode enumerates 2^r index sets; r={r} exceeds {EXACT_PARTS_GUARD}")
        else:
            unions = [0]  # unions[R] for every index set R, doubling once per part
            for part in masks:
                unions += [u | part for u in unions]
    elif mode == "monte_carlo":
        if samples < 1:
            raise ValueError("need samples >= 1")
        index_sets = (
            iter_bits(coin_mask(r, seed, s)) if family is None
            else r_v_distribution(family, randrange(1 << family.n, seed, s))
            for s in range(samples)
        )
        # the parts are disjoint, so the sum of those in R is their union
        unions = (sum(masks[i] for i in R) for R in index_sets)
    else:
        raise ValueError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")
    return _mean_alpha(G, unions, mode)
