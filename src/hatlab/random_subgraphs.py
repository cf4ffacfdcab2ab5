"""Independence statistics of random induced subgraphs.

The central quantity is the expected best independent-set fraction inside a
uniformly random vertex subset W:

    alpha_star_star(G) = E_W[ max over independent I of |I ∩ W| ] / n
                       = E_W[ alpha(G[W]) ] / n.

Exact mode enumerates all 2^n subsets through a subset DP; Monte-Carlo mode
draws one unbiased coin per vertex per sample from a counter-based stream
keyed (seed, sample, vertex), so estimates are bit-identical for any
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Sequence

from .bits import iter_bits
from .errors import SizeLimitError
from .graph_core import (
    DEFAULT_ENUM_CAP,
    Graph,
    VertexSet,
    enumerate_maximum_independent_sets,
    graph_fingerprint,
    max_independent_set,
    subset_alpha,
)
from .hat_game import WinningFamily, r_v_distribution
from .rng import coin_mask, randrange

DEFAULT_SAMPLES = 2000
EXACT_SUBSET_GUARD = 15
EXACT_PARTS_GUARD = 20


@dataclass(frozen=True)
class AlphaStarStarResult:
    fingerprint: str
    n: int
    mode: str  # "exact" | "monte_carlo"
    estimate: Fraction | float
    stderr: float | None
    samples: int
    seed: int | None


@dataclass(frozen=True)
class RemovalStep:
    removed_vertex: int
    alpha: int
    successful: bool


@dataclass(frozen=True)
class RemovalTrace:
    fingerprint: str
    n: int
    seed: int
    threshold: Fraction
    m_final: int
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
class MarginReport:
    """Check of the quarter-plus-tau bound on alpha_star_star."""

    fingerprint: str
    alpha_bar: Fraction
    tau: Fraction
    bound: Fraction
    mode: str
    estimate: Fraction | float
    stderr: float | None
    samples: int
    seed: int | None

    @property
    def passed(self) -> bool:
        if self.mode == "exact":
            return self.estimate <= self.bound
        return float(self.estimate) <= float(self.bound) + 3.0 * (self.stderr or 0.0)


@dataclass(frozen=True)
class PartitionBoundResult:
    r: int
    sampler: str
    mode: str
    estimate: Fraction | float
    stderr: float | None
    samples: int
    seed: int | None


def _mean_alpha(G: Graph, masks: Iterable[int], exact: bool) -> tuple[Fraction | float, float | None]:
    """Mean of alpha(G[W]) / n over the vertex masks W, the one estimator here.

    alpha(G[W]) is read from the subset table when n <= EXACT_SUBSET_GUARD
    or the masks are all 2^n subsets, and searched otherwise, once per
    distinct W (unions of partition parts repeat).  Exact mode returns the
    Fraction mean and no standard error; Monte-Carlo mode returns the float
    mean and its standard error.  Both come from exact integer sums, which
    makes them independent of summation order, so Monte-Carlo records stay
    bit-identical across runs.
    """
    n = G.n
    if n <= EXACT_SUBSET_GUARD or masks == range(1 << n):
        alpha = G._subset_alphas.__getitem__
    else:
        alpha = lru_cache(maxsize=None)(partial(subset_alpha, G))
    s = total = sq = 0
    for W in masks:
        a = alpha(W)
        s += 1
        total += a
        sq += a * a
    mean = Fraction(total, n * s)
    if exact:
        return mean, None
    if s < 2:
        return float(mean), 0.0
    var = (Fraction(sq, n * n) - Fraction(total * total, n * n * s)) / (s - 1)
    return float(mean), math.sqrt(float(var) / s)


def alpha_star_star_exact(G: Graph, guard: int = EXACT_SUBSET_GUARD) -> AlphaStarStarResult:
    """Exact rational average of alpha(G[W])/n over all 2^n subsets W."""
    if G.n < 1:
        raise ValueError("graph must have at least one vertex")
    if G.n > guard:
        raise SizeLimitError(f"exact mode enumerates 2^n subsets; n={G.n} exceeds guard {guard}")
    value, _ = _mean_alpha(G, range(1 << G.n), exact=True)
    return AlphaStarStarResult(graph_fingerprint(G), G.n, "exact", value, None, 1 << G.n, None)


def alpha_star_star_mc(G: Graph, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> AlphaStarStarResult:
    """Unbiased Monte-Carlo estimate with standard error."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    n = G.n
    mean, stderr = _mean_alpha(G, (coin_mask(n, seed, s) for s in range(samples)), exact=False)
    return AlphaStarStarResult(graph_fingerprint(G), n, "monte_carlo", mean, stderr, samples, seed)


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
    return RemovalTrace(
        graph_fingerprint(G), G.n, seed, threshold, m, alpha_initial, tuple(steps)
    )


def alpha_star_star_margin(G: Graph, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> MarginReport:
    """Check alpha_star_star(G) <= 1/4 + tau - tau^2/3 where alpha_bar = 1/4 + tau.

    Requires 0 < tau < 1/4 (raises ValueError otherwise).  The estimate is
    exact for n <= EXACT_SUBSET_GUARD; otherwise the Monte-Carlo estimate must stay
    below the bound plus three standard errors.
    """
    res = max_independent_set(G)
    tau = res.alpha_bar - Fraction(1, 4)
    if not 0 < tau < Fraction(1, 4):
        raise ValueError(
            f"independence ratio {res.alpha_bar} out of range: need 1/4 < alpha_bar < 1/2"
        )
    bound = Fraction(1, 4) + tau - tau * tau / 3
    if G.n <= EXACT_SUBSET_GUARD:
        est = alpha_star_star_exact(G)
    else:
        est = alpha_star_star_mc(G, samples, seed)
    return MarginReport(
        graph_fingerprint(G),
        res.alpha_bar,
        tau,
        bound,
        est.mode,
        est.estimate,
        est.stderr,
        est.samples,
        est.seed,
    )


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


def partition_bound_eval(
    G: Graph,
    partition: Sequence[VertexSet],
    sampler: str | WinningFamily = "binomial",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "exact",
) -> PartitionBoundResult:
    """Expected best independent fraction inside a sampled union of parts.

    For an index set R drawn from the sampler, the inner value is
    alpha(G[union of parts in R]) / n; the result estimates its expectation
    for the GIVEN partition.  Samplers: "binomial" (each part independently
    with probability 1/2) or a :class:`WinningFamily` (R is the index set of
    sets containing a uniform point of the family's cube; part indices then
    align with winning-set indices).

    Mode "exact" enumerates the sampler's distribution and needs r <= 20
    (binomial) or the family cube enumerable; mode "mc" draws ``samples``
    index sets from the stream keyed by ``seed``.
    """
    masks = _validate_partition(G, partition)
    r = len(masks)
    family = sampler if isinstance(sampler, WinningFamily) else None
    if sampler == "binomial":
        sampler_name = "binomial"
        space: Sequence[int] = range(1 << r)
    elif family is None:
        raise ValueError(f"sampler must be 'binomial' or a WinningFamily, got {sampler!r}")
    else:
        if family.r != r:
            raise ValueError("partition must have one part per winning set")
        sampler_name = f"r_v({family.kind})"
        space = [sum(1 << i for i in r_v_distribution(family, v)) for v in range(1 << family.n)]

    if mode == "exact":
        if family is None and r > EXACT_PARTS_GUARD:
            raise SizeLimitError(f"exact mode enumerates 2^r index sets; r={r} exceeds {EXACT_PARTS_GUARD}")
        index_sets: Iterable[int] = space
    elif mode == "mc":
        if samples < 1:
            raise ValueError("need samples >= 1")
        index_sets = (
            coin_mask(r, seed, s) if family is None else space[randrange(len(space), seed, s)]
            for s in range(samples)
        )
    else:
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    # the parts are disjoint, so the sum of those in R is their union
    unions = (sum(masks[i] for i in iter_bits(R)) for R in index_sets)
    mean, stderr = _mean_alpha(G, unions, exact=mode == "exact")
    if mode == "exact":
        return PartitionBoundResult(r, sampler_name, "exact", mean, None, 0, None)
    return PartitionBoundResult(r, sampler_name, "mc", mean, stderr, samples, seed)
