"""Blocker families for multi-player games, with certified verification.

A blocker is a set of point-tuples that intersects every winning set the
players can realize.  Small disjoint blockers force a quantified loss in
the game value when a player count is added, via ``lemma_bound``.

The inductive construction lives here, on one type, ``BlockerFamily``:
complementary pairs at arity 1, randomly sampled ``ell``-tuples built from
ordered coordinate partitions (also arity 1), and the lift, the product of
two families, in which arity adds and union measure multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .bits import point_to_str, str_to_point
from .errors import BudgetExceededError, RetryLimitError, SizeLimitError
from .hat_game import WinningFamily
from .rng import randrange_row

DEFAULT_VERIFY_BUDGET = 5_000_000
DEFAULT_MAX_ATTEMPTS = 10_000

PointTuple = tuple[int, ...]


@dataclass(frozen=True)
class BlockerSchedule:
    """Size/measure schedule of the inductive construction at one level.

    k(1) = 2 and beta(1) = 1; each level multiplies k by ell = C(2k, k) and
    divides beta by 2*ell.  ``ell`` is the tuple length used to reach this
    level (None at level 1).
    """

    d: int
    k: int
    beta: Fraction
    ell: int | None


@dataclass(frozen=True)
class BlockerFamily:
    """Pairwise-disjoint sets of t-tuples of n-bit words, all of one size k.

    The union measure is the share of the t-tuple space the blockers cover,
    k * len(blockers) / 2^(n*t); disjointness keeps it at most 1.
    """

    t: int
    n: int
    blockers: tuple[frozenset[PointTuple], ...]

    def __post_init__(self):
        sizes = {len(b) for b in self.blockers}
        if len(sizes) > 1:
            raise ValueError("blockers must share a common size")
        total = sum(len(b) for b in self.blockers)
        union = set().union(*self.blockers)
        if total != len(union):
            raise ValueError("blockers must be pairwise disjoint")
        if {len(a) for a in union} - {self.t}:
            raise ValueError(f"every tuple must have arity t = {self.t}")
        words = set().union(*union)
        if words and not 0 <= min(words) <= max(words) < 1 << self.n:
            raise ValueError(f"every word must lie in the {self.n}-bit space")

    @property
    def k(self) -> int:
        return len(self.blockers[0]) if self.blockers else 0

    @property
    def union_measure(self) -> Fraction:
        return Fraction(len(self.blockers) * self.k, 1 << (self.n * self.t))


def blocker_schedule(d_max: int) -> list[BlockerSchedule]:
    """Exact schedule values for levels 1..d_max (arbitrary precision).

    Levels stop at 3: level 4 needs C(2k, k) at k = 32,449,872 (~2e7 digits).
    """
    if d_max < 1:
        raise ValueError("need d_max >= 1")
    if d_max > 3:
        raise SizeLimitError(f"schedule levels past 3 need C(2k, k) at k = 32,449,872; got {d_max}")
    out = [BlockerSchedule(1, 2, Fraction(1), None)]
    for d in range(2, d_max + 1):
        prev = out[-1]
        ell = comb(2 * prev.k, prev.k)
        out.append(BlockerSchedule(d, prev.k * ell, prev.beta / (2 * ell), ell))
    return out


def pair_blockers(n: int) -> BlockerFamily:
    """All complementary pairs {x, ~x}: the arity-1 blockers, union measure 1.

    Every coordinate set {x : x_i = 1} contains exactly one point of each
    pair, so each pair meets every single-player winning set.
    """
    if n < 1:
        raise ValueError("pair_blockers needs n >= 1")
    full = (1 << n) - 1
    blockers = tuple(
        frozenset({(x,), (full ^ x,)}) for x in range(1 << n) if x < full ^ x
    )
    return BlockerFamily(1, n, blockers)


def _sample_partition(n: int, parts: int, seed: int, attempt: int) -> tuple[int, ...] | None:
    """Uniform assignment of coordinates to parts, rejected if a part is empty."""
    assign = tuple(randrange_row(n, parts, seed, attempt))
    return assign if len(set(assign)) == parts else None


def build_ell_tuples(
    n: int,
    k_base: int,
    seed: int,
    target_measure: Fraction | None = None,
) -> BlockerFamily:
    """Sample disjoint ell-tuples until their union reaches the target measure.

    Each attempt draws a uniform ordered partition of the n coordinates into
    2*k_base nonempty parts, forms the ell = C(2k, k) part-union words, and
    accepts the tuple iff it avoids every previously accepted word.  The
    default target is 1/(2*ell); pass a larger value to keep accumulating
    tuples.  A target above what disjoint tuples of the reachable words can
    cover raises :class:`RetryLimitError` before any draw (``attempts=0``).
    Returns an arity-1 family, one member of 1-tuples per tuple.
    """
    two_k = 2 * k_base
    if k_base < 1:
        raise ValueError("k_base must be >= 1")
    if n < two_k:
        raise ValueError(f"need n >= {two_k} coordinates to form nonempty parts")
    ell = comb(two_k, k_base)
    if target_measure is None:
        target_measure = Fraction(1, 2 * ell)
    if not 0 < target_measure <= 1:
        raise ValueError("target measure must lie in (0, 1]")
    space = 1 << n
    # a word joins k of the 2k nonempty parts, so its weight lies in [k, n - k]
    ceiling = Fraction(sum(comb(n, w) for w in range(k_base, n - k_base + 1)) // ell * ell, space)
    if target_measure > ceiling:
        raise RetryLimitError(
            f"target measure {target_measure} is out of reach: disjoint tuples of words "
            f"of weight {k_base} to {n - k_base} cover at most {ceiling}",
            attempts=0,
        )
    used = 0
    tuples: list[frozenset[PointTuple]] = []
    attempt = 0
    while Fraction(len(tuples) * ell, space) < target_measure:
        attempt += 1
        if attempt > DEFAULT_MAX_ATTEMPTS:
            raise RetryLimitError(
                f"gave up after {DEFAULT_MAX_ATTEMPTS} partition samples "
                f"(reached measure {Fraction(len(tuples) * ell, space)} of {target_measure})",
                attempts=attempt - 1,
            )
        assign = _sample_partition(n, two_k, seed, attempt)
        if assign is None:
            continue
        part_mask = [0] * two_k
        for c, p in enumerate(assign):
            part_mask[p] |= 1 << c
        words = [
            sum(part_mask[p] for p in subset)
            for subset in combinations(range(two_k), k_base)
        ]
        wmask = 0
        for w in words:
            wmask |= 1 << w
        if wmask & used:
            continue
        used |= wmask
        tuples.append(frozenset((w,) for w in words))
    return BlockerFamily(1, n, tuple(tuples))


def lift_blockers(base: BlockerFamily, tuples: BlockerFamily) -> BlockerFamily:
    """The product of two families on one n: each base blocker crossed with
    each member of ``tuples``.  Arity adds, sizes and union measures multiply.
    """
    if base.n != tuples.n:
        raise ValueError("base family and tuples must share the point space")
    blockers = tuple(
        frozenset(bt + y for bt in b for y in Y)
        for b in base.blockers
        for Y in tuples.blockers
    )
    return BlockerFamily(base.t + tuples.t, base.n, blockers)


@dataclass(frozen=True)
class VerifyResult:
    is_blocker: bool
    counterexample: dict[int, dict[PointTuple, int]] | None
    nodes: int


def verify_blocker(
    A: Iterable[PointTuple], family: WinningFamily, budget: int = DEFAULT_VERIFY_BUDGET
) -> VerifyResult:
    """Decide whether A, a set of t-tuples of the family's words, meets every
    winning set of the t-player game.

    A winning set avoiding A exists iff guesses can be chosen on the views
    that A projects to (per player) so that every tuple of A fails for at
    least one player; all other views are irrelevant.  The search runs over
    those assignments in a fixed variable order, trying guesses in order,
    with early pruning: a guess dies when some tuple then has all its
    players assigned and none wrong.  It also dies by forward checking
    (Haralick & Elliott 1980) when a later variable is left with no guess
    that fails every tuple it alone still can: the tuples whose other
    players are all assigned and none wrong.  Forward checking cuts only
    subtrees that hold no avoiding assignment, so when A is not a blocker
    the lexicographically first avoiding assignment still comes back, as a
    partial strategy.  ``nodes`` counts the guesses tried.

    Raises :class:`BudgetExceededError` when the budget runs out; the
    verdict is then unknown, never silently passed.
    """
    tuples = sorted(set(tuple(a) for a in A))
    if not tuples:
        raise ValueError("empty candidate set")
    t = len(tuples[0])
    if t < 2:
        raise ValueError("verify_blocker handles t >= 2")
    for a in tuples:
        if len(a) != t:
            raise ValueError(f"tuple {a} does not have arity {t}")
        if any(not 0 <= x < (1 << family.n) for x in a):
            raise ValueError(f"tuple {a} has points outside {family.n}-bit space")

    views_per_player = [sorted({a[:i] + a[i + 1 :] for a in tuples}) for i in range(t)]
    # assign players with fewer views first so contradictions surface early
    player_order = sorted(range(t), key=lambda i: (len(views_per_player[i]), i))
    variables: list[tuple[int, PointTuple]] = [
        (i, view) for i in player_order for view in views_per_player[i]
    ]
    var_id = {var: k for k, var in enumerate(variables)}

    # per variable k, tuple masks: wrong[k][g] fail when k guesses g, and
    # closes[k] have k as their last-assigned variable; ready[pos] have every
    # variable but the last at positions <= pos
    r = family.r
    size = len(variables)
    wrong = [[0] * r for _ in variables]
    closes = [0] * size
    ready = [0] * size
    later: list[set[int]] = [set() for _ in variables]
    for a_idx, a in enumerate(tuples):
        ks = [var_id[(i, a[:i] + a[i + 1 :])] for i in range(t)]
        *_, second, last = sorted(ks)
        closes[last] |= 1 << a_idx
        ready[second] |= 1 << a_idx
        later[second].add(last)
        for k, pt in zip(ks, a):
            for g, s in enumerate(family.sets):
                if not (s >> pt) & 1:
                    wrong[k][g] |= 1 << a_idx
    for pos in range(1, size):
        ready[pos] |= ready[pos - 1]
    # ahead[pos]: per later variable k that closes a tuple made ready at pos,
    # the ready tuples of k that each guess of k would leave unfailed
    ahead = [
        [[closes[k] & ready[pos] & ~w for w in wrong[k]] for k in sorted(later[pos])]
        for pos in range(size)
    ]

    # failed[pos]: tuples already failed by the guesses at positions < pos
    failed = [0] * (size + 1)
    assignment = [0] * size
    nodes = pos = g = 0
    while pos < size:
        if g == r:  # every guess at pos is dead: backtrack
            if pos == 0:
                return VerifyResult(True, None, nodes)
            pos -= 1
            g = assignment[pos] + 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"verification exceeded {budget} assignments; verdict unknown",
                nodes=nodes,
            )
        f = failed[pos] | wrong[pos][g]
        if closes[pos] & ~f:  # a tuple has every player assigned and none wrong
            g += 1
        elif any(all(m & ~f for m in left) for left in ahead[pos]):
            g += 1  # a later variable has no guess that fails its ready tuples
        else:
            assignment[pos] = g
            pos += 1
            failed[pos] = f
            g = 0
    # every tuple failed somewhere: A is avoided
    counterexample: dict[int, dict[PointTuple, int]] = {}
    for k, (i, view) in enumerate(variables):
        counterexample.setdefault(i, {})[view] = assignment[k]
    return VerifyResult(False, counterexample, nodes)


def lemma_bound(p_t: Fraction, k: int, beta: Fraction) -> Fraction:
    """Value bound one player up: p_t - 2^(-k) * beta / k, exactly."""
    if k < 1:
        raise ValueError("blocker size k must be >= 1")
    if not 0 <= beta <= 1:
        raise ValueError("union measure beta must lie in [0, 1]")
    return p_t - beta / (k * (1 << k))


# ---------------------------------------------------------------------------
# JSON rendering: a blocker is an array of tuples of bit-words rendered as
# binary strings (coordinate x_1 first).
# ---------------------------------------------------------------------------


def blocker_to_json(blocker: frozenset[PointTuple], n: int) -> list[list[str]]:
    return [[point_to_str(x, n) for x in tup] for tup in sorted(blocker)]


def family_to_json(fam: BlockerFamily) -> dict:
    return {
        "t": fam.t,
        "n": fam.n,
        "k": fam.k,
        "union_measure": f"{fam.union_measure.numerator}/{fam.union_measure.denominator}",
        "blockers": [blocker_to_json(b, fam.n) for b in fam.blockers],
    }


def tuples_from_json(obj: Sequence[Sequence[str]]) -> tuple[int, int, list[PointTuple]]:
    """Parse one candidate set: a JSON array of tuples of word strings.

    Returns (n, t, tuples); n comes from the word length, t from the arity.
    Raises ValueError on any other shape.
    """
    if not (isinstance(obj, list) and obj) or not all(
        isinstance(tup, list) and tup and all(isinstance(w, str) for w in tup) for tup in obj
    ):
        raise ValueError("a candidate set must be a nonempty array of nonempty arrays of words")
    tuples = []
    n = len(obj[0][0])
    t = len(obj[0])
    for tup in obj:
        if len(tup) != t or any(len(w) != n for w in tup):
            raise ValueError("inconsistent word lengths or arities in candidate set")
        tuples.append(tuple(str_to_point(w) for w in tup))
    return n, t, tuples
