"""Winning-set families, strategies, and exact game values.

Setting: ``t`` players, each carrying a stack of ``n`` hats encoded as a
point of B = {0,1}^n.  Each player sees everyone else's point, then names
one winning set from a fixed indexed family; the collective succeeds when
every player's own point lies in the set she named.

Conventions:

* Winning-set indices are 0-based throughout.
* A tuple x = (x_0, ..., x_{t-1}) over B has flat index
  ``sum(x_j * N**(t-1-j))`` with N = 2^n (player 0 is the major digit).
* Player i's view of x is the (t-1)-tuple with coordinate i deleted,
  flattened the same way over the remaining players in increasing order.
* A strategy of t players is their t guess tables: ``tables[i][view]`` is
  the winning-set index player i names on that flat view.
* All exact values are Fractions with power-of-two denominators; no floats
  on exact paths.

The intersecting kind is the balanced up-sets with no complementary pair, as
every maximal intersecting family is one (Erdos, Ko & Rado 1961).

Every best response, and every value coordinate ascent reports, comes from
one per-view evaluator (``_others_correct``).  The two-player table search
is a branch and bound over packed tables whose columns are that
evaluator's per-view masks, and re-derives its winner's value with
``best_response``.  ``winning_set_of_strategy`` is the independent
whole-strategy scorer: ``nested_lower_bound`` re-scores its witness with
it, so a reported bound never rests on the evaluator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bits import iter_bits
from .errors import SizeLimitError
from .rng import randrange_row

KINDS = ("dictator", "intersecting", "monotone")
DICTATOR_MAX_N = 16
INTERSECTING_MAX_N = 4
MONOTONE_MAX_N = 5
DEFAULT_TABLE_BUDGET = 2_000_000
DEFAULT_RESTARTS = 4
MAX_SWEEPS = 64
DEFAULT_MASK_GUARD = 1 << 22


@dataclass(frozen=True)
class WinningFamily:
    """Indexed family of winning sets over B = {0,1}^n.

    Each set is stored as a 2^n-bit membership mask (bit w set iff the word
    w belongs to the set).
    """

    n: int
    kind: str
    sets: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class GameValue:
    t: int
    n: int
    kind: str
    value: Fraction
    mode: str  # "exact" | "lower_bound"
    witness: tuple[tuple[int, ...], ...]  # the strategy's t guess tables


def _dictator_sets(n: int) -> tuple[int, ...]:
    """Set i holds the words with bit i: a period of 2^i words without it,
    then 2^i with it, doubled until it spans all 2^n words."""
    sets = []
    for i in range(n):
        period = 2 << i
        s = ((1 << (1 << i)) - 1) << (1 << i)
        while period < 1 << n:
            s |= s << period
            period *= 2
        sets.append(s)
    return tuple(sets)


def _balanced_monotone_sets(n: int) -> tuple[int, ...]:
    """All up-closed subsets of {0,1}^n with exactly 2^(n-1) members.

    Explicit-stack assignment over words in decreasing-weight order: a word
    may be included only once all its immediate supersets are included.
    """
    size = 1 << n
    target = size // 2
    words = sorted(range(size), key=lambda w: (-w.bit_count(), w))
    supersets = [
        [w | (1 << j) for j in range(n) if not (w >> j) & 1] for w in words
    ]
    out: list[int] = []
    stack = [(0, 0, 0)]  # (position in words, mask, ones)
    while stack:
        pos, mask, ones = stack.pop()
        if ones > target or ones + len(words) - pos < target:
            continue
        if pos == len(words):
            out.append(mask)
            continue
        stack.append((pos + 1, mask, ones))
        if all((mask >> s) & 1 for s in supersets[pos]):
            stack.append((pos + 1, mask | (1 << words[pos]), ones + 1))
    return tuple(sorted(out))


def winning_family(kind: str, n: int) -> WinningFamily:
    """Build the full indexed family of the given kind.

    dictator: the n coordinate sets {x : x_i = 1}, in coordinate order;
    guarded to n <= 16.  intersecting: all containment-maximal intersecting
    families, the balanced up-closed sets disjoint from their mirror (word w
    <-> 2^n - 1 - w), since such an up-set holds no complementary pair;
    guarded to n <= 4.  monotone: all balanced up-closed sets; guarded to n <= 5.
    """
    if n < 1:
        raise ValueError("winning_family needs n >= 1")
    if kind == "dictator":
        if n > DICTATOR_MAX_N:
            raise SizeLimitError(f"dictator families built only for n <= {DICTATOR_MAX_N}")
        return WinningFamily(n, kind, _dictator_sets(n))
    if kind == "intersecting":
        if n > INTERSECTING_MAX_N:
            raise SizeLimitError(f"intersecting families enumerable only for n <= {INTERSECTING_MAX_N}")
        sets = (s for s in _balanced_monotone_sets(n) if not s & int(f"{s:0{1 << n}b}"[::-1], 2))
        return WinningFamily(n, kind, tuple(sets))
    if kind == "monotone":
        if n > MONOTONE_MAX_N:
            raise SizeLimitError(f"balanced monotone families enumerable only for n <= {MONOTONE_MAX_N}")
        return WinningFamily(n, kind, _balanced_monotone_sets(n))
    raise ValueError(f"unknown family kind {kind!r}; expected one of {KINDS}")


# ---------------------------------------------------------------------------
# Views and winning sets of strategies
# ---------------------------------------------------------------------------


def _others_correct(family: WinningFamily, tables: Sequence[Sequence[int]], i: int) -> list[int]:
    """Per view of player i, the N-bit mask of her points x_i at which every
    other player guesses right.  ``tables[i]`` is not read.

    Per other player j and context c (the points of the players other than
    i and j), the preimages of j's guesses along x_i, which has weight
    N^(t-1-i-(j>i)) in j's view, are OR-ed per x_j over the guesses whose
    set contains x_j and AND-ed into i's view, where x_j has weight
    N^(t-2-j+(j>i)).
    """
    N = 1 << family.n
    t = len(tables)
    containing = [r_v_distribution(family, x) for x in range(N)]
    ok = [(1 << N) - 1] * N ** (t - 1)
    for j, table in enumerate(tables):
        if j == i:
            continue
        stride = N ** (t - 1 - i - (j > i))
        weight = N ** (t - 2 - j + (j > i))
        for c in range(N ** (t - 2)):
            base = c // stride * stride * N + c % stride
            pre = [0] * family.r
            for x_i, g in enumerate(table[base : base + N * stride : stride]):
                pre[g] |= 1 << x_i
            at = c // weight * weight * N + c % weight
            for gs in containing:
                union = 0
                for g in gs:
                    union |= pre[g]
                ok[at] &= union
                at += weight
    return ok


def _best_guesses(family: WinningFamily, masks: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Per mask, the least-index guess whose set covers most of it, and the
    summed cover: the number of winning tuples the guesses give."""
    sets = family.sets
    rest = range(1, family.r)
    table = []
    total = 0
    for mask in masks:
        best_g = 0
        best_c = (sets[0] & mask).bit_count()
        for g in rest:
            c = (sets[g] & mask).bit_count()
            if c > best_c:
                best_g = g
                best_c = c
        table.append(best_g)
        total += best_c
    return tuple(table), total


def _guard_tuples(N: int, t: int) -> int:
    """N^t, the number of hat tuples, refused past DEFAULT_MASK_GUARD."""
    total = N**t
    if total > DEFAULT_MASK_GUARD:
        raise SizeLimitError(f"{t} players on {N} points make {total} tuples, over the guard 2^22")
    return total


def _check_guesses(family: WinningFamily, tables: Sequence[Sequence[int]], views: int) -> None:
    """Raise ValueError unless there is a table and each of ``tables`` holds
    ``views`` winning-set indices of the family."""
    if not tables:
        raise ValueError("need at least one table")
    indices = set(range(family.r))
    for table in tables:
        if len(table) != views or not indices.issuperset(table):
            raise ValueError(f"need tables of {views} winning-set indices in range({family.r})")


def winning_set_of_strategy(
    family: WinningFamily, tables: Sequence[Sequence[int]]
) -> tuple[int, Fraction]:
    """Exact winning set of a strategy as a bit mask over B^t, plus its measure.

    Per player, bits are placed view-by-view using a cached spread of each
    winning set along the player's stride; the intersection over players is
    the winning set.
    """
    N = 1 << family.n
    t = len(tables)
    total = _guard_tuples(N, t)
    _check_guesses(family, tables, N ** (t - 1))
    win = (1 << total) - 1
    spread_cache: dict[tuple[int, int], int] = {}
    for i, table in enumerate(tables):
        stride = N ** (t - 1 - i)
        correct = 0
        hi_block = N ** (t - i)
        for view in range(N ** (t - 1)):
            hi, lo = divmod(view, stride)
            g = table[view]
            key = (g, i)
            pat = spread_cache.get(key)
            if pat is None:
                pat = sum(1 << (w * stride) for w in iter_bits(family.sets[g]))
                spread_cache[key] = pat
            correct |= pat << (hi * hi_block + lo)
        win &= correct
    return win, Fraction(win.bit_count(), total)


def exact_value_one_player(family: WinningFamily) -> GameValue:
    """Best single-player value: the largest set measure, lowest index on ties."""
    table, count = _best_guesses(family, [(1 << (1 << family.n)) - 1])
    return GameValue(1, family.n, family.kind, Fraction(count, 1 << family.n), "exact", (table,))


def r_v_distribution(family: WinningFamily, v: int) -> tuple[int, ...]:
    """Indices of the winning sets containing the point v."""
    if not 0 <= v < (1 << family.n):
        raise ValueError("point out of range")
    return tuple([i for i in range(family.r) if (family.sets[i] >> v) & 1])


def check_positive_correlation(
    family: WinningFamily, J: Sequence[int], i: int
) -> tuple[Fraction, bool]:
    """Exact Pr[i in R_v | J subseteq R_v] over uniform v, and a >= 1/2 flag.

    J empty gives the marginal.  Raises ValueError when the conditioning
    event is empty or an index is not a winning set's.
    """
    for index in (*J, i):
        if index not in range(family.r):
            raise ValueError(f"winning-set index {index!r} is not in range({family.r})")
    inter = (1 << (1 << family.n)) - 1
    for j in J:
        inter &= family.sets[j]
    denom = inter.bit_count()
    if denom == 0:
        raise ValueError("conditioning event is empty")
    prob = Fraction((inter & family.sets[i]).bit_count(), denom)
    return prob, prob >= Fraction(1, 2)


# ---------------------------------------------------------------------------
# Two-player exact solver
# ---------------------------------------------------------------------------


def best_response(
    family: WinningFamily, g2_table: Sequence[int]
) -> tuple[tuple[int, ...], Fraction]:
    """Optimal player-0 table against a fixed player-1 table, and the value.

    Player 1's table partitions B into preimages V_i; for each point x_1
    seen by player 0, the best guess maximizes the overlap of a winning set
    with the union of the V_i whose index set contains x_1.  Ties break to
    the least index.
    """
    N = 1 << family.n
    _check_guesses(family, [g2_table], N)
    table0, count = _best_guesses(family, _others_correct(family, ((), g2_table), 0))
    return table0, Fraction(count, N * N)


class _Cover(dict):
    """Column memo, filled on a miss: a column (as little-endian bytes) maps
    to max over g of |sets[g] & column|.  It holds at most 2^N keys."""

    def __init__(self, sets: tuple[int, ...]) -> None:
        self.sets = sets

    def __missing__(self, key: bytes) -> int:
        column = int.from_bytes(key, "little")
        self[key] = count = max((s & column).bit_count() for s in self.sets)
        return count


def _best_player1_table(family: WinningFamily, budget: int) -> tuple[int, tuple[int, ...], int]:
    """First player-1 table, in lexicographic order among the first
    ``budget``, whose best response wins most tuples; returns that count,
    the table and the number of search nodes.

    A table g2 is one packed integer, the sum over x_0 of
    ``spread[g2[x_0]] << x_0``, where ``spread[g]`` has bit w*W set for
    each w in ``sets[g]`` (W = max(N, 8) bits, a whole number of bytes).
    Its W-bit column x_1 is ``_others_correct(family, ((), g2), 0)[x_1]``;
    one ``struct`` unpack splits the table's bytes into its N columns, and
    the best response's count is the sum over columns of the memoised
    cover.  The search assigns x_0 = 0, 1, ... depth first, guesses in
    increasing order, on an explicit stack.  With views 0..k assigned and
    count A, each later view adds at most one to a column's cover in at
    most m = max |sets[g]| columns, so a node is cut when A + (N-1-k)*m
    cannot beat the best count; a depth N-1 node is a whole table, whose
    count A replaces the best only when larger.  The budget counts tables
    whether scored or cut.
    """
    N = 1 << family.n
    r = family.r
    sets = family.sets
    width = max(N, 8) // 8  # bytes per column
    size = width * N
    spread = [sum(1 << (8 * width * w) for w in iter_bits(s)) for s in sets]
    unpack = struct.Struct("<" + f"{width}s" * N).unpack
    cover = _Cover(sets).__getitem__
    m = max(s.bit_count() for s in sets)
    span = [r ** (N - 1 - k) for k in range(N)]  # tables below a depth-k node
    path = [0] * N
    best_count = -1
    best_g2: tuple[int, ...] = ()
    left = budget
    nodes = 0
    down = range(r - 1, -1, -1)  # pushed last to first, so popped in order
    stack = [(0, g, 0) for g in down]  # (depth, guess, parent prefix)
    while stack:
        k, g, prefix = stack.pop()
        nodes += 1
        path[k] = g
        prefix += spread[g] << k
        A = sum(map(cover, unpack(prefix.to_bytes(size, "little"))))
        if A + (N - 1 - k) * m > best_count:
            if k < N - 1:
                stack += [(k + 1, h, prefix) for h in down]
                continue
            best_count, best_g2 = A, tuple(path)
        left -= span[k]
        if left <= 0:
            break
    return best_count, best_g2, nodes


def exact_value_two_players(
    family: WinningFamily, budget: int = DEFAULT_TABLE_BUDGET
) -> GameValue:
    """Exact two-player value by a branch and bound over player-1 tables.

    Player-1 tables (equivalently ordered partitions of B into
    preimages) are scored by the number of tuples their exact best
    response wins, without building that response: a table is packed
    into one integer whose columns are player 0's per-view masks, and a
    per-call memo maps each column to its best cover.  The tables are
    assigned view by view in lexicographic order, and every node, partial
    table or whole, is cut once its best-response bound cannot beat the
    best count found.  The first table with the largest count wins; its
    player-0 table and value come from ``best_response``.  ``budget``
    counts tables in lexicographic order, scored or cut; when r^(2^n)
    tables exceed it the search stops there and returns the best of the
    first ``budget`` tables with mode "lower_bound".  Past
    DEFAULT_MASK_GUARD tuples it raises SizeLimitError before any work.
    """
    if budget < 1:
        raise ValueError("budget must allow at least one table")
    N = 1 << family.n
    _guard_tuples(N, 2)
    count, g2, _ = _best_player1_table(family, budget)
    table0, value = best_response(family, g2)
    if value != Fraction(count, N * N):
        raise RuntimeError(f"packed count {count}/{N * N} disagrees with best_response's {value}")
    mode = "exact" if family.r**N <= budget else "lower_bound"
    return GameValue(2, family.n, family.kind, value, mode, (table0, g2))


# ---------------------------------------------------------------------------
# Lower bounds for three or more players
# ---------------------------------------------------------------------------


def coordinate_ascent(
    family: WinningFamily, tables: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], list[Fraction]]:
    """Repeatedly replace one player's table by its exact best response,
    until a sweep changes no table or ``MAX_SWEEPS`` sweeps have run.

    Returns the final tables and the value after each sweep; the history
    is non-decreasing because each replacement is an exact best response.
    The winning count of the last player's response is the value of the
    whole strategy after the sweep.
    """
    N = 1 << family.n
    t = len(tables)
    _check_guesses(family, tables, N ** (t - 1))
    total = N**t
    work = [tuple(tb) for tb in tables]
    history: list[Fraction] = []
    for _ in range(MAX_SWEEPS):
        changed = False
        for i in range(t):
            new_i, count = _best_guesses(family, _others_correct(family, work, i))
            if new_i != work[i]:
                work[i] = new_i
                changed = True
        history.append(Fraction(count, total))
        if not changed:
            break
    return tuple(work), history


def _lift_strategy(strat: Sequence[Sequence[int]], N: int) -> list[list[int]]:
    """Embed the tables of a (t-1)-player strategy into the t-player game.

    Splitting B^t as B^(t-1) x B: the first t-1 players ignore the new last
    coordinate (the least significant view digit) and play as before; the
    new player starts on guess 0 and picks up her exact best response in
    the first ascent sweep.
    """
    views = N ** len(strat)
    tables = [[tb[view // N] for view in range(views)] for tb in strat]
    tables.append([0] * views)
    return tables


def nested_lower_bound(
    family: WinningFamily, t: int, seed: int = 0, restarts: int = DEFAULT_RESTARTS
) -> GameValue:
    """Certified lower bound for the t-player value (t >= 3).

    Level by level from 3 to t, the start candidates are the best strategy
    of the level below lifted through the split B^k = B^(k-1) x B (the
    exact two-player witness at the bottom), the all-least-index strategy,
    and restarts - 1 seeded random tables; the same seed and restarts serve
    every level.  Each start is improved by coordinate ascent, and only the
    final winner's witness is re-scored by ``winning_set_of_strategy``,
    which shares no code with the ascent's evaluator, so the bound never
    depends on the search having behaved.  Past DEFAULT_MASK_GUARD tuples
    it raises SizeLimitError before any work.
    """
    if t < 3:
        raise ValueError("nested_lower_bound is for t >= 3; use the exact solvers below that")
    if restarts < 1:
        raise ValueError("need restarts >= 1")
    N = 1 << family.n
    _guard_tuples(N, t)
    r = family.r
    # exact two-player witness when the table space is small, a budgeted
    # (heuristic) one otherwise
    best_strat = exact_value_two_players(family, budget=50_000).witness
    for k in range(3, t + 1):
        views = N ** (k - 1)
        starts = [_lift_strategy(best_strat, N), [[0] * views for _ in range(k)]]
        for j in range(1, restarts):
            starts.append([randrange_row(views, r, seed, j, i) for i in range(k)])
        best_val = Fraction(-1)
        for tables in starts:
            strat, history = coordinate_ascent(family, tables)
            if history[-1] > best_val:
                best_val = history[-1]
                best_strat = strat
    _, value = winning_set_of_strategy(family, best_strat)
    return GameValue(t, family.n, family.kind, value, "lower_bound", best_strat)
