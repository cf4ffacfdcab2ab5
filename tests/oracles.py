"""Independent reference implementations used to cross-check the solvers.

Everything here is deliberately naive: direct enumeration, per-tuple
simulation, size-ordered subset search.  None of it shares code with the
package's branch-and-bound or coloring machinery.  The ``reference_*``
searches are the package's earlier versions, kept to pin node counts and
tie-breaks: the recursive blocker and hitting-set searches, the MIS
search before its root reduction, and the two-player table search that
scored each table with a full best response, then with a packed count
(``packed_table_improvements``).  ``reference_exact_value_two_players``
reuses the package's ``best_response``, which it does not test.  The
hitting-set oracle keeps its own greedy seed (``reference_greedy_hitting``,
which recounts the unhit sets each round) and packing bound over lists of
unhit sets.  ``dp_alpha_star_star`` averages one whole-graph subset
table, where the package splits G into components.  ``reference_gnp`` draws G(n, p) one scalar ``chance`` per
pair, as ``random_gnp`` did before it drew a row of coins per pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from hatlab.bits import iter_bits, iter_submasks
from hatlab.blockers import DEFAULT_VERIFY_BUDGET, PointTuple, VerifyResult
from hatlab.errors import BudgetExceededError, CapExceededError
from hatlab.graph_core import DEFAULT_ENUM_CAP, Graph, VertexSet
from hatlab.hat_game import (
    DEFAULT_TABLE_BUDGET,
    GameValue,
    WinningFamily,
    best_response,
)
from hatlab.hitting_sets import DEFAULT_HIT_BUDGET, HittingSetResult
from hatlab.rng import chance


def is_independent(G: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if G.adj[v] & mask:
            return False
    return True


def brute_alpha_all_masks(G: Graph) -> int:
    """Maximum independent set size by checking every one of the 2^n subsets."""
    best = 0
    for mask in range(1 << G.n):
        if mask.bit_count() > best and is_independent(G, mask):
            best = mask.bit_count()
    return best


def enumerate_independent_sets(G: Graph) -> list[int]:
    """Every independent set, generated by a vertex-ordered subset tree."""
    allowed = [v for v in range(G.n) if not G.has_loop(v)]
    out = [0]

    def grow(mask: int, start: int) -> None:
        for idx in range(start, len(allowed)):
            v = allowed[idx]
            if G.adj[v] & mask:
                continue
            out.append(mask | (1 << v))
            grow(mask | (1 << v), idx + 1)

    grow(0, 0)
    return out


def brute_alpha(G: Graph) -> int:
    if G.n <= 14:
        return brute_alpha_all_masks(G)
    return max(m.bit_count() for m in enumerate_independent_sets(G))


def brute_maximum_sets(G: Graph) -> set[int]:
    sets = enumerate_independent_sets(G)
    alpha = max(m.bit_count() for m in sets)
    return {m for m in sets if m.bit_count() == alpha}


def brute_maximal_sets(G: Graph) -> set[int]:
    sets = set(enumerate_independent_sets(G))
    out = set()
    for m in sets:
        if all(
            (m >> v) & 1 or (m | (1 << v)) not in sets for v in range(G.n)
        ):
            out.add(m)
    return out


def brute_alpha_star_star(G: Graph) -> Fraction:
    """Second implementation of the random-subset average, via submasks."""
    total = 0
    for W in range(1 << G.n):
        best = 0
        for sub in iter_submasks(W):
            if sub.bit_count() > best and is_independent(G, sub):
                best = sub.bit_count()
        total += best
    return Fraction(total, (1 << G.n) * G.n)


def dp_alpha_star_star(G: Graph) -> Fraction:
    """The random-subset average from one subset DP over the whole graph,
    removing each mask's highest vertex: drop it, or take it (if unlooped)
    and drop its neighbours."""
    table = [0] * (1 << G.n)
    for mask in range(1, 1 << G.n):
        v = mask.bit_length() - 1
        rest = mask ^ (1 << v)
        best = table[rest]
        if not G.has_loop(v):
            best = max(best, 1 + table[rest & ~G.adj[v]])
        table[mask] = best
    return Fraction(sum(table), G.n << G.n)


def maximal_intersecting_families(n: int) -> set[int]:
    """Maximal intersecting families of {0,1}^n, found by direct filtering."""
    words = list(range(1 << n))

    def intersecting(mask: int) -> bool:
        members = [w for w in words if (mask >> w) & 1]
        return all(x & y for x in members for y in members)

    families = [m for m in range(1 << (1 << n)) if intersecting(m)]
    fams = set(families)
    out = set()
    for m in fams:
        if all((m >> w) & 1 or (m | (1 << w)) not in fams for w in words):
            out.add(m)
    return out


def balanced_up_closed_sets(n: int) -> set[int]:
    """Up-closed subsets of {0,1}^n with 2^(n-1) members, found by filtering
    all 2^(2^n) masks."""
    words = range(1 << n)

    def up_closed(mask: int) -> bool:
        return all(
            (mask >> (w | (1 << j))) & 1 for w in words if (mask >> w) & 1 for j in range(n)
        )

    half = 1 << (n - 1)
    return {m for m in range(1 << (1 << n)) if m.bit_count() == half and up_closed(m)}


def view_index(coords: Sequence[int], i: int, N: int) -> int:
    """Flat index of player i's view of the full tuple: the other
    coordinates in increasing player order, player 0's the major digit."""
    idx = 0
    for j, c in enumerate(coords):
        if j != i:
            idx = idx * N + c
    return idx


def simulate_strategy(
    family: WinningFamily, tables: Sequence[Sequence[int]]
) -> tuple[int, Fraction]:
    """Per-tuple forward simulation of the winning set of a strategy, given
    as its guess tables."""
    N = 1 << family.n
    t = len(tables)
    total = N**t
    count = 0
    for flat in range(total):
        coords = []
        f = flat
        for _ in range(t):
            coords.append(f % N)
            f //= N
        coords.reverse()
        if all(
            (family.sets[tables[i][view_index(coords, i, N)]] >> coords[i]) & 1
            for i in range(t)
        ):
            count += 1
    return count, Fraction(count, total)


def brute_others_correct(
    family: WinningFamily, tables: Sequence[Sequence[int]], i: int
) -> list[int]:
    """Per view of player i, the mask over x_i of "every other player guesses
    correctly", built point by point by simulating every tuple."""
    N = 1 << family.n
    t = len(tables)
    sets = family.sets
    masks = []
    for view in range(N ** (t - 1)):
        others = []
        f = view
        for _ in range(t - 1):
            others.append(f % N)
            f //= N
        others.reverse()
        ok_mask = 0
        for x_i in range(N):
            coords = others[:i] + [x_i] + others[i:]
            if all(
                (sets[tables[j][view_index(coords, j, N)]] >> coords[j]) & 1
                for j in range(t)
                if j != i
            ):
                ok_mask |= 1 << x_i
        masks.append(ok_mask)
    return masks


def brute_best_response_table(
    family: WinningFamily, tables: list[tuple[int, ...]], i: int
) -> tuple[int, ...]:
    """Player i's best response to the other tables: per view, the guess
    covering most of ``brute_others_correct``'s mask, least index on ties."""
    new_table = []
    for ok_mask in brute_others_correct(family, tables, i):
        counts = [(s & ok_mask).bit_count() for s in family.sets]
        new_table.append(counts.index(max(counts)))
    return tuple(new_table)


def brute_two_player_value(family: WinningFamily) -> Fraction:
    """Max winning measure over every pair of full guess tables."""
    from itertools import product

    N = 1 << family.n
    best = Fraction(0)
    for t0 in product(range(family.r), repeat=N):
        for t1 in product(range(family.r), repeat=N):
            _, measure = simulate_strategy(family, (t0, t1))
            if measure > best:
                best = measure
    return best


def reference_exact_value_two_players(
    family: WinningFamily, budget: int = DEFAULT_TABLE_BUDGET
) -> GameValue:
    """The package's earlier table search: one full ``best_response`` per
    player-1 table, in lexicographic order, compared as Fractions; the
    first maximum wins."""
    from itertools import product

    if budget < 1:
        raise ValueError("budget must allow at least one table")
    N = 1 << family.n
    r = family.r
    exhaustive = r**N <= budget
    best_val = Fraction(-1)
    best_g2: tuple[int, ...] | None = None
    examined = 0
    for g2 in product(range(r), repeat=N):
        examined += 1
        if examined > budget:
            break
        _, val = best_response(family, g2)
        if val > best_val:
            best_val = val
            best_g2 = g2
    assert best_g2 is not None
    table0, _ = best_response(family, best_g2)
    mode = "exact" if exhaustive else "lower_bound"
    return GameValue(2, family.n, family.kind, best_val, mode, (table0, best_g2))


def packed_table_improvements(
    family: WinningFamily, limit: int
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The package's earlier packed table scan as a running best over the
    first ``limit`` player-1 tables in lexicographic order: each strict
    improvement as (1-based table index, count, table).  The answer of a
    search of the first b tables is the last improvement at index <= b
    (``best_table_within``).

    Table g2 is the integer sum of ``spread[g2[x_0]] << x_0``; its column
    x_1 (W = max(N, 8) bits) holds the views x_0 whose guess contains x_1,
    and its count sums max_g |sets[g] & column| over the columns.
    """
    from itertools import product

    N = 1 << family.n
    width = max(N, 8) // 8
    size = width * N
    spread = [sum(1 << (8 * width * w) for w in iter_bits(s)) for s in family.sets]
    columns = [slice(k, k + width) for k in range(0, size, width)]
    memo: dict[bytes, int] = {}

    def cover(key: bytes) -> int:
        if key not in memo:
            column = int.from_bytes(key, "little")
            memo[key] = max((s & column).bit_count() for s in family.sets)
        return memo[key]

    out: list[tuple[int, int, tuple[int, ...]]] = []
    best = -1
    for index, g2 in enumerate(product(range(family.r), repeat=N), 1):
        if index > limit:
            break
        packed = sum(spread[g] << x0 for x0, g in enumerate(g2)).to_bytes(size, "little")
        count = sum(cover(packed[c]) for c in columns)
        if count > best:
            best = count
            out.append((index, count, g2))
    return out


def best_table_within(
    improvements: list[tuple[int, int, tuple[int, ...]]], budget: int
) -> tuple[int, tuple[int, ...]]:
    """(count, table) of the first ``budget`` tables of a running best."""
    from bisect import bisect_right

    at = bisect_right([index for index, _, _ in improvements], budget)
    _, count, g2 = improvements[at - 1]
    return count, g2


def two_player_winning_masks(family: WinningFamily) -> list[int]:
    """Winning sets (masks over B^2, flat x0*N+x1) of all two-player strategies."""
    from itertools import product

    N = 1 << family.n
    out = []
    for t0 in product(range(family.r), repeat=N):
        for t1 in product(range(family.r), repeat=N):
            w = 0
            for x0 in range(N):
                for x1 in range(N):
                    if (family.sets[t0[x1]] >> x0) & 1 and (family.sets[t1[x0]] >> x1) & 1:
                        w |= 1 << (x0 * N + x1)
            out.append(w)
    return out


def brute_min_hitting(masks: list[int], universe: int) -> int:
    """Smallest hitting set size by trying vertex subsets in size order."""
    for size in range(0, universe + 1):
        for combo in combinations(range(universe), size):
            chosen = sum(1 << v for v in combo)
            if all(m & chosen for m in masks):
                return size
    raise AssertionError("unhittable collection")


def reference_verify_blocker(
    n: int,
    t: int,
    A: Iterable[PointTuple],
    family: WinningFamily,
    budget: int = DEFAULT_VERIFY_BUDGET,
) -> VerifyResult:
    """Decide whether A intersects every winning set of the t-player game.

    The recursive DFS with per-tuple pending counters and undo lists that
    ``hatlab.blockers.verify_blocker`` replaced: the same variables, guess
    order, node count, budget message and counterexample.

    A winning set avoiding A exists iff guesses can be chosen on the views
    that A projects to (per player) so that every tuple of A fails for at
    least one player; all other views are irrelevant.  The search runs over
    those assignments with early pruning: a branch dies as soon as some
    tuple has all its players assigned and none wrong.  When A is not a
    blocker the first avoiding assignment (in lexicographic order) comes
    back as a partial strategy.

    Raises :class:`BudgetExceededError` when the budget runs out; the
    verdict is then unknown, never silently passed.
    """
    tuples = sorted(set(tuple(a) for a in A))
    if t < 2:
        raise ValueError("verify_blocker handles t >= 2")
    if family.n != n:
        raise ValueError("family point space does not match n")
    for a in tuples:
        if len(a) != t:
            raise ValueError(f"tuple {a} does not have arity {t}")
        if any(not 0 <= x < (1 << n) for x in a):
            raise ValueError(f"tuple {a} has points outside {n}-bit space")
    if not tuples:
        raise ValueError("empty candidate set")

    r = family.r
    sets = family.sets

    views_per_player: list[list[PointTuple]] = []
    for i in range(t):
        views_per_player.append(sorted({a[:i] + a[i + 1 :] for a in tuples}))
    # assign players with fewer views first so contradictions surface early
    player_order = sorted(range(t), key=lambda i: (len(views_per_player[i]), i))
    variables: list[tuple[int, PointTuple]] = [
        (i, view) for i in player_order for view in views_per_player[i]
    ]
    var_id = {var: k for k, var in enumerate(variables)}

    # per variable: the tuples it participates in, with the point to test
    touches: list[list[tuple[int, int]]] = [[] for _ in variables]
    for a_idx, a in enumerate(tuples):
        for i in range(t):
            touches[var_id[(i, a[:i] + a[i + 1 :])]].append((a_idx, a[i]))

    pending = [t] * len(tuples)
    failed = [False] * len(tuples)
    assignment = [0] * len(variables)
    nodes = 0

    def dfs(pos: int) -> bool:
        nonlocal nodes
        if pos == len(variables):
            return True  # every tuple failed somewhere: A is avoided
        for g in range(r):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"verification exceeded {budget} assignments; verdict unknown",
                    nodes=nodes,
                )
            newly_failed = []
            feasible = True
            for a_idx, pt in touches[pos]:
                pending[a_idx] -= 1
                if not (sets[g] >> pt) & 1 and not failed[a_idx]:
                    failed[a_idx] = True
                    newly_failed.append(a_idx)
            for a_idx, _ in touches[pos]:
                if pending[a_idx] == 0 and not failed[a_idx]:
                    feasible = False
                    break
            if feasible:
                assignment[pos] = g
                if dfs(pos + 1):
                    return True
            for a_idx, _ in touches[pos]:
                pending[a_idx] += 1
            for a_idx in newly_failed:
                failed[a_idx] = False
        return False

    if dfs(0):
        counterexample: dict[int, dict[PointTuple, int]] = {}
        for k, (i, view) in enumerate(variables):
            counterexample.setdefault(i, {})[view] = assignment[k]
        return VerifyResult(False, counterexample, nodes)
    return VerifyResult(True, None, nodes)


def reference_greedy_hitting(sets: Sequence[VertexSet]) -> VertexSet:
    """Repeatedly pick the vertex hitting the most unhit sets (least index
    on ties), counting every unhit set's vertices afresh each round."""
    universe = sets[0].n
    chosen = 0
    unhit = [s.bits for s in sets]
    while unhit:
        best_v = -1
        best_cnt = 0
        counts = [0] * universe
        for m in unhit:
            for v in iter_bits(m):
                counts[v] += 1
        for v in range(universe):
            if counts[v] > best_cnt:
                best_cnt = counts[v]
                best_v = v
        chosen |= 1 << best_v
        unhit = [m for m in unhit if not (m >> best_v) & 1]
    return VertexSet(universe, chosen)


def _reference_packing_bound(masks: list[int]) -> int:
    """Size of a greedily packed pairwise-disjoint sub-collection, taken in
    list order."""
    used = 0
    count = 0
    for m in masks:
        if not m & used:
            used |= m
            count += 1
    return count


def reference_min_hitting_set(
    sets: Sequence[VertexSet],
    universe: int,
    budget: int = DEFAULT_HIT_BUDGET,
    counting_bound: bool = False,
) -> HittingSetResult:
    """Exact minimum hitting set of the given collection.

    The recursive search over lists of unhit sets that
    ``hatlab.hitting_sets.min_hitting_set`` replaced: the same node order,
    pruning test, node count and witness.  With ``counting_bound`` a node
    is also pruned when ``chosen_size + ceil(len(unhit) / delta) >=
    best_size``, delta being the most targets any one vertex meets at the
    root, as the package's search prunes.  The certificate is the larger
    of the root packing and ceil(len(sets) / delta), with or without
    ``counting_bound``.

    On budget exhaustion the best hitting set found so far (at worst the
    greedy seed) is returned with ``exact=False``.
    """
    if not sets:
        raise ValueError("need a nonempty collection of target sets")
    masks = [s.bits for s in sets]
    if any(m == 0 for m in masks):
        raise ValueError("an empty target set cannot be hit")

    greedy = reference_greedy_hitting(sets)
    best_mask = greedy.bits
    best_size = len(greedy)
    delta = max(sum(1 for m in masks if (m >> v) & 1) for v in range(universe))
    root_cert = max(_reference_packing_bound(masks), -(-len(masks) // delta))
    nodes = 0
    exhausted = False

    def dfs(chosen_mask: int, chosen_size: int, unhit: list[int]) -> None:
        nonlocal best_mask, best_size, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if not unhit:
            if chosen_size < best_size:
                best_size = chosen_size
                best_mask = chosen_mask
            return
        if counting_bound and chosen_size + -(-len(unhit) // delta) >= best_size:
            return
        if chosen_size + _reference_packing_bound(unhit) >= best_size:
            return
        # branch on the elements of a smallest unhit set (first on ties)
        pivot = min(unhit, key=lambda m: m.bit_count())
        for v in iter_bits(pivot):
            bit = 1 << v
            rest = [m for m in unhit if not m & bit]
            dfs(chosen_mask | bit, chosen_size + 1, rest)

    dfs(0, 0, masks)
    return HittingSetResult(
        h=best_size,
        witness=VertexSet(universe, best_mask),
        num_targets=len(sets),
        lower_bound_cert=root_cert,
        exact=not exhausted,
        nodes=nodes,
    )


def complement_rows(G: Graph) -> tuple[list[int], int]:
    """The complement rows of G among its non-self-looped vertices, and
    that vertex mask: the view ``reference_search`` runs on, read from
    ``G.adj`` alone."""
    allowed = sum(1 << v for v, row in enumerate(G.adj) if not row >> v & 1)
    rows = [allowed & ~row & ~(1 << v) if allowed >> v & 1 else 0 for v, row in enumerate(G.adj)]
    return rows, allowed


def reference_color_bound(P: int, rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of P in the complement view.

    Returns vertices ordered by color class and the per-vertex class number;
    a clique can use at most one vertex per class, so the class number of a
    vertex bounds any clique inside the vertices ordered up to it.
    """
    order: list[int] = []
    bound: list[int] = []
    color = 0
    rest = P
    while rest:
        color += 1
        q = rest
        while q:
            v = (q & -q).bit_length() - 1
            bit = 1 << v
            q &= ~rows[v]
            q ^= bit
            rest ^= bit
            order.append(v)
            bound.append(color)
    return order, bound


def reference_search(
    rows: Sequence[int], P: int, budget: int, alpha: int | None = None, cap: int = DEFAULT_ENUM_CAP
) -> list[int]:
    """Coloring branch and bound over complement cliques inside nonempty P.

    ``hatlab.graph_core._search`` on P as its one part with nothing taken:
    the same frames, node order, tie-breaks and bounds, one branch node per
    isolated vertex (the maximum search's reduction takes those unbranched).

    Stack frames are [clique, size, candidates, color order, color bounds,
    next index]; a frame is dropped once ``size + bound < need``.  With
    ``alpha`` None (maximum search) each leaf past the floor is kept and
    raises ``need``, so the last mask is the witness; with ``alpha`` given
    every clique of that size is kept, up to ``cap``.  Exhaustion certifies
    alpha in [floor, root color count], or [alpha, alpha].
    """
    found: list[int] = []
    need = 1 if alpha is None else alpha
    nodes = 0
    order, bound = reference_color_bound(P, rows)
    upper = bound[-1] if alpha is None else alpha
    stack = [[0, 0, P, order, bound, len(order)]]
    while stack:
        frame = stack[-1]
        r_mask, r_size, local, order, bound, i = frame
        i -= 1
        if i < 0 or r_size + bound[i] < need:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            lower = need - 1 if alpha is None else alpha
            raise BudgetExceededError(
                f"independent-set search exceeded {budget} nodes; alpha in [{lower}, {upper}]",
                lower_bound=lower, upper_bound=upper, nodes=nodes,
            )
        v = order[i]
        bit = 1 << v
        frame[2], frame[5] = local ^ bit, i
        child = local & rows[v]
        if child:
            c_order, c_bound = reference_color_bound(child, rows)
            stack.append([r_mask | bit, r_size + 1, child, c_order, c_bound, len(c_order)])
        elif r_size + 1 >= need:
            found.append(r_mask | bit)
            if alpha is None:
                need = r_size + 2
            elif len(found) > cap:
                raise CapExceededError(
                    f"more than {cap} maximum independent sets", found=len(found)
                )
    return found


def reference_gnp(n: int, p: float, seed: int) -> tuple[int, ...]:
    """Adjacency rows of G(n, p): pair (u, v), u < v, is ``chance(p, seed, u, v)``."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if chance(p, seed, u, v):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)
