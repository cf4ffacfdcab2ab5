"""Bit-vector graphs with exact maximum-independent-set machinery.

A graph stores one adjacency row per vertex as a Python int, bit ``u`` of
row ``v`` meaning ``u ~ v``.  A set bit on the diagonal is a self-loop; a
self-looped vertex is barred from every independent set.  All exact solvers
are deterministic: fixed vertex order, fixed branching order, no randomness.

Maximum search and maximum-set enumeration are one explicit-stack branch
and bound on a candidate mask (enumeration keeps the ties of the largest
size reached, in the same single pass), so ``subset_alpha`` searches G[W]
in place; no search recurses or touches the interpreter's recursion limit.
Below the root a node records only the color classes that can branch
(k_min, as in MCS and BBMC), which leaves the search tree unchanged.
The maximum search first takes what the degree <= 1 rules settle, in one
lowest-first fixpoint over every candidate, then searches the components of
the rest in turn (Akiba & Iwata 2016; KaMIS).
A subtree that found nothing is replayed from a small memo, by its node
count, when the same candidates and need come round again.

The searches read the rows relabelled v -> 8k - 1 - v (k = ceil(n / 8)),
where one ``bit_length`` finds the lowest vertex left; masks are flipped in
and out, so trees, node counts and witnesses are those of the original labels.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .bits import iter_bits
from .errors import BudgetExceededError, CapExceededError, GraphFormatError, SizeLimitError

DEFAULT_NODE_BUDGET = 20_000_000
DEFAULT_ENUM_CAP = 200_000
DEFAULT_SIZE_LIMIT = 4096  # vertices, for graph files and every construction
_MEMO_CAP = 64  # failed subtrees a search remembers; the least recently used goes first


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of an n-vertex graph, stored as a bit mask."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits out of range for vertex count")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in indices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            bits |= 1 << v
        return cls(n, bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1


@dataclass(frozen=True)
class Graph:
    """Undirected graph on indexed vertices with bit-vector adjacency rows.

    ``n == 0`` is permitted only as the sentinel produced by taking an
    induced subgraph on the empty set; ``make_graph`` requires ``n >= 1``.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits outside the vertex range")
            for u in iter_bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"adjacency is not symmetric at ({v}, {u})")

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def has_loop(self, v: int) -> bool:
        return (self.adj[v] >> v) & 1 == 1

    @property
    def loops_mask(self) -> int:
        return sum(1 << v for v in range(self.n) if (self.adj[v] >> v) & 1)

    @property
    def n_edges(self) -> int:
        """Number of distinct edges, counting each self-loop once."""
        total = sum(row.bit_count() for row in self.adj)
        loops = self.loops_mask.bit_count()
        return (total - loops) // 2 + loops

    def edges(self) -> list[tuple[int, int]]:
        """Distinct edges as (u, v) pairs with u <= v, sorted."""
        out = []
        for v in range(self.n):
            for u in iter_bits(self.adj[v] >> v):
                out.append((v, v + u))
        return out

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def _allowed(self) -> int:
        """The vertices without a self-loop, the only ones a search may take.

        Built on first use and kept with the (immutable) graph, so the many
        searches of one Monte-Carlo run on the same graph share it.
        """
        return ((1 << self.n) - 1) & ~self.loops_mask

    @cached_property
    def _flipped(self) -> tuple[int, ...]:
        """The rows relabelled v -> 8k - 1 - v (see ``_flip``), padded to 8k
        with empty rows.  Built from a list: tuples grown from a generator are
        resized, and once released they pile up on the tuple free list."""
        k = (self.n + 7) // 8
        return tuple([0] * (8 * k - self.n) + [_flip(row, k) for row in reversed(self.adj)])

    @cached_property
    def _subset_alphas(self) -> tuple[int, ...]:
        """``subset_alpha_table`` of the graph, built on first use and kept
        with it, so it lives exactly as long as the graph does."""
        return tuple(subset_alpha_table(self))


@dataclass(frozen=True)
class MISResult:
    """Exact maximum independent set: size, a witness, and the ratio alpha/n."""

    alpha: int
    witness: VertexSet
    alpha_bar: Fraction


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; (v, v) declares a self-loop.

    Duplicate edges collapse; adjacency comes out symmetric.
    """
    if n <= 0:
        raise ValueError("make_graph needs n >= 1")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def graph_fingerprint(G: Graph) -> str:
    """Short stable digest of the adjacency structure, for result records."""
    h = hashlib.sha256()
    h.update(str(G.n).encode())
    for row in G.adj:
        h.update(b",")
        h.update(row.to_bytes((G.n + 7) // 8 or 1, "little"))
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# Exact solvers.  Maximum independent sets in G are maximum cliques in the
# complement, searched by branch and bound with a greedy-coloring upper
# bound on the candidate set (the standard exact approach at this scale).
# Below the public functions every mask and row is in flipped labels.
# ---------------------------------------------------------------------------

_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _flip(mask: int, k: int) -> int:
    """Relabel a mask below 8k as v -> 8k - 1 - v, an involution: each
    little-endian byte is bit-reversed and the bytes are read big-endian."""
    return int.from_bytes(mask.to_bytes(k, "little").translate(_REVERSED_BYTES), "big")


@lru_cache(maxsize=1)
def _bit_table(size: int) -> tuple[int, ...]:
    """``1 << v`` for v < size, so the search takes a vertex's bit without
    building it; one table is kept, for the last size searched."""
    return tuple([1 << v for v in range(size)])


def _color_bound(
    P: int, adj: Sequence[int], bits: Sequence[int], kmin: int
) -> tuple[list[int], list[int]]:
    """Greedy coloring of P in the complement view, recorded from class ``kmin`` on.

    Returns the vertices of classes ``kmin`` and up, ordered by color class,
    and the per-vertex class number; a clique can use at most one vertex per
    class, so the class number of a vertex bounds any clique inside the
    vertices ordered up to it.  The classes below ``kmin`` are built the same
    way, as the higher ones depend on them, but not recorded.  A class takes
    the lowest vertex v left (the highest flipped bit) and keeps the
    candidates ``q & adj[v]``: P holds no self-looped vertex, so that drops v
    and its complement neighbours.  A vertex is recorded as its entry of
    ``bits`` (``_bit_table(len(adj))``), shared, so no label int is kept.
    """
    color, rest = 1, P
    while rest and color < kmin:
        v = rest.bit_length() - 1
        rest ^= bits[v]
        q = rest & adj[v]
        while q:
            v = q.bit_length() - 1
            rest ^= bits[v]
            q &= adj[v]
        color += 1
    order: list[int] = []
    bound: list[int] = []
    while rest:
        q = rest
        while q:
            v = q.bit_length() - 1
            bit = bits[v]
            rest ^= bit
            q &= adj[v]
            order.append(bit)
            bound.append(color)
        color += 1
    return order, bound


def _components(adj: Sequence[int], P: int) -> list[int]:
    """The connected components of G[P] as masks, lowest bit first; ``adj``
    may be any labelling of the rows, as long as P uses the same one."""
    parts = []
    while P:
        grow = P & -P
        left = P ^ grow
        while grow and left:
            bit = grow & -grow
            grow ^= bit
            new = adj[bit.bit_length() - 1] & left
            left ^= new
            grow |= new
        parts.append(P ^ left)
        P = left
    return parts


def _reduce(adj: Sequence[int], P: int) -> tuple[int, list[int]]:
    """Take what the degree <= 1 rules settle in G[P]; split the rest.

    A vertex v with at most one neighbour u in P lies in a maximum set (swap
    u for v): v is taken, u dropped and u's neighbours checked again.  One
    fixpoint, seeded with all of P, checks lowest vertex (highest flipped
    bit) first, so an isolated vertex is taken by the same test.  The rest
    comes back as its ``_components``, by ascending (size, lowest vertex).
    """
    taken, check = 0, P
    while check:
        v = check.bit_length() - 1
        bit = 1 << v
        check ^= bit
        nb = P & adj[v]
        if bit & P and not nb & (nb - 1):
            taken |= bit
            P ^= bit | nb
            if nb:
                check |= P & adj[nb.bit_length() - 1]
    parts = _components(adj, P)
    parts.sort(key=lambda part: (part.bit_count(), -part.bit_length()))
    return taken, parts


def _search(
    adj: Sequence[int], taken: int, parts: Sequence[int], budget: int,
    ties: bool = False, cap: int = DEFAULT_ENUM_CAP,
) -> list[int]:
    """Coloring branch and bound over complement cliques, on top of ``taken``.

    The ``parts``, with no edge between two, are searched in turn from the
    witness so far, on one node budget; with none, ``[taken]`` costs no node.
    Stack frames are [candidates, color order, color bounds, next index,
    start, key]; the clique is ``root`` and each frame's branch bit, of size
    ``r_size``.  A frame is dropped once ``r_size + bound < need``.  ``found``
    holds the leaves of the largest size ``best`` reached, and a larger leaf
    empties it.  ``need`` is ``best + 1`` (maximum search: the one mask left
    is the witness), or ``best`` with ``ties`` (one part) until more than
    ``cap`` are held; :class:`CapExceededError` is raised only if the search
    ends so.  Exhaustion certifies alpha in [best, the size before the part
    + the root color counts of it and of the parts after it].

    ``adj`` are the graph's flipped rows, and a color order holds vertex bits.
    Each root is colored in full, so ``upper`` is certified; a child records
    only its classes from ``kmin = need - r_size - 1`` on and is not pushed
    without one.  ``need`` never falls, so nothing left out could be branched
    on.  A child whose key (mask, kmin) is in ``memo`` adds the node count
    stored there instead of being searched: the tree, its node counts and its
    leaves are those of the full search (see the comments below).
    """
    found, best = [taken], taken.bit_count()
    need = best + 1
    nodes = 0
    # A subtree reads only adj, its candidates and kmin, and one that appends
    # no leaf leaves need, best and found as they were: a later child with
    # the same key would count the same nodes and append nothing.  A frame's
    # start is the node count at its push, or -1 for a root, a child without
    # a key, or once a leaf is appended below it; a frame popped with
    # start >= 0 stores its subtree's count.  When full, the memo drops its
    # least recently used key.
    memo: dict[tuple[int, int], int] = {}
    bits = _bit_table(len(adj)) if parts else ()
    roots = [_color_bound(part, adj, bits, 0) for part in parts]
    later = sum(bound[-1] for _, bound in roots)
    for part, (order, bound) in zip(parts, roots):
        later -= bound[-1]
        upper = best + bound[-1] + later
        root, r_size = found[-1], best
        stack = [[part, order, bound, len(order), -1, None]]
        while stack:
            frame = stack[-1]
            local, order, bound, i, start, key = frame
            i -= 1
            if i < 0 or r_size + bound[i] < need:
                stack.pop()
                r_size -= 1
                if start >= 0:
                    if len(memo) >= _MEMO_CAP:
                        del memo[next(iter(memo))]
                    memo[key] = nodes - start
                continue
            bit = order[i]
            local ^= bit
            frame[0], frame[3] = local, i
            child = local & ~adj[bit.bit_length() - 1]  # parts hold no self-loop
            kmin = need - r_size - 1
            # no key below kmin 3: such a subtree always appends a leaf (at 2
            # the child has two color classes, so a complement edge to take)
            c_key = (child, kmin) if kmin > 2 else None
            skip = memo.pop(c_key, 0) if c_key else 0
            nodes += 1 + skip
            if nodes > budget:  # a replay raises what its search would have
                raise BudgetExceededError(
                    f"independent-set search exceeded {budget} nodes; alpha in [{best}, {upper}]",
                    lower_bound=best, upper_bound=upper, nodes=budget + 1,
                )
            if skip:
                memo[c_key] = skip  # now the most recently used
                continue
            if child:
                c_order, c_bound = _color_bound(child, adj, bits, kmin)
                if c_order:
                    stack.append([child, c_order, c_bound, len(c_order), nodes if c_key else -1, c_key])
                    r_size += 1
            elif r_size + 1 >= need:
                if r_size + 1 > best:
                    best, found = r_size + 1, []
                leaf = root
                for f in stack:
                    leaf |= f[1][f[3]]
                    f[4] = -1
                found.append(leaf)
                need = best + (not ties or len(found) > cap)
    if len(found) > cap:
        raise CapExceededError(f"more than {cap} maximum independent sets", found=len(found))
    return found


def max_independent_set(G: Graph, budget: int = DEFAULT_NODE_BUDGET) -> MISResult:
    """Exact alpha(G) with a witness.

    Deterministic: the witness is the first optimum reached under the fixed
    reduction and branching order.  Raises :class:`BudgetExceededError`
    carrying the best lower/upper bounds when the node budget runs out.
    """
    rows = G._flipped
    k = len(rows) // 8
    best = _flip(_search(rows, *_reduce(rows, _flip(G._allowed, k)), budget)[-1], k)
    alpha = best.bit_count()
    return MISResult(alpha, VertexSet(G.n, best), Fraction(alpha, G.n or 1))


def enumerate_maximum_independent_sets(
    G: Graph, cap: int = DEFAULT_ENUM_CAP, budget: int = DEFAULT_NODE_BUDGET
) -> list[VertexSet]:
    """All independent sets of size exactly alpha(G), sorted by bit mask.

    The isolated vertices are taken (the degree-1 rule would lose sets); one
    ``_search`` pass on the rest keeps the ties of the largest size reached,
    under one ``budget``, whose exhaustion certifies alpha in [best, root
    bound].  Raises :class:`CapExceededError` (with ``found == cap + 1``)
    only when more than ``cap`` sets of size alpha exist.
    """
    rows = G._flipped
    k = len(rows) // 8
    P = _flip(G._allowed, k)
    covered = 0
    for v in iter_bits(P):
        covered |= rows[v]
    iso = P & ~covered
    rest = [P ^ iso] if P ^ iso else []
    found = _search(rows, iso, rest, budget, True, cap)
    return [VertexSet(G.n, m) for m in sorted(_flip(m, k) for m in found)]


def enumerate_maximal_independent_sets(
    G: Graph, min_size: int = 0, cap: int = DEFAULT_ENUM_CAP
) -> list[VertexSet]:
    """Containment-maximal independent sets of size >= min_size, sorted.

    Bron-Kerbosch with pivoting on the complement-clique view, read from
    the closed rows ``adj[v] | 1 << v``.  A call's children depend only on
    it and its earlier siblings, so it pushes them all at once, first child
    on top.  Past ``DEFAULT_NODE_BUDGET`` popped calls it raises.
    """
    closed = [row | 1 << v for v, row in enumerate(G.adj)]
    found: list[int] = []
    budget, nodes = DEFAULT_NODE_BUDGET, 0
    stack = [(0, G._allowed, 0)]
    while stack:
        R, P, X = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"maximal-set enumeration exceeded {budget} nodes", nodes=nodes)
        if P == 0 and X == 0:
            if R.bit_count() >= min_size:
                found.append(R)
                if len(found) > cap:
                    raise CapExceededError(
                        f"more than {cap} maximal independent sets", found=len(found)
                    )
            continue
        if R.bit_count() + P.bit_count() < min_size:
            continue
        # pivot: vertex of P|X with the most non-neighbours in P, lowest index on ties
        pivot = max(iter_bits(P | X), key=lambda u: (P & ~closed[u]).bit_count())
        children = []
        for v in iter_bits(P & closed[pivot]):
            bit = 1 << v
            children.append((R | bit, P & ~closed[v], X & ~closed[v]))
            P ^= bit
            X |= bit
        stack.extend(reversed(children))
    return [VertexSet(G.n, m) for m in sorted(found)]


def induced_subgraph(G: Graph, S: VertexSet) -> Graph:
    """Subgraph on S, vertices reindexed in increasing original order.

    The empty S yields the 0-vertex sentinel graph.
    """
    if S.n != G.n:
        raise ValueError("vertex set size does not match the graph")
    keep = S.indices()
    pos = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for u in iter_bits(G.adj[v] & S.bits):
            row |= 1 << pos[u]
        adj.append(row)
    return Graph(len(keep), tuple(adj))


def subset_alpha(G: Graph, W: int) -> int:
    """alpha(G[W]) for the vertex mask W, without building G[W].

    Same reduction, search, node count and default budget as
    ``max_independent_set`` on the induced subgraph: the degree <= 1 rules
    run on G[W], whose vertex order is W's.  A sparse random W is mostly
    isolated vertices.
    """
    if W < 0 or W >> G.n:
        raise ValueError("vertex mask out of range for the graph")
    rows = G._flipped
    P = _flip(G._allowed & W, len(rows) // 8)
    return _search(rows, *_reduce(rows, P), DEFAULT_NODE_BUDGET)[-1].bit_count()


def subset_alpha_table(G: Graph) -> list[int]:
    """alpha(G[W]) for every vertex subset W, indexed by W's bit mask.

    O(2^n) dynamic program; intended for n <= ~20.  A self-looped vertex
    is worth 0 to take, so it contributes nothing, matching the solvers
    above: alpha is monotone, and a take worth 0 never beats leaving v out.
    """
    closed = [row | 1 << v for v, row in enumerate(G.adj)]
    take = [0 if row >> v & 1 else 1 for v, row in enumerate(G.adj)]
    table = [0] * (1 << G.n)
    for mask in range(1, 1 << G.n):
        v = (mask & -mask).bit_length() - 1
        table[mask] = max(table[mask ^ (1 << v)], take[v] + table[mask & ~closed[v]])
    return table


# ---------------------------------------------------------------------------
# Text format: header "graph <n> <m>", one "e <u> <v>" line per edge
# (0-based, self-loop as "e v v"), optional "c ..." comment lines.
# ---------------------------------------------------------------------------


def write_graph_text(G: Graph, labels: Sequence[str] | None = None) -> str:
    edges = G.edges()
    lines = [f"graph {G.n} {len(edges)}"]
    if labels is not None:
        if len(labels) != G.n:
            raise ValueError("need one label per vertex")
        for v, lab in enumerate(labels):
            lines.append(f"c label {v} {lab}")
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    n = None
    declared = 0
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "graph":
            if n is not None:
                raise GraphFormatError(line_no, "duplicate header")
            if len(fields) != 3:
                raise GraphFormatError(line_no, "expected 'graph <n> <m>'")
            try:
                n, declared = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(line_no, "non-integer header fields") from None
            if n <= 0 or declared < 0:
                raise GraphFormatError(line_no, "header values out of range")
            if n > DEFAULT_SIZE_LIMIT:
                raise SizeLimitError(
                    f"line {line_no}: graph has {n} vertices, over {DEFAULT_SIZE_LIMIT}"
                )
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(line_no, "edge before header")
            if len(fields) != 3:
                raise GraphFormatError(line_no, "expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(line_no, "non-integer endpoints") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(line_no, f"endpoint out of range for n={n}")
            edges.append((u, v))
        else:
            raise GraphFormatError(line_no, f"unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError(1, "missing 'graph <n> <m>' header")
    if len(edges) != declared:
        raise GraphFormatError(
            1, f"header declares {declared} edges but file has {len(edges)}"
        )
    return make_graph(n, edges)
