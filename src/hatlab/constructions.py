"""Generators for the graph families the toolkit studies.

Vertex indexing conventions (fixed so witnesses are comparable across runs):

* ``kneser_hypercube(n)``: vertex ``i`` is the n-bit word ``i`` (bit ``j``
  of the word is coordinate ``x_{j+1}``).
* ``shift_graph(k)``: ordered pairs (i, j), i != j, over {1..2k}, indexed
  lexicographically.
* products: flat index is mixed-radix with the left factor as the major
  digit, so ``flat((g, h)) = g * |V(H)| + h``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product as iter_product

from .bits import iter_bits, iter_submasks, point_to_str
from .errors import SizeLimitError
from .graph_core import DEFAULT_SIZE_LIMIT, Graph
from .rng import chance_mask


def _check_size(what: str, base: int, exponent: int = 1) -> None:
    """A SizeLimitError if ``what`` has base**exponent > DEFAULT_SIZE_LIMIT vertices.

    Multiplies one factor at a time and stops past the limit, so no larger
    power is ever computed, however large the exponent.
    """
    size = 1
    for _ in range(exponent if base > 1 else 0):
        size *= base
        if size > DEFAULT_SIZE_LIMIT:
            raise SizeLimitError(f"{what} has over {DEFAULT_SIZE_LIMIT} vertices")


@dataclass(frozen=True)
class ProductIndex:
    """Mixed-radix codec between flat vertex indices and coordinate tuples."""

    factor_sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.factor_sizes)

    def flat(self, coords: tuple[int, ...]) -> int:
        if len(coords) != len(self.factor_sizes):
            raise ValueError("coordinate arity mismatch")
        idx = 0
        for c, base in zip(coords, self.factor_sizes):
            if not 0 <= c < base:
                raise ValueError(f"coordinate {c} out of range for factor of size {base}")
            idx = idx * base + c
        return idx

    def coords(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.size:
            raise ValueError("flat index out of range")
        out = []
        for base in reversed(self.factor_sizes):
            out.append(flat % base)
            flat //= base
        return tuple(reversed(out))

    def fiber(self, free_pos: int, fixed: tuple[int, ...]) -> list[int]:
        """Flat indices obtained by varying coordinate ``free_pos`` while the
        remaining coordinates are pinned to ``fixed`` (in increasing position
        order)."""
        if len(fixed) != len(self.factor_sizes) - 1:
            raise ValueError("need one fixed coordinate per non-free position")
        out = []
        for c in range(self.factor_sizes[free_pos]):
            coords = list(fixed)
            coords.insert(free_pos, c)
            out.append(self.flat(tuple(coords)))
        return out


def kneser_hypercube(n: int) -> Graph:
    """Graph on all n-bit words with edges between disjoint supports.

    The all-zero word is self-looped (its support is disjoint from itself),
    so independent sets are exactly the intersecting families of {0,1}^n.
    Adjacency construction costs O(3^n), and the 2^n vertices must not
    exceed DEFAULT_SIZE_LIMIT, so n <= 12.
    """
    if n < 1:
        raise ValueError("kneser_hypercube needs n >= 1")
    _check_size(f"kneser_hypercube({n})", 2, n)
    size = 1 << n
    full = size - 1
    adj = []
    for x in range(size):
        row = 0
        for y in iter_submasks(full ^ x):
            row |= 1 << y
        adj.append(row)
    return Graph(size, tuple(adj))


def hamming_product(G: Graph, H: Graph) -> Graph:
    """Product where (x, v) ~ (y, u) iff (x == y and v ~ u) or (v == u and x ~ y).

    Self-loops propagate: (x, v) is self-looped iff x or v is.  Flat indexing
    puts G as the major factor.
    """
    _check_size("the product", G.n * H.n)
    nH = H.n
    # bits of spread[g] sit at positions g' * nH for each neighbor g' of g
    spread = [sum(1 << (gp * nH) for gp in iter_bits(G.adj[g])) for g in range(G.n)]
    adj = []
    for g in range(G.n):
        base = g * nH
        for h in range(H.n):
            adj.append((H.adj[h] << base) | (spread[g] << h))
    return Graph(G.n * nH, tuple(adj))


def hamming_power(G: Graph, t: int) -> Graph:
    """t-fold left-associated product of G with itself; a graph of at most
    one vertex is its own power."""
    if t < 1:
        raise ValueError("power needs t >= 1")
    _check_size(f"power {t} of a {G.n}-vertex graph", G.n, t)
    if G.n <= 1:
        return G
    return reduce(lambda acc, _: hamming_product(acc, G), range(t - 1), G)


def shift_graph(k: int) -> Graph:
    """Ordered pairs over {1..2k}; (a,b) ~ (c,d) iff b == c or d == a.

    The vertices are the arcs of the complete directed graph on 2k points;
    adjacency means the two arcs form a (possibly closed) directed 2-path.
    """
    if k < 1:
        raise ValueError("shift_graph needs k >= 1")
    _check_size(f"shift_graph({k})", 2 * k * (2 * k - 1))
    points = 2 * k
    pairs = [(i, j) for i in range(1, points + 1) for j in range(1, points + 1) if i != j]
    n = len(pairs)
    adj = [0] * n
    for p, (a, b) in enumerate(pairs):
        for q in range(p + 1, n):
            c, d = pairs[q]
            if b == c or d == a:
                adj[p] |= 1 << q
                adj[q] |= 1 << p
    return Graph(n, tuple(adj))


def shift_graph_labels(k: int) -> list[str]:
    points = 2 * k
    return [
        f"({i},{j})" for i in range(1, points + 1) for j in range(1, points + 1) if i != j
    ]


def cayley_distance_graph(m: int, t: int) -> Graph:
    """m-bit words, adjacent iff their Hamming distance exceeds m - 2t.

    Requires m even and 4t^2 <= m.  Translation-invariant (a Cayley graph of
    Z_2^m), and never self-looped since distance 0 <= m - 2t here.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError("cayley_distance_graph needs even m >= 2")
    if t < 1 or 4 * t * t > m:
        raise ValueError("cayley_distance_graph needs t >= 1 with 4*t^2 <= m")
    _check_size(f"cayley_distance_graph({m}, {t})", 2, m)
    size = 1 << m
    cut = m - 2 * t
    offsets = [w for w in range(size) if w.bit_count() > cut]
    adj = []
    for x in range(size):
        row = 0
        for w in offsets:
            row |= 1 << (x ^ w)
        adj.append(row)
    return Graph(size, tuple(adj))


def hypercube_labels(n: int) -> list[str]:
    return [point_to_str(w, n) for w in range(1 << n)]


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p.

    Reproducible: pair (u, v), u < v, is an edge iff ``chance(p, seed, u, v)``.
    """
    if n < 1:
        raise ValueError("random_gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    _check_size(f"random_gnp({n}, ...)", n)
    upper = [chance_mask(n, p, seed, u) >> (u + 1) << (u + 1) for u in range(n)]
    # the lower triangle is the transpose: bit v of row u is text[u * n + n - 1 - v]
    text = "".join(format(row, f"0{n}b") for row in upper)
    return Graph(n, tuple([row | int(text[n - 1 - v::n][::-1], 2) for v, row in enumerate(upper)]))


def product_labels(factor_labels: list[list[str]]) -> list[str]:
    """Labels for a product graph, major factor first."""
    return ["(" + ",".join(coords) + ")" for coords in iter_product(*factor_labels)]
