"""Output checks behind the benchmark's failure count.

Each check returns None when a result is right and a one-line reason when
it is not.  The checks hold for every seed: they compare against exact
constants, re-derive what can be re-derived cheaply and independently of
the code under test, and otherwise test invariants every correct answer
satisfies.
"""

from __future__ import annotations

from fractions import Fraction

from hatlab import hat_game

STDERR_TOLERANCE = 5.0
TWO_PLAYER_CEILING = Fraction(3, 8)


def independent(G, mask: int) -> bool:
    """True iff no vertex of ``mask`` is self-looped or adjacent to another."""
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        if G.adj[v] & mask:
            return False
        rest &= rest - 1
    return True


def mis_result(G, res, alpha: int | None) -> str | None:
    if res.witness.n != G.n or not independent(G, res.witness.bits):
        return "witness is not an independent set of the graph"
    if len(res.witness) != res.alpha:
        return f"witness has {len(res.witness)} vertices, alpha is {res.alpha}"
    if res.alpha_bar != Fraction(res.alpha, G.n):
        return f"alpha_bar {res.alpha_bar} != {res.alpha}/{G.n}"
    if alpha is not None and res.alpha != alpha:
        return f"alpha {res.alpha}, expected {alpha}"
    return None


def interval(res, n: int, alpha: int | None = None) -> str | None:
    if not 0 <= res.lower <= res.upper <= n:
        return f"bad certified interval [{res.lower}, {res.upper}] on {n} vertices"
    if alpha is not None and not res.lower <= alpha <= res.upper:
        return f"interval [{res.lower}, {res.upper}] misses the known alpha {alpha}"
    return None


def hitting_result(G, res, h: int) -> str | None:
    if not res.exact:
        return "hitting-set search did not finish"
    if res.h != h or len(res.witness) != h or res.witness.n != G.n:
        return f"h {res.h} with a {len(res.witness)}-vertex witness, expected {h}"
    return None


def game_value(fam, res, exact: Fraction | None, mode: str,
               ceiling: Fraction = TWO_PLAYER_CEILING) -> str | None:
    if res.mode != mode:
        return f"mode {res.mode}, expected {mode}"
    if exact is not None and res.value != exact:
        return f"value {res.value}, expected {exact}"
    if res.witness is None:
        return "no witness strategy"
    _, rescored = hat_game.winning_set_of_strategy(fam, res.witness)
    if rescored != res.value:
        return f"witness scores {rescored}, reported {res.value}"
    if not 0 < res.value <= min(ceiling, TWO_PLAYER_CEILING):
        return f"value {res.value} above the ceiling {ceiling}"
    return None


def mc_estimate(G, res, samples: int, exact: Fraction | None) -> str | None:
    if res.mode != "monte_carlo" or res.samples != samples or res.n != G.n:
        return f"mode {res.mode} with {res.samples} samples, expected {samples}"
    if res.stderr is None or res.stderr < 0 or not 0 <= res.estimate <= 1:
        return f"estimate {res.estimate} +- {res.stderr} out of range"
    if exact is not None and abs(res.estimate - float(exact)) > STDERR_TOLERANCE * res.stderr:
        return f"estimate {res.estimate} +- {res.stderr} is more than 5 stderr from {exact}"
    return None


def subset_alpha_sum(G) -> int:
    """Sum of alpha(G[W]) over all vertex subsets W, by an independent DP."""
    n = G.n
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = mask.bit_length() - 1
        drop = table[mask & ~(1 << v)]
        if (G.adj[v] >> v) & 1:
            table[mask] = drop
        else:
            table[mask] = max(drop, 1 + table[mask & ~G.adj[v] & ~(1 << v)])
    return sum(table)


def exact_alpha_star_star(G, res) -> str | None:
    want = Fraction(subset_alpha_sum(G), G.n << G.n)
    if res.mode != "exact" or res.estimate != want:
        return f"exact alpha** {res.estimate} ({res.mode}), expected {want}"
    return None


def margin(G, res, alpha_bar: Fraction) -> str | None:
    tau = alpha_bar - Fraction(1, 4)
    if (res.alpha_bar, res.tau) != (alpha_bar, tau):
        return f"alpha_bar {res.alpha_bar}, tau {res.tau}; expected {alpha_bar}, {tau}"
    if res.bound != Fraction(1, 4) + tau - tau * tau / 3:
        return f"margin bound {res.bound} is wrong"
    if not res.passed:
        return f"estimate {res.estimate} +- {res.stderr} breaks the bound {res.bound}"
    return None


def removal(G, res, m: int) -> str | None:
    steps = res.steps
    removed = [s.removed_vertex for s in steps]
    if res.n != G.n or len(steps) != G.n - m or len(set(removed)) != len(removed):
        return f"{len(steps)} removal steps, expected {G.n - m} distinct vertices"
    prev = res.alpha_initial
    for s in steps:
        if not prev - 1 <= s.alpha <= prev:
            return f"alpha went from {prev} to {s.alpha} after one removal"
        prev = s.alpha
    if prev < 1:
        return "alpha of a nonempty graph fell below 1"
    return None
