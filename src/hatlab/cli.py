"""Unified command-line front end emitting reproducible JSON-lines records.

Every record echoes its argv, parameters, and seed; re-running the echoed
command reproduces the record's values exactly (wall-clock aside).  Exact
rationals are rendered as "num/den" strings.  Exit codes: 0 success, 1
budget/guard failure, 2 usage error.  A budget, cap, sample or restart count
reaches the library only when given, so the library's own default applies
otherwise, and a flag that the chosen path does not read is refused whenever
given: a record depends on nothing but its argv.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import __version__
from .bits import point_to_str
from .blockers import (
    DEFAULT_VERIFY_BUDGET,
    blocker_schedule,
    build_ell_tuples,
    family_to_json,
    lift_blockers,
    pair_blockers,
    tuples_from_json,
    verify_blocker,
)
from .constructions import (
    cayley_distance_graph,
    hamming_power,
    hypercube_labels,
    kneser_hypercube,
    product_labels,
    random_gnp,
    shift_graph,
    shift_graph_labels,
)
from .errors import BudgetExceededError, CapExceededError, RetryLimitError
from .graph_core import (
    DEFAULT_ENUM_CAP,
    DEFAULT_NODE_BUDGET,
    Graph,
    VertexSet,
    graph_fingerprint,
    max_independent_set,
    parse_graph_text,
    write_graph_text,
)
from .hat_game import (
    DEFAULT_RESTARTS,
    DEFAULT_TABLE_BUDGET,
    KINDS,
    exact_value_one_player,
    exact_value_two_players,
    nested_lower_bound,
    winning_family,
)
from .hitting_sets import DEFAULT_HIT_BUDGET, covering_code_check, h_of_graph
from .random_subgraphs import (
    DEFAULT_SAMPLES,
    EXACT_SUBSET_GUARD,
    alpha_star_star_exact,
    alpha_star_star_margin,
    alpha_star_star_mc,
    exact_components,
    hajnal_check,
    partition_bound_eval,
    removal_trace,
)


class UsageError(argparse.ArgumentTypeError, ValueError):
    """An invalid argument, or combination of arguments, found by a flag's
    type at parse time or by a handler (exit code 2 either way)."""


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/8, got {text!r}") from exc


def fraction_in(ok, what: str):
    """The type of a fraction flag that must satisfy ``ok``, named ``what`` when it does not."""
    def parse(text: str) -> Fraction:
        value = parse_fraction(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def count(text: str) -> int:
    """The type of every count flag (budgets, sizes, samples): an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# Construct specs, each optionally followed by ^t for the t-fold Hamming power
# ---------------------------------------------------------------------------

SPEC_FORMS = "kneser:n | shift:k | cayley:m,t | gnp:n,p,seed, each with an optional ^t"
SPEC_FIELDS = {"kneser": (int,), "shift": (int,), "cayley": (int, int), "gnp": (int, float, int)}


def parse_spec(text: str) -> tuple[str, tuple, int]:
    """(name, fields, power) of a construct spec; a malformed spec is a usage error.

    Only the form is checked here: a constructor still refuses values it
    cannot build, such as an odd m (exit code 1).
    """
    body, hat, power = text.partition("^")
    name, _, fields = body.partition(":")
    types = SPEC_FIELDS.get(name, ())
    values = fields.split(",")
    try:
        if len(values) != len(types) or hat and int(power) < 1:
            raise ValueError
        return name, tuple(kind(v) for kind, v in zip(types, values)), int(power) if hat else 1
    except ValueError:
        raise UsageError(f"malformed construct spec {text!r}; expected {SPEC_FORMS}") from None


def build_from_spec(spec: tuple[str, tuple, int]) -> tuple[Graph, list[str] | None]:
    """The graph of a parsed construct spec (``parse_spec``) and its vertex labels."""
    name, fields, power = spec
    if name == "kneser":
        G, labels = kneser_hypercube(*fields), hypercube_labels(*fields)
    elif name == "shift":
        G, labels = shift_graph(*fields), shift_graph_labels(*fields)
    elif name == "cayley":
        G, labels = cayley_distance_graph(*fields), hypercube_labels(fields[0])
    else:
        G, labels = random_gnp(*fields), None
    if power > 1:
        G = hamming_power(G, power)
        labels = product_labels([labels] * power) if labels is not None else None
    return G, labels


def load_graph(args) -> tuple[Graph, list[str] | None]:
    if args.graph:
        with open(args.graph) as fh:
            return parse_graph_text(fh.read()), None
    return build_from_spec(args.construct)


def given(args, *names: str) -> dict:
    """The named flags that were given, as keyword arguments; the library defaults the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def refuse_given(args, unread: bool, *names: str, only: str) -> None:
    """A usage error if ``unread`` and a named flag was given: the chosen path ignores it."""
    if unread and (flags := given(args, *names)):
        raise UsageError(f"{', '.join('--' + name for name in flags)}: read only {only}")


def check_mc(args) -> None:
    """Exact unless --mc, which needs --seed and alone reads --seed and --samples."""
    refuse_given(args, not args.mc, "seed", "samples", only="with --mc")
    if args.mc and args.seed is None:
        raise UsageError("--seed is required with --mc")


class Emitter:
    """Collects one command's records and writes them as JSON lines."""

    def __init__(self, args, argv: Sequence[str]):
        self.args = args
        self.argv = list(argv)
        self.out_path = args.out
        self.records: list[dict] = []
        self._lines: list[str] = []
        self.t0 = time.perf_counter()

    def emit(self, values: dict) -> None:
        """Register the command's result record, stamped with its argv and seed."""
        self.record(
            {
                "command": self.args.command,
                "argv": self.argv,
                "values": values,
                "seed": getattr(self.args, "seed", None),
                "wall_ms": round((time.perf_counter() - self.t0) * 1000.0, 3),
                "version": __version__,
            }
        )

    def record(self, rec: dict, quiet: bool = False) -> None:
        """Register a record; ``quiet`` keeps it out of the printed stream."""
        self.records.append(rec)
        if not quiet:
            self._lines.append(json.dumps(rec, sort_keys=True))

    def raw(self, text: str) -> None:
        self._lines.append(text.rstrip("\n"))

    def flush(self) -> None:
        payload = "\n".join(self._lines) + ("\n" if self._lines else "")
        if self.out_path:
            with open(self.out_path, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its exit status, None meaning 0 as in sys.exit
# ---------------------------------------------------------------------------


def cmd_construct(args, em: Emitter) -> None:
    G, labels = build_from_spec(args.spec)
    em.raw(write_graph_text(G, labels=labels if args.emit_labels else None))


def cmd_alpha(args, em: Emitter) -> None:
    G, labels = load_graph(args)
    res = max_independent_set(G, **given(args, "budget"))
    witness = list(res.witness.indices())
    values = {
        "n": G.n,
        "fingerprint": graph_fingerprint(G),
        "alpha": res.alpha,
        "alpha_bar": frac_str(res.alpha_bar),
        "witness": witness,
    }
    if labels:
        values["witness_labels"] = [labels[v] for v in witness]
    em.emit(values)


def cmd_hatgame(args, em: Emitter) -> None:
    refuse_given(args, args.players != 2, "budget", only="with --players 2")
    refuse_given(args, args.players < 3, "seed", "restarts", only="with --players >= 3")
    fam = winning_family(args.kind, args.hats)
    if args.players == 1:
        gv = exact_value_one_player(fam)
    elif args.players == 2:
        gv = exact_value_two_players(fam, **given(args, "budget"))
    else:
        if args.seed is None:
            raise UsageError("--seed is required for the t >= 3 lower-bound search")
        gv = nested_lower_bound(fam, args.players, seed=args.seed, **given(args, "restarts"))
    em.emit({
        "kind": gv.kind,
        "players": gv.t,
        "hats": gv.n,
        "value": frac_str(gv.value),
        "mode": gv.mode,
        "num_sets": fam.r,
        "witness_tables": [list(tb) for tb in gv.witness],
    })


def cmd_blockers_schedule(args, em: Emitter) -> None:
    em.emit({
        "levels": [
            {"d": s.d, "k": str(s.k), "beta": frac_str(s.beta), "ell": None if s.ell is None else str(s.ell)}
            for s in blocker_schedule(args.max_level)
        ]
    })


def cmd_blockers_build(args, em: Emitter) -> None:
    refuse_given(args, not args.verify, "budget", only="with --verify")
    base = pair_blockers(args.bits)
    tuples = build_ell_tuples(args.bits, 2, seed=args.seed, target_measure=args.target_measure)
    fam = lift_blockers(base, tuples)
    values = {"family": family_to_json(fam), "num_tuples": len(tuples.blockers)}
    if args.verify:
        wf = winning_family("dictator", args.bits)
        verdicts = [verify_blocker(b, wf, **given(args, "budget")).is_blocker for b in fam.blockers]
        values["verified"] = all(verdicts)
        values["verdicts"] = verdicts
    em.emit(values)


def cmd_blockers_verify(args, em: Emitter) -> None:
    with open(args.file) as fh:
        payload = json.load(fh)
    is_family = isinstance(payload, dict) and isinstance(payload.get("blockers"), list)
    candidates = payload["blockers"] if is_family else [payload]
    if not candidates:
        raise ValueError("a blocker family needs a nonempty blockers array")
    wf = None
    results = []
    for cand in candidates:
        n, t, tuples = tuples_from_json(cand)
        if wf is None or wf.n != n:
            wf = winning_family(args.kind, n)
        res = verify_blocker(tuples, wf, **given(args, "budget"))
        results.append(
            {
                "n": n,
                "t": t,
                "size": len(tuples),
                "is_blocker": res.is_blocker,
                "nodes": res.nodes,
                "counterexample": None
                if res.counterexample is None
                else {
                    str(player): {
                        ",".join(point_to_str(x, n) for x in view): g
                        for view, g in table.items()
                    }
                    for player, table in res.counterexample.items()
                },
            }
        )
    em.emit({"results": results})


def cmd_alphastarstar(args, em: Emitter) -> None:
    check_mc(args)
    G, _ = load_graph(args)
    if args.mc:
        res = alpha_star_star_mc(G, seed=args.seed, **given(args, "samples"))
        values = {
            "mode": res.mode,
            "estimate": float(res.estimate),
            "stderr": res.stderr,
            "samples": res.samples,
        }
    else:
        res = alpha_star_star_exact(G)
        values = {"mode": res.mode, "estimate": frac_str(res.estimate)}
    values["fingerprint"] = graph_fingerprint(G)
    em.emit(values)


def cmd_hajnal(args, em: Emitter) -> None:
    G, _ = load_graph(args)
    rep = hajnal_check(G, **given(args, "cap"))
    em.emit({
        "alpha": rep.alpha,
        "intersection_size": rep.intersection_size,
        "union_size": rep.union_size,
        "pass": rep.passed,
    })


def cmd_removal(args, em: Emitter) -> None:
    G, _ = load_graph(args)
    if not 0 <= args.target_size <= G.n:
        raise UsageError(f"--target-size must lie in [0, {G.n}], got {args.target_size}")
    trace = removal_trace(G, args.target_size, args.seed, args.threshold)
    em.raw("step,removed_vertex,alpha,successful")
    for i, step in enumerate(trace.steps, start=1):
        em.raw(f"{i},{step.removed_vertex},{step.alpha},{int(step.successful)}")


def cmd_t16(args, em: Emitter) -> None:
    G, _ = load_graph(args)
    exact = exact_components(G) is not None
    past = f"when a loop-free component has more than {EXACT_SUBSET_GUARD} vertices"
    refuse_given(args, exact, "seed", "samples", only=past)
    if not exact and args.seed is None:
        raise UsageError(f"--seed is required {past}")
    rep = alpha_star_star_margin(G, **given(args, "seed", "samples"))
    em.emit({
        "alpha_bar": frac_str(rep.alpha_bar),
        "tau": frac_str(rep.tau),
        "bound": frac_str(rep.bound),
        "mode": rep.mode,
        "estimate": frac_str(rep.estimate) if rep.mode == "exact" else float(rep.estimate),
        "stderr": rep.stderr,
        "pass": rep.passed,
    })


def cmd_partition_bound(args, em: Emitter) -> None:
    check_mc(args)
    G, _ = load_graph(args)
    with open(args.partition_file) as fh:
        parts = json.load(fh)
    if not isinstance(parts, list) or not all(
        isinstance(p, list) and all(type(v) is int for v in p) for p in parts
    ):
        raise ValueError(f"{args.partition_file}: need a JSON array of arrays of vertex indices")
    partition = [VertexSet.from_indices(G.n, p) for p in parts]
    fam = None
    if args.sampler != "binomial":
        # one winning set per part; r strictly increases with n for every kind
        n = 1
        while (fam := winning_family(args.sampler[len("rv:"):], n)).r < len(parts):
            n += 1
    res = partition_bound_eval(
        G, partition, fam, mode="monte_carlo" if args.mc else "exact",
        **given(args, "seed", "samples"),
    )
    em.emit({
        "r": len(parts),
        "sampler": "binomial" if fam is None else f"r_v({fam.kind})",
        "mode": res.mode,
        "estimate": frac_str(res.estimate) if res.mode == "exact" else float(res.estimate),
        "stderr": res.stderr,
    })


def cmd_hitting(args, em: Emitter) -> None:
    G, labels = load_graph(args)
    res = h_of_graph(G, threshold_eps=args.threshold, **given(args, "cap", "budget"))
    if not res.exact:
        raise BudgetExceededError(
            f"hitting-set search exceeded its budget; h in [{res.lower_bound_cert}, {res.h}]",
            lower_bound=res.lower_bound_cert, upper_bound=res.h, nodes=res.nodes,
        )
    witness = list(res.witness.indices())
    values = {
        "h": res.h,
        "witness": witness,
        "num_targets": res.num_targets,
        "certificate": res.lower_bound_cert,
        "exact": res.exact,
    }
    if labels:
        values["witness_labels"] = [labels[v] for v in witness]
    name, fields, power = args.construct or ("", (), 1)
    # covering codes live on the Cayley graph itself, not on its Hamming powers
    if name == "cayley" and power == 1:
        m, t = fields
        values["covering_code_ok"] = covering_code_check(m, m // 2 - t, witness)
    em.emit(values)


def cmd_suite(args, em: Emitter) -> int:
    from .acceptance import ALL_CHECKS

    done = 0
    for check in ALL_CHECKS:
        res = check()
        status = "PASS" if res.passed else "FAIL"
        done += res.passed
        # the table streams to stdout as checks finish; JSON records go to --out
        print(f"{status}  {res.cid:2d} {res.name:<28s} {res.seconds:7.2f}s  {res.detail}")
        em.record(
            {
                "command": "suite",
                "criterion": res.cid,
                "name": res.name,
                "pass": res.passed,
                "detail": res.detail,
                "wall_ms": round(res.seconds * 1000.0, 3),
                "version": __version__,
            },
            quiet=em.out_path is None,  # table already covers stdout
        )
    all_pass = done == len(ALL_CHECKS)
    print(
        f"{'ALL PASS' if all_pass else 'FAILURES PRESENT'}: "
        f"{done}/{len(ALL_CHECKS)} criteria ({time.perf_counter() - em.t0:.1f}s)"
    )
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _leaf(sub, name: str, handler, graph: bool = False, **kw) -> argparse.ArgumentParser:
    """A leaf parser that runs ``handler``; ``graph`` requires --graph FILE or --construct SPEC."""
    p = sub.add_parser(name, **kw)
    p.set_defaults(handler=handler)
    if graph:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph")
        source.add_argument("--construct", type=parse_spec, help=SPEC_FORMS)
    return p


def _library_count(p, flag: str, default: int, what: str = "search node budget") -> None:
    """A count flag with no parser default: the handler passes it on only
    when given, so ``default``, the library's, applies otherwise."""
    p.add_argument(flag, type=count, help=f"{what} (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatlab",
        description="Exact/Monte-Carlo combinatorics of hat games and independent sets.",
    )
    parser.add_argument("--out", help="write records to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "construct", cmd_construct, help="emit a graph in the text format")
    p.add_argument("spec", type=parse_spec, help=SPEC_FORMS)
    p.add_argument("--emit-labels", action="store_true")

    p = _leaf(sub, "alpha", cmd_alpha, graph=True, help="exact maximum independent set")
    _library_count(p, "--budget", DEFAULT_NODE_BUDGET)

    p = _leaf(sub, "hatgame", cmd_hatgame, help="game values for a winning family")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--players", type=count, required=True)
    p.add_argument("--hats", type=count, required=True)
    _library_count(p, "--budget", DEFAULT_TABLE_BUDGET,
                   "player-1 tables of the two-player search, in lexicographic order, scored or ruled out")
    p.add_argument("--seed", type=int)
    _library_count(p, "--restarts", DEFAULT_RESTARTS, "coordinate-ascent restarts")

    p = sub.add_parser("blockers", help="blocker schedules, construction, verification")
    bsub = p.add_subparsers(dest="action", required=True)
    b = _leaf(bsub, "schedule", cmd_blockers_schedule)
    b.add_argument("--max-level", type=count, required=True)
    b = _leaf(bsub, "build", cmd_blockers_build,
              help="a level-2 family, the level materializable at desk scale")
    b.add_argument("--bits", type=count, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--target-measure",
                   type=fraction_in(lambda x: 0 < x <= 1, "a measure in (0, 1]"))
    b.add_argument("--verify", action="store_true")
    _library_count(b, "--budget", DEFAULT_VERIFY_BUDGET)
    b = _leaf(bsub, "verify", cmd_blockers_verify)
    b.add_argument("--file", required=True)
    b.add_argument("--kind", choices=KINDS, default="dictator")
    _library_count(b, "--budget", DEFAULT_VERIFY_BUDGET)

    p = sub.add_parser("subgraph", help="random induced-subgraph statistics")
    ssub = p.add_subparsers(dest="action", required=True)
    s = _leaf(ssub, "alphastarstar", cmd_alphastarstar, graph=True)
    s.add_argument("--mc", action="store_true")
    _library_count(s, "--samples", DEFAULT_SAMPLES, "Monte-Carlo samples")
    s.add_argument("--seed", type=int)
    s = _leaf(ssub, "hajnal", cmd_hajnal, graph=True)
    _library_count(s, "--cap", DEFAULT_ENUM_CAP, "maximum independent sets enumerated")
    s = _leaf(ssub, "removal", cmd_removal, graph=True)
    s.add_argument("--target-size", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--threshold", type=parse_fraction, default=Fraction(0))
    s = _leaf(ssub, "t16", cmd_t16, graph=True)
    _library_count(s, "--samples", DEFAULT_SAMPLES, "Monte-Carlo samples past the exact size")
    s.add_argument("--seed", type=int)
    s = _leaf(ssub, "partition-bound", cmd_partition_bound, graph=True)
    s.add_argument("--mc", action="store_true")
    s.add_argument("--partition-file", required=True)
    s.add_argument("--sampler", default="binomial",
                   choices=("binomial",) + tuple(f"rv:{kind}" for kind in KINDS),
                   help="rv:KIND samples the index sets of the winning family "
                        "with one set per part")
    _library_count(s, "--samples", DEFAULT_SAMPLES, "Monte-Carlo samples")
    s.add_argument("--seed", type=int)

    p = _leaf(sub, "hitting", cmd_hitting, graph=True,
              help="minimum hitting set of maximum independent sets")
    p.add_argument("--threshold", type=fraction_in(lambda x: x >= 0, "an eps >= 0"))
    _library_count(p, "--budget", DEFAULT_HIT_BUDGET)
    _library_count(p, "--cap", DEFAULT_ENUM_CAP, "maximum independent sets enumerated")

    _leaf(sub, "suite", cmd_suite, help="run the acceptance battery")

    return parser


def run(argv: Sequence[str], capture: bool = False) -> tuple[int, list[dict]]:
    """Execute one command; returns (exit status, parsed records).

    With ``capture=True`` nothing is written out; callers inspect the
    returned records instead (used by the determinism replays).
    """
    args = build_parser().parse_args(argv)
    em = Emitter(args, argv)
    try:
        status = args.handler(args, em) or 0
        if not capture:
            em.flush()
    except (BudgetExceededError, CapExceededError, RetryLimitError, ValueError, OSError) as exc:
        print(f"hatlab: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1, em.records
    return status, em.records


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)[0]


if __name__ == "__main__":
    sys.exit(main())
