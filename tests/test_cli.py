import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hatlab import cli, graph_core, hat_game
from hatlab.blockers import DEFAULT_VERIFY_BUDGET
from hatlab.cli import build_from_spec, build_parser, parse_spec, run
from hatlab.constructions import kneser_hypercube, shift_graph
from hatlab.graph_core import DEFAULT_NODE_BUDGET, make_graph, parse_graph_text, write_graph_text
from hatlab.hat_game import DEFAULT_TABLE_BUDGET
from hatlab.hitting_sets import DEFAULT_HIT_BUDGET, h_of_graph


def run_capture(argv):
    return run(argv, capture=True)


def strip_volatile(records):
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("wall_ms", None)
        rec.pop("argv", None)
        out.append(rec)
    return out


# -- the module entry point ---------------------------------------------------


def run_module(*args):
    """``python -m hatlab`` in a child process, on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "hatlab", *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_module_entry_point_exit_codes():
    # 0 with one JSON record on stdout; 2 for a usage error; 1 for a search
    # that ran out of budget, with the certified interval on stderr
    done = run_module("alpha", "--construct", "kneser:3")
    lines = done.stdout.splitlines()
    assert done.returncode == 0 and len(lines) == 1
    assert json.loads(lines[0])["values"]["alpha"] == 4
    assert run_module("alpha", "--construct", "cayley:4").returncode == 2
    budgeted = run_module("alpha", "--construct", "kneser:4^2", "--budget", "1000")
    assert budgeted.returncode == 1 and "alpha in [86, 103]" in budgeted.stderr


# -- construct specs ----------------------------------------------------------


def test_spec_kneser_power():
    G, labels = build_from_spec(parse_spec("kneser:2^2"))
    assert G.n == 16 and labels[0] == "(00,00)"


def test_spec_shift():
    G, labels = build_from_spec(parse_spec("shift:2"))
    assert G == shift_graph(2) and labels[0] == "(1,2)"


def test_spec_gnp_requires_seed():
    with pytest.raises(cli.UsageError):
        parse_spec("gnp:10,0.5")


def test_construct_output_parses(tmp_path):
    out = tmp_path / "g.txt"
    status, _ = run(["--out", str(out), "construct", "kneser:3", "--emit-labels"])
    assert status == 0
    G = parse_graph_text(out.read_text())
    assert G == kneser_hypercube(3)
    assert "c label 1 100" in out.read_text()


# -- records ------------------------------------------------------------------


def test_alpha_record_kneser3():
    status, records = run_capture(["alpha", "--construct", "kneser:3"])
    assert status == 0
    values = records[0]["values"]
    assert values["alpha"] == 4 and values["alpha_bar"] == "1/2"
    assert len(values["witness"]) == 4
    # the witness labels form an intersecting family of 3-bit words
    words = values["witness_labels"]
    assert all(len(w) == 3 for w in words)
    assert all(
        any(a == b == "1" for a, b in zip(x, y)) for x in words for y in words
    )


def test_hatgame_record_forced_quarter():
    status, records = run_capture(
        ["hatgame", "--kind", "dictator", "--players", "2", "--hats", "1"]
    )
    assert status == 0
    assert records[0]["values"]["value"] == "1/4"
    assert records[0]["values"]["mode"] == "exact"


def test_hatgame_one_player_record():
    status, records = run_capture(
        ["hatgame", "--kind", "intersecting", "--players", "1", "--hats", "3"]
    )
    assert status == 0
    values = records[0]["values"]
    assert (values["value"], values["mode"], values["num_sets"]) == ("1/2", "exact", 4)
    assert values["witness_tables"] == [[0]]


def test_hatgame_three_players_needs_a_seed():
    status, _ = run_capture(
        ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1"]
    )
    assert status == 2  # the t >= 3 lower-bound search is seeded: a usage error


def test_hatgame_past_the_tuple_guard_fails_fast(capsys):
    # 2^24 tuples each; two players at 12 hats took ~22 s and 83 MB unguarded
    for argv in (["--players", "2", "--hats", "12"], ["--players", "3", "--hats", "8", "--seed", "1"]):
        assert run_capture(["hatgame", "--kind", "dictator", *argv]) == (1, []), argv
        assert "over the guard 2^22" in capsys.readouterr().err


def test_blockers_schedule_record():
    status, records = run_capture(["blockers", "schedule", "--max-level", "3"])
    assert status == 0
    levels = records[0]["values"]["levels"]
    assert levels[2]["k"] == "32449872"


def test_blockers_schedule_past_level_3_fails_fast(capsys):
    status, records = run_capture(["blockers", "schedule", "--max-level", "4"])
    assert (status, records) == (1, [])
    assert capsys.readouterr().err.startswith("hatlab: error: schedule levels past 3")


def test_blockers_build_and_verify_file_round_trip(tmp_path):
    status, records = run_capture(["blockers", "build", "--bits", "4", "--seed", "3"])
    assert status == 0
    family = records[0]["values"]["family"]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    status, records = run_capture(["blockers", "verify", "--file", str(path)])
    assert status == 0
    results = records[0]["values"]["results"]
    assert len(results) == 8 and all(r["is_blocker"] for r in results)


def test_blockers_verify_single_candidate(tmp_path):
    path = tmp_path / "cand.json"
    path.write_text(json.dumps([["01", "01"]]))
    status, records = run_capture(["blockers", "verify", "--file", str(path)])
    assert status == 0
    res = records[0]["values"]["results"][0]
    assert not res["is_blocker"] and res["counterexample"]


def test_blockers_verify_malformed_file_exits_1(tmp_path, capsys):
    path = tmp_path / "cand.json"
    for payload in ([[]], [[1, 2]], {"blockers": 5}, {"t": 2}):
        path.write_text(json.dumps(payload))
        status, _ = run_capture(["blockers", "verify", "--file", str(path)])
        assert status == 1, payload
        assert capsys.readouterr().err.startswith("hatlab: error: "), payload


def test_blockers_verify_kind_is_a_choice(tmp_path):
    path = tmp_path / "cand.json"
    path.write_text(json.dumps([["01", "01"]]))
    status, _ = run_capture(["blockers", "verify", "--file", str(path), "--kind", "intersecting"])
    assert status == 0
    with pytest.raises(SystemExit) as exc:
        run(["blockers", "verify", "--file", str(path), "--kind", "bogus"])
    assert exc.value.code == 2


def test_subgraph_alphastarstar_exact_record(tmp_path):
    gpath = tmp_path / "edge.txt"
    gpath.write_text("graph 2 1\ne 0 1\n")
    status, records = run_capture(
        ["subgraph", "alphastarstar", "--graph", str(gpath)]
    )
    assert status == 0
    assert records[0]["values"]["estimate"] == "3/8"


def test_subgraph_removal_csv(tmp_path):
    out = tmp_path / "trace.csv"
    status, _ = run(
        [
            "--out", str(out),
            "subgraph", "removal",
            "--construct", "gnp:8,0.3,5",
            "--target-size", "4",
            "--seed", "6",
        ]
    )
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,removed_vertex,alpha,successful"
    assert len(lines) == 5
    rerun = tmp_path / "trace2.csv"
    run(["--out", str(rerun), "subgraph", "removal", "--construct", "gnp:8,0.3,5",
         "--target-size", "4", "--seed", "6"])
    assert rerun.read_text() == out.read_text()


def test_subgraph_partition_bound(tmp_path):
    # exact with no mode flag, also past the subset table's n <= 15, where
    # the size-picked mode this replaced ran Monte-Carlo (0.267925 at --seed 1)
    ppath = tmp_path / "parts.json"
    for construct, parts, estimate in (
        ("gnp:5,0.4,9", [[0, 1], [2, 3], [4]], "3/8"),
        ("gnp:20,0.3,8", [list(range(i, 20, 4)) for i in range(4)], "87/320"),
    ):
        ppath.write_text(json.dumps(parts))
        status, records = run_capture(["subgraph", "partition-bound", "--construct", construct,
                                       "--partition-file", str(ppath)])
        assert status == 0 and records[0]["seed"] is None
        values = records[0]["values"]
        assert (values["mode"], values["estimate"], values["stderr"]) == ("exact", estimate, None)


def test_subgraph_alphastarstar_seed_and_samples_need_mc():
    # the exact estimate reads neither; it used to echo a seed it never used
    argv = ["subgraph", "alphastarstar", "--construct", "gnp:10,0.4,5"]
    for extra in (["--seed", "3"], ["--samples", "7"], ["--seed", "3", "--samples", "7"],
                  ["--samples", "2000"]):
        assert run_capture(argv + extra) == (2, []), extra
    status, records = run_capture(argv)
    assert status == 0 and records[0]["values"]["estimate"] == "1409/5120"
    status, records = run_capture(argv + ["--mc", "--seed", "3", "--samples", "7"])
    assert status == 0 and records[0]["values"]["samples"] == 7 and records[0]["seed"] == 3


def test_t16_reads_seed_and_samples_only_past_the_exact_size(capsys, tmp_path):
    # while every loop-free component has at most 15 vertices the margin is
    # exact and reads neither flag
    t16 = ["subgraph", "t16", "--construct"]
    assert run_capture(t16 + ["gnp:14,0.62,19", "--seed", "4"]) == (2, [])
    assert "read only when a loop-free component has more than 15 vertices" in capsys.readouterr().err
    assert run_capture(t16 + ["gnp:16,0.5,1"]) == (2, [])
    assert "--seed is required" in capsys.readouterr().err
    status, records = run_capture(t16 + ["gnp:16,0.5,1", "--seed", "1"])
    assert status == 0 and records[0]["values"]["mode"] == "monte_carlo"
    assert records[0]["seed"] == 1
    # one edge and four K4s: 18 vertices, components of at most 4
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    union = make_graph(18, [(0, 1)] + [(2 + 4 * b + i, 2 + 4 * b + j) for b in range(4) for i, j in k4])
    gpath = tmp_path / "union.txt"
    gpath.write_text(write_graph_text(union))
    t16 = ["subgraph", "t16", "--graph", str(gpath)]
    for extra in (["--seed", "4"], ["--samples", "7"]):
        assert run_capture(t16 + extra) == (2, []), extra
        assert "read only when" in capsys.readouterr().err
    status, records = run_capture(t16)
    values = records[0]["values"]
    assert status == 0 and records[0]["seed"] is None
    assert (values["mode"], values["estimate"], values["bound"], values["pass"]) == (
        "exact", "1/4", "1079/3888", True)
    status, records = run_capture(["subgraph", "alphastarstar", "--graph", str(gpath)])
    assert status == 0 and records[0]["values"]["estimate"] == "1/4"


def test_partition_bound_has_no_hats_flag(tmp_path):
    # an rv: sampler sizes its family from the partition, so --hats is gone
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1], [2, 3], [4]]))
    argv = ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9",
            "--partition-file", str(ppath)]
    for extra in (["--hats", "2"], ["--sampler", "binomial", "--hats", "3"],
                  ["--sampler", "rv:dictator", "--hats", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + extra)
        assert exc.value.code == 2, extra


def test_partition_bound_rv_sampler_takes_one_set_per_part(tmp_path, monkeypatch, capsys):
    # this exited 1 while --hats defaulted to 2 (two dictator sets, three parts)
    ppath = tmp_path / "parts.json"
    argv = ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9",
            "--partition-file", str(ppath), "--sampler"]
    ppath.write_text(json.dumps([[0, 1], [2, 3], [4]]))
    status, records = run_capture(argv + ["rv:dictator"])
    assert status == 0
    assert records[0]["values"]["sampler"] == "r_v(dictator)" and records[0]["values"]["r"] == 3
    # no intersecting family has 3 sets (r = 1, 2, 4, 12 for n = 1..4)
    assert run_capture(argv + ["rv:intersecting"]) == (1, [])
    assert "one part per winning set" in capsys.readouterr().err
    # a dictator family needs n = r hats: past its guard the sizing fails
    # fast instead of building 2^r-bit sets (17 parts would pass 16)
    monkeypatch.setattr(hat_game, "DICTATOR_MAX_N", 2)
    assert run_capture(argv + ["rv:dictator"]) == (1, [])
    assert "dictator families built only for n <= 2" in capsys.readouterr().err


def test_partition_bound_rv_dictator_sixteen_parts_pinned(tmp_path):
    # captured when Monte-Carlo mode still built all 2^16 index sets first
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[v] for v in range(16)]))
    status, records = run_capture(
        ["subgraph", "partition-bound", "--construct", "gnp:16,0.3,1", "--partition-file",
         str(ppath), "--sampler", "rv:dictator", "--mc", "--seed", "1", "--samples", "200"])
    assert status == 0
    assert records[0]["values"] == {"r": 16, "sampler": "r_v(dictator)", "mode": "monte_carlo",
                                    "estimate": 0.273125, "stderr": 0.005018613281710076}


def test_partition_bound_sixteen_parts_exact_pinned(tmp_path):
    # captured when exact mode searched every union and probed every point's index set
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[v] for v in range(16)]))
    argv = ["subgraph", "partition-bound", "--construct", "gnp:16,0.3,1", "--partition-file",
            str(ppath)]
    for sampler, extra in (("binomial", []), ("r_v(dictator)", ["--sampler", "rv:dictator"])):
        status, records = run_capture(argv + extra)
        assert status == 0
        assert records[0]["values"] == {"r": 16, "sampler": sampler, "mode": "exact",
                                        "estimate": "287707/1048576", "stderr": None}
def test_subgraph_removal_target_size_out_of_range_exits_2(tmp_path, capsys):
    # these used to exit 1 through removal_trace's ValueError
    out = tmp_path / "trace.csv"
    argv = ["--out", str(out), "subgraph", "removal", "--construct", "gnp:8,0.3,5", "--seed", "6"]
    for size in ("-3", "9"):
        assert run(argv + ["--target-size", size]) == (2, []), size
        assert not out.exists(), size
        assert "--target-size must lie in [0, 8]" in capsys.readouterr().err
    for size, steps in (("0", 8), ("8", 0)):
        assert run(argv + ["--target-size", size])[0] == 0, size
        assert len(out.read_text().strip().splitlines()) == steps + 1, size


def test_hitting_record_shift2():
    status, records = run_capture(["hitting", "--construct", "shift:2"])
    assert status == 0
    values = records[0]["values"]
    assert values["h"] == 3 and values["num_targets"] == 6 and values["exact"]


def test_hitting_cayley_includes_covering_check():
    status, records = run_capture(["hitting", "--construct", "cayley:4,1"])
    assert status == 0
    assert records[0]["values"]["covering_code_ok"] is True


def test_hitting_cayley_power_suffix(monkeypatch):
    _, plain = run_capture(["hitting", "--construct", "cayley:4,1"])
    status, first_power = run_capture(["hitting", "--construct", "cayley:4,1^1"])
    assert status == 0 and strip_volatile(first_power) == strip_volatile(plain)
    # h of the 256-vertex square is out of reach, so search an edgeless graph
    # of the same size: the record has no covering-code check
    monkeypatch.setattr(cli, "h_of_graph", lambda G, **kw: h_of_graph(make_graph(G.n, []), **kw))
    status, records = run_capture(["hitting", "--construct", "cayley:4,1^2"])
    assert status == 0
    values = records[0]["values"]
    assert values["h"] == 1 and "covering_code_ok" not in values


# -- exit codes ---------------------------------------------------------------


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["alpha", "--bogus-flag"])
    assert exc.value.code == 2


def test_guard_failure_exits_1():
    status, _ = run_capture(["alpha", "--construct", "cayley:3,1"])  # odd m
    assert status == 1
    status, _ = run_capture(["alpha", "--construct", "kneser:25"])
    assert status == 1


def test_unwritable_out_file_exits_1(tmp_path, capsys):
    # the records are written once the command has run; a path that cannot
    # be opened is reported like any other error, after the suite's table
    out = tmp_path / "missing" / "x.json"
    for argv in (["alpha", "--construct", "kneser:3"], ["suite"]):
        assert run(["--out", str(out), *argv])[0] == 1
        assert "hatlab: error:" in capsys.readouterr().err
    assert not out.parent.exists()


def test_malformed_construct_spec_exits_2(capsys):
    for spec in ("cayley:4", "kneser:3,4", "shift:", "kneser:x", "kneser", "gnp:10,0.5",
                 "gnp:10,x,1", "petersen:3", "kneser:3^0", "kneser:3^x", "kneser:3^"):
        for argv in (["alpha", "--construct", spec], ["construct", spec]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2, argv
            assert "kneser:n | shift:k | cayley:m,t | gnp:n,p,seed" in capsys.readouterr().err


def test_missing_graph_source_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["alpha"])
    assert exc.value.code == 2


def test_handler_usage_errors_exit_2():
    for argv in (
        ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1"],
        ["subgraph", "alphastarstar", "--construct", "gnp:8,0.3,1", "--mc"],
        # --budget bounds only the two-player table search; it used to be ignored
        ["hatgame", "--kind", "intersecting", "--players", "3", "--hats", "3",
         "--seed", "1", "--budget", "5"],
        ["hatgame", "--kind", "dictator", "--players", "1", "--hats", "2", "--budget", "5"],
        # --seed and --restarts steer only the t >= 3 search; they used to be ignored
        ["hatgame", "--kind", "dictator", "--players", "2", "--hats", "2", "--seed", "4"],
        ["hatgame", "--kind", "dictator", "--players", "2", "--hats", "2", "--restarts", "9"],
        ["hatgame", "--kind", "dictator", "--players", "1", "--hats", "2", "--seed", "4"],
        # --budget bounds only blocker verification; it used to be ignored
        ["blockers", "build", "--bits", "4", "--seed", "3", "--budget", "5"],
    ):
        assert run_capture(argv) == (2, []), argv
    for argv in (
        ["hatgame", "--kind", "dictator", "--players", "0", "--hats", "1"],
        # --restarts 0 and -3 used to run as --restarts 1
        ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1",
         "--seed", "1", "--restarts", "0"],
        ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1",
         "--seed", "1", "--restarts", "-3"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


def test_unread_flags_are_refused_at_their_default_values(tmp_path):
    # each of these used to run with the flag ignored, because the flag was
    # compared with a copy of the library default rather than checked as given
    out = tmp_path / "out.jsonl"
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1], [2, 3], [4]]))
    for argv in (
        ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1", "--seed", "1",
         "--budget", "2000000"],
        ["hatgame", "--kind", "dictator", "--players", "2", "--hats", "1", "--restarts", "4"],
        ["subgraph", "alphastarstar", "--construct", "gnp:8,0.3,1", "--samples", "2000"],
        ["blockers", "build", "--bits", "4", "--seed", "3", "--budget", "5000000"],
        ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9", "--partition-file",
         str(ppath), "--seed", "3", "--samples", "7"],
        ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9", "--partition-file",
         str(ppath), "--samples", "2000"],
    ):
        assert run(["--out", str(out), *argv]) == (2, []), argv
        assert not out.exists(), argv


def test_hatgame_needs_a_hat():
    # these used to exit 1 through winning_family's ValueError
    for hats in ("0", "-1"):
        for players in (["1"], ["2"], ["3", "--seed", "1"]):
            argv = ["hatgame", "--kind", "dictator", "--hats", hats, "--players", *players]
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2, argv


def _options(parser, path=()):
    """(subcommand path, action) for each argument of each leaf parser under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, path + (name,))
        else:
            yield path, action


def test_every_count_flag_refuses_zero(tmp_path, capsys):
    # each base argv parses; a count of 0 used to run, be ignored, or fail with exit 1
    ppath = tmp_path / "parts.json"
    base = {
        ("alpha",): ["alpha", "--construct", "kneser:3"],
        ("hatgame",): ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1",
                       "--seed", "1"],
        ("blockers", "schedule"): ["blockers", "schedule", "--max-level", "3"],
        ("blockers", "build"): ["blockers", "build", "--bits", "4", "--seed", "3", "--verify"],
        ("blockers", "verify"): ["blockers", "verify", "--file", str(tmp_path / "f.json")],
        ("subgraph", "alphastarstar"): ["subgraph", "alphastarstar", "--construct",
                                        "gnp:8,0.3,1", "--mc", "--seed", "1"],
        ("subgraph", "hajnal"): ["subgraph", "hajnal", "--construct", "gnp:8,0.3,1"],
        ("subgraph", "t16"): ["subgraph", "t16", "--construct", "gnp:8,0.3,1"],
        ("subgraph", "partition-bound"): ["subgraph", "partition-bound", "--construct",
                                          "gnp:5,0.4,9", "--partition-file", str(ppath),
                                          "--sampler", "rv:dictator", "--mc", "--seed", "1"],
        ("hitting",): ["hitting", "--construct", "shift:2"],
    }
    found = [
        (path, action.option_strings[0]) for path, action in _options(build_parser())
        if action.type in (int, cli.count)
        and action.option_strings[0] not in ("--seed", "--target-size")
    ]
    assert len(found) == 15
    out = tmp_path / "out.jsonl"
    for path, flag in found:
        build_parser().parse_args(base[path])
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(out), *base[path], flag, "0"])
        assert exc.value.code == 2, (path, flag)
        assert not out.exists() and capsys.readouterr().out == "", (path, flag)


def test_removed_flags_exit_2(tmp_path):
    # hatgame --mode restated what --players decides; --exact selects the
    # default of alphastarstar and of partition-bound
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1], [2, 3, 4]]))
    for argv in (
        ["hatgame", "--kind", "dictator", "--players", "2", "--hats", "1", "--mode", "exact"],
        ["hatgame", "--kind", "dictator", "--players", "3", "--hats", "1", "--seed", "1",
         "--mode", "lower"],
        ["subgraph", "alphastarstar", "--construct", "gnp:8,0.3,1", "--exact"],
        ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9",
         "--partition-file", str(ppath), "--exact"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


def test_blockers_build_has_no_level_flag():
    # level 2 is the only materializable level, so there is nothing to choose
    with pytest.raises(SystemExit) as exc:
        run(["blockers", "build", "--level", "3", "--bits", "4", "--seed", "1"])
    assert exc.value.code == 2


def test_graph_and_construct_are_mutually_exclusive(tmp_path):
    gpath = tmp_path / "k3.txt"
    gpath.write_text(write_graph_text(make_graph(3, [(0, 1), (1, 2), (0, 2)])))
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0], [1, 2]]))
    for argv in (
        ["alpha"],
        ["hitting"],
        ["subgraph", "alphastarstar"],
        ["subgraph", "hajnal"],
        ["subgraph", "removal", "--target-size", "1", "--seed", "1"],
        ["subgraph", "t16"],
        ["subgraph", "partition-bound", "--partition-file", str(ppath)],
    ):
        assert run_capture(argv + ["--graph", str(gpath)])[0] == 0, argv
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--graph", str(gpath), "--construct", "shift:2"])
        assert exc.value.code == 2, argv


def test_exact_and_mc_are_mutually_exclusive(tmp_path):
    # --exact is gone (exact is the default), so the pair is still refused;
    # the same argv without --exact runs, so the refusal is --exact's
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1], [2, 3, 4]]))
    argv = ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9",
            "--partition-file", str(ppath)]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--exact", "--mc", "--seed", "1"])
    assert exc.value.code == 2
    status, records = run_capture(argv + ["--mc", "--seed", "1"])
    assert status == 0 and records[0]["values"]["mode"] == "monte_carlo"


def test_partition_bound_sampler_is_a_choice(tmp_path):
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1, 2], [3, 4]]))
    argv = ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9",
            "--partition-file", str(ppath), "--sampler"]
    status, records = run_capture(argv + ["rv:dictator"])
    assert status == 0 and records[0]["values"]["sampler"] == "r_v(dictator)"
    for sampler in ("foo", "rv:bogus"):
        with pytest.raises(SystemExit) as exc:
            run(argv + [sampler])
        assert exc.value.code == 2, sampler


def test_partition_bound_needs_seed_unless_exact(tmp_path):
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1], [2, 3], [4]]))
    argv = ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9",
            "--partition-file", str(ppath)]
    # without --mc the estimate is exact and a seed is refused: the size-picked
    # mode this replaced demanded one and then echoed it unused
    assert run_capture(argv + ["--seed", "3"]) == (2, [])
    status, records = run_capture(argv)
    assert status == 0 and records[0]["seed"] is None
    assert records[0]["values"]["estimate"] == "3/8"
    assert run_capture(argv + ["--mc"]) == (2, [])
    status, records = run_capture(argv + ["--mc", "--seed", "3"])
    assert status == 0 and records[0]["seed"] == 3
    assert records[0]["values"]["mode"] == "monte_carlo"


def test_every_mc_leaf_reads_seed_and_samples_only_with_mc(tmp_path):
    # one contract for each leaf with --mc: exact without it, --seed and
    # --samples refused without it, --seed required with it
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1], [2, 3], [4]]))
    base = {
        ("subgraph", "alphastarstar"): ["subgraph", "alphastarstar", "--construct", "gnp:5,0.4,9"],
        ("subgraph", "partition-bound"): ["subgraph", "partition-bound", "--construct",
                                          "gnp:5,0.4,9", "--partition-file", str(ppath)],
    }
    leaves = {path for path, action in _options(build_parser()) if "--mc" in action.option_strings}
    assert leaves == set(base)
    out = tmp_path / "out.jsonl"
    for argv in base.values():
        for extra in (["--seed", "3"], ["--samples", "7"], ["--seed", "3", "--samples", "7"],
                      ["--mc"], ["--mc", "--samples", "7"]):
            assert run(["--out", str(out), *argv, *extra]) == (2, []), (argv, extra)
            assert not out.exists(), (argv, extra)
        status, records = run_capture(argv)
        assert status == 0 and records[0]["values"]["mode"] == "exact", argv
        status, records = run_capture(argv + ["--mc", "--seed", "3", "--samples", "7"])
        assert status == 0 and records[0]["seed"] == 3, argv


def test_fraction_flags_out_of_range_exit_2(tmp_path, capsys):
    # these used to exit 1: a negative eps left no target set to hit, and
    # build_ell_tuples refused the measure
    out = tmp_path / "out.jsonl"
    for argv in (
        ["hitting", "--construct", "shift:2", "--threshold=-1/2"],
        ["blockers", "build", "--bits", "4", "--seed", "3", "--target-measure", "0"],
        ["blockers", "build", "--bits", "4", "--seed", "3", "--target-measure", "3/2"],
        ["blockers", "build", "--bits", "4", "--seed", "3", "--target-measure=-1/4"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(["--out", str(out), *argv])
        assert exc.value.code == 2, argv
        assert not out.exists(), argv
        assert "expected " in capsys.readouterr().err, argv
    for argv in (
        ["hitting", "--construct", "shift:2", "--threshold", "0"],
        ["blockers", "build", "--bits", "4", "--seed", "3", "--target-measure", "1/4"],
    ):
        assert run_capture(argv)[0] == 0, argv


def test_construct_specs_past_the_size_limit_fail_fast(capsys):
    # kneser:14 took 11.7 s to build, shift:100 and gnp:20000 ran past 20 s,
    # and the two powers failed formatting a number of millions of digits
    for spec in ("kneser:14", "shift:100", "gnp:20000,0.0001,1", "kneser:2^100000000",
                 "cayley:200000000,1"):
        assert run_capture(["alpha", "--construct", spec, "--budget", "1"]) == (1, []), spec
        assert "over 4096 vertices" in capsys.readouterr().err, spec
    # a power of a one-vertex graph is that graph, built once
    status, records = run_capture(["alpha", "--construct", "gnp:1,0.5,1^100000"])
    assert status == 0 and records[0]["values"]["n"] == 1


def test_graph_files_past_the_size_limit_fail_at_the_header(tmp_path, capsys):
    # the one-line file below ran for 31 s and printed a record
    path = tmp_path / "big.txt"
    path.write_text("graph 200000 0\n")
    assert run_capture(["alpha", "--graph", str(path), "--budget", "1"]) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith("hatlab: error: line 1: ") and "over 4096" in err


def test_malformed_graph_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("e 0 1\ngraph 2 1\n")
    assert run_capture(["alpha", "--graph", str(path)]) == (1, [])
    assert capsys.readouterr().err.startswith("hatlab: error: line 1: ")


def test_malformed_partition_files_exit_1(tmp_path, capsys):
    # the first two ended in a TypeError traceback; booleans are not vertices
    path = tmp_path / "parts.json"
    for text in ('{"a": 1}', '[[0, 1], ["x"]]', '[0, 1]', '[[0, 1.0]]', '[[0, true]]'):
        path.write_text(text)
        argv = ["subgraph", "partition-bound", "--construct", "gnp:5,0.4,9",
                "--partition-file", str(path)]
        assert run_capture(argv) == (1, []), text
        assert capsys.readouterr().err.startswith("hatlab: error: "), text


def test_blockers_verify_empty_family_exits_1(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"blockers": []}))
    status, records = run_capture(["blockers", "verify", "--file", str(path)])
    assert status == 1 and records == []
    assert capsys.readouterr().err.startswith("hatlab: error: ")


def test_budget_exhaustion_names_certified_interval(capsys):
    status, _ = run_capture(["alpha", "--construct", "kneser:4^2", "--budget", "1000"])
    assert status == 1
    err = capsys.readouterr().err
    assert "exceeded 1000 nodes; alpha in [86, 103]" in err


def test_hitting_budget_exhaustion_names_certified_interval(capsys):
    # shift:4's enumeration finishes in 2,540 nodes, so only the hitting-set
    # search runs out; this once exited 0 with h 6 and "exact": false
    status, records = run_capture(["hitting", "--construct", "shift:4", "--budget", "5000"])
    assert (status, records) == (1, [])
    assert "hitting-set search exceeded its budget; h in [4, 6]" in capsys.readouterr().err


def test_threshold_targets_stop_at_the_node_budget(monkeypatch, capsys):
    # the maximal-set enumeration behind --threshold reads the library budget
    argv = ["hitting", "--construct", "shift:3", "--threshold", "1/2"]
    assert run_capture(argv)[0] == 0
    monkeypatch.setattr(graph_core, "DEFAULT_NODE_BUDGET", 5)
    assert run_capture(argv) == (1, [])
    assert "maximal-set enumeration exceeded 5 nodes" in capsys.readouterr().err


def test_suite_writes_one_passing_record_per_criterion(tmp_path, capsys):
    out = tmp_path / "suite.jsonl"
    status, returned = cli.run(["--out", str(out), "suite"])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert status == 0 and records == returned
    assert [r["criterion"] for r in records] == list(range(1, 14))
    assert all(r["command"] == "suite" and r["pass"] is True for r in records)
    assert "ALL PASS: 13/13" in capsys.readouterr().out


# -- replay determinism -------------------------------------------------------


def test_record_replay_reproduces_values():
    for cmd in (
        ["alpha", "--construct", "gnp:18,0.3,4"],
        ["hatgame", "--kind", "intersecting", "--players", "2", "--hats", "2"],
        ["subgraph", "alphastarstar", "--construct", "gnp:12,0.4,2", "--mc",
         "--samples", "150", "--seed", "3"],
    ):
        _, first = run_capture(cmd)
        _, second = run_capture(list(first[0]["argv"]))
        assert strip_volatile(first) == strip_volatile(second)


def test_budget_env_var_is_ignored(monkeypatch):
    # a record replays from its argv alone: no environment variable sets a budget
    argv = ["hatgame", "--kind", "dictator", "--players", "2", "--hats", "3"]
    _, plain = run_capture(argv)
    monkeypatch.setenv("HATLAB_BUDGET_MS", "1")
    status, records = run_capture(argv)
    assert status == 0 and strip_volatile(records) == strip_volatile(plain)
    assert records[0]["values"]["value"] == "11/32"
    assert records[0]["values"]["mode"] == "exact"


def test_budget_defaults_are_the_library_budgets(tmp_path, monkeypatch, capsys):
    # a run without --budget passes none on, so the library's own budget
    # applies, and --help still names it
    seen = {}

    def spy(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen[name] = bound.arguments["budget"]
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("max_independent_set", "exact_value_two_players", "verify_blocker", "h_of_graph"):
        spy(name)
    path = tmp_path / "cand.json"
    path.write_text(json.dumps([["01", "01"]]))
    for argv, name, budget in (
        (["alpha", "--construct", "kneser:3"], "max_independent_set", DEFAULT_NODE_BUDGET),
        (["hatgame", "--kind", "dictator", "--players", "2", "--hats", "2"],
         "exact_value_two_players", DEFAULT_TABLE_BUDGET),
        (["blockers", "build", "--bits", "4", "--seed", "1", "--verify"],
         "verify_blocker", DEFAULT_VERIFY_BUDGET),
        (["blockers", "verify", "--file", str(path)], "verify_blocker", DEFAULT_VERIFY_BUDGET),
        (["hitting", "--construct", "shift:2"], "h_of_graph", DEFAULT_HIT_BUDGET),
    ):
        seen.clear()
        assert run_capture(argv)[0] == 0 and seen[name] == budget, argv
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--help"])
        assert exc.value.code == 0, argv
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(rf"--budget BUDGET [^()]*\(default: {budget}\)", help_text), argv
