"""The benchmark's own tests: span self time, the output check, certified_gap,
host-speed normalisation.

    python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import checks
import child
import hostclock
import run
import workloads
from conftest import BENCH, ROOT
from hatlab import constructions, graph_core, hat_game, hitting_sets
from spantrace import Spans, Tracer, load_spans


def test_self_time_on_a_synthetic_span_tree():
    spans = Spans()
    nid = spans.name_id("f")
    root = spans.add(-1, nid, 0.0, 10.0)
    a = spans.add(root, nid, 1.0, 4.0)
    spans.add(a, nid, 2.0, 3.0)
    spans.add(root, nid, 3.0, 6.0)  # overlaps a: the union is counted once
    spans.add(root, nid, 8.0, 12.0)  # runs past its parent: clipped at 10
    spans.add(-1, nid, 20.0, 21.5)
    assert list(spans.self_times()) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.5])
    assert spans.by_name()["f"]["calls"] == 6


def test_tracer_sees_internal_calls_and_uninstalls(tmp_path):
    original = graph_core.max_independent_set
    G = constructions.shift_graph(2)
    tracer = Tracer()
    tracer.install()
    try:
        assert hitting_sets.max_independent_set is graph_core.max_independent_set is not original
        graph_core.enumerate_maximum_independent_sets(G)
    finally:
        tracer.uninstall()
    assert graph_core.max_independent_set is original
    assert hitting_sets.max_independent_set is original
    spans = tracer.spans
    names = [spans.names[spans.name[i]] for i in range(len(spans))]
    assert names == [
        "graph_core.enumerate_maximum_independent_sets",
        "graph_core.max_independent_set",
    ]
    assert spans.parent[1] == 0
    own = spans.self_times()
    assert own[0] == pytest.approx(spans.end[0] - spans.start[0] - (spans.end[1] - spans.start[1]))
    spans.save(str(tmp_path / "spans"))
    assert load_spans(str(tmp_path / "spans")).by_name() == spans.by_name()


def test_every_workload_has_a_builder():
    assert set(run.WORKLOADS) == set(workloads.BUILDERS)


def _k3_square_op():
    k3 = constructions.kneser_hypercube(3)
    return workloads._mis_op("mis.K3^2", constructions.hamming_power(k3, 2), 22)


def test_correct_answers_pass_the_check():
    out = child.run_ops("mis-frontier", [_k3_square_op()], None, "")
    assert out["failures"] == [] and out["attempted"] == 1


def test_a_wrong_mis_answer_counts_as_a_failure(monkeypatch):
    real = graph_core.max_independent_set

    def off_by_one(G, *args, **kwargs):
        res = real(G, *args, **kwargs)
        bits = res.witness.bits & (res.witness.bits - 1)  # drop one witness vertex
        return replace(res, alpha=res.alpha - 1, witness=graph_core.VertexSet(G.n, bits),
                       alpha_bar=Fraction(res.alpha - 1, G.n))

    monkeypatch.setattr(graph_core, "max_independent_set", off_by_one)
    out = child.run_ops("mis-frontier", [_k3_square_op()], None, "")
    assert len(out["failures"]) == 1 and "alpha 21, expected 22" in out["failures"][0]


def test_a_misreported_game_value_counts_as_a_failure(monkeypatch):
    real = hat_game.exact_value_two_players

    def inflated(family, *args, **kwargs):
        res = real(family, *args, **kwargs)
        return replace(res, value=res.value + Fraction(1, 1 << (2 * family.n)))

    fam = hat_game.winning_family("dictator", 3)
    monkeypatch.setattr(hat_game, "exact_value_two_players", inflated)
    exact = workloads._two_player_op("p2.dictator3", fam, workloads.P2_N3)
    budgeted = workloads._two_player_op("p2.dictator3@100", fam, None, budget=100)
    out = child.run_ops("games", [exact, budgeted], None, "")
    assert len(out["failures"]) == 2
    assert "witness scores" in out["failures"][1]


def test_an_interval_missing_a_known_alpha_is_wrong():
    assert checks.interval(workloads.Interval(3, 5), 10, alpha=4) is None
    assert "misses the known alpha 6" in checks.interval(workloads.Interval(3, 5), 10, alpha=6)
    assert "bad certified interval" in checks.interval(workloads.Interval(5, 3), 10)


def test_a_raising_op_counts_as_a_failure():
    def boom():
        raise ValueError("boom")

    op = workloads.Op("boom", boom, lambda res, results: None)
    out = child.run_ops("games", [op], None, "")
    assert out["failures"] == ["boom: raised ValueError('boom')"]


def test_certified_gap_repeats_exactly_across_runs_and_seeds():
    gaps = []
    for seed in (1, 2):
        ops = [op for op in workloads.setup("mis-frontier", seed) if op.label in workloads.BUDGETED]
        results = {op.label: op.call() for op in ops}
        assert all(op.check(results[op.label], results) is None for op in ops)
        gaps.append((workloads.certified_gap(results), [results[label] for label in workloads.BUDGETED]))
    assert gaps[0] == gaps[1]


def _spin(seconds):
    end = hostclock.time.perf_counter() + seconds
    while hostclock.time.perf_counter() < end:
        pass


def test_host_clock_scales_work_by_the_sampled_speed(monkeypatch):
    speeds = iter([2.0, 2.0, 4.0, 4.0] + [4.0] * 1000)
    monkeypatch.setattr(hostclock, "speed_sample", lambda: next(speeds) * hostclock.REFERENCE_KERNEL_S)
    clock = hostclock.HostClock(period=10.0)  # no alarm: only the explicit samples
    clock.start()  # 2x
    _spin(0.05)
    clock.sample()  # 2x: a slice at half speed
    _spin(0.05)
    clock.sample()  # 4x: a slice scaled by the mean, 3x
    clock.stop()  # 4x: an empty slice
    raw, ref = clock.reading()
    assert raw == pytest.approx(0.1, rel=0.2)
    assert ref == pytest.approx(raw / 2.0 * 0.5 + raw / 3.0 * 0.5, rel=0.05)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_host_clock_samples_during_a_long_call():
    clock = hostclock.HostClock(period=0.02)
    clock.start()
    _spin(0.3)
    clock.stop()
    raw, ref = clock.reading()
    assert len(clock.samples) >= 5  # the alarm fired inside the call
    assert 0.1 < raw < 0.3 and ref > 0  # the samples' own time is left out
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_timed_pass_reports_raw_and_reference_seconds():
    out = child.run_ops("mis-frontier", [_k3_square_op()], None, "", hostclock.HostClock())
    assert out["failures"] == [] and out["wall_s"] > 0 and out["ref_s"] > 0 and out["kernel_s"] > 0


def test_run_refuses_a_tree_without_hatlab(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "games", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
