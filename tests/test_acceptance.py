"""Acceptance battery, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; the same battery backs ``hatlab suite``.
"""

import itertools

import pytest

from hatlab import acceptance
from hatlab.acceptance import ALL_CHECKS

NAMES = (
    "kneser_alpha_baseline",
    "game_graph_identity",
    "power_monotonicity",
    "folklore_three_eighths",
    "strict_player_monotonicity",
    "blocker_certification",
    "schedule_exactness",
    "shift_graph_regression",
    "distance_graph_regression",
    "hajnal_property",
    "alpha_star_star_oracles",
    "margin_bound",
    "determinism_replay",
)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_acceptance_criterion(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status}  criterion {result.cid:2d} {result.name} ({result.seconds:.2f}s): {result.detail}")
    # criteria are numbered in registration order, and each name is pinned
    assert result.cid == ALL_CHECKS.index(check) + 1
    assert check.__name__.startswith(f"check_{result.cid}_")
    assert result.name == NAMES[result.cid - 1]
    assert result.passed, f"criterion {result.cid} {result.name}: {result.detail}"


def test_time_limits_apply(monkeypatch):
    # a clock that moves 100 s per reading: past check 1's 1 s and check 8's
    # 60 s limits, while check 7 has no limit
    ticks = itertools.count(step=100.0)
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(ticks))
    slow = acceptance.check_1_kneser_alpha()
    assert not slow.passed and slow.seconds >= 100.0
    assert slow.detail == "alpha(K(n))=2^(n-1) for n=2..5 [n=2:2 n=3:4 n=4:8 n=5:16]"
    slow = acceptance.check_8_shift_graph_regression()
    assert not slow.passed and slow.seconds >= 100.0
    assert slow.detail.startswith("k=1: alpha=1, #max=2, h=2")  # the values themselves are right
    assert acceptance.check_7_schedule_exactness().passed
