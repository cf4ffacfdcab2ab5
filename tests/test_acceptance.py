"""Full-tier acceptance battery, one test per criterion.

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
    result = check(quick=False)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status}  criterion {result.cid:2d} {result.name} ({result.seconds:.2f}s): {result.detail}")
    # criteria are numbered in registration order, and each name is pinned
    assert result.cid == ALL_CHECKS.index(check) + 1
    assert check.__name__.startswith(f"check_{result.cid}_")
    assert result.name == NAMES[result.cid - 1]
    assert result.passed, f"criterion {result.cid} {result.name}: {result.detail}"


def test_time_limits_apply(monkeypatch):
    # a clock that moves 100 s per reading: past check 8's 60 s limit,
    # while check 7 has no limit
    ticks = itertools.count(step=100.0)
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(ticks))
    slow = acceptance.check_8_shift_graph_regression(quick=True)
    assert not slow.passed and slow.seconds >= 100.0
    assert slow.detail.startswith("k=1: alpha=1, #max=2, h=2")  # the values themselves are right
    assert acceptance.check_7_schedule_exactness(quick=True).passed
