"""Checks of the scripts: the benchmark scripts' own arithmetic, without running the benchmark, and the scope report."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_marks_only_a_change_worse_than_the_bound():
    beyond = _load("bench_pairs").beyond_bound
    lower = {"better": "lower", "bound": 0.25}
    higher = {"better": "higher", "bound": 0.05}
    assert beyond(1.0, 1.3, lower) and not beyond(1.0, 1.2, lower) and not beyond(1.0, 0.5, lower)
    assert beyond(100.0, 94.0, higher) and not beyond(100.0, 96.0, higher) and not beyond(100.0, 200.0, higher)
    assert not beyond(0.0, 1.0, lower)


def test_bench_pairs_marks_a_difference_of_medians_inside_the_before_quartiles():
    within = _load("bench_pairs").within_spread
    before = [1.0, 2.0, 3.0, 4.0, 5.0]  # quartiles 2 and 4, median 3
    assert within(before, [4.9, 4.9, 4.9]) and within(before, [1.1]) and within(before, [3.0])
    assert not within(before, [5.0]) and not within(before, [1.0]) and not within(before, [9.0, 9.0])
    assert within(before, [0.0, 3.5, 9.0])  # the AFTER median, not its spread, is what is compared
    assert not within([2.0], [2.0]) and not within([2.0, 2.0], [2.1])  # no spread: nothing is inside it


def test_bench_pairs_marks_a_gain_clear_only_with_nine_wins_in_ten_outside_the_before_quartiles():
    clear = _load("bench_pairs").clear
    before = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # quartiles 3.25 and 7.75, median 5.5
    assert clear(before, [0.5] * 10, 9) and clear(before, [0.5] * 10, 10)
    assert not clear(before, [0.5] * 10, 8)  # 8 of 10 pairs won is too few
    assert not clear(before, [1.0] * 10, 9)  # medians 4.5 apart, spread 4.5: not more than the spread
    assert clear(before, [0.99] * 10, 9)
    assert clear(before[:5], [0.0] * 5, 5) and not clear(before[:5], [0.0] * 5, 4)  # 9 of every 10: 4.5 of 5
    assert clear([2.0, 2.0], [1.0, 1.0], 2) and not clear([2.0, 2.0], [2.0, 2.0], 2)


def test_scope_counts_reports_the_one_resource_scope():
    # the 28 scenarios of one resource are 15 up to symmetry; both agents need the resource, so all fail
    argv = [sys.executable, str(SCRIPTS / "scope_counts.py"), "--resources", "1"]
    run = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert lines[:-1] == [
        "scope: 1 resource(s)",
        "scenarios: 15",
        "successes: 0",
        "failures: 15",
        "undelivered successes: 0",
        "gap runs: 0",
        "certify diffs: 0",
        "swap-dependent scenarios: 0",
    ]
    assert lines[-1].startswith("runtime: ") and lines[-1].endswith(" s")


def test_scope_counts_fails_on_an_undelivered_success(monkeypatch, capsys):
    script = _load("scope_counts")
    found = {"successes": 1, "undelivered successes": 0}
    monkeypatch.setattr(script, "counts", lambda n: dict(found))
    assert script.main([]) == 0
    found["undelivered successes"] = 1
    assert script.main([]) == 1
    assert "undelivered successes: 1" in capsys.readouterr().out
