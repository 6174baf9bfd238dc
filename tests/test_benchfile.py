"""The pair loop of benchmarks/benchfile.py, driven by fake measures."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("benchfile", Path(__file__).resolve().parent.parent / "benchmarks" / "benchfile.py")
benchfile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchfile)

SIDES = ["parent", "change"]


def fake(values: dict[str, list], digests: dict[str, list] | None = None):
    """A measure that returns each side's next value (a TimeoutExpired is
    raised) and digest, and logs the sides in call order."""
    calls: list[str] = []

    def measure(side: str):
        n = calls.count(side)
        calls.append(side)
        value = values[side][n]
        if isinstance(value, Exception):
            raise value
        return {"s": value}, digests[side][n] if digests else "d"

    return measure, calls


def test_first_side_swaps_every_round():
    measure, calls = fake({"parent": [1.0] * 4, "change": [1.0] * 4})
    benchfile.pair_loop(measure, SIDES, rounds=4)
    assert calls == ["parent", "change", "change", "parent", "parent", "change", "change", "parent"]


def test_side_stops_after_a_slow_run():
    measure, calls = fake({"parent": [benchfile.SLOW_S + 1], "change": [1.0, 2.0, 3.0]})
    row = benchfile.pair_loop(measure, SIDES, rounds=3)
    assert calls == ["parent", "change", "change", "change"]
    assert row["parent"] == {"s": [6.0, 6.0, 6.0], "runs": 1, "sha256": "d"}
    assert row["change"]["runs"] == 3 and row["change_wins"] == {"s": "1/1"}


def test_timeout_is_recorded_and_stops_its_side():
    timeout = subprocess.TimeoutExpired("cmd", 30.0)
    measure, calls = fake({"parent": [1.0, 1.0, 1.0], "change": [1.0, timeout]})
    row = benchfile.pair_loop(measure, SIDES, rounds=3, budget=30.0)
    assert calls == ["parent", "change", "change", "parent", "parent"]
    assert row["change"] == {"timed_out_s": 30.0}
    assert row["parent"]["runs"] == 3
    assert "change_wins" not in row and "same_output" not in row


def test_quartiles_and_wins():
    measure, _ = fake({"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [0.5, 3.0, 2.0, 4.0, 1.0]})
    row = benchfile.pair_loop(measure, SIDES, rounds=5)
    assert row["parent"]["s"] == [2.0, 3.0, 4.0]
    assert row["change"]["s"] == [1.0, 2.0, 3.0]
    # Rounds 1, 3 and 5 won; round 4 is a tie.
    assert row["change_wins"] == {"s": "3/5"}
    assert row["same_output"] is True
    measure, _ = fake({"parent": [1.0, 2.0], "change": [2.0, 2.0]})
    assert benchfile.pair_loop(measure, SIDES, rounds=2, higher={"s"})["change_wins"] == {"s": "1/2"}


def test_different_outputs_of_the_two_sides():
    measure, _ = fake({"parent": [1.0, 1.0], "change": [1.0, 1.0]}, {"parent": ["a", "a"], "change": ["b", "b"]})
    row = benchfile.pair_loop(measure, SIDES, rounds=2)
    assert (row["parent"]["sha256"], row["change"]["sha256"], row["same_output"]) == ("a", "b", False)


def test_digest_changing_between_rounds_raises():
    measure, _ = fake({"parent": [1.0, 1.0], "change": [1.0, 1.0]}, {"parent": ["a", "a"], "change": ["b", "c"]})
    with pytest.raises(RuntimeError, match="change"):
        benchfile.pair_loop(measure, SIDES, rounds=2)
