"""Tests for the report writer and the sample-file codec."""

import json
from dataclasses import asdict

import pytest

from zakbench import expsys, reports, reproducing, zak


def one_report_of_each_type():
    """A small run of each of the five report types, every one through the verdict its command calls."""
    weight = expsys.PeriodicSignal.from_name("linear", 64)
    system = expsys.ExpSystem(weight=weight, window=4, removed=0, anchor=0.25)
    return [
        expsys.schauder_failure_sweep(system).report,
        zak.validate_verdict(16)[0].report,
        zak.quotient_integral("cone", [8, 16]).report,
        reproducing.random_pair_check(4, 3, 1).report,
        reproducing.excess_n_verdict(6, 3, 2, dependent_head=True).report,
    ]


def test_dump_report_json_matches_asdict():
    # Every report field is a plain JSON value, so the writer's shallow field
    # read encodes to the same bytes as asdict's deep copy.
    metadata = {"argv": ["--seed", "1"], "seed": 1}
    found = one_report_of_each_type()
    assert sorted(type(r).__name__ for r in found) == [
        "ExcessReport", "LadderReport", "RpCheckReport", "SweepReport", "ZakValidationReport"]
    for report in found:
        expected = json.dumps({**asdict(report), "metadata": metadata}, indent=2, sort_keys=True) + "\n"
        assert reports.dump_report_json(report, metadata) == expected, type(report).__name__


def test_verdict_derives_its_outcome_from_the_checks():
    # An upper row is ok at or below its limit and a lower row at or above it;
    # the detail lists the failing rows sorted, and without level rows the
    # CSV rows are the checks in table order.
    rows = {
        "b_upper": reports._check(2.0, 1.0),
        "at_limit": reports._check(1.0, 1.0),
        "a_lower": reports._check(0.5, 1.0, "lower"),
        "floor": reports._check(1.0, 1.0, "lower"),
    }
    assert [row["ok"] for row in rows.values()] == [False, True, False, True]
    assert rows["a_lower"] == {"value": 0.5, "limit": 1.0, "bound": "lower", "ok": False}
    verdict = reports.Verdict("report", rows)
    assert verdict.passed is False and verdict.detail == "failing: a_lower, b_upper"
    assert verdict.rows == [(name, row["value"], row["ok"]) for name, row in rows.items()]
    passing = reports.Verdict("report", {"at_limit": rows["at_limit"]}, rows=[(1, 2.0, "levels")])
    assert passing.passed is True and passing.detail == "all checks passed"
    assert passing.rows == [(1, 2.0, "levels")]


def test_read_samples_refuses_a_count_that_misses_the_declared_size(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"N": 8, "grid": "shifted_midpoint", "samples": [[1, 0]] * 7}))
    with pytest.raises(ValueError, match="^sample count does not match declared N$"):
        reports._read_samples(path, "N", {"grid": "shifted_midpoint"}, 1)
