"""Tests for the live reproduction report."""

import pytest

from repro.cli import main
from repro.harness.report import CLAIMS, generate_report


@pytest.fixture(scope="module")
def fast_report():
    """One fast report shared by the content checks (~10 s to build)."""
    return generate_report(fast=True)


def test_report_all_claims_hold(fast_report):
    assert "NO" not in fast_report
    assert "{} of {} claims hold.".format(
        len(CLAIMS), len(CLAIMS)) in fast_report


def test_report_contains_every_claim_row(fast_report):
    assert fast_report.count("|") >= (len(CLAIMS) + 2) * 5
    for needle in ("cache thrashing", "heap contention", "Q3.4"):
        assert needle in fast_report


def test_report_cli(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "Reproduction report" in out
    assert "claims hold" in out
