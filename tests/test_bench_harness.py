"""The benchmark's traced path against the table it reads.

``bench/harness.py`` drives ``DpTable`` through its own steps and reads the
table's memo; a change to the table that breaks that path would otherwise
show only as a bench run without a result line.
"""

import importlib
from pathlib import Path

import pytest
from helpers import materialized_cells

from permlcp import DpTable, lcp_plan, parse_permutation

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("harness")


def test_traced_lcp_counts_the_cells_the_table_holds(harness):
    pool = harness.W.make_pool("separable_square")
    _, texts = harness.query_inputs(pool, 0, 0)
    tracer = harness.Tracer()
    stats = {"depth": 0, "guided_by_shorter": 0, "intervals": 0,
             "cells": {"leaf": 0, "linear": 0, "prime": 0}}
    with harness.IntervalCounter() as intervals:
        assert intervals.present
        outcome = harness.traced_lcp(tracer, intervals, texts, stats)
    assert outcome == harness.run_lcp(texts)

    sigma, tau = map(parse_permutation, texts)
    plan = lcp_plan(sigma, tau)
    table = DpTable(plan.tree, tau if plan.guided_by == "sigma" else sigma)
    table.root_cell()
    table.reconstruct()
    want = {"leaf": 0, "linear": 0, "prime": 0}
    for node, *_ in materialized_cells(table):
        want[node.kind] += 1
    assert stats["cells"] is not None
    assert stats["cells"] == want == harness.cell_counts(table)
    assert sum(want.values()) > 0
