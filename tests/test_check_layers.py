"""``scripts/check_layers.py`` rule 8: the batch is the unit."""

from __future__ import annotations

import ast

from scripts.check_layers import batch_loop_violations

PER_REQUEST = """
def run_round(self):
    batch = self.select_round()
    for req in batch:
        req.result = req.store.query(req.query, planned=(req.plan, req.plan_stats))
    return [store.execute_planned(q, p) for q, p in batch]
"""

STAGED = """
def run_round(self):
    batch = self.select_round()
    for req in batch:
        req.staged = req.store.stage(req.query, planned=(req.plan, req.plan_stats))
    results = assemble([req.staged for req in batch])
    while self.pending():
        self.run_round()
"""


def test_a_reintroduced_per_request_loop_is_a_violation():
    found = batch_loop_violations(ast.parse(PER_REQUEST), "broker.py")
    assert [v.split(": ")[1].split("(")[0] for v in found] == ["query", "execute_planned"]
    assert found[0].startswith("broker.py:5:")


def test_staging_in_a_loop_and_assembling_once_is_clean():
    assert batch_loop_violations(ast.parse(STAGED), "broker.py") == []

