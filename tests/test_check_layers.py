"""``scripts/check_layers.py`` rules 8 (the batch is the unit) and 9
(deleted second paths stay deleted)."""

from __future__ import annotations

import ast

from scripts.check_layers import batch_loop_violations, deleted_name_violations

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


REINTRODUCED = """
from repro.index.hbi import HBIndex, build_from_store
import repro.parallel.scheduler.BlockRef

class MultiVarResult:
    def to_refs(self):
        return [hbi_path(self.root)]
"""


def test_a_reintroduced_second_path_is_a_violation():
    found = deleted_name_violations(ast.parse(REINTRODUCED), "x.py")
    named = [v.split(": ")[1].split(" ")[0] for v in found]
    assert named == ["build_from_store", "BlockRef", "MultiVarResult", "to_refs"]
    assert found[0].startswith("x.py:2:")


def test_the_remaining_implementations_are_clean():
    assert deleted_name_violations(ast.parse(STAGED), "broker.py") == []
