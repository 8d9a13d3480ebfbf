"""The benchmark's trace points still exist.

`perfbench/workloads.py` lists, in TRACE_TARGETS, every (module, attribute)
a traced run wraps. A refactor that moves or renames one of those calls
would otherwise surface only as `missing_trace_targets` in a traced
benchmark run; here it fails the test suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.TRACE_TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in workloads.TRACE_TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
