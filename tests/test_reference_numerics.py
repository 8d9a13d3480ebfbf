"""Training and long-restoration numerics still match the benchmark's
recorded reference.

`perfbench/reference.json` holds fingerprints of the check passes of its
workloads, compared at a relative tolerance of 1e-6: for `train_denoise`,
the losses, gradients and parameters of three optimizer steps at the
test_06 config on fixed inputs; for `restore_long`, the restored waveform
of one 12 s recording (1501 frames, several attention row blocks and
banded heads). A change to the training arithmetic or to the long-input
attention path would otherwise surface only as failed operations in a
benchmark run; here it fails the test suite. (`restore_mixed`'s check pass
runs in perfbench's own tests.)
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["train_denoise", "restore_long"])
def test_workload_matches_recorded_reference(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    cls = importlib.import_module("workloads").WORKLOADS[name]
    observed, problems, _ = bench.run_canary(cls, tmp_path)
    failures = bench.check_canary(name, observed, problems)
    assert len(failures) == cls.canary_ops
    assert [f for op in failures for f in op] == []
