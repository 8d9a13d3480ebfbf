"""Training numerics still match the benchmark's recorded reference.

`perfbench/reference.json` holds fingerprints of the losses, gradients and
parameters of the `train_denoise` check pass (three optimizer steps at the
test_06 config on fixed inputs, relative tolerance 1e-6). A change to the
training arithmetic would otherwise surface only as failed operations in a
benchmark run; here it fails the test suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_train_denoise_matches_recorded_reference(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    workloads = importlib.import_module("workloads")
    observed, problems, _ = bench.run_canary(workloads.TrainDenoise, tmp_path)
    failures = bench.check_canary("train_denoise", observed, problems)
    assert len(failures) == workloads.TrainDenoise.canary_ops
    assert [f for op in failures for f in op] == []
