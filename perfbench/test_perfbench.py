"""Checks of the benchmark itself: the check pass flags a perturbed model,
gradient or output, and traced self times add up to the operation time.

    python3 -m pytest perfbench
"""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import fingerprint  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flowsr import training  # noqa: E402
from flowsr.audio import AudioSignal  # noqa: E402
from flowsr.tasks import TaskKind  # noqa: E402
from flowsr.vectorfield import forward_batch  # noqa: E402


def check_failures(cls, name, work_dir):
    observed, problems, _ = bench.run_canary(cls, work_dir)
    return [m for op in bench.check_canary(name, observed, problems) for m in op]


def test_restore_model_field_is_not_zero():
    model = workloads.restore_model()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, model.config.feature_channels, 40))
    field = forward_batch(model, x, rng.standard_normal(x.shape), np.array([0.3]))
    assert np.linalg.norm(field) > 0.1 * np.linalg.norm(x)


def test_check_pass_matches_reference_and_flags_perturbed_model(tmp_path, monkeypatch):
    assert check_failures(workloads.RestoreMixed, "restore_mixed", tmp_path) == []

    original = workloads.restore_model

    def perturbed(seed=workloads.MODEL_SEED):
        model = original(seed)
        model.params["block3.qkv.weight"] *= 1.0 + 1e-4
        return model

    monkeypatch.setattr(workloads, "restore_model", perturbed)
    failures = check_failures(workloads.RestoreMixed, "restore_mixed", tmp_path)
    assert any(".audio" in m for m in failures)


def test_check_pass_flags_wrong_gradient(tmp_path, monkeypatch):
    assert check_failures(workloads.TrainDenoise, "train_denoise", tmp_path) == []

    original = training.backward

    def wrong(model, tape, output_grad):
        grads = original(model, tape, output_grad)
        grads["block1.ffn.weight1"] *= 1.0 + 1e-4
        return grads

    monkeypatch.setattr(training, "backward", wrong)
    failures = check_failures(workloads.TrainDenoise, "train_denoise", tmp_path)
    assert any("grads.block1.ffn.weight1" in m for m in failures)


def test_training_restarts_the_schedule_when_it_ends(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CORPUS_CLIPS", 4)
    monkeypatch.setattr(workloads, "TRAIN_CONFIG", dataclasses.replace(
        workloads.TRAIN_CONFIG, total_steps=2, warmup_steps=1))
    train = workloads.TrainDenoise(0, tmp_path)  # its warm-up is step 1
    for i in range(1, 4):
        assert train.problems(train.op(i)) == []
        assert train.state.step <= 2


def test_speaker_extraction_keeps_its_clip_reference():
    rng = np.random.default_rng(0)
    clips = iter([training.TrainPair(*(AudioSignal(rng.standard_normal(n), 16000)
                                       for n in (16000, 16000, 48000)))] * 3)
    utt = workloads.cut_utterance(TaskKind.TARGET_SPEAKER_EXTRACT, clips, 1.0, rng)
    assert len(utt.degraded) == 16000 and len(utt.reference) == 48000
    with pytest.raises(ValueError, match="one corpus clip"):
        workloads.cut_utterance(TaskKind.TARGET_SPEAKER_EXTRACT, clips, 1.5, rng)


def test_perturbed_output_is_flagged(tmp_path):
    restore = workloads.RestoreMixed(workloads.CANARY_SEED, tmp_path)
    result = restore.op(0)
    recorded = bench.load_reference("restore_mixed")["ops"][0]
    assert fingerprint.compare(recorded, restore.fingerprint(result)) == []

    samples = result.output["restored"].samples
    samples[len(samples) // 2] += 1e-3 * np.sqrt(np.mean(samples ** 2))
    assert fingerprint.compare(recorded, restore.fingerprint(result))


def test_traced_self_times_add_up_to_the_operation(tmp_path):
    restore = workloads.RestoreMixed(0, tmp_path)
    tracer = tracing.Tracer()
    with tracer.patched(workloads.TRACE_TARGETS):
        record = bench._one_op(restore, 6, tracer)  # a speaker extraction
    assert tracer.missing == set()
    assert record.problems == []
    profile = record.profile
    assert profile["nfe"] == 5
    assert profile["calls"]["vectorfield.forward_batch"] == 5
    assert sum(profile["ms"].values()) == pytest.approx(record.seconds * 1e3, rel=1e-9)


def test_patches_are_removed_after_tracing():
    originals = [getattr(sys.modules[m], a) for m, a, *_ in workloads.TRACE_TARGETS]
    with tracing.Tracer().patched(workloads.TRACE_TARGETS):
        pass
    assert [getattr(sys.modules[m], a) for m, a, *_ in workloads.TRACE_TARGETS] == originals


class SleepWorkload:
    cycle = 1

    def __init__(self, events):
        self.events = events

    def op(self, i):
        time.sleep(0.01)
        self.events.append("op")
        return workloads.OpResult(items=1, audio_seconds=0.01, output={})

    def problems(self, result):
        return []


def test_set_ups_are_spread_over_the_timed_loop():
    events = []
    records = bench.timed_loop(SleepWorkload(events), 0.4,
                               set_up=lambda: events.append("set-up"))
    at = [i for i, e in enumerate(events) if e == "set-up"]
    assert len(at) == bench.SETUP_REPEATS - 1
    assert at[0] > 1 and all(b - a > 1 for a, b in zip(at, at[1:]))
    assert len(records) == events.count("op")


@pytest.mark.parametrize("n, rank", [(2, 2), (3, 2), (12, 7), (25, 15), (72, 62)])
def test_tail_has_ten_beyond_or_is_the_upper_median(n, rank):
    value, percentile, beyond = bench.tail(list(range(n, 0, -1)))
    assert value == rank
    assert beyond == n - rank
    assert percentile == pytest.approx(100.0 * rank / n)
