"""The benchmark's workloads: inputs made from a seed, the model, and one
operation of each workload, called through flowsr's public library API.

train_denoise   scratch denoise training at the acceptance gate's test_06
                config: make_batch -> finetune_gradients -> apply_gradients.
restore_long    generate + score_utterance on 12 s denoise recordings at the
                default config, where the O(frames^2) attention dominates.
restore_mixed   the same operation on 1-3 s utterances of all four tasks,
                where per-utterance fixed costs are a visible share.

Every input is cut from clips of the gate's seeded toy-corpus recipe
(flowsr.harness.synth_toy_corpus). Input shapes are fixed per workload; the
seed changes only their content, so a run's counts and memory do not depend
on the seed.
"""

import collections
import dataclasses
import math
import shutil
import tempfile

import numpy as np

from flowsr.audio import AudioSignal, read_wav
from flowsr.harness import RunConfig, load_manifest, synth_toy_corpus
from flowsr.metrics import score_utterance
from flowsr.sampler import generate
from flowsr.tasks import TaskKind
from flowsr.training import (TrainMode, TrainPair, WaveformDataset,
                             apply_gradients, finetune_gradients,
                             init_train_state, make_batch, sample_crop)
from flowsr.vectorfield import init_parameters

from fingerprint import digest, params_digest
from tracing import forward_shape_attrs

RATE = 16000
CANARY_SEED = 20240924  # inputs of the check pass, whose outputs are recorded

# test_06: window 126 / hop 63, compress_scale 8, feed-forward 512, 16 crops
# of 0.5 s per step, the first steps of an 800-step schedule.
TRAIN_CONFIG = RunConfig(window_size=126, hop_size=63, compress_scale=8.0,
                         feedforward_dim=512, peak_lr=5e-4, crop_seconds=0.5,
                         batch_seconds=8.0, step_size=1.0, total_steps=800,
                         warmup_steps=80)
# The gate draws crops from 500 clips; the step cost does not depend on the
# corpus size, so a smaller corpus keeps set-up short.
CORPUS_CLIPS = 48

RESTORE_CONFIG = RunConfig()  # window 510, hop 128, five Euler steps
MODEL_SEED = 0
# init_parameters zeroes these segments, which makes the field identically
# zero; the restore model fills them so outputs depend on attention and FFN.
_ZERO_INIT_TAGS = ("ada.", "output_proj.")

# Function names the traced run wraps, each in the namespace of the module
# that calls it: (module, attribute, span name[, shape attributes]).
TRACE_TARGETS = [
    (__name__, "make_batch", "training.make_batch"),
    (__name__, "finetune_gradients", "training.finetune_gradients"),
    (__name__, "apply_gradients", "training.apply_gradients"),
    (__name__, "generate", "sampler.generate"),
    (__name__, "score_utterance", "metrics.score_utterance"),
    ("flowsr.training", "build_condition", "tasks.build_condition"),
    ("flowsr.training", "features_from_audio", "spectral.features_from_audio"),
    ("flowsr.training", "sample_training_tuple", "flowpath.sample_training_tuple"),
    ("flowsr.training", "forward_batch", "vectorfield.forward_batch",
     forward_shape_attrs),
    ("flowsr.training", "backward", "vectorfield.backward"),
    ("flowsr.sampler", "build_condition", "tasks.build_condition"),
    ("flowsr.sampler", "sample_features", "sampler.sample_features"),
    ("flowsr.sampler", "forward_batch", "vectorfield.forward_batch",
     forward_shape_attrs),
    ("flowsr.sampler", "audio_from_features", "spectral.audio_from_features"),
    ("flowsr.tasks", "features_from_audio", "spectral.features_from_audio"),
]


@dataclasses.dataclass
class OpResult:
    items: int
    audio_seconds: float
    output: dict


class TrainDenoise:
    """One op is one optimizer step on 16 crops of 0.5 s."""

    cycle = 1        # ops per repetition of the input shapes
    canary_ops = 3
    expected_nfe = 0

    def __init__(self, seed: int, work_root):
        cfg = dataclasses.replace(TRAIN_CONFIG, seed=seed)
        self.seed, self.model_config = seed, cfg.model_config()
        self.stft, self.compression = cfg.stft_params(), cfg.compression()
        self.dataset = WaveformDataset(_toy_corpus(
            TaskKind.DENOISE, CORPUS_CLIPS, np.random.default_rng(seed), work_root))
        self.train_config = cfg.train_config(TrainMode.SCRATCH, TaskKind.DENOISE)
        self._new_state()
        self.op(0)  # warm-up step

    def _new_state(self) -> None:
        model = init_parameters(self.model_config, np.random.default_rng(self.seed))
        self.state = init_train_state(model, self.train_config)

    def op(self, i: int) -> OpResult:
        if self.state.step >= self.train_config.total_steps:
            self._new_state()  # the schedule has ended; start it again
        batch = make_batch(self.dataset, self.train_config, self.stft,
                           self.compression, self.state.rng)
        loss, grads = finetune_gradients(self.state, batch, self.stft,
                                         self.compression)
        apply_gradients(self.state, loss, grads)
        return OpResult(items=len(batch),
                        audio_seconds=sum(len(p.clean) for p in batch) / RATE,
                        output={"loss": loss, "grads": grads})

    def problems(self, result: OpResult) -> list:
        loss = result.output["loss"]
        out = [] if math.isfinite(loss) and loss > 0.0 else [f"loss {loss!r}"]
        bad = [k for k, p in self.state.model.params.items()
               if not np.all(np.isfinite(p))]
        return out + ([f"non-finite parameters {bad}"] if bad else [])

    def fingerprint(self, result: OpResult) -> dict:
        return {"loss": result.output["loss"],
                "grads": params_digest(result.output["grads"])}

    def final_fingerprint(self) -> dict:
        return {"params": params_digest(self.state.model.params)}


def _toy_corpus(task: TaskKind, count: int, rng, work_root) -> list:
    """`count` pairs of the gate's seeded toy corpus recipe for `task`,
    written to disk and read back."""
    out_dir = tempfile.mkdtemp(prefix="corpus-", dir=work_root)
    try:
        manifest = synth_toy_corpus(task, count, rng, out_dir)
        return [TrainPair(read_wav(r.clean_path), read_wav(r.degraded_path),
                          read_wav(r.reference_path) if r.reference_path else None)
                for r in load_manifest(manifest)]
    finally:
        shutil.rmtree(out_dir)


def cut_utterance(task: TaskKind, clips, seconds: float, rng) -> TrainPair:
    """A `seconds`-long utterance from the next toy-corpus clips: joined end
    to end until long enough, then one hop-aligned crop. A speaker
    extraction keeps its clip's reference, so it must fit in one clip."""
    n = int(round(seconds * RATE))
    joined = [next(clips)]
    while sum(len(p.clean) for p in joined) < n:
        joined.append(next(clips))
    if task is TaskKind.TARGET_SPEAKER_EXTRACT and len(joined) > 1:
        raise ValueError("a speaker extraction must fit in one corpus clip")
    join = lambda side: AudioSignal(
        np.concatenate([getattr(p, side).samples for p in joined]), RATE)
    return sample_crop(TrainPair(join("clean"), join("degraded"), joined[0].reference),
                       n, RESTORE_CONFIG.stft_params().hop_size, rng)


def restore_model(seed: int = MODEL_SEED):
    """Default-config model with every zero-initialised segment filled with
    seeded small values, so the field is not identically zero."""
    rng = np.random.default_rng(seed)
    model = init_parameters(RESTORE_CONFIG.model_config(), rng)
    for name, values in model.params.items():
        if any(tag in name for tag in _ZERO_INIT_TAGS):
            limit = 0.02 if values.ndim == 1 else 0.5 * math.sqrt(6.0 / sum(values.shape))
            values[...] = rng.uniform(-limit, limit, size=values.shape)
    return model


class Restore:
    """One op restores one utterance and scores it against the clean side."""

    expected_nfe = RESTORE_CONFIG.solver().num_steps

    def __init__(self, seed: int, work_root):
        self.seed = seed
        self.model = restore_model()
        shapes = [(TaskKind.DENOISE, 1.0)] + self.schedule  # warm-up first
        # every corpus clip is at least 1 s long
        needed = collections.Counter()
        for task, seconds in shapes:
            needed[task] += math.ceil(seconds)
        clips = {task: iter(_toy_corpus(task, count, np.random.default_rng([seed, k]),
                                        work_root))
                 for k, (task, count) in enumerate(needed.items())}
        rng = np.random.default_rng(seed)
        utterances = [(task, cut_utterance(task, clips[task], seconds, rng))
                      for task, seconds in shapes]
        self._restore(*utterances[0], np.random.default_rng(seed))  # warm-up
        self.utterances = utterances[1:]

    def _restore(self, task: TaskKind, utt: TrainPair, rng):
        restored = generate(self.model, task, utt.degraded, rng,
                            RESTORE_CONFIG.stft_params(), RESTORE_CONFIG.compression(),
                            RESTORE_CONFIG.solver(), reference=utt.reference)
        scores = score_utterance(task.value, restored, utt.degraded, utt.clean,
                                 RESTORE_CONFIG.stft_params())
        return restored, scores

    def op(self, i: int) -> OpResult:
        task, utt = self.utterances[i % len(self.utterances)]
        restored, scores = self._restore(task, utt, np.random.default_rng([self.seed, i]))
        return OpResult(items=1, audio_seconds=len(utt.degraded) / RATE,
                        output={"expected_length": len(utt.degraded),
                                "restored": restored, "scores": scores})

    def problems(self, result: OpResult) -> list:
        restored, scores = result.output["restored"], result.output["scores"]
        out = []
        if len(restored) != result.output["expected_length"]:
            out.append(f"restored length {len(restored)} != "
                       f"{result.output['expected_length']}")
        if not np.any(restored.samples):
            out.append("silent output")
        if not (math.isfinite(scores.si_sdr) and math.isfinite(scores.lsd)):
            out.append("non-finite scores")
        return out

    def fingerprint(self, result: OpResult) -> dict:
        scores = result.output["scores"]
        return {"audio": digest(result.output["restored"].samples, "audio"),
                "si_sdr": scores.si_sdr, "lsd": scores.lsd}

    def final_fingerprint(self) -> dict:
        return {}


class RestoreLong(Restore):
    # 12 s (1501 frames) rather than 20 s: attention is still about 70 % of
    # the matmul work, and a 20 s run fits only two 11 s operations.
    schedule = [(TaskKind.DENOISE, 12.0)] * 2
    cycle = 1
    canary_ops = 1


class RestoreMixed(Restore):
    # Fixed durations, in rising cost. The fourth and fifth share a shape,
    # and so do the two speaker extractions (1 s mixtures behind a 3 s
    # prompt), so the median and the tail each fall on one shape whatever
    # the number of whole cycles (six or more) a run completes.
    schedule = [(TaskKind.DENOISE, 1.0), (TaskKind.BANDWIDTH_EXTEND, 1.5),
                (TaskKind.CODEC_RESTORE, 2.0), (TaskKind.DENOISE, 2.5),
                (TaskKind.BANDWIDTH_EXTEND, 2.5), (TaskKind.CODEC_RESTORE, 3.0),
                (TaskKind.TARGET_SPEAKER_EXTRACT, 1.0),
                (TaskKind.TARGET_SPEAKER_EXTRACT, 1.0)]
    cycle = len(schedule)
    canary_ops = len(schedule)


WORKLOADS = {"train_denoise": TrainDenoise, "restore_long": RestoreLong,
             "restore_mixed": RestoreMixed}
