"""Optimization loop: masked-condition pretraining, task-condition finetuning,
learning-rate scheduling, Adam updates, checkpointing, and loss logging.

Batches are assembled by cropping cached waveforms into fixed-length segments
totalling `batch_seconds` of audio per step, so every item in a batch shares
one feature shape and no padding-aware loss masking is needed; a batch whose
items differ in shape is refused. All randomness flows through the
TrainState generator; a fixed seed gives an identical parameter trajectory,
and save/resume continues bit-exactly.

A training step is `pretrain_gradients` or `finetune_gradients`, which
return (loss, grads) for a batch, followed by `apply_gradients`, which
performs one clipped Adam update in place. The gradients come from recorded
forward passes, the objective `flowpath.cfm_loss` and backward passes over
slices of the stacked batch of about MICRO_BATCH_FRAMES frames each, summed
in slice order. Only one slice's tape is alive at a time, so a step's memory
does not grow with the batch; the sum equals one pass over the whole batch
up to rounding.

`save_checkpoint` / `load_checkpoint` define the package's one checkpoint
format, "flowsr-train-v1": the full TrainState. Resuming reads all of it;
warm starts and the restoration commands read its `model`.
"""

import dataclasses
import enum
import json
import math
import os

import numpy as np

from .audio import AudioSignal
from .flowpath import FlowPathConfig, cfm_loss, sample_training_tuple
from .masking import apply_mask, maybe_drop_condition, sample_mask
from .spectral import (CompressionParams, FeatureGrid, StftParams,
                       features_from_audio)
from .tasks import TaskKind, build_condition, prepend_tse_prompt
from .vectorfield import (ModelConfig, VectorFieldModel, backward,
                          forward_batch, segment_shapes)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CACHE_LIMIT_BYTES = 6 * 1024 ** 3  # waveform cache budget
CHECKPOINT_TAG = "flowsr-train-v1"
# Frames recorded per slice of a training batch: each slice holds
# max(1, MICRO_BATCH_FRAMES // frames) items (4 crops of 128 frames).
MICRO_BATCH_FRAMES = 512


class TrainMode(enum.Enum):
    PRETRAIN = "pretrain"
    FINETUNE = "finetune"
    SCRATCH = "scratch"


class LossSupport(enum.Enum):
    ALL_FRAMES = "all_frames"
    MASKED_ONLY = "masked_only"


@dataclasses.dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    Loss support selects whether the pretraining objective averages over all
    frames or only masked ones; finetuning always uses all frames (there is
    no mask). Scratch mode trains with task conditions from a random
    initialization and otherwise behaves like finetuning.
    """

    mode: TrainMode = TrainMode.PRETRAIN
    peak_lr: float = 5e-5
    final_lr: float = 1e-5
    warmup_steps: int = 5000
    total_steps: int = 100000
    batch_seconds: float = 16.0
    crop_seconds: float = 1.0
    seed: int = 0
    mask_ratio: float = 0.7
    mask_min_span: int = 10
    dropout_prob: float = 0.1
    task: TaskKind | None = None
    loss_support: LossSupport = LossSupport.ALL_FRAMES
    clip_norm: float | None = 1.0

    def __post_init__(self):
        # the range checks below let NaN and several infinities through
        for name in ("peak_lr", "final_lr", "batch_seconds", "crop_seconds", "clip_norm"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.final_lr <= self.peak_lr:
            raise ValueError(f"need 0 < final_lr <= peak_lr, got "
                             f"{self.final_lr} / {self.peak_lr}")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError(f"need 0 <= warmup_steps < total_steps, got "
                             f"{self.warmup_steps} / {self.total_steps}")
        if self.crop_seconds <= 0 or self.batch_seconds < self.crop_seconds:
            raise ValueError("need batch_seconds >= crop_seconds > 0")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ValueError(f"mask_ratio must lie in [0, 1], got {self.mask_ratio}")
        if self.mask_min_span < 1:
            raise ValueError("mask_min_span must be >= 1")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError("dropout_prob must lie in [0, 1]")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive (or None to disable)")
        if self.mode in (TrainMode.FINETUNE, TrainMode.SCRATCH) and self.task is None:
            raise ValueError(f"{self.mode.value} mode requires a task")

    @property
    def batch_items(self) -> int:
        return max(1, int(round(self.batch_seconds / self.crop_seconds)))

    @classmethod
    def for_mode(cls, mode: TrainMode, task: TaskKind | None = None, **kwargs):
        """Mode-appropriate learning-rate defaults."""
        rates = {
            TrainMode.PRETRAIN: dict(peak_lr=5e-5, final_lr=1e-5),
            TrainMode.FINETUNE: dict(peak_lr=2e-5, final_lr=1e-8),
            TrainMode.SCRATCH: dict(peak_lr=1e-4, final_lr=1e-8),
        }[mode]
        rates.update(kwargs)
        return cls(mode=mode, task=task, **rates)


@dataclasses.dataclass
class TrainPair:
    """One corpus item: clean target plus optional degraded input and,
    for target-speaker extraction, a reference utterance."""

    clean: AudioSignal
    degraded: AudioSignal | None = None
    reference: AudioSignal | None = None

    def __post_init__(self):
        for name in ("degraded", "reference"):
            signal = getattr(self, name)
            if signal is not None and signal.sample_rate != self.clean.sample_rate:
                raise ValueError(f"{name} rate {signal.sample_rate} != clean rate "
                                 f"{self.clean.sample_rate}")


@dataclasses.dataclass
class WaveformDataset:
    """In-memory waveform cache with a hard size budget and one sample rate,
    that of the first clean signal (each `TrainPair` holds one rate)."""

    pairs: list

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("dataset is empty")
        rate = self.pairs[0].clean.sample_rate
        total = 0
        for i, p in enumerate(self.pairs):
            if p.clean.sample_rate != rate:
                raise ValueError(f"pair {i}: clean rate {p.clean.sample_rate} "
                                 f"!= dataset rate {rate}")
            total += p.clean.samples.nbytes
            if p.degraded is not None:
                if len(p.degraded) != len(p.clean):
                    raise ValueError(f"pair {i}: degraded length {len(p.degraded)} "
                                     f"!= clean length {len(p.clean)}")
                total += p.degraded.samples.nbytes
            if p.reference is not None:
                total += p.reference.samples.nbytes
        if total > CACHE_LIMIT_BYTES:
            raise ValueError(f"waveform cache of {total} bytes exceeds the "
                             f"{CACHE_LIMIT_BYTES}-byte budget")

    def __len__(self):
        return len(self.pairs)


@dataclasses.dataclass
class TrainState:
    """Everything needed to continue a run: model, optimizer moments, rng."""

    model: VectorFieldModel
    config: TrainConfig
    step: int
    adam_m: dict
    adam_v: dict
    rng: np.random.Generator
    loss_count: int = 0
    loss_sum: float = 0.0
    last_loss: float = math.nan

    @property
    def mean_loss(self) -> float:
        return self.loss_sum / self.loss_count if self.loss_count else math.nan


def init_train_state(model: VectorFieldModel, config: TrainConfig) -> TrainState:
    zeros = lambda: {k: np.zeros_like(v) for k, v in model.params.items()}
    return TrainState(model=model, config=config, step=0,
                      adam_m=zeros(), adam_v=zeros(),
                      rng=np.random.default_rng(config.seed))


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> peak over warmup, then cosine decay peak -> final."""
    if step < 0 or step > cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    frac = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.final_lr + (cfg.peak_lr - cfg.final_lr) * 0.5 * (1.0 + math.cos(math.pi * frac))


def clip_global_norm(grads: dict, max_norm: float | None):
    """Scale all gradients so the joint L2 norm is at most max_norm."""
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm is not None and norm > max_norm:
        scale = max_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm


def adam_update(params: dict, grads: dict, m: dict, v: dict,
                lr: float, t: int) -> None:
    """One bias-corrected Adam step, in place. t counts updates from 1.

    `params`, `m` and `v` are updated in place, in the operation order of
    the textbook formula, so the result is bit-identical to it; `grads` is
    only read.
    """
    if t < 1:
        raise ValueError("Adam step index starts at 1")
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, g in grads.items():
        mk, vk = m[k], v[k]
        mk *= ADAM_BETA1
        mk += (1.0 - ADAM_BETA1) * g
        vk *= ADAM_BETA2
        vk += (1.0 - ADAM_BETA2) * (g * g)
        step = mk / bc1
        step *= lr
        denom = vk / bc2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        params[k] -= step


def _stack(items: list) -> np.ndarray:
    """Stack per-item arrays of one shape into a batch array.

    Empties `items`, so each per-item array is freed once it is stacked.
    """
    shapes = sorted({a.shape for a in items})
    if len(shapes) > 1:
        raise ValueError(f"batch items differ in feature shape: {shapes}")
    stacked = np.stack(items)
    items.clear()
    return stacked


def _forward_backward(model: VectorFieldModel, x_t: np.ndarray, cond: np.ndarray,
                      t: np.ndarray, target: np.ndarray,
                      frame_mask: np.ndarray | None = None) -> tuple[float, dict]:
    """`cfm_loss` of one batch and its parameter gradients, in slices.

    Each slice of max(1, MICRO_BATCH_FRAMES // frames) items is recorded,
    scored and differentiated on its own, and its prediction, tape and
    `dpred` are freed before the next slice is recorded. The loss is a mean
    over items, so a slice's loss and `dpred` are weighted by its share of
    the batch, and the first slice's gradient dict accumulates the others
    in slice order. A batch that fits in one slice is one pass, unweighted.
    """
    batch, _, frames = x_t.shape
    size = max(1, MICRO_BATCH_FRAMES // frames)
    loss, grads = 0.0, None
    for start in range(0, batch, size):
        sel = slice(start, start + size)
        weight = len(t[sel]) / batch
        pred, tape = forward_batch(model, x_t[sel], cond[sel], t[sel], record=True)
        part, dpred = cfm_loss(pred, target[sel],
                               None if frame_mask is None else frame_mask[sel])
        del pred
        dpred *= weight
        part_grads = backward(model, tape, dpred)
        del tape, dpred
        loss += weight * part
        if grads is None:
            grads = part_grads
        else:
            for k, g in part_grads.items():
                grads[k] += g
        del part_grads
    return loss, grads


def pretrain_gradients(state: TrainState, batch: list) -> tuple[float, dict]:
    """Masked-condition objective on a batch of clean FeatureGrids.

    Per item: sample a span mask, zero the masked frames to form the
    condition, drop the condition entirely with the configured probability,
    then draw (t, x0) and regress the field at the interpolated state.
    """
    if not batch:
        raise ValueError("empty batch")
    cfg = state.config
    x_t, cond, t, target, flags = [], [], [], [], []
    for grid in batch:
        mask = sample_mask(grid.num_frames, cfg.mask_ratio, cfg.mask_min_span,
                           state.rng)
        condition = maybe_drop_condition(apply_mask(grid, mask),
                                         cfg.dropout_prob, state.rng)
        tup = sample_training_tuple(grid.values, FlowPathConfig(), state.rng)
        x_t.append(tup.x_t)
        cond.append(condition.values)
        t.append(tup.t)
        target.append(tup.target)
        flags.append(mask)
    return _forward_backward(
        state.model, _stack(x_t), _stack(cond), np.array(t), _stack(target),
        _stack(flags) if cfg.loss_support is LossSupport.MASKED_ONLY else None)


def finetune_gradients(state: TrainState, batch: list, stft_params: StftParams,
                       compression: CompressionParams) -> tuple[float, dict]:
    """Task-condition objective on a batch of TrainPairs, analysed with the
    caller's frontend (`stft_params`, `compression`); no condition dropout."""
    if not batch:
        raise ValueError("empty batch")
    cfg = state.config
    if cfg.task is None:
        raise ValueError("finetuning requires a task in the config")
    x_t, cond, t, target = [], [], [], []
    for pair in batch:
        if pair.degraded is None:
            raise ValueError("finetuning requires degraded/clean pairs")
        condition = build_condition(cfg.task, pair.degraded, stft_params,
                                    compression, reference=pair.reference)
        if cfg.task is TaskKind.TARGET_SPEAKER_EXTRACT:
            target_audio = prepend_tse_prompt(pair.clean, pair.reference)
        else:
            target_audio = pair.clean
        x1 = features_from_audio(target_audio, stft_params, compression)
        if x1.values.shape != condition.values.shape:
            raise ValueError(f"target features {x1.values.shape} != condition "
                             f"features {condition.values.shape}")
        tup = sample_training_tuple(x1.values, FlowPathConfig(), state.rng)
        x_t.append(tup.x_t)
        cond.append(condition.values)
        t.append(tup.t)
        target.append(tup.target)
    return _forward_backward(state.model, _stack(x_t), _stack(cond), np.array(t),
                             _stack(target))


def apply_gradients(state: TrainState, loss: float, grads: dict) -> float:
    """Clip, Adam-update, and advance the step counter. Returns the loss."""
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite loss {loss!r} at step {state.step}; "
                           "aborting before the parameters are poisoned")
    lr = lr_schedule(state.step, state.config)
    grads, _ = clip_global_norm(grads, state.config.clip_norm)
    adam_update(state.model.params, grads, state.adam_m, state.adam_v,
                lr, state.step + 1)
    state.step += 1
    state.loss_count += 1
    state.loss_sum += loss
    state.last_loss = loss
    return loss


def _crop_signal(signal: AudioSignal, start: int, n: int) -> AudioSignal:
    chunk = signal.samples[start:start + n]
    if len(chunk) < n:
        chunk = np.concatenate([chunk, np.zeros(n - len(chunk))])
    return AudioSignal(chunk, signal.sample_rate)


def sample_crop(pair: TrainPair, crop_samples: int, hop: int,
                rng: np.random.Generator) -> TrainPair:
    """Random hop-aligned fixed-length crop, applied jointly to clean and
    degraded; the reference (if any) is kept whole for prompt trimming."""
    max_start = max(0, len(pair.clean) - crop_samples)
    start = int(rng.integers(max_start // hop + 1)) * hop
    return TrainPair(
        clean=_crop_signal(pair.clean, start, crop_samples),
        degraded=None if pair.degraded is None
        else _crop_signal(pair.degraded, start, crop_samples),
        reference=pair.reference)


def make_batch(dataset: WaveformDataset, cfg: TrainConfig,
               stft_params: StftParams, compression: CompressionParams,
               rng: np.random.Generator):
    """Draw one training batch from the cache.

    Pretrain mode returns clean FeatureGrids; finetune/scratch modes return
    cropped TrainPairs.
    """
    rate = dataset.pairs[0].clean.sample_rate
    crop_samples = int(round(cfg.crop_seconds * rate))
    idx = rng.integers(len(dataset), size=cfg.batch_items)
    crops = [sample_crop(dataset.pairs[int(i)], crop_samples,
                         stft_params.hop_size, rng) for i in idx]
    if cfg.mode is TrainMode.PRETRAIN:
        return [features_from_audio(c.clean, stft_params, compression)
                for c in crops]
    return crops


def run_training(state: TrainState, dataset: WaveformDataset,
                 stft_params: StftParams, compression: CompressionParams,
                 log_path=None, log_append: bool = False,
                 checkpoint_path=None, checkpoint_every: int = 0) -> TrainState:
    """Drive training to total_steps, logging one record per step.

    Batches are analysed with the caller's frontend (`stft_params`,
    `compression`), which restoration must reuse. The loss log is
    line-delimited JSON {"step", "lr", "loss"}; checkpoints are written every
    `checkpoint_every` steps (0 = only at the end) when checkpoint_path is set.
    """
    cfg = state.config
    log_file = open(log_path, "a" if log_append else "w") if log_path else None
    try:
        while state.step < cfg.total_steps:
            k = state.step
            batch = make_batch(dataset, cfg, stft_params, compression, state.rng)
            if cfg.mode is TrainMode.PRETRAIN:
                loss, grads = pretrain_gradients(state, batch)
            else:
                loss, grads = finetune_gradients(state, batch, stft_params,
                                                 compression)
            apply_gradients(state, loss, grads)
            if log_file is not None:
                record = {"step": k, "lr": lr_schedule(k, cfg), "loss": loss}
                log_file.write(json.dumps(record) + "\n")
                log_file.flush()
            if checkpoint_path and checkpoint_every \
                    and state.step % checkpoint_every == 0:
                save_checkpoint(state, checkpoint_path)
    finally:
        if log_file is not None:
            log_file.close()
    if checkpoint_path:
        save_checkpoint(state, checkpoint_path)
    return state


def _train_config_dict(cfg: TrainConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["mode"] = cfg.mode.value
    d["task"] = cfg.task.value if cfg.task else None
    d["loss_support"] = cfg.loss_support.value
    return d


def _train_config_from_dict(d: dict) -> TrainConfig:
    d = dict(d)
    d["mode"] = TrainMode(d["mode"])
    d["task"] = TaskKind(d["task"]) if d.get("task") else None
    d["loss_support"] = LossSupport(d["loss_support"])
    return TrainConfig(**d)


def config_mismatch(stored: dict, wanted: dict) -> str:
    """Name each field whose value differs between a checkpoint's config and
    the run's, with both values; empty when they agree."""
    return "; ".join(f"{key}: {stored[key]!r} in the checkpoint, "
                     f"{value!r} in the run config"
                     for key, value in wanted.items() if stored[key] != value)


def save_checkpoint(state: TrainState, path) -> None:
    """Serialize the full TrainState (params, moments, rng, counters).

    The file is written at exactly `path`, whatever its suffix, by way of a
    temporary file beside it that replaces `path` only once complete: a save
    that fails leaves the previous checkpoint loadable and no temporary file.
    """
    payload = {
        "__format__": np.array(CHECKPOINT_TAG),
        "__model_config__": np.array(
            json.dumps(dataclasses.asdict(state.model.config))),
        "__train_config__": np.array(json.dumps(_train_config_dict(state.config))),
        "__step__": np.array(state.step, dtype=np.int64),
        "__rng__": np.array(json.dumps(state.rng.bit_generator.state)),
        "__loss_stats__": np.array(json.dumps(
            [state.loss_count, state.loss_sum, state.last_loss])),
    }
    for name, arr in state.model.params.items():
        payload[f"param.{name}"] = arr
        payload[f"adam_m.{name}"] = state.adam_m[name]
        payload[f"adam_v.{name}"] = state.adam_v[name]
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, expected: TrainConfig | None = None) -> TrainState:
    """Restore a TrainState; optionally insist it matches an expected config."""
    with np.load(path, allow_pickle=False) as data:
        if "__format__" not in data or str(data["__format__"]) != CHECKPOINT_TAG:
            raise ValueError(f"{path}: not a recognized training checkpoint")
        model_config = ModelConfig(**json.loads(str(data["__model_config__"])))
        train_config = _train_config_from_dict(
            json.loads(str(data["__train_config__"])))
        if expected is not None:
            mismatch = config_mismatch(_train_config_dict(train_config),
                                       _train_config_dict(expected))
            if mismatch:
                raise ValueError(f"{path}: checkpoint config does not match "
                                 f"the requested run config: {mismatch}")
        params, m, v = {}, {}, {}
        for name, shape in segment_shapes(model_config).items():
            for prefix, dest in (("param.", params), ("adam_m.", m), ("adam_v.", v)):
                key = prefix + name
                if key not in data:
                    raise ValueError(f"{path}: missing array '{key}'")
                if data[key].shape != shape:
                    raise ValueError(f"{path}: '{key}' has shape {data[key].shape}, "
                                     f"expected {shape}")
                dest[name] = data[key].astype(np.float64)
        rng = np.random.default_rng(0)
        rng.bit_generator.state = json.loads(str(data["__rng__"]))
        loss_count, loss_sum, last_loss = json.loads(str(data["__loss_stats__"]))
        return TrainState(
            model=VectorFieldModel(config=model_config, params=params),
            config=train_config, step=int(data["__step__"]),
            adam_m=m, adam_v=v, rng=rng,
            loss_count=int(loss_count), loss_sum=float(loss_sum),
            last_loss=float(last_loss))
