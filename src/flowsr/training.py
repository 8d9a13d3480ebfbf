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
performs one clipped Adam update in place. The two share one step body,
`_gradients`, and their items differ only in their condition and loss
frames: pretraining conditions on a span-masked, possibly dropped clean
grid and may score the masked frames only; finetuning builds both the
condition and the target with the task's `build_condition` and scores all
frames. The gradients come from recorded forward passes, the objective
`flowpath.cfm_loss` and backward passes over slices of about
MICRO_BATCH_FRAMES frames each, summed in slice order; the sum equals one
pass over the whole batch up to rounding.

A slice's items are built only when its turn comes, and its inputs, tape
and `dpred` are freed before the next slice is built; `backward` releases
the tape layer by layer. So a step holds one slice's inputs, one tape and
one gradient dict, and its memory does not grow with the batch: at the
acceptance gate's config a step on 16 crops of 0.5 s peaks at about 30.2
MiB under tracemalloc, and on 64 crops at the same; a default-model
pretraining step on 16 crops of 1 s peaks at about 30.2 MiB. A slice's tape
is linear in its frames (attention tapes row sums, not probabilities), so
a single long crop fits too: one 16 s crop at the default model peaks at
about 115 MiB, and one pretraining step on four 4 s crops at about 55 MiB.

`save_checkpoint` / `load_checkpoint` define the package's one checkpoint
format, "flowsr-train-v1": the full TrainState. Resuming reads all of it;
warm starts and restoration read only its parameters and configs
(`load_model`), checked the same way, and restoration takes its task from
the training config.
"""

import dataclasses
import enum
import json
import math
import os

import numpy as np

from .audio import AudioSignal
from .flowpath import cfm_loss, sample_training_tuple
from .masking import apply_mask, maybe_drop_condition, sample_mask
from .spectral import CompressionParams, StftParams, features_from_audio
from .tasks import TaskKind, build_condition
from .vectorfield import (ModelConfig, VectorFieldModel, backward,
                          forward_batch, segment_shapes)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CACHE_LIMIT_BYTES = 6 * 1024 ** 3  # waveform cache budget
CHECKPOINT_TAG = "flowsr-train-v1"
# Frames recorded per slice of a training batch: each slice holds
# max(1, MICRO_BATCH_FRAMES // frames) items (2 crops of 128 frames).
MICRO_BATCH_FRAMES = 256


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
    initialization and otherwise behaves like finetuning. Pretraining has no
    task and the other modes one each, so a checkpoint's task says whether
    and what it restores.
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
        if (self.task is None) != (self.mode is TrainMode.PRETRAIN):
            raise ValueError(f"pretrain mode takes no task, got {self.task.value}"
                             if self.task else f"{self.mode.value} mode requires a task")

    @property
    def batch_items(self) -> int:
        return max(1, int(round(self.batch_seconds / self.crop_seconds)))

    @classmethod
    def for_mode(cls, mode: TrainMode, task: TaskKind | None = None, **kwargs):
        """Mode-appropriate learning-rate defaults; pretraining takes the
        dataclass's own."""
        rates = {
            TrainMode.FINETUNE: dict(peak_lr=2e-5, final_lr=1e-8),
            TrainMode.SCRATCH: dict(peak_lr=1e-4, final_lr=1e-8),
        }.get(mode, {})
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


def clip_global_norm(grads: dict, max_norm: float | None) -> tuple[float, float]:
    """The factor that scales all gradients to a joint L2 norm of at most
    max_norm, and that norm.

    The factor is 1.0 when max_norm is None or the norm is within it. A
    non-finite norm is returned with factor 1.0, for the caller to refuse
    (`apply_gradients` does): scaling by max_norm / inf would only turn
    every entry into 0 or NaN.
    """
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm is not None and max_norm < norm < math.inf:
        return max_norm / norm, norm
    return 1.0, norm


def adam_update(params: dict, grads: dict, m: dict, v: dict,
                lr: float, t: int, scale: float = 1.0) -> None:
    """One bias-corrected Adam step on the gradients times `scale` (the clip
    factor of `clip_global_norm`), in place. t counts updates from 1.

    `params`, `m` and `v` are updated in place, in the operation order of
    the textbook formula, so the result is bit-identical to it; `grads` is
    only read. Each segment is scaled into a temporary of its own size, so
    no scaled copy of all the gradients is built.
    """
    if t < 1:
        raise ValueError("Adam step index starts at 1")
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, g in grads.items():
        if scale != 1.0:
            g = g * scale
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


def _forward_backward(model: VectorFieldModel, count: int, item) -> tuple[float, dict]:
    """`cfm_loss` of `count` items and its parameter gradients, one slice at
    a time.

    `item(i)` builds item i's (x_t, condition, t, target, frame mask or
    None), and is called only as the slice in progress fills: a slice holds
    max(1, MICRO_BATCH_FRAMES // frames) items, sized from the first item's
    frames, and an item whose feature shape is not the first item's is
    refused as it is built. Each slice is stacked, recorded, scored and
    differentiated, and its inputs, prediction, tape and `dpred` are freed
    before the next slice's first item is built. So a step holds one
    slice's inputs, one tape (which `backward` releases layer by layer) and
    one gradient dict, whatever the batch. The loss is a mean over items, so
    a slice's loss and `dpred` are weighted by its share n_slice / count of
    the batch, and the first slice's gradient dict accumulates the others in
    slice order. A batch that fits in one slice is one pass, unweighted.
    """
    if count < 1:
        raise ValueError("empty batch")
    loss, grads, part = 0.0, None, []
    for i in range(count):
        part.append(item(i))
        if i == 0:
            shape = part[0][0].shape
            size = max(1, MICRO_BATCH_FRAMES // shape[-1])
        elif part[-1][0].shape != shape:
            raise ValueError(f"batch items differ in feature shape: "
                             f"{shape}, {part[-1][0].shape}")
        if len(part) < size and i < count - 1:
            continue
        x_t, cond, t, target, masks = zip(*part)
        part = []
        weight = len(t) / count
        pred, tape = forward_batch(model, np.stack(x_t), np.stack(cond), np.array(t),
                                   record=True)
        del x_t, cond
        part_loss, dpred = cfm_loss(pred, np.stack(target),
                                    None if masks[0] is None else np.stack(masks))
        del pred, target, masks
        dpred *= weight
        part_grads = backward(model, tape, dpred)
        del tape, dpred
        loss += weight * part_loss
        if grads is None:
            grads = part_grads
        else:
            for k, g in part_grads.items():
                grads[k] += g
        del part_grads
    return loss, grads


def _gradients(state: TrainState, batch: list, build) -> tuple[float, dict]:
    """The one training-step body: `cfm_loss` gradients over `batch`.

    `build(element)` gives a batch element's (x1, condition, frame mask or
    None); the item's (t, x0) is drawn as soon as it is built, so the rng
    order is the builder's draws, then (t, x0), item by item
    (`forward_batch` draws nothing). `_forward_backward` builds the items
    one slice at a time, with the frame masks as the loss support when the
    builder gives them.
    """
    def item(i):
        x1, condition, mask = build(batch[i])
        tup = sample_training_tuple(x1, state.rng)
        return tup.x_t, condition, tup.t, tup.target, mask

    return _forward_backward(state.model, len(batch), item)


def pretrain_gradients(state: TrainState, batch: list) -> tuple[float, dict]:
    """Masked-condition objective on a batch of clean feature grids (arrays).

    Each item's condition is its grid with a sampled span mask's frames
    zeroed, dropped entirely with the configured probability; the loss
    frames are the masked ones under `LossSupport.MASKED_ONLY`, all frames
    otherwise. The step itself is `_gradients`, shared with finetuning.
    """
    cfg = state.config

    def build(grid):
        mask = sample_mask(grid.shape[1], cfg.mask_ratio, cfg.mask_min_span,
                           state.rng)
        condition = maybe_drop_condition(apply_mask(grid, mask),
                                         cfg.dropout_prob, state.rng)
        return (grid, condition,
                mask if cfg.loss_support is LossSupport.MASKED_ONLY else None)

    return _gradients(state, batch, build)


def finetune_gradients(state: TrainState, batch: list, stft_params: StftParams,
                       compression: CompressionParams) -> tuple[float, dict]:
    """Task-condition objective on a batch of TrainPairs, analysed with the
    caller's frontend (`stft_params`, `compression`).

    Each item's condition is `build_condition` of its degraded side and its
    target the same rule applied to its clean side (so a speaker-extraction
    target carries the reference prompt too); there is no condition dropout
    and the loss covers all frames. The step itself is `_gradients`, shared
    with pretraining.
    """
    cfg = state.config
    if cfg.task is None:
        raise ValueError("finetuning requires a task in the config")

    def build(pair):
        if pair.degraded is None:
            raise ValueError("finetuning requires degraded/clean pairs")
        condition = build_condition(cfg.task, pair.degraded, stft_params,
                                    compression, reference=pair.reference)
        x1 = build_condition(cfg.task, pair.clean, stft_params, compression,
                             reference=pair.reference)
        if x1.shape != condition.shape:
            raise ValueError(f"target features {x1.shape} != condition "
                             f"features {condition.shape}")
        return x1, condition, None

    return _gradients(state, batch, build)


def apply_gradients(state: TrainState, loss: float, grads: dict) -> float:
    """Clip, Adam-update, and advance the step counter. Returns the loss.

    A non-finite loss or gradient norm is refused, naming the step, before
    any state changes: one inf gradient entry would otherwise reach Adam and
    leave the parameters non-finite.
    """
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite loss {loss!r} at step {state.step}; "
                           "aborting before the parameters are poisoned")
    lr = lr_schedule(state.step, state.config)
    scale, norm = clip_global_norm(grads, state.config.clip_norm)
    if not math.isfinite(norm):
        raise RuntimeError(f"non-finite gradient norm {norm!r} at step {state.step}; "
                           "aborting before the parameters are poisoned")
    adam_update(state.model.params, grads, state.adam_m, state.adam_v,
                lr, state.step + 1, scale)
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

    Pretrain mode returns a list of clean feature grids (arrays);
    finetune/scratch modes return cropped TrainPairs.
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
                 log_path=None, checkpoint_path=None, checkpoint_every: int = 0) -> TrainState:
    """Drive training to total_steps, logging one record per step.

    Batches are analysed with the caller's frontend (`stft_params`,
    `compression`), which restoration must reuse. The loss log is
    line-delimited JSON {"step", "lr", "loss"}, continued where the state
    is: a state past step 0 (resumed from a checkpoint) appends to it, and
    a step-0 state truncates it. Checkpoints are written every
    `checkpoint_every` steps (0 = only at the end, negative refused) when
    checkpoint_path is set.
    """
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    cfg = state.config
    log_file = open(log_path, "a" if state.step > 0 else "w") if log_path else None
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


def _checkpoint_header(data, path, key: str, build):
    """`build` of the JSON value of an opened checkpoint's `key` entry. A
    missing entry, and one that `build` refuses (an unknown or missing
    field, or a config its dataclass refuses, such as a pretraining task,
    which older code wrote), is refused as a ValueError naming the file and
    the key."""
    if key not in data:
        raise ValueError(f"{path}: missing '{key}'")
    try:
        return build(json.loads(str(data[key])))
    except KeyError as exc:
        raise ValueError(f"{path}: '{key}' has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc} (in '{key}')") from None


def _checkpoint_configs(data, path) -> tuple[ModelConfig, TrainConfig]:
    """The model and training configs of an opened checkpoint, after its
    format tag."""
    if "__format__" not in data or str(data["__format__"]) != CHECKPOINT_TAG:
        raise ValueError(f"{path}: not a recognized training checkpoint")
    return (_checkpoint_header(data, path, "__model_config__",
                               lambda fields: ModelConfig(**fields)),
            _checkpoint_header(data, path, "__train_config__",
                               _train_config_from_dict))


def _checkpoint_segments(data, path, prefix: str, config: ModelConfig) -> dict:
    """The arrays `prefix` + segment name of an opened checkpoint, one per
    segment of `config`, each read once; a missing or misshaped one is
    refused by name."""
    arrays = {}
    for name, shape in segment_shapes(config).items():
        key = prefix + name
        if key not in data:
            raise ValueError(f"{path}: missing array '{key}'")
        array = data[key]
        if array.shape != shape:
            raise ValueError(f"{path}: '{key}' has shape {array.shape}, "
                             f"expected {shape}")
        arrays[name] = array.astype(np.float64)
    return arrays


def load_model(path) -> tuple[VectorFieldModel, TrainConfig]:
    """The model of a checkpoint and the training config it was trained
    under (whose mode and task say what it restores), reading only its
    `param.*` arrays (the Adam moments are two thirds of the file), checked
    as `load_checkpoint` checks them."""
    with np.load(path, allow_pickle=False) as data:
        config, train_config = _checkpoint_configs(data, path)
        return VectorFieldModel(config=config, params=_checkpoint_segments(
            data, path, "param.", config)), train_config


def load_checkpoint(path, expected: TrainConfig | None = None) -> TrainState:
    """Restore a TrainState; optionally insist it matches an expected config."""
    with np.load(path, allow_pickle=False) as data:
        model_config, train_config = _checkpoint_configs(data, path)
        if expected is not None:
            mismatch = config_mismatch(_train_config_dict(train_config),
                                       _train_config_dict(expected))
            if mismatch:
                raise ValueError(f"{path}: checkpoint config does not match "
                                 f"the requested run config: {mismatch}")
        params, m, v = (_checkpoint_segments(data, path, prefix, model_config)
                        for prefix in ("param.", "adam_m.", "adam_v."))
        rng = np.random.default_rng(0)
        _checkpoint_header(data, path, "__rng__",
                           lambda state: setattr(rng.bit_generator, "state", state))
        loss_count, loss_sum, last_loss = _checkpoint_header(
            data, path, "__loss_stats__", lambda stats: [
                kind(value) for kind, value in zip((int, float, float), stats, strict=True)])
        return TrainState(
            model=VectorFieldModel(config=model_config, params=params),
            config=train_config, step=_checkpoint_header(data, path, "__step__", int),
            adam_m=m, adam_v=v, rng=rng,
            loss_count=loss_count, loss_sum=loss_sum, last_loss=last_loss)
