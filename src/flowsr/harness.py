"""Command-line driver: corpus synthesis, manifests, training commands,
the restore command, and evaluation.

Subcommands: synth-data, pretrain, finetune, enhance, evaluate. `--seed`
and `--config` are accepted by every subcommand; config files are flat
`key = value` text addressing any RunConfig field, and every override is
echoed to the run log. `pretrain` and `finetune` share one body and one set
of training flags.

The task is stated once, where it is recorded: `finetune` trains the task
its manifest's records name (a manifest that mixes tasks is refused), and
`enhance` restores for the task its checkpoint was trained on, with the
`--reference` prompt exactly when that task is target_speaker_extract; a
pretraining checkpoint has no task and is refused.

Training commands write a `training.save_checkpoint` file at exactly their
`--out` path; `--resume` reads all of one, while `finetune --init` and
`enhance` read only its model and configs (`training.load_model`).
`--resume` and `--init` refuse a checkpoint whose model config differs from
the run's, naming each differing field, and `enhance` one whose feature
width is not the run's (`_refuse_another_model`). Every command refuses an
output path (`--out`, `--log`, `--report`) whose directory does not exist
before it reads any input, and the training commands check their training
config and checkpoint before they read the corpus. The loss log is
appended to exactly when training resumes past step 0
(`training.run_training`).

Manifests are read whole (`load_manifest`): a bad record is refused with
its file and line, and a manifest with no records by name. `evaluate`
names the record, its estimate and its degraded file when it cannot score
them.

The toy corpus writer (`synth_toy_corpus`) has no task branch: `_synth_clip`
decides which clips have a reference, and reference/ is made with the first.
It draws every degradation parameter, so the `tasks` mixers draw nothing.
"""

import argparse
import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np

from .audio import AudioSignal, read_wav, write_wav
from .metrics import MetricsReport, format_summary, score_utterance, write_report
from .sampler import SolverConfig, generate
from .spectral import CompressionParams, StftParams
from .tasks import (TaskKind, bandwidth_reduce, codec_degrade, lowpass_taps,
                    mix_at_snr, mix_two_speakers)
from .training import (LossSupport, TrainConfig, TrainMode, TrainPair,
                       WaveformDataset, config_mismatch, init_train_state,
                       load_checkpoint, load_model, run_training)
from .vectorfield import ModelConfig, init_parameters


@dataclasses.dataclass
class RunConfig:
    """Flat view of every tunable knob, with working defaults.

    Each default is read from the config it builds (`StftParams`,
    `CompressionParams`, `ModelConfig`, `SolverConfig`, `TrainConfig`), so it
    is stated once. Feature width is derived (two channels per STFT bin),
    never set directly. Learning rates of None defer to the mode defaults at
    training time, and a clip_norm of None disables gradient clipping. Step
    counts default to desk scale; raise them via a config file for longer
    runs.
    """

    sample_rate: int = 16000
    window_size: int = StftParams.window_size
    hop_size: int = StftParams.hop_size
    compress_exponent: float = CompressionParams.exponent
    compress_scale: float = CompressionParams.scale
    num_layers: int = ModelConfig.num_layers
    model_dim: int = ModelConfig.model_dim
    num_heads: int = ModelConfig.num_heads
    time_embed_dim: int = ModelConfig.time_embed_dim
    feedforward_dim: int = ModelConfig.feedforward_dim
    step_size: float = SolverConfig.step_size
    peak_lr: float | None = None
    final_lr: float | None = None
    warmup_steps: int = 200
    total_steps: int = 2000
    batch_seconds: float = TrainConfig.batch_seconds
    crop_seconds: float = TrainConfig.crop_seconds
    mask_ratio: float = TrainConfig.mask_ratio
    mask_min_span: int = TrainConfig.mask_min_span
    dropout_prob: float = TrainConfig.dropout_prob
    loss_support: str = TrainConfig.loss_support.value
    clip_norm: float | None = TrainConfig.clip_norm
    seed: int = TrainConfig.seed

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        # constructing the component configs runs their validation
        self.stft_params()
        self.compression()
        self.model_config()
        self.solver()
        LossSupport(self.loss_support)

    def stft_params(self) -> StftParams:
        return StftParams(window_size=self.window_size, hop_size=self.hop_size)

    def compression(self) -> CompressionParams:
        return CompressionParams(exponent=self.compress_exponent,
                                 scale=self.compress_scale)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            num_layers=self.num_layers,
            model_dim=self.model_dim,
            num_heads=self.num_heads,
            feature_channels=2 * self.stft_params().num_bins,
            time_embed_dim=self.time_embed_dim,
            feedforward_dim=self.feedforward_dim)

    def solver(self) -> SolverConfig:
        return SolverConfig(step_size=self.step_size)

    def train_config(self, mode: TrainMode, task: TaskKind | None = None) -> TrainConfig:
        kwargs = dict(
            warmup_steps=self.warmup_steps, total_steps=self.total_steps,
            batch_seconds=self.batch_seconds, crop_seconds=self.crop_seconds,
            seed=self.seed, mask_ratio=self.mask_ratio,
            mask_min_span=self.mask_min_span, dropout_prob=self.dropout_prob,
            loss_support=LossSupport(self.loss_support),
            clip_norm=self.clip_norm)
        if self.peak_lr is not None:
            kwargs["peak_lr"] = self.peak_lr
        if self.final_lr is not None:
            kwargs["final_lr"] = self.final_lr
        return TrainConfig.for_mode(mode, task=task, **kwargs)


def parse_config_file(path) -> dict:
    """Read flat `key = value` lines; '#' starts a comment. A key set twice
    is refused, naming both lines."""
    overrides = {}
    lines = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', "
                                 f"got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: key '{key}' is already set "
                                 f"on line {lines[key]}")
            lines[key] = lineno
            overrides[key] = value
    return overrides


def _convert(value: str, annotation):
    if isinstance(annotation, types.UnionType):
        if value.lower() in ("none", ""):
            return None
        for arm in annotation.__args__:
            if arm is not type(None):
                return _convert(value, arm)
    if annotation is int:
        return int(value)
    if annotation is float:
        return float(value)
    if annotation is str:
        return value
    raise ValueError(f"unsupported config field type {annotation}")


def apply_overrides(cfg: RunConfig, overrides: dict):
    """Apply raw string overrides; returns (new config, echo lines)."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    updates = {}
    echoes = []
    for key, raw in overrides.items():
        if key not in fields:
            known = ", ".join(sorted(fields))
            raise ValueError(f"unknown config key '{key}' (known keys: {known})")
        try:
            value = _convert(raw, fields[key].type)
            if key == "loss_support":
                LossSupport(value)
        except ValueError as exc:
            raise ValueError(f"config key '{key}' = {raw!r}: {exc}") from None
        updates[key] = value
        echoes.append(f"config: {key} = {value}")
    return dataclasses.replace(cfg, **updates), echoes


@dataclasses.dataclass
class ManifestRecord:
    """One corpus entry: id, file paths, task, and degradation parameters.

    `estimate_path` points at a restored output when the manifest is used for
    evaluation; absent, the degraded file itself is scored (the no-processing
    baseline). Evaluation refuses a record without `degraded_path`: the
    improvement is measured from it.
    """

    id: str
    clean_path: str
    task: TaskKind
    degraded_path: str | None = None
    reference_path: str | None = None
    estimate_path: str | None = None
    params: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["task"] = self.task.value
        return json.dumps(d)

    @classmethod
    def from_json(cls, line: str) -> "ManifestRecord":
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {line.strip()!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown fields {sorted(extra)}")
        for required in ("id", "clean_path", "task"):
            if not d.get(required):
                raise ValueError(f"missing field '{required}'")
        for name in ("id", "clean_path", "degraded_path", "reference_path", "estimate_path"):
            if d.get(name) is not None and not isinstance(d[name], str):
                raise ValueError(f"field '{name}' must be a string, got {d[name]!r}")
        d["task"] = TaskKind(d["task"])
        return cls(**d)


def _resolve(base: Path, p: str | None) -> str | None:
    if p is None:
        return None
    path = Path(p)
    return str(path if path.is_absolute() else base / path)


def load_manifest(path) -> list:
    """Read line-delimited manifest records, validating each line.

    Relative paths resolve against the manifest's directory and referenced
    files must exist and be regular files. A bad record is refused with its
    line number, and a manifest with no records is refused by name.
    """
    path = Path(path)
    base = path.parent
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = ManifestRecord.from_json(line)
                rec.clean_path = _resolve(base, rec.clean_path)
                rec.degraded_path = _resolve(base, rec.degraded_path)
                rec.reference_path = _resolve(base, rec.reference_path)
                rec.estimate_path = _resolve(base, rec.estimate_path)
                if rec.task is TaskKind.TARGET_SPEAKER_EXTRACT \
                        and rec.reference_path is None:
                    raise ValueError("task target_speaker_extract requires "
                                     "reference_path")
                for p in (rec.clean_path, rec.degraded_path,
                          rec.reference_path, rec.estimate_path):
                    if p is not None and not Path(p).is_file():
                        raise ValueError(f"referenced file does not exist or is "
                                         f"not a file: {p}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            records.append(rec)
    if not records:
        raise ValueError(f"manifest {path} has no records")
    return records


def write_manifest(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


# ---------------------------------------------------------------------------
# toy corpus synthesis

_CLEAN_PEAK = 0.25       # headroom so mixtures stay inside [-1, 1]
_NOISE_FLOOR_DB = -30.0  # clip-internal noise floor relative to voice RMS
_NOISE_FLOOR_CUTOFF_HZ = 4000.0  # lowpass of every voice's noise floor
_DENOISE_CUTOFF_HZ = (2000.0, 6000.0)  # lowpass range of the denoise task's noise


@dataclasses.dataclass
class _SpeakerProfile:
    f0: float
    harmonic_amps: np.ndarray
    am_rate: float
    am_depth: float


def _draw_profile(rng: np.random.Generator) -> _SpeakerProfile:
    f0 = float(rng.uniform(80.0, 300.0))
    count = int(rng.integers(3, 7))
    amps = rng.uniform(0.5, 1.0, size=count) / np.arange(1, count + 1)
    return _SpeakerProfile(f0=f0, harmonic_amps=amps,
                           am_rate=float(rng.uniform(2.0, 8.0)),
                           am_depth=float(rng.uniform(0.3, 0.7)))


def _bandlimited_noise(n: int, cutoff_hz: float, rate: int,
                       rng: np.random.Generator) -> np.ndarray:
    hamming = 0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, 65))
    taps = lowpass_taps(cutoff_hz / (rate / 2), hamming)
    white = rng.standard_normal(n + 64)
    return np.convolve(white, taps, mode="valid")[:n]


def _render_voice(profile: _SpeakerProfile, duration: float, rate: int,
                  rng: np.random.Generator) -> AudioSignal:
    """Amplitude-modulated harmonic stack with a quiet band-limited noise floor."""
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    voice = np.zeros(n)
    for k, amp in enumerate(profile.harmonic_amps, start=1):
        freq = k * profile.f0
        if freq >= 0.45 * rate:
            break
        voice += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    am = 1.0 + profile.am_depth * np.sin(
        2.0 * np.pi * profile.am_rate * t + rng.uniform(0, 2 * np.pi))
    voice *= am / (1.0 + profile.am_depth)
    floor = _bandlimited_noise(n, _NOISE_FLOOR_CUTOFF_HZ, rate, rng)
    voice_rms = np.sqrt(np.mean(voice**2))
    floor_rms = np.sqrt(np.mean(floor**2))
    voice += floor * (voice_rms / floor_rms) * 10.0 ** (_NOISE_FLOOR_DB / 20.0)
    return AudioSignal(voice * (_CLEAN_PEAK / np.max(np.abs(voice))), rate)


def _synth_clip(task: TaskKind, duration: float, rate: int,
                rng: np.random.Generator):
    """One toy clip for `task`: (clean, degraded, reference or None, params).

    The clean side is the voice of a freshly drawn speaker. Denoising,
    bandwidth extension and codec restoration degrade it; speaker extraction
    mixes it with a second speaker's voice and adds a 3-3.5 s reference take
    of the first speaker.
    """
    profile = _draw_profile(rng)
    clean = _render_voice(profile, duration, rate, rng)
    if task is TaskKind.DENOISE:
        snr_db = float(rng.uniform(0.0, 10.0))
        cutoff = float(rng.uniform(*_DENOISE_CUTOFF_HZ))
        noise = AudioSignal(_bandlimited_noise(len(clean), cutoff, rate, rng), rate)
        return clean, mix_at_snr(clean, noise, snr_db), None, {"snr_db": snr_db}
    if task is TaskKind.BANDWIDTH_EXTEND:
        factor = int(rng.choice([2, 4, 8]))
        return clean, bandwidth_reduce(clean, factor), None, {"factor": factor}
    if task is TaskKind.CODEC_RESTORE:
        bits = int(rng.choice([4, 6, 8]))
        return clean, codec_degrade(clean, bits), None, {"bits": bits}
    # target speaker extraction
    interferer = _render_voice(_draw_profile(rng), duration, rate, rng)
    ratio_db = float(rng.uniform(-5.0, 5.0))
    mixture, target = mix_two_speakers(clean, interferer, ratio_db)
    reference = _render_voice(profile, 3.0 + float(rng.uniform(0.0, 0.5)), rate, rng)
    return target, mixture, reference, {"ratio_db": ratio_db}


def synth_toy_corpus(task: TaskKind, count: int, rng: np.random.Generator,
                     out_dir, sample_rate: int = RunConfig.sample_rate) -> Path:
    """Generate a deterministic corpus of degraded/clean pairs for `task`.

    Writes clean/ and degraded/ WAV trees under out_dir, plus reference/
    for the clips `_synth_clip` gives a reference (speaker extraction), and
    a manifest.jsonl of relative paths; returns the manifest path. A count
    below 1, or a sample rate whose Nyquist frequency does not lie above
    every fixed lowpass cutoff of the task's clips, is refused before
    anything is written.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    highest = max(_NOISE_FLOOR_CUTOFF_HZ,
                  _DENOISE_CUTOFF_HZ[1] if task is TaskKind.DENOISE else 0.0)
    if sample_rate <= 2 * highest:
        raise ValueError(f"sample rate {sample_rate} Hz is too low for the "
                         f"{task.value} toy corpus: its {highest:g} Hz lowpass "
                         f"cutoff needs a rate above {2 * highest:g} Hz")
    out_dir = Path(out_dir)
    for sub in ("clean", "degraded"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    records = []
    for i in range(count):
        clip_id = f"{task.value}_{i:05d}"
        duration = float(rng.uniform(1.0, 3.0))
        clean, degraded, reference, params = _synth_clip(task, duration,
                                                         sample_rate, rng)
        reference_path = None
        if reference is not None:
            reference_path = f"reference/{clip_id}.wav"
            (out_dir / "reference").mkdir(exist_ok=True)
            write_wav(out_dir / reference_path, reference)
        write_wav(out_dir / "clean" / f"{clip_id}.wav", clean)
        write_wav(out_dir / "degraded" / f"{clip_id}.wav", degraded)
        records.append(ManifestRecord(
            id=clip_id, clean_path=f"clean/{clip_id}.wav", task=task,
            degraded_path=f"degraded/{clip_id}.wav",
            reference_path=reference_path, params=params))
    manifest_path = out_dir / "manifest.jsonl"
    write_manifest(manifest_path, records)
    return manifest_path


# ---------------------------------------------------------------------------
# CLI commands

def _run_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg, echoes = apply_overrides(cfg, parse_config_file(args.config))
        for line in echoes:
            print(line)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
        print(f"config: seed = {args.seed}")
    return cfg


def _require_directory(path, what: str) -> None:
    """Refuse an output `path` whose directory does not exist, so a command
    fails before it reads any input or does any work."""
    if path is not None and not Path(path).parent.is_dir():
        raise ValueError(f"{what} directory {Path(path).parent} does not exist")


def _read_wav_at(path, rate: int) -> AudioSignal:
    """Read a WAV, refusing one recorded at another rate than the run's."""
    signal = read_wav(path)
    if signal.sample_rate != rate:
        raise ValueError(f"{path}: sample rate {signal.sample_rate} Hz != run "
                         f"sample_rate {rate} Hz")
    return signal


def _refuse_another_model(config: ModelConfig, source, cfg: RunConfig,
                          fields=None) -> None:
    """Refuse a checkpoint's model `config` that differs from the run's in
    `fields` (every field by default), naming each with both values. The
    run's feature width is set by its window_size, which is named with it.
    """
    wanted = dataclasses.asdict(cfg.model_config())
    if fields is not None:
        wanted = {key: wanted[key] for key in fields}
    mismatch = config_mismatch(dataclasses.asdict(config), wanted)
    if mismatch:
        if config.feature_channels != wanted["feature_channels"]:
            mismatch += f" (set by the run's window_size {cfg.window_size})"
        raise ValueError(f"model config in {source} does not match the "
                         f"run config: {mismatch}")


def _load_dataset(records: list, rate: int, need_degraded: bool) -> WaveformDataset:
    """The records' clean sides, with their degraded sides and references
    when `need_degraded` (finetuning)."""
    read = lambda path: None if path is None else _read_wav_at(path, rate)
    pairs = []
    for rec in records:
        if need_degraded and rec.degraded_path is None:
            raise ValueError(f"record {rec.id}: no degraded_path for finetuning")
        pairs.append(TrainPair(clean=read(rec.clean_path),
                               degraded=read(rec.degraded_path) if need_degraded else None,
                               reference=read(rec.reference_path) if need_degraded else None))
    return WaveformDataset(pairs)


def _cmd_synth_data(args) -> None:
    cfg = _run_config(args)
    task = TaskKind(args.task)
    rng = np.random.default_rng(cfg.seed)
    manifest = synth_toy_corpus(task, args.count, rng, args.out_dir,
                                sample_rate=cfg.sample_rate)
    print(f"wrote {args.count} {task.value} pairs; manifest at {manifest}")


def _cmd_train(args) -> None:
    """Shared body of `pretrain` (no task) and `finetune`, which trains the
    one task its manifest's records name, warm-started from the checkpoint
    given with --init, else from scratch. A manifest that mixes tasks is
    refused for finetuning, naming them, before any WAV is read."""
    _require_directory(args.out, "checkpoint")
    _require_directory(args.log, "log")
    cfg = _run_config(args)
    records = load_manifest(args.manifest)
    task, mode = None, TrainMode.PRETRAIN
    if args.command == "finetune":
        tasks = sorted({rec.task.value for rec in records})
        if len(tasks) > 1:
            raise ValueError(f"manifest {args.manifest} mixes the tasks "
                             f"{', '.join(tasks)}; finetuning trains one")
        task = records[0].task
        mode = TrainMode.FINETUNE if args.init else TrainMode.SCRATCH
    train_cfg = cfg.train_config(mode, task=task)
    resumed = args.resume and Path(args.out).exists()
    source = args.out if resumed else args.init
    if resumed:
        state = load_checkpoint(source, expected=train_cfg)
    else:
        model = load_model(source)[0] if source else init_parameters(
            cfg.model_config(), np.random.default_rng(cfg.seed))
        state = init_train_state(model, train_cfg)
    if source:
        _refuse_another_model(state.model.config, source, cfg)
    dataset = _load_dataset(records, cfg.sample_rate, need_degraded=task is not None)
    if resumed:
        print(f"resuming from step {state.step}")
    state = run_training(state, dataset, cfg.stft_params(), cfg.compression(),
                         log_path=args.log, checkpoint_path=args.out,
                         checkpoint_every=args.checkpoint_every)
    what = mode.value if task is None else f"{mode.value} {task.value}"
    print(f"{what} to step {state.step}; mean loss {state.mean_loss:.6f}; "
          f"checkpoint at {args.out}")


def _cmd_restore(args) -> None:
    """`enhance`: restore one recording for the task the checkpoint was
    trained on, read from its training config. Before any WAV is read, it
    refuses a model whose feature width is not the run frontend's, a
    pretraining checkpoint (which has no task), and --reference given to a
    checkpoint of another task than target_speaker_extract or missing for
    one of it. Samples `write_wav` clips are counted on stderr."""
    _require_directory(args.out, "output")
    cfg = _run_config(args)
    model, trained = load_model(args.model)
    _refuse_another_model(model.config, args.model, cfg, fields=("feature_channels",))
    task = trained.task
    if task is None:
        raise ValueError(f"{args.model} is a {trained.mode.value} checkpoint, "
                         "which has no task to restore; finetune it first")
    extract = task is TaskKind.TARGET_SPEAKER_EXTRACT
    if extract != (args.reference is not None):
        raise ValueError(f"{args.model} is a {task.value} checkpoint: --reference is "
                         f"{'required' if extract else 'refused'}, since only "
                         "target_speaker_extract restores with a reference prompt")
    degraded = _read_wav_at(args.in_path, cfg.sample_rate)
    reference = (None if args.reference is None
                 else _read_wav_at(args.reference, cfg.sample_rate))
    restored = generate(model, task, degraded, np.random.default_rng(cfg.seed),
                        cfg.stft_params(), cfg.compression(), cfg.solver(),
                        reference=reference)
    clipped = write_wav(args.out, restored)
    if clipped:
        print(f"warning: {clipped} of {len(restored)} restored samples were "
              f"outside [-1, 1] and were clipped in {args.out}", file=sys.stderr)
    print(f"restored {args.in_path} -> {args.out} "
          f"({restored.duration:.2f} s, task {task.value})")


def _cmd_evaluate(args) -> None:
    _require_directory(args.report, "report")
    cfg = _run_config(args)
    records = load_manifest(args.manifest)
    stft_params = cfg.stft_params()
    scores = []
    for rec in records:
        if rec.degraded_path is None:
            raise ValueError(f"record {rec.id}: nothing to score (no degraded_path, "
                             "so no baseline for the improvement)")
        reference = _read_wav_at(rec.clean_path, cfg.sample_rate)
        estimate_path = rec.estimate_path or rec.degraded_path
        estimate = _read_wav_at(estimate_path, cfg.sample_rate)
        baseline = (_read_wav_at(rec.degraded_path, cfg.sample_rate)
                    if rec.estimate_path else estimate)
        try:
            scores.append(score_utterance(rec.id, estimate, baseline, reference,
                                          stft_params))
        except ValueError as exc:
            raise ValueError(f"record {rec.id} (estimate {estimate_path}, degraded "
                             f"{rec.degraded_path}): {exc}") from None
    report = MetricsReport.from_scores(scores)
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    print(format_summary(report))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    common.add_argument("--config", default=None,
                        help="key = value config file overriding defaults")

    parser = argparse.ArgumentParser(
        prog="flowsr",
        description="Generative speech restoration on compressed STFT features")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", parents=[common],
                       help="synthesize a toy degraded/clean corpus")
    p.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth_data)

    train = argparse.ArgumentParser(add_help=False, parents=[common])
    train.add_argument("--manifest", required=True)
    train.add_argument("--out", required=True,
                       help="training checkpoint, written at exactly this path")
    train.add_argument("--log", default=None,
                       help="loss log (line-delimited JSON)")
    train.add_argument("--resume", action="store_true")
    train.add_argument("--checkpoint-every", type=int, default=0)

    p = sub.add_parser("pretrain", parents=[train],
                       help="masked-condition pretraining on clean audio")
    p.set_defaults(func=_cmd_train, init=None)

    p = sub.add_parser("finetune", parents=[train],
                       help="training on the manifest's task "
                            "(from scratch without --init)")
    p.add_argument("--init", default=None, help="warm-start checkpoint")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("enhance", parents=[common],
                       help="restore one recording for the checkpoint's task")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--reference", default=None,
                   help="target speaker's prompt (target_speaker_extract only)")
    p.set_defaults(func=_cmd_restore)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score manifest estimates against clean references")
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_evaluate)
    return parser


def cli_dispatch(argv) -> int:
    """Parse and run one command; returns a process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
