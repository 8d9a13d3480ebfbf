"""Command-line driver: corpus synthesis, manifests, training commands,
restoration commands, and evaluation.

Subcommands: synth-data, pretrain, finetune, enhance, extract, evaluate.
`--seed` and `--config` are accepted by every subcommand; config files are
flat `key = value` text addressing any RunConfig field, and every override
is echoed to the run log. `pretrain` and `finetune` share one body and
one set of training flags; `enhance` and `extract` share one restore body,
`extract` fixing the task and adding the reference prompt.

Training commands write a `training.save_checkpoint` file at exactly their
`--out` path, refusing up front an `--out` whose directory does not exist;
`--resume`, `finetune --init`, `enhance` and `extract` read the model from
one. `--resume` and `--init` refuse a checkpoint whose model config differs
from the run's, naming each differing field.
"""

import argparse
import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
from scipy.signal import firwin

from .audio import AudioSignal, read_wav, write_wav
from .metrics import MetricsReport, format_summary, score_utterance, write_report
from .sampler import SolverConfig, generate
from .spectral import CompressionParams, StftParams
from .tasks import (TaskKind, bandwidth_reduce, codec_degrade, mix_at_snr,
                    mix_two_speakers)
from .training import (LossSupport, TrainConfig, TrainMode, TrainPair,
                       WaveformDataset, config_mismatch, init_train_state,
                       load_checkpoint, run_training)
from .vectorfield import ModelConfig, init_parameters


@dataclasses.dataclass
class RunConfig:
    """Flat view of every tunable knob, with working defaults.

    Feature width is derived (two channels per STFT bin), never set
    directly. Learning rates of None defer to the mode defaults at training
    time. Step counts default to desk scale; raise them via a config file for
    longer runs.
    """

    sample_rate: int = 16000
    window_size: int = 510
    hop_size: int = 128
    compress_exponent: float = 0.5
    compress_scale: float = 0.33
    num_layers: int = 4
    model_dim: int = 128
    num_heads: int = 4
    time_embed_dim: int = 128
    feedforward_dim: int = 256
    step_size: float = 0.2
    peak_lr: float | None = None
    final_lr: float | None = None
    warmup_steps: int = 200
    total_steps: int = 2000
    batch_seconds: float = 16.0
    crop_seconds: float = 1.0
    mask_ratio: float = 0.7
    mask_min_span: int = 10
    dropout_prob: float = 0.1
    loss_support: str = "all_frames"
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
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
            clip_norm=None if self.clip_norm <= 0 else self.clip_norm)
        if self.peak_lr is not None:
            kwargs["peak_lr"] = self.peak_lr
        if self.final_lr is not None:
            kwargs["final_lr"] = self.final_lr
        return TrainConfig.for_mode(mode, task=task, **kwargs)


def parse_config_file(path) -> dict:
    """Read flat `key = value` lines; '#' starts a comment."""
    overrides = {}
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
        value = _convert(raw, fields[key].type)
        updates[key] = value
        echoes.append(f"config: {key} = {value}")
    return dataclasses.replace(cfg, **updates), echoes


@dataclasses.dataclass
class ManifestRecord:
    """One corpus entry: id, file paths, task, and degradation parameters.

    `estimate_path` points at a restored output when the manifest is used for
    evaluation; absent, the degraded file itself is scored (the no-processing
    baseline).
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
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown fields {sorted(extra)}")
        for required in ("id", "clean_path", "task"):
            if not d.get(required):
                raise ValueError(f"missing field '{required}'")
        d["task"] = TaskKind(d["task"])
        return cls(**d)


def _resolve(base: Path, p: str | None) -> str | None:
    if p is None:
        return None
    path = Path(p)
    return str(path if path.is_absolute() else base / path)


def load_manifest(path, strict: bool = True) -> list:
    """Read line-delimited manifest records, validating each line.

    Relative paths resolve against the manifest's directory and referenced
    files must exist. With strict=False, bad records are reported to stderr
    with their line numbers and skipped instead of aborting.
    """
    path = Path(path)
    base = path.parent
    records = []
    errors = []
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
                    if p is not None and not Path(p).exists():
                        raise ValueError(f"referenced file does not exist: {p}")
            except ValueError as exc:
                message = f"{path}:{lineno}: {exc}"
                if strict:
                    raise ValueError(message) from None
                errors.append(message)
                continue
            records.append(rec)
    for message in errors:
        print(f"warning: skipped record - {message}", file=sys.stderr)
    if not records:
        print(f"warning: manifest {path} yielded no records", file=sys.stderr)
    return records


def write_manifest(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


# ---------------------------------------------------------------------------
# toy corpus synthesis

_CLEAN_PEAK = 0.25       # headroom so mixtures stay inside [-1, 1]
_NOISE_FLOOR_DB = -30.0  # clip-internal noise floor relative to voice RMS


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
    taps = firwin(65, cutoff_hz / (rate / 2))
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
    floor = _bandlimited_noise(n, 4000.0, rate, rng)
    voice_rms = np.sqrt(np.mean(voice**2))
    floor_rms = np.sqrt(np.mean(floor**2))
    voice += floor * (voice_rms / floor_rms) * 10.0 ** (_NOISE_FLOOR_DB / 20.0)
    return AudioSignal(voice * (_CLEAN_PEAK / np.max(np.abs(voice))), rate)


def _degrade(task: TaskKind, clean: AudioSignal, rate: int,
             rng: np.random.Generator):
    """Apply one task degradation; returns (degraded, reference|None, params)."""
    if task is TaskKind.DENOISE:
        snr_db = float(rng.uniform(0.0, 10.0))
        cutoff = float(rng.uniform(2000.0, 6000.0))
        noise = AudioSignal(_bandlimited_noise(len(clean), cutoff, rate, rng), rate)
        return mix_at_snr(clean, noise, snr_db, rng), None, {"snr_db": snr_db}
    if task is TaskKind.BANDWIDTH_EXTEND:
        factor = int(rng.choice([2, 4, 8]))
        return bandwidth_reduce(clean, factor), None, {"factor": factor}
    if task is TaskKind.CODEC_RESTORE:
        bits = int(rng.choice([4, 6, 8]))
        return codec_degrade(clean, bits), None, {"bits": bits}
    raise ValueError(f"no degradation recipe for task {task}")


def synth_toy_corpus(task: TaskKind, count: int, rng: np.random.Generator,
                     out_dir, sample_rate: int = 16000) -> Path:
    """Generate a deterministic corpus of degraded/clean pairs for `task`.

    Writes clean/, degraded/ (and reference/ for extraction) WAV trees under
    out_dir plus a manifest.jsonl of relative paths; returns the manifest path.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    out_dir = Path(out_dir)
    subdirs = ["clean", "degraded"]
    if task is TaskKind.TARGET_SPEAKER_EXTRACT:
        subdirs.append("reference")
    for sub in subdirs:
        (out_dir / sub).mkdir(parents=True, exist_ok=True)

    records = []
    for i in range(count):
        clip_id = f"{task.value}_{i:05d}"
        duration = float(rng.uniform(1.0, 3.0))
        profile = _draw_profile(rng)
        if task is TaskKind.TARGET_SPEAKER_EXTRACT:
            target = _render_voice(profile, duration, sample_rate, rng)
            other = _draw_profile(rng)
            interferer = _render_voice(other, duration, sample_rate, rng)
            ratio_db = float(rng.uniform(-5.0, 5.0))
            mixture, target = mix_two_speakers(target, interferer, rng,
                                               ratio_db=ratio_db)
            reference = _render_voice(profile, 3.0 + float(rng.uniform(0.0, 0.5)),
                                      sample_rate, rng)
            degraded, params = mixture, {"ratio_db": ratio_db}
            write_wav(out_dir / "reference" / f"{clip_id}.wav", reference)
            reference_path = f"reference/{clip_id}.wav"
            clean = target
        else:
            clean = _render_voice(profile, duration, sample_rate, rng)
            degraded, _, params = _degrade(task, clean, sample_rate, rng)
            reference_path = None
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


def _read_wav_at(path, rate: int) -> AudioSignal:
    """Read a WAV, refusing one recorded at another rate than the run's."""
    signal = read_wav(path)
    if signal.sample_rate != rate:
        raise ValueError(f"{path}: sample rate {signal.sample_rate} Hz != run "
                         f"sample_rate {rate} Hz")
    return signal


def _load_dataset(manifest_path, rate: int, need_degraded: bool) -> WaveformDataset:
    records = load_manifest(manifest_path)
    if not records:
        raise ValueError(f"manifest {manifest_path} is empty")
    pairs = []
    for rec in records:
        degraded = None
        reference = None
        if need_degraded:
            if rec.degraded_path is None:
                raise ValueError(f"record {rec.id}: no degraded_path for finetuning")
            degraded = _read_wav_at(rec.degraded_path, rate)
            if rec.reference_path is not None:
                reference = _read_wav_at(rec.reference_path, rate)
        pairs.append(TrainPair(clean=_read_wav_at(rec.clean_path, rate),
                               degraded=degraded, reference=reference))
    return WaveformDataset(pairs)


def _cmd_synth_data(args) -> None:
    cfg = _run_config(args)
    task = TaskKind(args.task)
    rng = np.random.default_rng(cfg.seed)
    manifest = synth_toy_corpus(task, args.count, rng, args.out_dir,
                                sample_rate=cfg.sample_rate)
    print(f"wrote {args.count} {task.value} pairs; manifest at {manifest}")


def _cmd_train(args) -> None:
    """Shared body of `pretrain` (no task) and `finetune` (a task, warm-started
    from the checkpoint given with --init, else trained from scratch)."""
    cfg = _run_config(args)
    task = TaskKind(args.task) if args.task else None
    if task is None:
        mode = TrainMode.PRETRAIN
    elif args.init:
        mode = TrainMode.FINETUNE
    else:
        mode = TrainMode.SCRATCH
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        raise ValueError(f"checkpoint directory {out_dir} does not exist")
    dataset = _load_dataset(args.manifest, cfg.sample_rate,
                            need_degraded=task is not None)
    train_cfg = cfg.train_config(mode, task=task)
    resumed = args.resume and Path(args.out).exists()
    source = args.out if resumed else args.init
    if source:
        state = load_checkpoint(source, expected=train_cfg if resumed else None)
        mismatch = config_mismatch(dataclasses.asdict(state.model.config),
                                   dataclasses.asdict(cfg.model_config()))
        if mismatch:
            raise ValueError(f"model config in {source} does not match the "
                             f"run config: {mismatch}")
    if resumed:
        print(f"resuming from step {state.step}")
    else:
        model = state.model if source else init_parameters(
            cfg.model_config(), np.random.default_rng(cfg.seed))
        state = init_train_state(model, train_cfg)
    state = run_training(state, dataset, cfg.stft_params(), cfg.compression(),
                         log_path=args.log, log_append=resumed,
                         checkpoint_path=args.out,
                         checkpoint_every=args.checkpoint_every)
    what = mode.value if task is None else f"{mode.value} {task.value}"
    print(f"{what} to step {state.step}; mean loss {state.mean_loss:.6f}; "
          f"checkpoint at {args.out}")


def _cmd_restore(args) -> None:
    """Shared body of `enhance` and `extract`. `extract` fixes the task to
    target_speaker_extract and adds the --reference prompt, which is None
    for `enhance`."""
    cfg = _run_config(args)
    model = load_checkpoint(args.model).model
    task = TaskKind(args.task)
    degraded = _read_wav_at(args.in_path, cfg.sample_rate)
    reference = (None if args.reference is None
                 else _read_wav_at(args.reference, cfg.sample_rate))
    restored = generate(model, task, degraded, np.random.default_rng(cfg.seed),
                        cfg.stft_params(), cfg.compression(), cfg.solver(),
                        reference=reference)
    write_wav(args.out, restored)
    print(f"restored {args.in_path} -> {args.out} "
          f"({restored.duration:.2f} s, task {task.value})")


def _cmd_evaluate(args) -> None:
    cfg = _run_config(args)
    records = load_manifest(args.manifest, strict=args.strict)
    if not records:
        raise ValueError(f"manifest {args.manifest} has no usable records")
    stft_params = cfg.stft_params()
    scores = []
    for rec in records:
        reference = _read_wav_at(rec.clean_path, cfg.sample_rate)
        est_path = rec.estimate_path or rec.degraded_path
        if est_path is None:
            raise ValueError(f"record {rec.id}: nothing to score "
                             "(no estimate_path or degraded_path)")
        estimate = _read_wav_at(est_path, cfg.sample_rate)
        baseline = (_read_wav_at(rec.degraded_path, cfg.sample_rate)
                    if rec.estimate_path and rec.degraded_path else estimate)
        scores.append(score_utterance(rec.id, estimate, baseline, reference,
                                      stft_params))
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
    p.set_defaults(func=_cmd_train, task=None, init=None)

    p = sub.add_parser("finetune", parents=[train],
                       help="task-condition training (from scratch without --init)")
    p.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    p.add_argument("--init", default=None, help="warm-start checkpoint")
    p.set_defaults(func=_cmd_train)

    restore = argparse.ArgumentParser(add_help=False, parents=[common])
    restore.add_argument("--out", required=True)
    restore.add_argument("--model", required=True)

    p = sub.add_parser("enhance", parents=[restore],
                       help="restore one degraded recording")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--task", default=TaskKind.DENOISE.value,
                   choices=[t.value for t in TaskKind
                            if t is not TaskKind.TARGET_SPEAKER_EXTRACT])
    p.set_defaults(func=_cmd_restore, reference=None)

    p = sub.add_parser("extract", parents=[restore],
                       help="extract the speaker matching a reference prompt")
    p.add_argument("--mixture", dest="in_path", metavar="MIXTURE", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=_cmd_restore,
                   task=TaskKind.TARGET_SPEAKER_EXTRACT.value)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score manifest estimates against clean references")
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--no-strict", dest="strict", action="store_false",
                   help="skip bad manifest records instead of aborting")
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
