"""Run configuration, manifests, toy corpus synthesis, and the CLI."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from flowsr import harness, training
from flowsr.audio import AudioSignal, read_wav, write_wav
from flowsr.harness import (ManifestRecord, RunConfig, apply_overrides,
                            build_parser, cli_dispatch, load_manifest,
                            parse_config_file, synth_toy_corpus, write_manifest)
from flowsr.tasks import TaskKind
from flowsr.training import (TrainConfig, TrainMode, init_train_state,
                             save_checkpoint)
from flowsr.vectorfield import init_parameters

# Small-footprint overrides for CLI tests that actually train or sample.
TINY = {
    "window_size": "32", "hop_size": "8", "num_layers": "1",
    "model_dim": "16", "num_heads": "2", "time_embed_dim": "16",
    "feedforward_dim": "32", "step_size": "0.5", "crop_seconds": "0.25",
    "batch_seconds": "0.5", "total_steps": "3", "warmup_steps": "1",
    "mask_min_span": "2",
}


def write_config(tmp_path, overrides, name="run.cfg"):
    path = tmp_path / name
    lines = ["# test configuration", ""]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def tone_wav(path, seconds=0.4, freq=440.0, rate=16000, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * rate)) / rate
    x = 0.2 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size)
    sig = AudioSignal(x, rate)
    write_wav(path, sig)
    return sig


# ---------------------------------------------------------------------------
# run configuration


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.sample_rate == 16000
    assert (cfg.window_size, cfg.hop_size) == (510, 128)
    assert (cfg.compress_exponent, cfg.compress_scale) == (0.5, 0.33)
    assert (cfg.num_layers, cfg.model_dim, cfg.num_heads) == (4, 128, 4)
    assert cfg.step_size == 0.2
    assert (cfg.mask_ratio, cfg.mask_min_span, cfg.dropout_prob) == (0.7, 10, 0.1)
    assert cfg.loss_support == "all_frames"
    # feature width is derived from the analysis window, never set directly
    assert cfg.model_config().feature_channels == 2 * (510 // 2 + 1) == 512
    assert cfg.stft_params().num_bins == 256


def test_run_config_validation_cascades():
    with pytest.raises(ValueError):
        RunConfig(window_size=0)
    with pytest.raises(ValueError):
        RunConfig(hop_size=600)  # exceeds the window
    with pytest.raises(ValueError):
        RunConfig(step_size=0.3)  # not an integer number of steps
    with pytest.raises(ValueError):
        RunConfig(loss_support="sometimes")


def test_train_config_inherits_mode_defaults():
    cfg = RunConfig()
    pre = cfg.train_config(TrainMode.PRETRAIN)
    assert pre.peak_lr == 5e-5
    tuned = RunConfig(peak_lr=3e-4).train_config(TrainMode.PRETRAIN)
    assert tuned.peak_lr == 3e-4
    # clip_norm <= 0 in the flat config means "disable clipping"
    assert RunConfig(clip_norm=0.0).train_config(TrainMode.PRETRAIN).clip_norm is None
    # NaN is not <= 0: it reaches TrainConfig, which refuses it instead of never clipping
    with pytest.raises(ValueError, match="clip_norm"):
        RunConfig(clip_norm=float("nan")).train_config(TrainMode.PRETRAIN)
    with pytest.raises(ValueError):
        cfg.train_config(TrainMode.FINETUNE)  # needs a task
    ft = cfg.train_config(TrainMode.FINETUNE, task=TaskKind.DENOISE)
    assert ft.task is TaskKind.DENOISE


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "window_size = 126   # trailing comment\n"
        "peak_lr = 5e-4\n")
    assert parse_config_file(path) == {"window_size": "126", "peak_lr": "5e-4"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("window_size = 126\nnonsense line\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        parse_config_file(bad)
    empty = tmp_path / "empty.cfg"
    empty.write_text("window_size =\n")
    with pytest.raises(ValueError, match="empty key or value"):
        parse_config_file(empty)


def test_apply_overrides_types_and_echo():
    cfg = RunConfig()
    new, echoes = apply_overrides(cfg, {"window_size": "126", "hop_size": "63",
                                        "peak_lr": "5e-4", "final_lr": "none"})
    assert new.window_size == 126 and isinstance(new.window_size, int)
    assert new.peak_lr == 5e-4
    assert new.final_lr is None  # defer to the mode default
    assert cfg.window_size == 510  # original untouched
    assert "config: window_size = 126" in echoes
    assert "config: final_lr = None" in echoes


def test_apply_overrides_rejects_unknown_key_and_bad_values():
    with pytest.raises(ValueError, match="unknown config key 'windowsize'"):
        apply_overrides(RunConfig(), {"windowsize": "126"})
    # overrides re-run cross-field validation on the rebuilt config
    with pytest.raises(ValueError):
        apply_overrides(RunConfig(), {"hop_size": "1000"})


# ---------------------------------------------------------------------------
# manifests


def test_manifest_record_round_trip():
    rec = ManifestRecord(id="u1", clean_path="clean/u1.wav", task=TaskKind.DENOISE,
                         degraded_path="degraded/u1.wav",
                         params={"snr_db": 3.5})
    back = ManifestRecord.from_json(rec.to_json())
    assert back == rec
    assert back.task is TaskKind.DENOISE
    assert back.estimate_path is None


def test_manifest_record_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError, match="unknown fields"):
        ManifestRecord.from_json('{"id": "u", "clean_path": "c.wav", '
                                 '"task": "denoise", "snr": 3}')
    with pytest.raises(ValueError, match="missing field 'clean_path'"):
        ManifestRecord.from_json('{"id": "u", "task": "denoise"}')


def test_load_manifest_resolves_relative_paths(tmp_path):
    sub = tmp_path / "corpus"
    sub.mkdir()
    tone_wav(sub / "u1.wav")
    rec = ManifestRecord(id="u1", clean_path="u1.wav", task=TaskKind.DENOISE)
    manifest = sub / "manifest.jsonl"
    write_manifest(manifest, [rec])
    loaded = load_manifest(manifest)
    assert len(loaded) == 1
    assert loaded[0].clean_path == str(sub / "u1.wav")

    rec_missing = ManifestRecord(id="u2", clean_path="nope.wav",
                                 task=TaskKind.DENOISE)
    write_manifest(manifest, [rec_missing])
    with pytest.raises(ValueError, match=r"manifest\.jsonl:1: referenced file"):
        load_manifest(manifest)


def test_load_manifest_strict_vs_skip(tmp_path, capsys):
    tone_wav(tmp_path / "u1.wav")
    good = ManifestRecord(id="u1", clean_path="u1.wav", task=TaskKind.DENOISE)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(good.to_json() + "\n"
                        + '{"id": "u2", "clean_path": "u1.wav", '
                        '"task": "denoise", "bogus": 1}\n')
    with pytest.raises(ValueError, match=r":2: unknown fields"):
        load_manifest(manifest)
    records = load_manifest(manifest, strict=False)
    assert [r.id for r in records] == ["u1"]
    err = capsys.readouterr().err
    assert "warning: skipped record" in err and ":2:" in err


def test_load_manifest_requires_reference_for_extraction(tmp_path):
    tone_wav(tmp_path / "mix.wav")
    tone_wav(tmp_path / "clean.wav")
    rec = ManifestRecord(id="m", clean_path="clean.wav",
                         task=TaskKind.TARGET_SPEAKER_EXTRACT,
                         degraded_path="mix.wav")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [rec])
    with pytest.raises(ValueError, match="requires"):
        load_manifest(manifest)


# ---------------------------------------------------------------------------
# toy corpus synthesis


def test_synth_corpus_layout_and_exact_snr(tmp_path):
    manifest = synth_toy_corpus(TaskKind.DENOISE, 4, np.random.default_rng(7),
                                tmp_path / "corpus")
    records = load_manifest(manifest)
    assert len(records) == 4
    for rec in records:
        clean = read_wav(rec.clean_path)
        degraded = read_wav(rec.degraded_path)
        assert len(clean) == len(degraded)
        assert np.max(np.abs(degraded.samples)) <= 1.0
        noise = degraded.samples - clean.samples
        measured = 10.0 * np.log10(np.sum(clean.samples**2) / np.sum(noise**2))
        # 16-bit WAV quantization perturbs the measurement slightly
        assert abs(measured - rec.params["snr_db"]) < 1e-3
        assert 0.0 <= rec.params["snr_db"] <= 10.0


def test_synth_corpus_is_deterministic(tmp_path):
    man_a = synth_toy_corpus(TaskKind.CODEC_RESTORE, 2,
                             np.random.default_rng(3), tmp_path / "a")
    man_b = synth_toy_corpus(TaskKind.CODEC_RESTORE, 2,
                             np.random.default_rng(3), tmp_path / "b")
    assert man_a.read_text() == man_b.read_text()
    for rec in load_manifest(man_a):
        twin = rec.degraded_path.replace("/a/", "/b/")
        with open(rec.degraded_path, "rb") as fa, open(twin, "rb") as fb:
            assert fa.read() == fb.read()


def test_synth_corpus_extraction_has_references(tmp_path):
    manifest = synth_toy_corpus(TaskKind.TARGET_SPEAKER_EXTRACT, 2,
                                np.random.default_rng(5), tmp_path / "tse")
    records = load_manifest(manifest)
    for rec in records:
        assert rec.reference_path is not None
        assert read_wav(rec.reference_path).duration >= 2.99
        assert -5.0 <= rec.params["ratio_db"] <= 5.0


def test_synth_corpus_rejects_bad_count(tmp_path):
    with pytest.raises(ValueError):
        synth_toy_corpus(TaskKind.DENOISE, 0, np.random.default_rng(0), tmp_path)


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_usage_errors(capsys):
    assert cli_dispatch([]) != 0
    assert cli_dispatch(["bogus"]) != 0
    assert cli_dispatch(["synth-data"]) != 0  # missing required flags
    assert "usage:" in capsys.readouterr().err


def test_cli_reports_runtime_errors(tmp_path, capsys):
    rc = cli_dispatch(["evaluate", "--manifest", str(tmp_path / "missing.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_enhance_rejects_extraction_task(tmp_path, capsys):
    rc = cli_dispatch(["enhance", "--in", "x.wav", "--out", "y.wav",
                       "--model", "m.npz", "--task", "target_speaker_extract"])
    assert rc == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_synth_then_evaluate_baseline(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    assert cli_dispatch(["synth-data", "--task", "denoise", "--count", "3",
                         "--out-dir", str(out_dir), "--seed", "9"]) == 0
    manifest = out_dir / "manifest.jsonl"
    assert manifest.exists()
    capsys.readouterr()

    # without estimate_path the degraded file itself is scored: improvement
    # is exactly zero everywhere, so every utterance counts as a failure
    report_path = tmp_path / "report.jsonl"
    assert cli_dispatch(["evaluate", "--manifest", str(manifest),
                         "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "failure rate: 100.0%" in out
    rows = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert len(rows) == 4  # three utterances plus the aggregate row
    assert rows[-1]["aggregate"] is True
    assert abs(rows[-1]["mean_si_sdr_improvement"]) < 1e-12


def test_cli_evaluate_perfect_estimate(tmp_path, capsys):
    clean = tone_wav(tmp_path / "clean.wav")
    noisy = AudioSignal(clean.samples
                        + 0.05 * np.random.default_rng(2).standard_normal(len(clean)),
                        clean.sample_rate)
    write_wav(tmp_path / "noisy.wav", noisy)
    rec = ManifestRecord(id="u", clean_path="clean.wav", task=TaskKind.DENOISE,
                         degraded_path="noisy.wav", estimate_path="clean.wav")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [rec])
    assert cli_dispatch(["evaluate", "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "failure rate: 0.0%" in out
    assert "100.00" in out  # SI-SDR capped at +100 dB for a bit-exact match


def test_cli_evaluate_refuses_wav_at_another_rate(tmp_path, capsys):
    clean = tone_wav(tmp_path / "clean.wav")
    write_wav(tmp_path / "narrow.wav", AudioSignal(clean.samples, 8000))
    rec = ManifestRecord(id="u", clean_path="clean.wav", task=TaskKind.DENOISE,
                         degraded_path="clean.wav", estimate_path="narrow.wav")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [rec])
    assert cli_dispatch(["evaluate", "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert "narrow.wav" in err and "8000" in err and "16000" in err


def test_cli_enhance_with_saved_model(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY)
    cfg, _ = apply_overrides(RunConfig(), parse_config_file(cfg_path))
    model = init_parameters(cfg.model_config(), np.random.default_rng(0))
    model_path = tmp_path / "model.npz"
    save_checkpoint(init_train_state(model, TrainConfig()), model_path)
    sig = tone_wav(tmp_path / "noisy.wav")
    rc = cli_dispatch(["enhance", "--in", str(tmp_path / "noisy.wav"),
                       "--out", str(tmp_path / "restored.wav"),
                       "--model", str(model_path), "--config", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "config: window_size = 32" in out
    restored = read_wav(tmp_path / "restored.wav")
    assert len(restored) == len(sig)
    assert restored.sample_rate == sig.sample_rate

    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, data=np.zeros(3))
    rc = cli_dispatch(["enhance", "--in", str(tmp_path / "noisy.wav"),
                       "--out", str(tmp_path / "never.wav"),
                       "--model", str(foreign), "--config", str(cfg_path)])
    assert rc == 1
    assert "not a recognized training checkpoint" in capsys.readouterr().err


def test_cli_refuses_wav_at_another_rate(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY)
    cfg, _ = apply_overrides(RunConfig(), parse_config_file(cfg_path))
    model = init_parameters(cfg.model_config(), np.random.default_rng(0))
    model_path = tmp_path / "model.npz"
    save_checkpoint(init_train_state(model, TrainConfig()), model_path)
    tone_wav(tmp_path / "narrow.wav", rate=8000)
    rc = cli_dispatch(["enhance", "--in", str(tmp_path / "narrow.wav"),
                       "--out", str(tmp_path / "never.wav"),
                       "--model", str(model_path), "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "narrow.wav" in err and "8000" in err and "16000" in err
    assert not (tmp_path / "never.wav").exists()

    write_manifest(tmp_path / "manifest.jsonl", [ManifestRecord(
        id="u", clean_path="narrow.wav", task=TaskKind.DENOISE)])
    rc = cli_dispatch(["pretrain", "--manifest", str(tmp_path / "manifest.jsonl"),
                       "--out", str(tmp_path / "never.npz"),
                       "--config", str(cfg_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "narrow.wav" in err and "8000" in err and "16000" in err


def test_cli_pretrain_finetune_enhance_pipeline(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY)
    out_dir = tmp_path / "corpus"
    assert cli_dispatch(["synth-data", "--task", "bandwidth_extend",
                         "--count", "2", "--out-dir", str(out_dir),
                         "--seed", "4"]) == 0
    manifest = str(out_dir / "manifest.jsonl")

    ckpt = tmp_path / "pre.npz"
    log = tmp_path / "pre.jsonl"
    rc = cli_dispatch(["pretrain", "--manifest", manifest, "--out", str(ckpt),
                       "--log", str(log), "--config", str(cfg_path),
                       "--seed", "5"])
    assert rc == 0
    assert ckpt.exists()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1, 2]
    assert all(np.isfinite(r["loss"]) for r in records)
    out = capsys.readouterr().out
    assert "config: seed = 5" in out
    assert "pretrain to step 3" in out

    tuned = tmp_path / "tuned.npz"
    rc = cli_dispatch(["finetune", "--task", "bandwidth_extend",
                       "--manifest", manifest, "--out", str(tuned),
                       "--init", str(ckpt), "--config", str(cfg_path)])
    assert rc == 0
    assert "finetune bandwidth_extend to step 3" in capsys.readouterr().out

    # a warm start must match the run's model config
    wide = write_config(tmp_path, {**TINY, "model_dim": "32"}, name="wide.cfg")
    rc = cli_dispatch(["finetune", "--task", "bandwidth_extend",
                       "--manifest", manifest, "--out", str(tmp_path / "x.npz"),
                       "--init", str(ckpt), "--config", str(wide)])
    assert rc == 1
    assert "does not match the run config" in capsys.readouterr().err

    degraded = load_manifest(manifest)[0].degraded_path
    restored = tmp_path / "restored.wav"
    rc = cli_dispatch(["enhance", "--in", degraded, "--out", str(restored),
                       "--model", str(tuned), "--task", "bandwidth_extend",
                       "--config", str(cfg_path)])
    assert rc == 0
    assert len(read_wav(restored)) == len(read_wav(degraded))


def test_cli_resume_without_checkpoint_starts_a_fresh_log(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY)
    out_dir = tmp_path / "corpus"
    assert cli_dispatch(["synth-data", "--task", "denoise", "--count", "2",
                         "--out-dir", str(out_dir), "--seed", "6"]) == 0
    log = tmp_path / "pre.jsonl"
    log.write_text("junk from an old run\n{\"step\": 7}\n")
    ckpt = tmp_path / "pre.npz"
    rc = cli_dispatch(["pretrain", "--manifest", str(out_dir / "manifest.jsonl"),
                       "--out", str(ckpt), "--log", str(log), "--resume",
                       "--config", str(cfg_path)])
    assert rc == 0
    assert "resuming" not in capsys.readouterr().out
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(int(TINY["total_steps"])))


def test_cli_extract_runs_tse_model(tmp_path):
    cfg_path = write_config(tmp_path, TINY)
    cfg, _ = apply_overrides(RunConfig(), parse_config_file(cfg_path))
    model = init_parameters(cfg.model_config(), np.random.default_rng(1))
    model_path = tmp_path / "model.npz"
    save_checkpoint(init_train_state(model, TrainConfig()), model_path)
    tone_wav(tmp_path / "mix.wav", seconds=0.5, freq=300.0)
    tone_wav(tmp_path / "ref.wav", seconds=3.2, freq=300.0, seed=1)
    rc = cli_dispatch(["extract", "--mixture", str(tmp_path / "mix.wav"),
                       "--reference", str(tmp_path / "ref.wav"),
                       "--out", str(tmp_path / "target.wav"),
                       "--model", str(model_path), "--config", str(cfg_path)])
    assert rc == 0
    # prompt frames are trimmed: output matches the mixture duration exactly
    assert len(read_wav(tmp_path / "target.wav")) == len(read_wav(tmp_path / "mix.wav"))


def subcommand_options(parser):
    """{subcommand: {option string: required}} for every subcommand."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt: action.required for action in p._actions
                   for opt in action.option_strings}
            for name, p in sub.choices.items()}


def test_cli_option_strings_and_required_flags():
    common = {"-h": False, "--help": False, "--seed": False, "--config": False}
    train = {"--manifest": True, "--out": True, "--log": False,
             "--resume": False, "--checkpoint-every": False}
    assert subcommand_options(build_parser()) == {
        "synth-data": {**common, "--task": True, "--count": True,
                       "--out-dir": True},
        "pretrain": {**common, **train},
        "finetune": {**common, **train, "--task": True, "--init": False},
        "enhance": {**common, "--in": True, "--out": True, "--model": True,
                    "--task": False},
        "extract": {**common, "--mixture": True, "--reference": True,
                    "--out": True, "--model": True},
        "evaluate": {**common, "--manifest": True, "--report": False,
                     "--no-strict": False},
    }


def tiny_corpus(tmp_path, seed=6):
    out_dir = tmp_path / "corpus"
    assert cli_dispatch(["synth-data", "--task", "denoise", "--count", "2",
                         "--out-dir", str(out_dir), "--seed", str(seed)]) == 0
    return str(out_dir / "manifest.jsonl")


def test_cli_resume_reads_the_checkpoint_at_its_exact_path(tmp_path, capsys,
                                                           monkeypatch):
    """`--out x.ckpt` is the file written, so a run interrupted after its
    step-2 checkpoint resumes there and appends to its log, and the same
    path serves `enhance --model`."""
    cfg_path = write_config(tmp_path, TINY)
    manifest = tiny_corpus(tmp_path)
    ckpt, log = tmp_path / "x.ckpt", tmp_path / "pre.jsonl"
    train = ["pretrain", "--manifest", manifest, "--out", str(ckpt),
             "--log", str(log), "--checkpoint-every", "2", "--resume",
             "--config", str(cfg_path)]
    real_apply = training.apply_gradients

    def interrupted_at_step_2(state, loss, grads):
        if state.step == 2:
            raise RuntimeError("interrupted")
        return real_apply(state, loss, grads)

    monkeypatch.setattr(training, "apply_gradients", interrupted_at_step_2)
    assert cli_dispatch(train) == 1
    monkeypatch.undo()
    assert ckpt.exists()
    capsys.readouterr()

    assert cli_dispatch(train) == 0
    assert "resuming from step 2" in capsys.readouterr().out
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1, 2]

    tone_wav(tmp_path / "noisy.wav")
    assert cli_dispatch(["enhance", "--in", str(tmp_path / "noisy.wav"),
                         "--out", str(tmp_path / "restored.wav"),
                         "--model", str(ckpt), "--config", str(cfg_path)]) == 0


def test_cli_training_refuses_a_missing_out_directory(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY)
    manifest = tiny_corpus(tmp_path)
    capsys.readouterr()
    log = tmp_path / "pre.jsonl"
    for command in (["pretrain"], ["finetune", "--task", "denoise"]):
        rc = cli_dispatch([*command, "--manifest", manifest,
                           "--out", str(tmp_path / "nodir" / "pre.npz"),
                           "--log", str(log), "--config", str(cfg_path)])
        assert rc == 1
        assert str(tmp_path / "nodir") in capsys.readouterr().err
        assert not log.exists()


def test_cli_resume_refuses_another_model_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY)
    manifest = tiny_corpus(tmp_path)
    ckpt = tmp_path / "pre.npz"
    assert cli_dispatch(["pretrain", "--manifest", manifest, "--out", str(ckpt),
                         "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    wide = write_config(tmp_path, {**TINY, "model_dim": "32"}, name="wide.cfg")
    rc = cli_dispatch(["pretrain", "--manifest", manifest, "--out", str(ckpt),
                       "--resume", "--config", str(wide)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "resuming" not in captured.out
    assert "does not match the run config" in captured.err
    assert "model_dim: 16 in the checkpoint, 32 in the run config" in captured.err


def test_cli_evaluate_reads_each_wav_once(tmp_path, monkeypatch):
    """Without an estimate_path the degraded file is both the estimate and
    the baseline, and is read once."""
    out_dir = tmp_path / "corpus"
    synth_toy_corpus(TaskKind.DENOISE, 2, np.random.default_rng(3), out_dir)
    reads = []
    real_read_wav = harness.read_wav
    monkeypatch.setattr(harness, "read_wav",
                        lambda path: reads.append(path) or real_read_wav(path))
    assert cli_dispatch(["evaluate", "--manifest",
                         str(out_dir / "manifest.jsonl")]) == 0
    assert len(reads) == 4 and len(set(reads)) == 4
