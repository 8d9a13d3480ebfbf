"""Run configuration, manifests, toy corpus synthesis, and the CLI."""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.signal import firwin

from flowsr import harness, training
from flowsr.audio import AudioSignal, read_wav, write_wav
from flowsr.harness import (ManifestRecord, RunConfig, apply_overrides,
                            build_parser, cli_dispatch, load_manifest,
                            parse_config_file, synth_toy_corpus, write_manifest)
from flowsr.sampler import SolverConfig
from flowsr.spectral import CompressionParams, StftParams
from flowsr.tasks import TaskKind, lowpass_taps
from flowsr.training import (TrainConfig, TrainMode, init_train_state,
                             save_checkpoint)
from flowsr.vectorfield import ModelConfig, init_parameters

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


def tiny_checkpoint(tmp_path, task=TaskKind.DENOISE, overrides=TINY, seed=0):
    """A fresh model saved as a checkpoint trained for `task` (None: a
    pretraining checkpoint), and the config file it was made under."""
    cfg_path = write_config(tmp_path, overrides)
    cfg, _ = apply_overrides(RunConfig(), parse_config_file(cfg_path))
    model = init_parameters(cfg.model_config(), np.random.default_rng(seed))
    mode = TrainMode.PRETRAIN if task is None else TrainMode.SCRATCH
    ckpt = tmp_path / "model.npz"
    save_checkpoint(init_train_state(model, TrainConfig.for_mode(mode, task=task)), ckpt)
    return cfg_path, ckpt


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


def test_run_config_builds_each_component_default():
    """RunConfig's own defaults are the sample rate, the desk-scale step
    counts and the deferred learning rates; the others are its configs'."""
    cfg = RunConfig()
    assert cfg.stft_params() == StftParams()
    assert cfg.compression() == CompressionParams()
    assert cfg.model_config() == ModelConfig()
    assert cfg.solver() == SolverConfig()
    train = cfg.train_config(TrainMode.PRETRAIN)
    assert (train.warmup_steps, train.total_steps) == (200, 2000)
    assert dataclasses.replace(train, warmup_steps=TrainConfig.warmup_steps,
                               total_steps=TrainConfig.total_steps) == TrainConfig()


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
    # None is the one encoding of "disable clipping"; TrainConfig refuses
    # zero, a negative value and NaN instead of never clipping
    assert RunConfig(clip_norm=None).train_config(TrainMode.PRETRAIN).clip_norm is None
    for clip_norm in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="clip_norm"):
            RunConfig(clip_norm=clip_norm).train_config(TrainMode.PRETRAIN)
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
    twice = tmp_path / "twice.cfg"
    twice.write_text("hop_size = 63\nwindow_size = 126\n\nhop_size = 42\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:4: key 'hop_size' is already "
                                         r"set on line 1"):
        parse_config_file(twice)


def test_apply_overrides_types_and_echo():
    cfg = RunConfig()
    new, echoes = apply_overrides(cfg, {"window_size": "126", "hop_size": "63",
                                        "peak_lr": "5e-4", "final_lr": "none",
                                        "clip_norm": "none"})
    assert new.window_size == 126 and isinstance(new.window_size, int)
    assert new.peak_lr == 5e-4
    assert new.final_lr is None  # defer to the mode default
    assert new.train_config(TrainMode.PRETRAIN).clip_norm is None  # no clipping
    assert cfg.window_size == 510  # original untouched
    assert "config: window_size = 126" in echoes
    assert "config: final_lr = None" in echoes


def test_apply_overrides_rejects_unknown_key_and_bad_values():
    with pytest.raises(ValueError, match="unknown config key 'windowsize'"):
        apply_overrides(RunConfig(), {"windowsize": "126"})
    # overrides re-run cross-field validation on the rebuilt config
    with pytest.raises(ValueError):
        apply_overrides(RunConfig(), {"hop_size": "1000"})


@pytest.mark.parametrize("key, raw", [("hop_size", "63.5"), ("peak_lr", "fast"),
                                      ("loss_support", "masked")])
def test_apply_overrides_names_the_key_of_a_value_that_does_not_parse(key, raw):
    with pytest.raises(ValueError, match=f"config key '{key}' = '{raw}': "):
        apply_overrides(RunConfig(), {key: raw})


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


def test_load_manifest_strict_vs_skip(tmp_path):
    """A bad record is refused with its line number; none is skipped."""
    tone_wav(tmp_path / "u1.wav")
    good = ManifestRecord(id="u1", clean_path="u1.wav", task=TaskKind.DENOISE)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(good.to_json() + "\n"
                        + '{"id": "u2", "clean_path": "u1.wav", '
                        '"task": "denoise", "bogus": 1}\n')
    with pytest.raises(ValueError, match=r":2: unknown fields"):
        load_manifest(manifest)


@pytest.mark.parametrize("line, message", [
    ("5", "expected a JSON object"),
    ("null", "expected a JSON object"),
    ("[1]", "expected a JSON object"),
    ('{"id": "u2", "clean_path": 7, "task": "denoise"}', "'clean_path' must be a string"),
    ('{"id": 2, "clean_path": "u1.wav", "task": "denoise"}', "'id' must be a string"),
    ('{"id": "u2", "clean_path": "u1.wav", "task": "denoise", "estimate_path": [1]}',
     "'estimate_path' must be a string"),
    ('{"id": "u2", "clean_path": ".", "task": "denoise"}', "is not a file"),
])
def test_load_manifest_refuses_a_line_of_another_shape(tmp_path, line, message):
    tone_wav(tmp_path / "u1.wav")
    good = ManifestRecord(id="u1", clean_path="u1.wav", task=TaskKind.DENOISE)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(good.to_json() + "\n" + line + "\n")
    with pytest.raises(ValueError, match=r"manifest\.jsonl:2: .*" + re.escape(message)):
        load_manifest(manifest)


@pytest.mark.parametrize("command", ["pretrain", "evaluate"])
def test_cli_refuses_an_empty_manifest_once_by_name(tmp_path, capsys, command):
    """A manifest with no records (blank lines only) is one error naming
    the file, with no warning before it."""
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("\n\n")
    out = ["--out", str(tmp_path / "x.npz")] if command == "pretrain" else []
    assert cli_dispatch([command, "--manifest", str(manifest), *out]) == 1
    assert capsys.readouterr().err == f"error: manifest {manifest} has no records\n"
    assert not (tmp_path / "x.npz").exists()


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


def test_noise_taps_are_firwins_bit_for_bit(monkeypatch):
    """The corpus's band-limited noise, at the 4 kHz voice floor and over a
    sweep of the 2-6 kHz denoising cutoffs, filters with `firwin(65, c)`."""
    taps = []
    monkeypatch.setattr(harness, "lowpass_taps",
                        lambda cutoff, window: taps.append(lowpass_taps(cutoff, window))
                        or taps[-1])
    cutoffs = [4000.0, *np.random.default_rng(11).uniform(2000.0, 6000.0, 500)]
    for cutoff in cutoffs:
        harness._bandlimited_noise(8, cutoff, 16000, np.random.default_rng(0))
    assert len(taps) == len(cutoffs)
    for cutoff, got in zip(cutoffs, taps):
        assert np.array_equal(got, firwin(65, cutoff / 8000.0)), cutoff


def test_synth_corpus_rejects_bad_count(tmp_path):
    with pytest.raises(ValueError):
        synth_toy_corpus(TaskKind.DENOISE, 0, np.random.default_rng(0), tmp_path)


def test_synth_corpus_checks_its_rate_against_the_task_cutoffs(tmp_path):
    """The 4 kHz noise floor of every task's voices needs a rate above
    8000 Hz: codec restoration at 8000 Hz is refused before anything is
    written. Bandwidth extension, with no noise cutoff of its own, runs at
    10000 Hz, where denoising is refused (see the CLI test)."""
    out_dir = tmp_path / "codec"
    with pytest.raises(ValueError, match="sample rate 8000 Hz .* needs a rate "
                       "above 8000 Hz"):
        synth_toy_corpus(TaskKind.CODEC_RESTORE, 2, np.random.default_rng(0), out_dir,
                         sample_rate=8000)
    assert not out_dir.exists()
    manifest = synth_toy_corpus(TaskKind.BANDWIDTH_EXTEND, 1, np.random.default_rng(0),
                                tmp_path / "bwe", sample_rate=10000)
    assert read_wav(load_manifest(manifest)[0].clean_path).sample_rate == 10000


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


@pytest.mark.parametrize("rate", [8000, 10000])
def test_cli_synth_data_refuses_a_low_rate_before_writing(tmp_path, capsys, rate):
    """`synth-data --task denoise` at a `sample_rate` of 8000 or 10000 Hz
    exits 1 naming the rate and the 12000 Hz minimum, and creates no
    directory or file."""
    config = write_config(tmp_path, {"sample_rate": str(rate)})
    out_dir = tmp_path / "corpus"
    assert cli_dispatch(["synth-data", "--task", "denoise", "--count", "3",
                         "--out-dir", str(out_dir), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"sample rate {rate} Hz" in err and "above 12000 Hz" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


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


def test_cli_evaluate_names_the_record_it_cannot_score(tmp_path, capsys):
    clean = tone_wav(tmp_path / "clean.wav")
    write_wav(tmp_path / "short.wav", AudioSignal(clean.samples[:-5], clean.sample_rate))
    rec = ManifestRecord(id="u7", clean_path="clean.wav", task=TaskKind.DENOISE,
                         degraded_path="clean.wav", estimate_path="short.wav")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [rec])
    assert cli_dispatch(["evaluate", "--manifest", str(manifest)]) == 1
    n = len(clean)
    assert capsys.readouterr().err == (
        f"error: record u7 (estimate {tmp_path / 'short.wav'}, degraded "
        f"{tmp_path / 'clean.wav'}): length mismatch: {n - 5} vs {n} samples\n")


def test_cli_evaluate_refuses_a_record_without_a_baseline(tmp_path, capsys):
    """An estimate with no degraded file has no baseline: scoring it against
    itself would print an improvement of 0.00 and exit 0."""
    tone_wav(tmp_path / "clean.wav")
    tone_wav(tmp_path / "estimate.wav", seed=1)
    rec = ManifestRecord(id="lone", clean_path="clean.wav", task=TaskKind.DENOISE,
                         estimate_path="estimate.wav")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [rec])
    assert cli_dispatch(["evaluate", "--manifest", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert "record lone: nothing to score (no degraded_path" in captured.err
    assert "failure rate" not in captured.out


def test_cli_enhance_with_saved_model(tmp_path, capsys):
    cfg_path, model_path = tiny_checkpoint(tmp_path)
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
    cfg_path, model_path = tiny_checkpoint(tmp_path)
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
    rc = cli_dispatch(["finetune", "--manifest", manifest, "--out", str(tuned),
                       "--init", str(ckpt), "--config", str(cfg_path)])
    assert rc == 0
    assert "finetune bandwidth_extend to step 3" in capsys.readouterr().out

    # a warm start must match the run's model config
    wide = write_config(tmp_path, {**TINY, "model_dim": "32"}, name="wide.cfg")
    rc = cli_dispatch(["finetune", "--manifest", manifest,
                       "--out", str(tmp_path / "x.npz"),
                       "--init", str(ckpt), "--config", str(wide)])
    assert rc == 1
    assert "does not match the run config" in capsys.readouterr().err

    degraded = load_manifest(manifest)[0].degraded_path
    restored = tmp_path / "restored.wav"
    rc = cli_dispatch(["enhance", "--in", degraded, "--out", str(restored),
                       "--model", str(tuned), "--config", str(cfg_path)])
    assert rc == 0
    assert "task bandwidth_extend" in capsys.readouterr().out
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
    """A target_speaker_extract checkpoint restores through `enhance` with
    the reference prompt."""
    cfg_path, model_path = tiny_checkpoint(
        tmp_path, TaskKind.TARGET_SPEAKER_EXTRACT, seed=1)
    tone_wav(tmp_path / "mix.wav", seconds=0.5, freq=300.0)
    tone_wav(tmp_path / "ref.wav", seconds=3.2, freq=300.0, seed=1)
    rc = cli_dispatch(["enhance", "--in", str(tmp_path / "mix.wav"),
                       "--reference", str(tmp_path / "ref.wav"),
                       "--out", str(tmp_path / "target.wav"),
                       "--model", str(model_path), "--config", str(cfg_path)])
    assert rc == 0
    # prompt frames are trimmed: output matches the mixture duration exactly
    assert len(read_wav(tmp_path / "target.wav")) == len(read_wav(tmp_path / "mix.wav"))


def test_cli_enhance_reports_clipped_samples_on_stderr(tmp_path, capsys):
    """A fresh model's field is zero, so the output is the decoded noise
    draw: loud at a small compression scale, quiet at a large one. Only the
    loud one warns, with the count of samples written as full scale; the
    stdout summary is the same either way."""
    sig = tone_wav(tmp_path / "noisy.wav")
    for scale, loud in (("100", False), ("0.01", True)):
        cfg_path, model_path = tiny_checkpoint(
            tmp_path, overrides={**TINY, "compress_scale": scale})
        out_path = tmp_path / "restored.wav"
        rc = cli_dispatch(["enhance", "--in", str(tmp_path / "noisy.wav"),
                           "--out", str(out_path), "--model", str(model_path),
                           "--config", str(cfg_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert (f"restored {tmp_path / 'noisy.wav'} -> {out_path} "
                f"({sig.duration:.2f} s, task denoise)") in captured.out
        full_scale = np.count_nonzero(np.abs(read_wav(out_path).samples) == 1.0)
        if loud:
            assert full_scale > 0
            assert (f"warning: {full_scale} of {len(sig)} restored samples were "
                    f"outside [-1, 1] and were clipped in {out_path}") in captured.err
        else:
            assert full_scale == 0
            assert "clipped" not in captured.err


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
        "finetune": {**common, **train, "--init": False},
        "enhance": {**common, "--in": True, "--out": True, "--model": True,
                    "--reference": False},
        "evaluate": {**common, "--manifest": True, "--report": False},
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
    path serves `enhance --model`, which restores for the manifest's task."""
    cfg_path = write_config(tmp_path, TINY)
    manifest = tiny_corpus(tmp_path)
    ckpt, log = tmp_path / "x.ckpt", tmp_path / "tuned.jsonl"
    train = ["finetune", "--manifest", manifest, "--out", str(ckpt),
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
    for command in (["pretrain"], ["finetune"]):
        rc = cli_dispatch([*command, "--manifest", manifest,
                           "--out", str(tmp_path / "nodir" / "pre.npz"),
                           "--log", str(log), "--config", str(cfg_path)])
        assert rc == 1
        assert str(tmp_path / "nodir") in capsys.readouterr().err
        assert not log.exists()


def count_calls(monkeypatch, names):
    """Record, in one list, each call to the named `harness` functions."""
    calls = []
    for name in names:
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    return calls


def test_cli_refuses_a_missing_output_directory_before_any_work(tmp_path, capsys,
                                                               monkeypatch):
    """`enhance --out`, `evaluate --report` and the training `--log` name a
    missing directory before any WAV is read, any audio is generated or any
    utterance is scored."""
    cfg_path, ckpt = tiny_checkpoint(tmp_path)
    manifest = tiny_corpus(tmp_path)
    noisy = tmp_path / "noisy.wav"
    tone_wav(noisy)
    capsys.readouterr()
    calls = count_calls(monkeypatch, ["read_wav", "generate", "score_utterance"])
    nodir = tmp_path / "nodir"
    restore = ["--model", str(ckpt), "--config", str(cfg_path)]
    train = ["--manifest", manifest, "--out", str(tmp_path / "x.npz"),
             "--log", str(nodir / "loss.jsonl"), "--config", str(cfg_path)]
    commands = [
        ["enhance", "--in", str(noisy), "--out", str(nodir / "e.wav"), *restore],
        ["evaluate", "--manifest", manifest, "--report", str(nodir / "r.jsonl")],
        ["pretrain", *train],
        ["finetune", *train],
    ]
    for argv in commands:
        assert cli_dispatch(argv) == 1, argv
        assert calls == [], argv
        assert f"directory {nodir} does not exist" in capsys.readouterr().err
    assert not (tmp_path / "x.npz").exists()


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


def test_cli_training_checks_config_and_checkpoint_before_reading_the_corpus(
        tmp_path, capsys, monkeypatch):
    """A bad training config, a non-finite compression, a non-positive
    sample rate, a `--resume` checkpoint of another training config and a
    `finetune --init` checkpoint of another model config are each refused,
    naming the value, before any WAV of the corpus is read."""
    cfg_path = write_config(tmp_path, TINY)
    manifest = tiny_corpus(tmp_path)
    ckpt = tmp_path / "pre.npz"
    assert cli_dispatch(["pretrain", "--manifest", manifest, "--out", str(ckpt),
                         "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    reads = count_calls(monkeypatch, ["read_wav"])
    warm = write_config(tmp_path, {**TINY, "warmup_steps": "3000"}, name="warm.cfg")
    fast = write_config(tmp_path, {**TINY, "peak_lr": "0.001"}, name="fast.cfg")
    wide = write_config(tmp_path, {**TINY, "model_dim": "32"}, name="wide.cfg")
    bad = {name: write_config(tmp_path, {**TINY, key: value}, name=f"{name}.cfg")
           for name, key, value in [("nan_exponent", "compress_exponent", "nan"),
                                    ("inf_scale", "compress_scale", "inf"),
                                    ("zero_rate", "sample_rate", "0"),
                                    ("negative_rate", "sample_rate", "-16000")]}
    fresh = str(tmp_path / "x.npz")
    cases = [
        (["pretrain", "--out", fresh, "--config", str(warm)],
         "need 0 <= warmup_steps < total_steps, got 3000 / 3"),
        (["pretrain", "--out", fresh, "--config", str(bad["nan_exponent"])],
         "compression exponent must be positive and finite, got nan"),
        (["finetune", "--out", fresh, "--config", str(bad["inf_scale"])],
         "compression scale must be positive and finite, got inf"),
        (["pretrain", "--out", fresh, "--config", str(bad["zero_rate"])],
         "sample_rate must be positive, got 0"),
        (["finetune", "--out", fresh, "--config", str(bad["negative_rate"])],
         "sample_rate must be positive, got -16000"),
        (["pretrain", "--out", str(ckpt), "--resume", "--config", str(fast)],
         "peak_lr: 5e-05 in the checkpoint, 0.001 in the run config"),
        (["finetune", "--init", str(ckpt), "--out", fresh,
          "--config", str(wide)],
         "model_dim: 16 in the checkpoint, 32 in the run config"),
    ]
    for argv, message in cases:
        assert cli_dispatch([*argv, "--manifest", manifest]) == 1, argv
        captured = capsys.readouterr()
        assert message in captured.err, argv
        assert "resuming" not in captured.out
        assert reads == [], argv
    assert not (tmp_path / "x.npz").exists()


def test_cli_restore_refuses_a_model_of_another_feature_width(tmp_path, capsys,
                                                              monkeypatch):
    """A checkpoint made at another frontend's feature width is refused,
    naming both widths and the run's window_size, before any WAV is read
    or any audio is generated, with and without the reference prompt."""
    default_frontend = write_config(
        tmp_path, {k: v for k, v in TINY.items() if k not in ("window_size", "hop_size")},
        name="default_frontend.cfg")
    noisy, ref, out = tmp_path / "noisy.wav", tmp_path / "ref.wav", tmp_path / "out.wav"
    tone_wav(noisy)
    tone_wav(ref, seconds=3.2)
    calls = count_calls(monkeypatch, ["read_wav", "generate"])
    for task, prompt in ((TaskKind.DENOISE, []),
                         (TaskKind.TARGET_SPEAKER_EXTRACT, ["--reference", str(ref)])):
        _, ckpt = tiny_checkpoint(tmp_path, task)
        argv = ["enhance", "--in", str(noisy), *prompt]
        assert cli_dispatch([*argv, "--out", str(out), "--model", str(ckpt),
                             "--config", str(default_frontend)]) == 1, argv
        err = capsys.readouterr().err
        assert "feature_channels: 34 in the checkpoint, 512 in the run config" in err
        assert "window_size 510" in err
        assert calls == [], argv
    assert not out.exists()


@pytest.mark.parametrize("task, prompt, message", [
    (None, False, "is a pretrain checkpoint, which has no task to restore"),
    (TaskKind.TARGET_SPEAKER_EXTRACT, False,
     "is a target_speaker_extract checkpoint: --reference is required"),
    (TaskKind.DENOISE, True, "is a denoise checkpoint: --reference is refused, "
     "since only target_speaker_extract restores with a reference prompt"),
])
def test_cli_enhance_refuses_a_checkpoint_without_its_task(tmp_path, capsys, monkeypatch,
                                                         task, prompt, message):
    """`enhance` restores for the task in the checkpoint's training config:
    a pretraining checkpoint has none, and --reference goes with
    target_speaker_extract and nothing else. Each mismatch is refused,
    naming the checkpoint and its task, before any WAV is read."""
    cfg_path, ckpt = tiny_checkpoint(tmp_path, task)
    noisy, ref, out = tmp_path / "noisy.wav", tmp_path / "ref.wav", tmp_path / "out.wav"
    tone_wav(noisy)
    tone_wav(ref, seconds=3.2)
    reads = count_calls(monkeypatch, ["read_wav"])
    argv = ["enhance", "--in", str(noisy), "--out", str(out), "--model", str(ckpt),
            "--config", str(cfg_path), *(["--reference", str(ref)] if prompt else [])]
    assert cli_dispatch(argv) == 1
    assert f"{ckpt} {message}" in capsys.readouterr().err
    assert reads == []
    assert not out.exists()


def test_cli_enhance_refuses_a_corrupt_checkpoint_header_by_path(tmp_path, capsys):
    cfg_path, ckpt = tiny_checkpoint(tmp_path)
    with np.load(ckpt) as data:
        arrays = dict(data)
    model_config = json.loads(str(arrays["__model_config__"]))
    arrays["__model_config__"] = np.array(json.dumps({**model_config, "num_heads": 3}))
    np.savez(ckpt, **arrays)
    tone_wav(tmp_path / "noisy.wav")
    assert cli_dispatch(["enhance", "--in", str(tmp_path / "noisy.wav"),
                         "--out", str(tmp_path / "out.wav"), "--model", str(ckpt),
                         "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and "num_heads 3" in err
    assert not (tmp_path / "out.wav").exists()


def test_cli_finetune_refuses_a_manifest_that_mixes_tasks(tmp_path, capsys, monkeypatch):
    """`finetune` trains the one task its manifest names; a manifest of two
    tasks is refused, naming it and both tasks, before any WAV is read."""
    cfg_path = write_config(tmp_path, TINY)
    records = []
    for task in (TaskKind.DENOISE, TaskKind.CODEC_RESTORE):
        records += load_manifest(synth_toy_corpus(task, 1, np.random.default_rng(0),
                                                  tmp_path / task.value))
    mixed = tmp_path / "mixed.jsonl"
    write_manifest(mixed, records)
    reads = count_calls(monkeypatch, ["read_wav"])
    assert cli_dispatch(["finetune", "--manifest", str(mixed), "--out",
                         str(tmp_path / "x.npz"), "--config", str(cfg_path)]) == 1
    assert (f"manifest {mixed} mixes the tasks codec_restore, denoise; "
            "finetuning trains one") in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "x.npz").exists()


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
