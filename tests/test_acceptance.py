"""End-to-end acceptance gates.

One test per shipping requirement. Each test measures the quantity it
guards, prints a single verdict line with the observed numbers, and then
asserts the stated tolerance. Everything runs on a plain CPU; the toy
training run in test_06 dominates the wall time (budgeted under 30 min).
"""

import json
import time

import numpy as np
import pytest

from flowsr.audio import AudioSignal, read_wav
from flowsr.flowpath import (SIGMA_MIN, cfm_loss, conditional_vector_field,
                             psi_t, target_vector_field)
from flowsr.harness import RunConfig, cli_dispatch, load_manifest, synth_toy_corpus
from flowsr.masking import maybe_drop_condition, sample_mask
from flowsr.metrics import failure_rate, score_utterance, si_sdr
from flowsr.sampler import SolverConfig, euler_solve, generate
from flowsr import spectral
from flowsr.spectral import (CompressionParams, StftParams, audio_from_features,
                             features_from_audio, istft, stft)
from flowsr.tasks import (TaskKind, prepend_tse_prompt, trim_tse_output,
                          tse_prompt_samples)
from flowsr.training import (TrainMode, TrainPair, WaveformDataset,
                             apply_gradients, init_train_state,
                             load_checkpoint, make_batch, pretrain_gradients,
                             run_training, save_checkpoint)
from flowsr.vectorfield import (ModelConfig, backward, forward_batch,
                                init_parameters)

TINY = ModelConfig(num_layers=2, model_dim=16, num_heads=2,
                   feature_channels=8, time_embed_dim=16, feedforward_dim=32)


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def span_lengths(flags: np.ndarray) -> list:
    padded = np.concatenate([[0], flags.astype(int), [0]])
    edges = np.flatnonzero(np.diff(padded))
    return [edges[i + 1] - edges[i] for i in range(0, len(edges), 2)]


def test_01_flow_path_identities():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_field = 0.0
    worst_start = 0.0
    worst_end = 0.0
    for _ in range(1000):
        x0 = rng.standard_normal(32)
        x1 = rng.standard_normal(32)
        t = float(rng.random())
        expected = x1 - (1.0 - SIGMA_MIN) * x0
        field = conditional_vector_field(psi_t(x0, x1, t), x1, t)
        rel = np.max(np.abs(field - expected)) / np.max(np.abs(expected))
        worst_field = max(worst_field, rel)
        worst_start = max(worst_start, np.max(np.abs(psi_t(x0, x1, 0.0) - x0)))
        end = x1 + SIGMA_MIN * x0
        worst_end = max(worst_end, np.max(np.abs(psi_t(x0, x1, 1.0) - end)))
    elapsed = time.time() - t0
    ok = worst_field < 1e-9 and worst_start < 1e-12 and worst_end < 1e-12 \
        and elapsed < 5.0
    verdict(ok, "flow-path identities",
            f"field rel err {worst_field:.2e} (<1e-9), endpoint errs "
            f"{worst_start:.2e}/{worst_end:.2e} (<1e-12), {elapsed:.2f} s (<5)")
    assert ok


def test_02_euler_exactness_five_evaluations():
    t0 = time.time()
    rng = np.random.default_rng(102)
    x0 = rng.standard_normal((16, 12))
    x1 = rng.standard_normal((16, 12))
    target = target_vector_field(x0, x1)
    evals = []

    def field(x, t):
        evals.append(t)
        return target

    out, count = euler_solve(field, x0, SolverConfig(step_size=0.2))
    err = np.max(np.abs(out - (x1 + SIGMA_MIN * x0)))
    elapsed = time.time() - t0
    ok = err < 1e-10 and count == 5 and len(evals) == 5 and elapsed < 1.0
    verdict(ok, "euler exactness",
            f"endpoint err {err:.2e} (<1e-10), {count} field evaluations (=5), "
            f"{elapsed:.2f} s (<1)")
    assert ok


def test_03_stft_round_trip_fidelity():
    t0 = time.time()
    params = StftParams(window_size=510, hop_size=128)
    cp = CompressionParams(exponent=0.5, scale=0.33)
    rng = np.random.default_rng(103)
    worst_sdr = np.inf
    for _ in range(100):
        x = 0.3 * rng.standard_normal(16000)
        sig = AudioSignal(x, 16000)
        back = istft(stft(sig, params), params, length=len(sig), sample_rate=16000)
        worst_sdr = min(worst_sdr, si_sdr(back, sig))
    sig = AudioSignal(0.3 * rng.standard_normal(16000), 16000)
    spec = stft(sig, params)
    back = spec.copy()
    spectral._compress_in_place(back, cp)
    spectral._decompress_in_place(back, cp)
    comp_err = np.max(np.abs(back - spec))
    grid = features_from_audio(sig, params, cp)
    pipeline_err = np.max(np.abs(audio_from_features(grid, params, cp, len(sig), 16000).samples
                                 - sig.samples))
    elapsed = time.time() - t0
    ok = worst_sdr > 50.0 and comp_err < 1e-9 and pipeline_err < 1e-9 and elapsed < 30.0
    verdict(ok, "stft fidelity",
            f"worst round-trip SI-SDR {worst_sdr:.1f} dB (>50), compression err "
            f"{comp_err:.2e}, pipeline err {pipeline_err:.2e} (<1e-9), {elapsed:.1f} s (<30)")
    assert ok


def test_04_gradients_match_finite_differences_everywhere():
    t0 = time.time()
    model = init_parameters(TINY, np.random.default_rng(104))
    rng = np.random.default_rng(105)
    for name in model.params:
        model.params[name] = 0.1 * rng.standard_normal(model.params[name].shape)
    x = rng.standard_normal((1, 8, 6))
    cond = rng.standard_normal((1, 8, 6))
    t = np.array([0.35])
    target = rng.standard_normal((1, 8, 6))

    def loss_value():
        return cfm_loss(forward_batch(model, x, cond, t), target)[0]

    out, tape = forward_batch(model, x, cond, t, record=True)
    grads = backward(model, tape, 2.0 * (out - target) / out[0].size)
    h = 1e-5
    worst = 0.0
    checked = 0
    for name in sorted(model.params):
        flat = model.params[name].reshape(-1)
        picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for k in picks:
            orig = flat[k]
            flat[k] = orig + h
            up = loss_value()
            flat[k] = orig - h
            dn = loss_value()
            flat[k] = orig
            fd = (up - dn) / (2 * h)
            an = grads[name].reshape(-1)[k]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 300.0
    verdict(ok, "gradient correctness",
            f"{checked} entries across {len(model.params)} segments, worst rel "
            f"err {worst:.2e} (<1e-4), {elapsed:.1f} s (<300)")
    assert ok


def test_05_masking_and_dropout_statistics():
    t0 = time.time()
    rng = np.random.default_rng(106)
    fractions = np.empty(10_000)
    min_span = np.inf
    for i in range(10_000):
        flags = sample_mask(1000, 0.7, 10, rng)
        fractions[i] = flags.mean()
        min_span = min(min_span, min(span_lengths(flags)))
    cond = np.ones((4, 6))
    nulls = sum(not np.any(maybe_drop_condition(cond, 0.1, rng))
                for _ in range(10_000))
    rate = nulls / 10_000
    elapsed = time.time() - t0
    ok = 0.68 <= fractions.mean() <= 0.72 and min_span >= 10 \
        and 0.09 <= rate <= 0.11 and elapsed < 60.0
    verdict(ok, "masking statistics",
            f"mean masked fraction {fractions.mean():.4f} (in [0.68, 0.72]), "
            f"shortest span {int(min_span)} (>=10), dropout rate {rate:.4f} "
            f"(in [0.09, 0.11]), {elapsed:.1f} s (<60)")
    assert ok


def test_06_toy_denoise_end_to_end(tmp_path):
    """Train a real denoiser from scratch and score held-out clips.

    Configuration notes (only layer count, width, corpus recipe, and the
    time budget are fixed requirements; the rest is tuned for a single CPU
    core): window 126 / hop 63 makes the feature width equal the model
    width, so the model can represent the prior-cancellation part of the
    regression target at full rank; the compression scale puts feature RMS
    near the unit prior so squared error spends capacity on signal content;
    sampling uses one Euler step, which reads out the conditional-mean
    estimate - the best answer an energy-ratio metric can get.
    """
    cfg = RunConfig(window_size=126, hop_size=63, compress_scale=8.0,
                    feedforward_dim=512, peak_lr=5e-4, crop_seconds=0.5,
                    batch_seconds=8.0, step_size=1.0, total_steps=800,
                    warmup_steps=80, seed=0)
    train_man = synth_toy_corpus(TaskKind.DENOISE, 500,
                                 np.random.default_rng(11), tmp_path / "train")
    test_man = synth_toy_corpus(TaskKind.DENOISE, 50,
                                np.random.default_rng(12), tmp_path / "test")

    dataset = WaveformDataset(
        [TrainPair(read_wav(r.clean_path), read_wav(r.degraded_path))
         for r in load_manifest(train_man)])
    train_cfg = cfg.train_config(TrainMode.SCRATCH, TaskKind.DENOISE)
    model = init_parameters(cfg.model_config(), np.random.default_rng(cfg.seed))
    state = init_train_state(model, train_cfg)

    log = tmp_path / "loss.jsonl"
    t0 = time.time()
    state = run_training(state, dataset, cfg.stft_params(), cfg.compression(),
                         log_path=log)
    train_seconds = time.time() - t0

    losses = np.array([json.loads(line)["loss"] for line in open(log)])
    windows = losses.reshape(10, cfg.total_steps // 10).mean(axis=1)
    # the first 80% of steps fall in windows 0..7
    decreasing = bool(np.all(np.diff(windows[:8]) < 0.0))

    improvements = []
    for i, rec in enumerate(load_manifest(test_man)):
        clean = read_wav(rec.clean_path)
        degraded = read_wav(rec.degraded_path)
        restored = generate(state.model, TaskKind.DENOISE, degraded,
                            np.random.default_rng(1000 + i), cfg.stft_params(),
                            cfg.compression(), cfg.solver())
        scores = score_utterance(rec.id, restored, degraded, clean,
                                 cfg.stft_params())
        improvements.append(scores.si_sdr_improvement)
    mean_imp = float(np.mean(improvements))
    fr = failure_rate(improvements)

    ok = train_seconds < 1800.0 and decreasing and mean_imp > 3.0 and fr < 0.20
    verdict(ok, "toy denoise end to end",
            f"500-clip scratch run in {train_seconds / 60:.1f} min (<30), "
            f"windowed loss strictly decreasing over first 80%: {decreasing}, "
            f"held-out SI-SDRi {mean_imp:.2f} dB (>3), "
            f"failure rate {100 * fr:.0f}% (<20%)")
    assert ok


def test_07_tse_prompt_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(107)
    prompt_samples = tse_prompt_samples(16000)
    worst = 0
    for _ in range(100):
        n = int(rng.integers(4800, 64000))
        mixture = AudioSignal(0.2 * rng.standard_normal(n), 16000)
        reference = AudioSignal(0.2 * rng.standard_normal(prompt_samples + 800),
                                16000)
        extended = prepend_tse_prompt(mixture, reference)
        assert len(extended) == prompt_samples + n
        out = trim_tse_output(extended, n)
        worst = max(worst, abs(len(out) - n))
        assert np.array_equal(out.samples, mixture.samples)
    elapsed = time.time() - t0
    ok = worst == 0 and elapsed < 10.0
    verdict(ok, "tse prompt round trip",
            f"100 random durations, max length mismatch {worst} samples (=0), "
            f"3 s prompt = {prompt_samples} samples, {elapsed:.2f} s (<10)")
    assert ok


def test_08_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(108)
    exact = True
    for _ in range(1000):
        vals = rng.normal(1.0, 2.0, size=int(rng.integers(1, 50))).tolist()
        brute = sum(1 for v in vals if v < 1.0) / len(vals)
        exact = exact and failure_rate(vals) == brute
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal(4000)
        ref = AudioSignal(rng.standard_normal(4000), 16000)
        alpha = 10.0 ** rng.uniform(-3, 3)
        a = si_sdr(AudioSignal(x, 16000), ref)
        b = si_sdr(AudioSignal(alpha * x, 16000), ref)
        worst = max(worst, abs(a - b))
    elapsed = time.time() - t0
    ok = exact and worst < 1e-9 and elapsed < 5.0
    verdict(ok, "metric oracles",
            f"failure_rate equals brute force on 1000 lists: {exact}, SI-SDR "
            f"scale drift {worst:.2e} dB (<1e-9), {elapsed:.2f} s (<5)")
    assert ok


def test_09_seed_and_resume_reproducibility(tmp_path):
    overrides = ["window_size = 64", "hop_size = 32", "num_layers = 1",
                 "model_dim = 16", "num_heads = 2", "time_embed_dim = 16",
                 "feedforward_dim = 32", "crop_seconds = 0.25",
                 "batch_seconds = 0.5", "total_steps = 50",
                 "warmup_steps = 10", "mask_min_span = 2"]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join(overrides) + "\n")
    corpus = tmp_path / "corpus"
    assert cli_dispatch(["synth-data", "--task", "denoise", "--count", "3",
                         "--out-dir", str(corpus), "--seed", "0"]) == 0
    manifest = str(corpus / "manifest.jsonl")

    logs = []
    for run in ("a", "b"):
        rc = cli_dispatch(["pretrain", "--manifest", manifest,
                           "--out", str(tmp_path / f"{run}.npz"),
                           "--log", str(tmp_path / f"{run}.jsonl"),
                           "--config", str(cfg_path), "--seed", "17"])
        assert rc == 0
        logs.append((tmp_path / f"{run}.jsonl").read_text())
    identical = logs[0] == logs[1] and len(logs[0].splitlines()) == 50

    # save/resume versus uninterrupted, bit for bit over 10 steps
    cfg = RunConfig(window_size=64, hop_size=32, num_layers=1, model_dim=16,
                    num_heads=2, time_embed_dim=16, feedforward_dim=32,
                    crop_seconds=0.25, batch_seconds=0.5, total_steps=10,
                    warmup_steps=2, mask_min_span=2, seed=23)
    stft_params, cp = cfg.stft_params(), cfg.compression()
    train_cfg = cfg.train_config(TrainMode.PRETRAIN)
    dataset = WaveformDataset(
        [TrainPair(clean=read_wav(r.clean_path))
         for r in load_manifest(manifest)])

    def fresh_state():
        model = init_parameters(cfg.model_config(), np.random.default_rng(23))
        return init_train_state(model, train_cfg)

    state_a = fresh_state()
    losses_a = []
    for _ in range(10):
        batch = make_batch(dataset, train_cfg, stft_params, cp, state_a.rng)
        loss = apply_gradients(state_a, *pretrain_gradients(state_a, batch))
        losses_a.append(loss)

    state_b = fresh_state()
    losses_b = []
    for _ in range(5):
        batch = make_batch(dataset, train_cfg, stft_params, cp, state_b.rng)
        loss = apply_gradients(state_b, *pretrain_gradients(state_b, batch))
        losses_b.append(loss)
    ckpt = tmp_path / "mid.npz"
    save_checkpoint(state_b, ckpt)
    resumed = load_checkpoint(ckpt, expected=train_cfg)
    for _ in range(5):
        batch = make_batch(dataset, train_cfg, stft_params, cp, resumed.rng)
        loss = apply_gradients(resumed, *pretrain_gradients(resumed, batch))
        losses_b.append(loss)

    bit_exact = losses_a == losses_b and all(
        np.array_equal(state_a.model.params[name], resumed.model.params[name])
        for name in state_a.model.params) and all(
        np.array_equal(state_a.adam_m[name], resumed.adam_m[name])
        for name in state_a.adam_m)
    ok = identical and bit_exact
    verdict(ok, "reproducibility",
            f"identical 50-step loss logs: {identical}, 5+5 resumed steps match "
            f"10 straight bit-for-bit: {bit_exact}")
    assert ok
