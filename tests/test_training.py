"""Optimization loop: schedules, Adam, draw order, checkpoints, resume."""

import inspect
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from flowsr import training
from flowsr.audio import AudioSignal
from flowsr.flowpath import FlowPathConfig, sample_training_tuple
from flowsr.masking import apply_mask, maybe_drop_condition, sample_mask
from flowsr.sampler import generate
from flowsr.spectral import (CompressionParams, FeatureGrid, StftParams,
                             audio_from_features, features_from_audio, istft)
from flowsr.tasks import (TaskKind, build_condition, prepend_tse_prompt,
                          tse_prompt_samples)
from flowsr.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LossSupport,
                             TrainConfig, TrainMode, TrainPair, WaveformDataset,
                             adam_update, apply_gradients,
                             clip_global_norm, finetune_gradients,
                             init_train_state, load_checkpoint, lr_schedule,
                             make_batch, pretrain_gradients, run_training,
                             sample_crop, save_checkpoint)
from flowsr.vectorfield import (ModelConfig, forward_batch, init_parameters,
                                segment_shapes)

TINY = ModelConfig(num_layers=2, model_dim=16, num_heads=2,
                   feature_channels=8, time_embed_dim=16, feedforward_dim=32)

SMALL_STFT = StftParams(window_size=32, hop_size=8)
SMALL_MODEL = ModelConfig(num_layers=1, model_dim=8, num_heads=2,
                          feature_channels=2 * SMALL_STFT.num_bins,
                          time_embed_dim=8, feedforward_dim=16)


def tiny_state(seed=0, **cfg_kwargs):
    cfg = TrainConfig(**cfg_kwargs) if cfg_kwargs else TrainConfig()
    model = init_parameters(TINY, np.random.default_rng(seed))
    return init_train_state(model, cfg)


def randomized_state(model_config, cfg, seed):
    """Train state whose segments are all random, so no zero-initialized
    segment hides a gradient."""
    rng = np.random.default_rng(seed)
    model = init_parameters(model_config, rng)
    for g in model.params.values():
        g[...] = 0.1 * rng.standard_normal(g.shape)
    return init_train_state(model, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(peak_lr=1e-5, final_lr=2e-5)
    with pytest.raises(ValueError):
        TrainConfig(final_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=10, total_steps=10)
    with pytest.raises(ValueError):
        TrainConfig(batch_seconds=0.5, crop_seconds=1.0)
    with pytest.raises(ValueError):
        TrainConfig(mode=TrainMode.FINETUNE)  # task required
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=-1.0)
    assert TrainConfig(clip_norm=None).clip_norm is None
    # NaN fails every comparison, so it slips past some range checks; each
    # non-finite field is refused by name
    for name in ("peak_lr", "final_lr", "batch_seconds", "crop_seconds", "clip_norm"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
    assert TrainConfig(batch_seconds=16.0, crop_seconds=1.0).batch_items == 16


def test_mode_learning_rate_defaults():
    pre = TrainConfig.for_mode(TrainMode.PRETRAIN)
    assert (pre.peak_lr, pre.final_lr) == (5e-5, 1e-5)
    fin = TrainConfig.for_mode(TrainMode.FINETUNE, task=TaskKind.DENOISE)
    assert (fin.peak_lr, fin.final_lr) == (2e-5, 1e-8)
    scr = TrainConfig.for_mode(TrainMode.SCRATCH, task=TaskKind.DENOISE)
    assert (scr.peak_lr, scr.final_lr) == (1e-4, 1e-8)
    custom = TrainConfig.for_mode(TrainMode.PRETRAIN, peak_lr=3e-4, final_lr=1e-6)
    assert (custom.peak_lr, custom.final_lr) == (3e-4, 1e-6)


def test_lr_schedule_shape():
    cfg = TrainConfig(warmup_steps=5000, total_steps=100000)
    assert lr_schedule(0, cfg) == 0.0
    assert lr_schedule(2500, cfg) == pytest.approx(2.5e-5)
    assert lr_schedule(5000, cfg) == 5e-5  # peak reached exactly at warmup
    assert lr_schedule(100000, cfg) == pytest.approx(1e-5, rel=1e-12)
    with pytest.raises(ValueError):
        lr_schedule(100001, cfg)
    values = [lr_schedule(s, cfg) for s in range(5000, 100001, 500)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_adam_converges_on_quadratic():
    params = {"w": np.array([10.0])}
    m = {"w": np.zeros(1)}
    v = {"w": np.zeros(1)}
    for t in range(1, 3001):
        grads = {"w": 2.0 * (params["w"] - 3.0)}
        adam_update(params, grads, m, v, lr=0.05, t=t)
    assert abs(params["w"][0] - 3.0) < 1e-6


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(g**2)) for g in clipped.values()))
    assert total == pytest.approx(1.0)
    same, norm2 = clip_global_norm(grads, 10.0)
    assert norm2 == pytest.approx(5.0)
    assert np.array_equal(same["a"], grads["a"])
    untouched, _ = clip_global_norm(grads, None)
    assert np.array_equal(untouched["b"], grads["b"])


def test_adam_update_is_the_textbook_formula_bit_for_bit():
    """The in-place update keeps the textbook operation order: parameters
    and moments equal the out-of-place formula exactly, and the gradients
    are only read."""
    rng = np.random.default_rng(72)
    shapes = {"w": (5, 7), "b": (7,)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    ref_p, ref_m, ref_v = ({k: a.copy() for k, a in d.items()} for d in (params, m, v))
    lr = 1e-2
    for t in range(1, 6):
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        seen = {k: g.copy() for k, g in grads.items()}
        adam_update(params, grads, m, v, lr=lr, t=t)
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for k, g in seen.items():
            ref_m[k] = ADAM_BETA1 * ref_m[k] + (1.0 - ADAM_BETA1) * g
            ref_v[k] = ADAM_BETA2 * ref_v[k] + (1.0 - ADAM_BETA2) * (g * g)
            ref_p[k] = ref_p[k] - lr * (ref_m[k] / bc1) / (np.sqrt(ref_v[k] / bc2)
                                                            + ADAM_EPS)
            assert np.array_equal(grads[k], g)
            assert np.array_equal(m[k], ref_m[k])
            assert np.array_equal(v[k], ref_v[k])
            assert np.array_equal(params[k], ref_p[k])


@pytest.mark.parametrize("clip_norm", [1.0, None])
def test_apply_gradients_leaves_grads_unchanged(clip_norm):
    state = tiny_state(seed=11, clip_norm=clip_norm, warmup_steps=0)
    rng = np.random.default_rng(73)
    grads = {k: rng.standard_normal(p.shape) for k, p in state.model.params.items()}
    seen = {k: g.copy() for k, g in grads.items()}
    _, norm = clip_global_norm(grads, clip_norm)
    assert norm > 1.0  # so the clipped case really clips
    before = {k: p.copy() for k, p in state.model.params.items()}
    apply_gradients(state, 1.0, grads)
    assert all(np.array_equal(grads[k], seen[k]) for k in grads)
    assert any(not np.array_equal(state.model.params[k], before[k]) for k in before)


def replay_pretrain_loss(cfg, grids, seed, support):
    """Recompute the expected zero-init loss by replaying the documented
    per-item draw order with an identically seeded generator."""
    rng = np.random.default_rng(seed)
    flow = FlowPathConfig()
    losses = []
    for grid in grids:
        mask = sample_mask(grid.num_frames, cfg.mask_ratio, cfg.mask_min_span, rng)
        cond = apply_mask(grid, mask)
        maybe_drop_condition(cond, cfg.dropout_prob, rng)
        tup = sample_training_tuple(grid.values, flow, rng)
        if support is LossSupport.MASKED_ONLY:
            fm = mask.astype(np.float64)
            denom = max(fm.sum() * grid.num_channels, 1.0)
            losses.append(float((tup.target**2 * fm[None, :]).sum() / denom))
        else:
            losses.append(float((tup.target**2).mean()))
    return float(np.mean(losses))


def test_pretrain_zero_init_loss_is_mean_squared_target():
    state = tiny_state(seed=1)
    rng = np.random.default_rng(50)
    grids = [FeatureGrid(rng.standard_normal((8, 30))) for _ in range(3)]
    expected = replay_pretrain_loss(state.config, grids, state.config.seed,
                                    LossSupport.ALL_FRAMES)
    loss, grads = pretrain_gradients(state, grids)
    assert loss == pytest.approx(expected, abs=1e-12)
    assert set(grads) == set(state.model.params)


def test_pretrain_masked_only_support():
    state = tiny_state(seed=2, loss_support=LossSupport.MASKED_ONLY)
    rng = np.random.default_rng(51)
    grids = [FeatureGrid(rng.standard_normal((8, 40))) for _ in range(2)]
    expected = replay_pretrain_loss(state.config, grids, state.config.seed,
                                    LossSupport.MASKED_ONLY)
    loss, _ = pretrain_gradients(state, grids)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_pretrain_deterministic_across_runs():
    rng = np.random.default_rng(52)
    grids = [FeatureGrid(rng.standard_normal((8, 25))) for _ in range(2)]
    histories = []
    for _ in range(2):
        state = tiny_state(seed=3)
        losses = []
        for _ in range(3):
            losses.append(apply_gradients(state, *pretrain_gradients(state, grids)))
        histories.append((losses, {k: v.copy() for k, v in state.model.params.items()}))
    assert histories[0][0] == histories[1][0]
    for k in histories[0][1]:
        assert np.array_equal(histories[0][1][k], histories[1][1][k])


def test_pretrain_learns_on_fixed_batch():
    state = tiny_state(seed=4, peak_lr=1e-2, final_lr=1e-4,
                       warmup_steps=5, total_steps=200, clip_norm=None)
    rng = np.random.default_rng(53)
    grids = [FeatureGrid(0.5 * rng.standard_normal((8, 20)))]
    first, last = None, None
    for _ in range(60):
        loss = apply_gradients(state, *pretrain_gradients(state, grids))
        first = first if first is not None else loss
        last = loss
    assert last < first


def _step_in_slices(monkeypatch, frames_per_slice, gradients):
    """(loss, grads, slice sizes) of `gradients()` with MICRO_BATCH_FRAMES
    set to frames_per_slice."""
    sizes = []
    record = training.forward_batch

    def counting(model, x_t, *args, **kwargs):
        sizes.append(len(x_t))
        return record(model, x_t, *args, **kwargs)

    monkeypatch.setattr(training, "MICRO_BATCH_FRAMES", frames_per_slice)
    monkeypatch.setattr(training, "forward_batch", counting)
    loss, grads = gradients()
    return loss, grads, sizes


def assert_slices_match_one_pass(monkeypatch, frames, gradients):
    """Seven items in slices of 3, 3 and 1 give the loss of one pass over
    all seven within 1e-14 and every gradient segment within 1e-12,
    relative."""
    loss, grads, sizes = _step_in_slices(monkeypatch, 3 * frames + 2, gradients)
    assert sizes == [3, 3, 1]
    whole_loss, whole, sizes = _step_in_slices(monkeypatch, 7 * frames, gradients)
    assert sizes == [7]
    assert abs(loss - whole_loss) <= 1e-14 * abs(whole_loss)
    assert list(grads) == list(whole)
    for name, g in whole.items():
        assert np.linalg.norm(g) > 0.0, name
        assert np.linalg.norm(grads[name] - g) <= 1e-12 * np.linalg.norm(g), name


@pytest.mark.parametrize("support", list(LossSupport))
def test_pretrain_micro_batches_match_one_pass(monkeypatch, support):
    rng = np.random.default_rng(74)
    grids = [FeatureGrid(rng.standard_normal((8, 20))) for _ in range(7)]
    cfg = TrainConfig(loss_support=support, dropout_prob=0.3, seed=12)
    assert_slices_match_one_pass(
        monkeypatch, 20,
        lambda: pretrain_gradients(randomized_state(TINY, cfg, 13), grids))


def test_finetune_micro_batches_match_one_pass(monkeypatch):
    rng = np.random.default_rng(75)
    pairs = []
    for _ in range(7):
        clean = AudioSignal(rng.uniform(-0.5, 0.5, 400), 16000)
        degraded = AudioSignal(clean.samples + 0.1 * rng.standard_normal(400), 16000)
        pairs.append(TrainPair(clean=clean, degraded=degraded))
    frames = features_from_audio(pairs[0].clean, SMALL_STFT,
                                 CompressionParams()).num_frames
    cfg = TrainConfig.for_mode(TrainMode.FINETUNE, task=TaskKind.DENOISE, seed=14)
    assert_slices_match_one_pass(
        monkeypatch, frames,
        lambda: finetune_gradients(randomized_state(SMALL_MODEL, cfg, 15), pairs,
                                   SMALL_STFT, CompressionParams()))


def test_training_step_memory_does_not_grow_with_the_batch():
    """A step records one slice at a time, so quadrupling the batch from 8
    to 32 crops of 128 frames adds only the stacked inputs (a whole-batch
    tape would grow about fourfold)."""
    config = ModelConfig(num_layers=2, model_dim=32, num_heads=2,
                         feature_channels=8, time_embed_dim=16, feedforward_dim=64)

    def peak_mib(items):
        state = init_train_state(init_parameters(config, np.random.default_rng(16)),
                                 TrainConfig())
        rng = np.random.default_rng(items)
        grids = [FeatureGrid(rng.standard_normal((8, 128))) for _ in range(items)]
        tracemalloc.start()
        try:
            pretrain_gradients(state, grids)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    assert peak_mib(32) < 1.25 * peak_mib(8)


def test_finetune_replay_consumes_no_dropout_draws():
    """Condition dropout never fires in finetuning: the rng stream holds only
    the per-item (t, x0) draws, verified by exact replay."""
    cfg = TrainConfig.for_mode(TrainMode.FINETUNE, task=TaskKind.DENOISE, seed=7)
    model = init_parameters(SMALL_MODEL, np.random.default_rng(5))
    state = init_train_state(model, cfg)
    rng = np.random.default_rng(54)
    pairs = []
    for _ in range(3):
        clean = AudioSignal(rng.uniform(-0.5, 0.5, 600), 16000)
        degraded = AudioSignal(clean.samples + 0.1 * rng.standard_normal(600), 16000)
        pairs.append(TrainPair(clean=clean, degraded=degraded))
    replay = np.random.default_rng(cfg.seed)
    flow = FlowPathConfig()
    expected = []
    for p in pairs:
        x1 = features_from_audio(p.clean, SMALL_STFT, CompressionParams())
        tup = sample_training_tuple(x1.values, flow, replay)
        expected.append(float((tup.target**2).mean()))
    loss, _ = finetune_gradients(state, pairs, SMALL_STFT, CompressionParams())
    assert loss == pytest.approx(float(np.mean(expected)), abs=1e-12)


def test_finetune_tse_targets_include_prompt():
    rate = 800
    prompt_samples = tse_prompt_samples(rate)
    cfg = TrainConfig.for_mode(TrainMode.FINETUNE,
                               task=TaskKind.TARGET_SPEAKER_EXTRACT, seed=11)
    model = init_parameters(SMALL_MODEL, np.random.default_rng(6))
    state = init_train_state(model, cfg)
    rng = np.random.default_rng(55)
    clean = AudioSignal(rng.uniform(-0.5, 0.5, rate), rate)
    mixture = AudioSignal(clean.samples + 0.3 * rng.standard_normal(rate), rate)
    reference = AudioSignal(rng.uniform(-0.5, 0.5, prompt_samples + 100), rate)
    pair = TrainPair(clean=clean, degraded=mixture, reference=reference)

    replay = np.random.default_rng(cfg.seed)
    target_audio = prepend_tse_prompt(clean, reference)
    x1 = features_from_audio(target_audio, SMALL_STFT, CompressionParams())
    assert x1.num_frames == SMALL_STFT.num_frames(prompt_samples + rate)
    tup = sample_training_tuple(x1.values, FlowPathConfig(), replay)
    expected = float((tup.target**2).mean())
    loss, _ = finetune_gradients(state, [pair], SMALL_STFT, CompressionParams())
    assert loss == pytest.approx(expected, abs=1e-12)


def test_finetune_requires_pairs():
    cfg = TrainConfig.for_mode(TrainMode.FINETUNE, task=TaskKind.DENOISE)
    model = init_parameters(SMALL_MODEL, np.random.default_rng(8))
    state = init_train_state(model, cfg)
    clean = AudioSignal(np.random.default_rng(56).uniform(-0.5, 0.5, 600), 16000)
    with pytest.raises(ValueError):
        finetune_gradients(state, [TrainPair(clean=clean)], SMALL_STFT,
                           CompressionParams())


def test_non_finite_loss_aborts():
    state = tiny_state(seed=9)
    state.model.params["input_proj.weight"][0, 0] = np.nan
    grids = [FeatureGrid(np.random.default_rng(57).standard_normal((8, 12)))]
    with pytest.raises((RuntimeError, ValueError)):
        apply_gradients(state, *pretrain_gradients(state, grids))


def test_sample_crop_alignment_and_padding():
    rng = np.random.default_rng(58)
    clean = AudioSignal(rng.uniform(-0.5, 0.5, 5000), 16000)
    degraded = AudioSignal(rng.uniform(-0.5, 0.5, 5000), 16000)
    pair = TrainPair(clean=clean, degraded=degraded)
    for _ in range(20):
        probe = np.random.default_rng(rng.integers(1 << 30))
        crop = sample_crop(pair, 1600, 8, probe)
        assert len(crop.clean) == 1600
        assert len(crop.degraded) == 1600
        # joint crop: find the clean start, check degraded matches it
        starts = [s for s in range(0, 5000 - 1600 + 1, 8)
                  if np.array_equal(clean.samples[s:s + 1600], crop.clean.samples)]
        assert len(starts) >= 1
        assert np.array_equal(degraded.samples[starts[0]:starts[0] + 1600],
                              crop.degraded.samples)
    short = TrainPair(clean=AudioSignal(rng.uniform(-0.5, 0.5, 1000), 16000))
    padded = sample_crop(short, 1600, 8, np.random.default_rng(0))
    assert len(padded.clean) == 1600
    assert np.all(padded.clean.samples[1000:] == 0.0)


def test_make_batch_modes():
    rng = np.random.default_rng(59)
    pairs = [TrainPair(clean=AudioSignal(rng.uniform(-0.5, 0.5, 4000), 16000),
                       degraded=AudioSignal(rng.uniform(-0.5, 0.5, 4000), 16000))
             for _ in range(4)]
    dataset = WaveformDataset(pairs)
    pre_cfg = TrainConfig(batch_seconds=0.2, crop_seconds=0.1)
    batch = make_batch(dataset, pre_cfg, SMALL_STFT, CompressionParams(),
                       np.random.default_rng(60))
    assert len(batch) == 2
    for grid in batch:
        assert isinstance(grid, FeatureGrid)
        assert grid.num_frames == SMALL_STFT.num_frames(1600)
    fin_cfg = TrainConfig.for_mode(TrainMode.FINETUNE, task=TaskKind.DENOISE,
                                   batch_seconds=0.2, crop_seconds=0.1)
    crops = make_batch(dataset, fin_cfg, SMALL_STFT, CompressionParams(),
                       np.random.default_rng(61))
    assert len(crops) == 2
    for c in crops:
        assert len(c.clean) == 1600
        assert len(c.degraded) == 1600


def test_dataset_validation():
    with pytest.raises(ValueError):
        WaveformDataset([])
    clean = AudioSignal(np.zeros(100), 16000)
    degraded = AudioSignal(np.zeros(90), 16000)
    with pytest.raises(ValueError):
        WaveformDataset([TrainPair(clean=clean, degraded=degraded)])
    # make_batch sizes every crop by the first pair's rate, so one rate only;
    # a pair refuses mixed rates itself (test_train_pair_refuses_mixed_rates)
    narrow = AudioSignal(np.zeros(100), 8000)
    with pytest.raises(ValueError, match=r"pair 1: clean rate 8000 != dataset rate 16000"):
        WaveformDataset([TrainPair(clean=clean), TrainPair(clean=narrow)])


def test_train_pair_refuses_mixed_rates():
    """A denoise pair whose clean side is 800 samples at 8000 Hz and whose
    degraded side is the same samples at 16000 Hz is refused where it is
    built, so `finetune_gradients` and `WaveformDataset` both see one rate."""
    samples = np.random.default_rng(70).uniform(-0.5, 0.5, 800)
    clean = AudioSignal(samples, 8000)
    wide = AudioSignal(samples, 16000)
    with pytest.raises(ValueError, match=r"degraded rate 16000 != clean rate 8000"):
        TrainPair(clean=clean, degraded=wide)
    with pytest.raises(ValueError, match=r"reference rate 16000 != clean rate 8000"):
        TrainPair(clean=clean, degraded=clean, reference=wide)
    TrainPair(clean=wide, degraded=wide, reference=wide)


def small_dataset(seed=62, n=3):
    rng = np.random.default_rng(seed)
    return WaveformDataset([
        TrainPair(clean=AudioSignal(rng.uniform(-0.5, 0.5, 3200), 16000))
        for _ in range(n)])


def test_run_training_logs_lr_and_losses(tmp_path):
    cfg = TrainConfig(warmup_steps=2, total_steps=5,
                      batch_seconds=0.1, crop_seconds=0.1, seed=12)
    model = init_parameters(SMALL_MODEL, np.random.default_rng(13))
    state = init_train_state(model, cfg)
    log = tmp_path / "loss.jsonl"
    ckpt = tmp_path / "state.npz"
    state = run_training(state, small_dataset(), SMALL_STFT, CompressionParams(),
                         log_path=log, checkpoint_path=ckpt)
    assert state.step == 5
    records = [json.loads(l) for l in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1, 2, 3, 4]
    for r in records:
        assert r["lr"] == lr_schedule(r["step"], cfg)
        assert np.isfinite(r["loss"])
    assert state.mean_loss == pytest.approx(np.mean([r["loss"] for r in records]))
    assert ckpt.exists()


def test_checkpoint_round_trip_and_resume(tmp_path):
    """Interrupting after 3 steps and resuming matches 6 uninterrupted steps
    bit-for-bit: parameters, moments, rng stream, and losses."""
    cfg = TrainConfig(warmup_steps=1, total_steps=6,
                      batch_seconds=0.1, crop_seconds=0.1, seed=14)
    dataset = small_dataset()
    comp = CompressionParams()

    def fresh_state():
        model = init_parameters(SMALL_MODEL, np.random.default_rng(15))
        return init_train_state(model, cfg)

    def advance(state, steps):
        losses = []
        for _ in range(steps):
            batch = make_batch(dataset, cfg, SMALL_STFT, comp, state.rng)
            losses.append(apply_gradients(state, *pretrain_gradients(state, batch)))
        return state, losses

    straight, losses_a = advance(fresh_state(), 6)

    state, losses_b = advance(fresh_state(), 3)
    path = tmp_path / "mid.npz"
    save_checkpoint(state, path)
    resumed = load_checkpoint(path)
    assert resumed.step == 3
    x = np.random.default_rng(16).standard_normal(
        (1, SMALL_MODEL.feature_channels, 7))
    cond = np.zeros_like(x)
    t = np.array([0.5])
    assert np.array_equal(forward_batch(state.model, x, cond, t),
                          forward_batch(resumed.model, x, cond, t))
    resumed, losses_c = advance(resumed, 3)
    assert losses_a == losses_b + losses_c
    for k in straight.model.params:
        assert np.array_equal(straight.model.params[k], resumed.model.params[k])
        assert np.array_equal(straight.adam_m[k], resumed.adam_m[k])
        assert np.array_equal(straight.adam_v[k], resumed.adam_v[k])


def test_checkpoint_config_mismatch(tmp_path):
    cfg = TrainConfig(warmup_steps=1, total_steps=6,
                      batch_seconds=0.1, crop_seconds=0.1, seed=17)
    model = init_parameters(SMALL_MODEL, np.random.default_rng(18))
    state = init_train_state(model, cfg)
    path = tmp_path / "state.npz"
    save_checkpoint(state, path)
    other = TrainConfig(warmup_steps=1, total_steps=7,
                        batch_seconds=0.1, crop_seconds=0.1, seed=17)
    with pytest.raises(ValueError, match="total_steps: 6 in the checkpoint, "
                       "7 in the run config"):
        load_checkpoint(path, expected=other)
    same = load_checkpoint(path, expected=cfg)
    assert same.step == 0
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, data=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(foreign)


def test_checkpoint_is_written_at_exactly_its_path(tmp_path):
    """No suffix is appended: `x.ckpt` is the file written and read back."""
    state = randomized_state(SMALL_MODEL, TrainConfig(), seed=20)
    path = tmp_path / "x.ckpt"
    save_checkpoint(state, path)
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]
    loaded = load_checkpoint(path)
    for name, arr in state.model.params.items():
        assert np.array_equal(loaded.model.params[name], arr)
        assert np.array_equal(loaded.adam_v[name], state.adam_v[name])


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    """A save that dies halfway through writing leaves the checkpoint it
    would have replaced loadable, and no temporary file behind."""
    model = init_parameters(SMALL_MODEL, np.random.default_rng(21))
    state = init_train_state(model, TrainConfig())
    path = tmp_path / "state.npz"
    save_checkpoint(state, path)
    real_savez = np.savez

    def savez_dies_halfway(file, **arrays):
        buf = io.BytesIO()
        real_savez(buf, **arrays)
        data = buf.getvalue()
        if hasattr(file, "write"):
            file.write(data[:len(data) // 2])
        else:
            with open(file, "wb") as fh:
                fh.write(data[:len(data) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", savez_dies_halfway)
    state.step = 5
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(state, path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]
    assert load_checkpoint(path).step == 0


def test_load_checkpoint_rejects_corrupt_arrays(tmp_path):
    """A checkpoint whose arrays do not match its stored model config fails
    loudly instead of loading garbage: a mis-shaped parameter and a missing
    optimizer moment are both named."""
    model = init_parameters(SMALL_MODEL, np.random.default_rng(19))
    path = tmp_path / "state.npz"
    save_checkpoint(init_train_state(model, TrainConfig()), path)
    with np.load(path) as data:
        good = dict(data)
    bad_shape = tmp_path / "bad_shape.npz"
    np.savez(bad_shape, **{**good, "param.block0.qkv.weight": np.zeros((2, 2))})
    with pytest.raises(ValueError, match="'param.block0.qkv.weight' has shape"):
        load_checkpoint(bad_shape)
    missing = tmp_path / "missing.npz"
    np.savez(missing, **{k: v for k, v in good.items()
                         if k != "adam_v.output_proj.bias"})
    with pytest.raises(ValueError, match="missing array 'adam_v.output_proj.bias'"):
        load_checkpoint(missing)
    assert load_checkpoint(path).step == 0


def test_mixed_shape_batch_is_refused():
    """Every item of a batch must share one feature shape; the error names
    the shapes found."""
    state = tiny_state(seed=8)
    rng = np.random.default_rng(57)
    grids = [FeatureGrid(rng.standard_normal((8, n))) for n in (20, 24)]
    with pytest.raises(ValueError, match=r"\(8, 20\), \(8, 24\)"):
        pretrain_gradients(state, grids)

    cfg = TrainConfig.for_mode(TrainMode.FINETUNE, task=TaskKind.DENOISE, seed=9)
    state = init_train_state(init_parameters(SMALL_MODEL, np.random.default_rng(5)), cfg)
    pairs = []
    for n in (600, 800):
        clean = AudioSignal(rng.uniform(-0.5, 0.5, n), 16000)
        degraded = AudioSignal(clean.samples + 0.1 * rng.standard_normal(n), 16000)
        pairs.append(TrainPair(clean=clean, degraded=degraded))
    shapes = [features_from_audio(p.clean, SMALL_STFT, CompressionParams()).values.shape
              for p in pairs]
    assert shapes[0] != shapes[1]
    with pytest.raises(ValueError, match=re.escape(f"{shapes[0]}, {shapes[1]}")):
        finetune_gradients(state, pairs, SMALL_STFT, CompressionParams())


@pytest.mark.parametrize("fn", [generate, finetune_gradients, run_training,
                                make_batch, build_condition])
def test_frontend_is_always_chosen_by_the_caller(fn):
    # the frontend is the model's input space: no library call may pick one
    params = inspect.signature(fn).parameters
    for name in ("stft_params", "compression"):
        assert params[name].default is inspect.Parameter.empty, \
            f"{fn.__name__}({name}=...) has a default"


@pytest.mark.parametrize("fn", [istft, audio_from_features])
def test_synthesis_sample_rate_is_always_chosen_by_the_caller(fn):
    # spectrograms and grids carry no rate: a default would label audio silently
    default = inspect.signature(fn).parameters["sample_rate"].default
    assert default is inspect.Parameter.empty, \
        f"{fn.__name__}(sample_rate=...) has a default"
