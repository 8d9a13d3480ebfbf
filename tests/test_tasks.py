"""Task condition builders and the synthetic degradations behind them."""

import numpy as np
import pytest
from scipy.signal import firwin

from flowsr import tasks
from flowsr.audio import AudioSignal
from flowsr.metrics import si_sdr
from flowsr.spectral import CompressionParams, StftParams, features_from_audio
from flowsr.tasks import (TSE_PROMPT_SECONDS, TaskKind, bandwidth_reduce,
                          build_condition, codec_degrade, lowpass_taps,
                          mix_at_snr, mix_two_speakers, prepend_tse_prompt,
                          trim_tse_output, tse_prompt_samples)

RATE = 16000


def tone_burst(num, seed=0, amp=0.3):
    rng = np.random.default_rng(seed)
    t = np.arange(num) / RATE
    f = rng.uniform(200.0, 1000.0)
    return AudioSignal(amp * np.sin(2 * np.pi * f * t), RATE)


def band_energy(samples, lo_hz, hi_hz):
    spec = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(len(samples), 1.0 / RATE)
    return float(spec[(freqs >= lo_hz) & (freqs < hi_hz)].sum())


def test_task_kind_is_exhaustive():
    assert {k.value for k in TaskKind} == {
        "denoise", "bandwidth_extend", "codec_restore", "target_speaker_extract"}


def test_tse_prompt_samples():
    assert TSE_PROMPT_SECONDS == 3.0
    assert tse_prompt_samples(16000) == 48000
    assert tse_prompt_samples(8000) == 24000
    assert tse_prompt_samples(22050) == 66150


def test_condition_of_simple_tasks_is_degraded_features():
    params = StftParams()
    comp = CompressionParams()
    audio = tone_burst(8000, seed=1)
    expected = features_from_audio(audio, params, comp)
    for task in (TaskKind.DENOISE, TaskKind.BANDWIDTH_EXTEND, TaskKind.CODEC_RESTORE):
        cond = build_condition(task, audio, params, comp)
        assert np.array_equal(cond, expected)
    denoise = build_condition(TaskKind.DENOISE, audio, params, comp)
    codec = build_condition(TaskKind.CODEC_RESTORE, audio, params, comp)
    assert np.array_equal(denoise, codec)


def test_tse_condition_frame_arithmetic():
    params = StftParams()
    comp = CompressionParams()
    mixture = tone_burst(80000, seed=2)  # 5 s
    reference = tone_burst(60000, seed=3)
    cond = build_condition(TaskKind.TARGET_SPEAKER_EXTRACT, mixture, params,
                           comp, reference=reference)
    assert cond.shape[1] == params.num_frames(48000 + 80000)
    # concatenation never loses frames relative to the two parts
    assert cond.shape[1] >= (params.num_frames(48000)
                             + params.num_frames(80000) - 1)


def test_tse_condition_validation():
    params = StftParams()
    comp = CompressionParams()
    mixture = tone_burst(8000, seed=4)
    with pytest.raises(ValueError):
        build_condition(TaskKind.TARGET_SPEAKER_EXTRACT, mixture, params, comp)
    other_rate = AudioSignal(np.zeros(60000), 8000)
    with pytest.raises(ValueError, match="reference rate 8000 != mixture rate 16000"):
        build_condition(TaskKind.TARGET_SPEAKER_EXTRACT, mixture, params, comp,
                        reference=other_rate)


def test_prepend_and_trim_round_trip():
    mixture = tone_burst(80000, seed=5)
    reference = tone_burst(50000, seed=6)
    joined = prepend_tse_prompt(mixture, reference)
    assert len(joined) == 48000 + 80000
    assert np.array_equal(joined.samples[:48000], reference.samples[:48000])
    assert np.array_equal(joined.samples[48000:], mixture.samples)
    trimmed = trim_tse_output(joined, 80000)
    assert len(trimmed) == 80000
    assert np.array_equal(trimmed.samples, mixture.samples)


def test_prepend_requires_long_enough_reference():
    mixture = tone_burst(8000, seed=7)
    with pytest.raises(ValueError):
        prepend_tse_prompt(mixture, tone_burst(47999, seed=8))


def test_prepend_refuses_reference_at_another_rate():
    mixture = tone_burst(8000, seed=11)
    reference = AudioSignal(np.zeros(60000), 22050)
    with pytest.raises(ValueError, match="reference rate 22050 != mixture rate 16000"):
        prepend_tse_prompt(mixture, reference)


def test_trim_rejects_short_input():
    audio = tone_burst(50000, seed=10)
    with pytest.raises(ValueError):
        trim_tse_output(audio, 80000)


def test_mix_at_snr_zero_db_equal_energy():
    clean = tone_burst(16000, seed=11)
    noise = AudioSignal(np.random.default_rng(12).standard_normal(16000) * 0.1, RATE)
    mixed = mix_at_snr(clean, noise, 0.0)
    added = mixed.samples - clean.samples
    clean_e = np.sum(clean.samples ** 2)
    assert abs(np.sum(added ** 2) - clean_e) / clean_e < 1e-9


def test_mix_at_snr_high_snr_is_nearly_clean():
    clean = tone_burst(16000, seed=14)
    noise = AudioSignal(np.random.default_rng(15).standard_normal(16000) * 0.1, RATE)
    mixed = mix_at_snr(clean, noise, 100.0)
    assert si_sdr(mixed, clean) > 90.0


def test_mix_at_snr_measured_matches_requested():
    clean = tone_burst(16000, seed=17)
    noise = AudioSignal(np.random.default_rng(18).standard_normal(16000) * 0.1, RATE)
    for snr in (-5.0, 0.0, 7.5, 20.0):
        mixed = mix_at_snr(clean, noise, snr)
        added = mixed.samples - clean.samples
        measured = 10.0 * np.log10(np.sum(clean.samples ** 2) / np.sum(added ** 2))
        assert abs(measured - snr) < 1e-6


@pytest.mark.parametrize("length", [0, 3000, 15999, 16001, 50000])
def test_mix_at_snr_refuses_noise_of_another_length(length):
    """Noise is neither cropped nor looped: it must match the clean length."""
    clean = tone_burst(16000, seed=20)
    noise = AudioSignal(np.random.default_rng(21).standard_normal(length) * 0.1, RATE)
    with pytest.raises(ValueError, match=f"got 16000 and {length} samples"):
        mix_at_snr(clean, noise, 5.0)


def test_mix_at_snr_rejects_silence():
    clean = tone_burst(8000, seed=25)
    silence = AudioSignal(np.zeros(8000), RATE)
    with pytest.raises(ValueError):
        mix_at_snr(silence, clean, 0.0)
    with pytest.raises(ValueError):
        mix_at_snr(clean, silence, 0.0)


def test_bandwidth_reduce_stopband_and_length():
    noise = AudioSignal(np.random.default_rng(29).standard_normal(32000) * 0.1, RATE)
    for factor in (2, 4, 8):
        out = bandwidth_reduce(noise, factor)
        assert len(out) == len(noise)
        assert out.sample_rate == RATE
        edge = 8000.0 / factor
        stop = band_energy(out.samples, edge, 8000.0)
        passband = band_energy(out.samples, 0.0, edge)
        assert stop <= 1e-4 * passband  # >= 40 dB down


def test_bandwidth_reduce_idempotent_band_energy():
    noise = AudioSignal(np.random.default_rng(30).standard_normal(32000) * 0.1, RATE)
    once = bandwidth_reduce(noise, 2)
    twice = bandwidth_reduce(once, 2)
    for lo, hi in ((0.0, 1000.0), (1000.0, 2000.0), (2000.0, 3000.0)):
        ratio = band_energy(twice.samples, lo, hi) / band_energy(once.samples, lo, hi)
        assert abs(10.0 * np.log10(ratio)) < 1.0


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_bandwidth_reduce_taps_are_firwins_bit_for_bit(monkeypatch, factor):
    taps = []
    monkeypatch.setattr(tasks, "lowpass_taps",
                        lambda cutoff, window: taps.append(lowpass_taps(cutoff, window))
                        or taps[-1])
    bandwidth_reduce(tone_burst(1000, seed=32), factor)
    assert len(taps) == 1
    assert np.array_equal(taps[0], firwin(513, 0.9 / factor, window=("kaiser", 8.6)))


@pytest.mark.parametrize("cutoff", [0.0, 1.0, 1.5])
def test_lowpass_taps_refuse_a_cutoff_outside_the_band(cutoff):
    # the corpus's 4-6 kHz noise cutoffs reach Nyquist at an 8-12 kHz rate
    with pytest.raises(ValueError, match="cutoff"):
        lowpass_taps(cutoff, np.ones(65))


def test_bandwidth_reduce_rejects_bad_factor():
    for factor in (1, 3):
        with pytest.raises(ValueError, match=f"factor {factor}"):
            bandwidth_reduce(tone_burst(8000, seed=31), factor)


def test_codec_bit_depth_quality():
    audio = tone_burst(16000, seed=32)
    fine = codec_degrade(audio, 16)
    assert si_sdr(fine, audio) > 60.0
    coarse = codec_degrade(audio, 2)
    mid = codec_degrade(audio, 8)
    assert si_sdr(coarse, audio) < si_sdr(mid, audio)


def test_codec_zero_and_range():
    zeros = AudioSignal(np.zeros(1000), RATE)
    assert np.all(codec_degrade(zeros, 4).samples == 0.0)
    audio = tone_burst(1000, seed=33)
    for bad in (1, 17, 0):
        with pytest.raises(ValueError):
            codec_degrade(audio, bad)
    a = codec_degrade(audio, 6)
    b = codec_degrade(audio, 6)
    assert np.array_equal(a.samples, b.samples)


def test_mix_two_speakers_identical_at_zero_db():
    a = tone_burst(16000, seed=34)
    mixture, target = mix_two_speakers(a, a, 0.0)
    assert np.max(np.abs(mixture.samples - 2.0 * a.samples)) < 1e-12
    assert np.array_equal(target.samples, a.samples)


def test_mix_two_speakers_min_mode_and_interference():
    a = tone_burst(20000, seed=36)
    b = tone_burst(15000, seed=37)
    mixture, target = mix_two_speakers(a, b, 3.0)
    assert len(mixture) == 15000
    assert len(target) == 15000
    assert np.array_equal(target.samples, a.samples[:15000])
    assert si_sdr(mixture, target) < si_sdr(target, target)


def test_mix_two_speakers_rejects_empty():
    a = tone_burst(8000, seed=42)
    empty = AudioSignal(np.zeros(0), RATE)
    with pytest.raises(ValueError):
        mix_two_speakers(a, empty, 0.0)
