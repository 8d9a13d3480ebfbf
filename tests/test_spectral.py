"""STFT analysis/synthesis, compression, feature packing, and WAV I/O."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import get_window

from flowsr import spectral
from flowsr.audio import AudioSignal, read_wav, write_wav
from flowsr.metrics import si_sdr
from flowsr.spectral import (CompressionParams, StftParams, audio_from_features,
                             features_from_audio, istft, stft)

RATE = 16000


def white_noise(n, seed=0, scale=0.3):
    return AudioSignal(scale * np.random.default_rng(seed).standard_normal(n), RATE)


# ---------------------------------------------------------------------------
# WAV I/O

def test_wav_round_trip(tmp_path):
    sig = AudioSignal(np.random.default_rng(1).uniform(-0.9, 0.9, RATE), RATE)
    path = tmp_path / "x.wav"
    write_wav(path, sig)
    back = read_wav(path)
    assert back.sample_rate == RATE
    assert len(back) == len(sig)
    assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 32767.0


def test_write_wav_counts_the_samples_it_clips(tmp_path):
    samples = np.array([0.5, 1.0, -1.0, 1.5, -2.0, 0.0, 1.0 + 1e-12, -0.25])
    path = tmp_path / "loud.wav"
    assert write_wav(path, AudioSignal(samples, RATE)) == 3
    back = read_wav(path)
    assert np.max(np.abs(back.samples - np.clip(samples, -1.0, 1.0))) <= 0.5 / 32767.0
    assert write_wav(path, AudioSignal(np.clip(samples, -1.0, 1.0), RATE)) == 0


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, RATE, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="mono"):
        read_wav(path)


def test_wav_rejects_non_pcm16(tmp_path):
    path = tmp_path / "f32.wav"
    wavfile.write(path, RATE, np.zeros(100, dtype=np.float32))
    with pytest.raises(ValueError, match="16-bit"):
        read_wav(path)


def test_wav_refuses_data_that_ends_mid_sample(tmp_path):
    """A 16-bit WAV cut one byte short is refused naming the file, not by
    numpy's buffer-size error."""
    path = tmp_path / "cut.wav"
    write_wav(path, AudioSignal(np.full(100, 0.25), RATE))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: expected a 16-bit PCM WAV file (its data ends mid-sample)")):
        read_wav(path)


def test_wav_refuses_data_shorter_than_its_header(tmp_path):
    """A 16-bit WAV cut short by whole samples is refused naming the file,
    the sample count its header declares and the count its data holds, not
    read back shorter."""
    path = tmp_path / "short.wav"
    write_wav(path, AudioSignal(np.full(100, 0.25), RATE))
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: its header declares 100 samples, but its data holds 99")):
        read_wav(path)


def test_audio_signal_validation():
    with pytest.raises(ValueError):
        AudioSignal(np.array([0.0, np.nan]), RATE)
    with pytest.raises(ValueError):
        AudioSignal(np.zeros((2, 3)), RATE)
    with pytest.raises(ValueError):
        AudioSignal(np.zeros(4), 0)


# ---------------------------------------------------------------------------
# StftParams

def test_params_window_hop_validation():
    with pytest.raises(ValueError):
        StftParams(window_size=510, hop_size=0)
    with pytest.raises(ValueError):
        StftParams(window_size=510, hop_size=511)
    # nearly non-overlapping hop breaks the overlap-add condition
    with pytest.raises(ValueError, match="overlap-add"):
        StftParams(window_size=510, hop_size=509)


def test_window_is_scipys_periodic_hann_bit_for_bit():
    for window_size in range(1, 1200):
        window = StftParams(window_size, max(1, window_size // 4)).window()
        assert np.array_equal(window, get_window("hann", window_size, fftbins=True)), \
            window_size


def loop_reconstruction_weight(window_size, hop_size):
    """The steady-state overlap-add weight over one hop, summed frame by
    frame over every window start that reaches it."""
    w = get_window("hann", window_size, fftbins=True)
    n_overlap = window_size // hop_size + 1
    weight = np.zeros(hop_size)
    for k in range(-n_overlap, n_overlap + 1):
        idx = np.arange(hop_size) - k * hop_size
        valid = (idx >= 0) & (idx < window_size)
        weight[valid] += w[idx[valid]] ** 2
    return weight


def test_params_refuse_exactly_where_a_per_frame_weight_vanishes():
    """`StftParams` checks istft's own overlap-add weight; over a window by
    hop sweep it accepts and refuses as a frame-by-frame sum does, with the
    same minimum in the message, and that steady-state row equals the sum."""
    pairs = [(w, h) for w in range(1, 65) for h in range(1, w + 1)]
    # near-disjoint frames, where the weight between them falls below 1e-6
    pairs += [(w, w - d) for w in range(65, 600, 7) for d in (1, 2, 3, 5)]
    pairs += [(510, 128), (512, 128), (400, 160), (126, 63), (597, 200)]
    refused = 0
    for window_size, hop_size in pairs:
        weight = loop_reconstruction_weight(window_size, hop_size)
        offsets = -(-window_size // hop_size)
        window = get_window("hann", window_size, fftbins=True)
        row = spectral._overlap_add(np.broadcast_to(window ** 2, (offsets, window_size)),
                                    hop_size).reshape(-1, hop_size)[offsets - 1]
        assert np.array_equal(row, weight), (window_size, hop_size)
        if weight.min() < 1e-6:
            refused += 1
            with pytest.raises(ValueError, match=re.escape(
                    f"overlap-add reconstruction condition (min weight {weight.min():.2e})")):
                StftParams(window_size=window_size, hop_size=hop_size)
        else:
            StftParams(window_size=window_size, hop_size=hop_size)
    assert 0 < refused < len(pairs)


def test_frame_count_formula():
    p = StftParams()
    for n in (1, 127, 128, 129, 16000, 48000, 48001):
        assert p.num_frames(n) == 1 + math.ceil(n / p.hop_size)
    assert p.num_bins == 256
    assert p.max_length(126) == 125 * 128


# ---------------------------------------------------------------------------
# stft

def test_stft_zero_signal():
    spec = stft(AudioSignal(np.zeros(RATE), RATE), StftParams())
    assert spec.shape == (256, 126)
    assert np.all(spec == 0)


def test_stft_shape_matches_paper_values():
    p = StftParams(window_size=510, hop_size=128)
    spec = stft(white_noise(RATE), p)
    assert spec.shape == (256, p.num_frames(RATE))


def test_stft_bin_center_sinusoid_energy():
    """A bin-centered sinusoid concentrates energy at its row.

    Oracle (direct DFT of one Hann-windowed frame): the center row holds
    exactly 2/3 of the energy, and rows k-1..k+1 hold all of it; the Hann
    mainlobe makes a higher single-row share unattainable.
    """
    p = StftParams()
    k = 32
    freq = k * RATE / p.window_size  # exact bin center
    t = np.arange(2 * RATE) / RATE
    spec = stft(AudioSignal(0.4 * np.sin(2 * np.pi * freq * t), RATE), p)
    power = np.abs(spec) ** 2
    row_share = power[k].sum() / power.sum()
    band_share = power[k - 1:k + 2].sum() / power.sum()
    assert np.argmax(power.sum(axis=1)) == k
    assert abs(row_share - 2.0 / 3.0) < 0.02  # edge frames blur it slightly
    assert band_share > 0.99


def test_stft_linearity():
    p = StftParams()
    x = white_noise(5000, seed=3)
    y = white_noise(5000, seed=4)
    mix = AudioSignal(2.0 * x.samples - 0.5 * y.samples, RATE)
    lhs = stft(mix, p)
    rhs = 2.0 * stft(x, p) - 0.5 * stft(y, p)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_stft_rejects_empty():
    with pytest.raises(ValueError):
        stft(AudioSignal(np.zeros(0), RATE), StftParams())


# ---------------------------------------------------------------------------
# istft

def test_istft_zero_spectrogram():
    p = StftParams()
    spec = np.zeros((256, 10), dtype=np.complex128)
    out = istft(spec, p, length=9 * p.hop_size, sample_rate=RATE)
    assert np.all(out.samples == 0)
    assert len(out) == 9 * p.hop_size


def test_istft_round_trip_noise():
    p = StftParams()
    sig = white_noise(RATE, seed=7)
    rec = istft(stft(sig, p), p, len(sig), RATE)
    assert si_sdr(rec, sig) > 50.0


def test_istft_round_trip_various_lengths():
    p = StftParams()
    for i, n in enumerate((1600, 5000, 16001, 48000)):
        sig = white_noise(n, seed=10 + i)
        rec = istft(stft(sig, p), p, n, RATE)
        assert si_sdr(rec, sig) > 50.0, f"length {n}"


def test_istft_impulse_restored_at_offset():
    p = StftParams()
    x = np.zeros(2000)
    x[700] = 1.0
    rec = istft(stft(AudioSignal(x, RATE), p), p, 2000, RATE)
    assert np.argmax(np.abs(rec.samples)) == 700
    assert abs(rec.samples[700] - 1.0) < 1e-9
    off_peak = np.abs(np.delete(rec.samples, 700)).max()
    assert off_peak < 1e-9


def test_istft_length_guard():
    p = StftParams()
    spec = stft(white_noise(1000), p)
    with pytest.raises(ValueError):
        istft(spec, p, p.max_length(spec.shape[1]) + 1, RATE)


def test_istft_preserves_sample_rate():
    p = StftParams()
    sig = AudioSignal(np.random.default_rng(0).standard_normal(8000), 8000)
    rec = istft(stft(sig, p), p, 8000, sample_rate=8000)
    assert rec.sample_rate == 8000


@pytest.mark.parametrize("window_size, hop_size", [(510, 128), (126, 63), (400, 160)])
def test_istft_matches_a_per_frame_overlap_add_bit_for_bit(window_size, hop_size):
    """Overlap-adding one hop offset at a time adds each sample's frames in
    the order a loop over frames does, so output and weight sums are equal."""
    p = StftParams(window_size=window_size, hop_size=hop_size)
    sig = white_noise(3001, seed=18)
    spec = stft(sig, p)
    window = p.window()
    frames = np.fft.irfft(spec.T, n=p.window_size, axis=1) * window
    out = np.zeros((spec.shape[1] - 1) * p.hop_size + p.window_size)
    weight = np.zeros_like(out)
    for f in range(spec.shape[1]):
        out[f * p.hop_size:f * p.hop_size + p.window_size] += frames[f]
        weight[f * p.hop_size:f * p.hop_size + p.window_size] += window ** 2
    covered = weight > 1e-10
    out[covered] /= weight[covered]
    half = p.window_size // 2
    for length in (len(sig), p.max_length(spec.shape[1])):
        assert np.array_equal(istft(spec, p, length, RATE).samples,
                              out[half:half + length])


@pytest.mark.parametrize("window_size, hop_size", [(510, 128), (126, 63), (400, 160)])
def test_stft_matches_a_per_frame_transform_bit_for_bit(window_size, hop_size):
    """Each column is the rfft of one explicitly sliced, windowed frame of
    the centred, padded signal."""
    p = StftParams(window_size=window_size, hop_size=hop_size)
    window = p.window()
    half = window_size // 2
    for n in (100, 3001):
        sig = white_noise(n, seed=19)
        spec = stft(sig, p)
        frames = spec.shape[1]
        right = (frames - 1) * hop_size + window_size - n - half
        mode = "reflect" if n > max(half, right) else "constant"
        padded = np.pad(sig.samples, (half, right), mode=mode)
        for f in range(frames):
            frame = padded[f * hop_size:f * hop_size + window_size] * window
            assert np.array_equal(spec[:, f], np.fft.rfft(frame)), (n, f)


# ---------------------------------------------------------------------------
# compression

def compressed(bins, cp):
    out = bins.copy()
    spectral._compress_in_place(out, cp)
    return out


def decompressed(bins, cp):
    out = bins.copy()
    spectral._decompress_in_place(out, cp)
    return out


def test_compress_paper_values():
    cp = CompressionParams()  # exponent 0.5, scale 0.33
    grid = np.zeros((256, 3), dtype=np.complex128)
    grid[10, 0] = np.exp(1j * 0.7)          # |z| = 1
    grid[20, 1] = 4.0 * np.exp(1j * 2.1)    # |z| = 4
    out = compressed(grid, cp)
    assert abs(abs(out[10, 0]) - 0.33) < 1e-12
    assert abs(np.angle(out[10, 0]) - 0.7) < 1e-9
    assert abs(abs(out[20, 1]) - 0.66) < 1e-12
    assert abs(np.angle(out[20, 1]) - 2.1) < 1e-9
    assert out[0, 2] == 0.0  # zero maps to zero


def test_compress_preserves_phase_everywhere():
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((256, 20)) + 1j * rng.standard_normal((256, 20))
    out = compressed(grid, CompressionParams())
    ang_err = np.abs(np.angle(out * np.conj(grid)))
    assert ang_err.max() < 1e-9


def test_decompress_inverts_compress():
    cp = CompressionParams()
    rng = np.random.default_rng(6)
    grid = rng.standard_normal((256, 30)) + 1j * rng.standard_normal((256, 30))
    back = decompressed(compressed(grid, cp), cp)
    assert np.max(np.abs(back - grid)) < 1e-9
    # single magnitude: |c| = 0.33 -> |z| = 1
    one = np.zeros((256, 1), dtype=np.complex128)
    one[0, 0] = 0.33
    z = decompressed(one, cp)
    assert abs(abs(z[0, 0]) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# feature packing

def test_pack_shape_and_layout():
    """Real parts fill the first num_bins channels and imaginary parts the
    rest; at exponent 1 and scale 1 compression multiplies every bin by
    exactly 1, so the grid holds `stft`'s own bins."""
    p = StftParams()
    sig = white_noise(RATE // 2, seed=8)
    grid = features_from_audio(sig, p, CompressionParams(exponent=1.0, scale=1.0))
    spec = stft(sig, p)
    assert grid.dtype == np.float64
    assert grid.shape == (512, p.num_frames(len(sig)))
    assert np.array_equal(grid[:256], spec.real)
    assert np.array_equal(grid[256:], spec.imag)


@pytest.mark.parametrize("fn, shape", [
    (audio_from_features, (3, 40)),
    (audio_from_features, (2 * 129, 40)),
    (audio_from_features, (512,)),
    (istft, (255, 40)),
    (istft, (512, 40)),
    (istft, (256,)),
], ids=["features-odd-channels", "features-wrong-bins", "features-1d",
        "spectrogram-odd-rows", "spectrogram-wrong-bins", "spectrogram-1d"])
def test_synthesis_refuses_a_grid_of_another_shape(fn, shape):
    """Synthesis refuses, naming both shapes, a grid that the default
    frontend (256 bins, 512 feature channels) did not make."""
    p, cp = StftParams(), CompressionParams()
    if fn is istft:
        args, expected = (np.zeros(shape, dtype=np.complex128), p), "(256, frames)"
    else:
        args, expected = (np.zeros(shape), p, cp), "(512, frames)"
    with pytest.raises(ValueError, match=re.escape(f"of shape {shape} is not {expected}")):
        fn(*args, 10 * p.hop_size, RATE)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_audio_from_features_rejects_non_finite_grid(bad):
    # grids are not scanned on construction; the synthesized AudioSignal is
    p, cp = StftParams(), CompressionParams()
    grid = features_from_audio(white_noise(RATE // 4, seed=14), p, cp)
    grid[3, 5] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
        audio_from_features(grid, p, cp, RATE // 4, RATE)


def test_full_pipeline_round_trip():
    p = StftParams()
    cp = CompressionParams()
    sig = white_noise(RATE, seed=13)
    grid = features_from_audio(sig, p, cp)
    rec = audio_from_features(grid, p, cp, len(sig), RATE)
    assert si_sdr(rec, sig) > 50.0


def test_synthesis_matches_the_textbook_pipeline_bit_for_bit():
    """The frames-major buffer, decompressed and windowed in place, gives the
    same audio as unpacking, decompressing and windowing into new arrays,
    zero bins included."""
    p, cp = StftParams(), CompressionParams(exponent=0.3, scale=0.5)
    values = np.random.default_rng(15).standard_normal((2 * p.num_bins, 40))
    values[[3, 3 + p.num_bins], 7] = 0.0
    bins = values[:p.num_bins] + 1j * values[p.num_bins:]
    mag = np.abs(bins)
    factor = np.zeros_like(mag)
    nz = mag > 0
    factor[nz] = (mag[nz] / cp.scale) ** (1.0 / cp.exponent) / mag[nz]
    window = p.window()
    frames = np.fft.irfft((bins * factor).T, n=p.window_size, axis=1) * window
    out = np.zeros((40 - 1) * p.hop_size + p.window_size)
    weight = np.zeros_like(out)
    for f in range(40):
        out[f * p.hop_size:f * p.hop_size + p.window_size] += frames[f]
        weight[f * p.hop_size:f * p.hop_size + p.window_size] += window ** 2
    covered = weight > 1e-10
    out[covered] /= weight[covered]
    length = p.max_length(40)
    half = p.window_size // 2
    audio = audio_from_features(values, p, cp, length, RATE)
    assert np.array_equal(audio.samples, out[half:half + length])
    assert np.array_equal(decompressed(bins, cp), bins * factor)


def test_public_transforms_leave_their_inputs_unchanged():
    """The in-place steps work only on arrays the transforms made: no input
    is written and no result shares memory with one."""
    p, cp = StftParams(), CompressionParams()
    sig = white_noise(RATE // 2, seed=16)
    spec = stft(sig, p)
    grid = features_from_audio(sig, p, cp)
    inputs = [sig.samples, spec, grid]
    before = [a.copy() for a in inputs]
    results = [stft(sig, p), features_from_audio(sig, p, cp),
               istft(spec, p, len(sig), RATE).samples,
               audio_from_features(grid, p, cp, len(sig), RATE).samples]
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    for r in results:
        assert not any(np.shares_memory(r, a) for a in inputs)


def test_synthesis_holds_one_buffer_beside_its_input():
    """On a 12 s grid ([512, 1501]) at the default frontend, synthesis holds
    one complex buffer and the inverse transform's frames (about 5.9 MiB
    each) and the overlap-add sums beside its input: a peak of at most
    15.5 MiB beyond it. An unpacked, a decompressed and a windowed copy took
    it to 18.1 MiB."""
    p, cp = StftParams(), CompressionParams()
    grid = np.random.default_rng(17).standard_normal((2 * p.num_bins, 1501))
    tracemalloc.start()
    try:
        audio = audio_from_features(grid, p, cp, 12 * RATE, RATE)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert len(audio) == 12 * RATE
    assert peak <= 15.5


def test_analysis_compresses_the_spectrum_in_place():
    """On 12 s of audio at the default frontend ([512, 1501]), analysis holds
    `stft`'s spectrum and its magnitudes beside the grid it packs: a peak of
    at most 14.5 MiB (compressing into new arrays took it to 18.1 MiB). The
    grid equals the textbook factor scale * |z|**(exponent - 1), zero bins
    included."""
    p, cp = StftParams(), CompressionParams()
    samples = np.random.default_rng(19).uniform(-0.5, 0.5, 12 * RATE)
    samples[1000:3000] = 0.0
    sig = AudioSignal(samples, RATE)
    tracemalloc.start()
    try:
        grid = features_from_audio(sig, p, cp)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= 14.5
    bins = stft(sig, p)
    mag = np.abs(bins)
    factor = np.zeros_like(mag)
    nz = mag > 0
    assert not nz.all()
    factor[nz] = cp.scale * mag[nz] ** (cp.exponent - 1.0)
    bins *= factor
    assert np.array_equal(grid, np.concatenate([bins.real, bins.imag]))
