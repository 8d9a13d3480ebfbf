"""Walk a waveform through the full feature pipeline and back.

audio -> STFT -> magnitude compression -> real/imag packing -> (model space)
-> unpacking -> decompression -> inverse STFT -> audio

`features_from_audio` runs the first half and `audio_from_features` the
second; the features in between are a plain float64 array.
"""

import numpy as np

from flowsr.audio import AudioSignal
from flowsr.metrics import si_sdr
from flowsr.spectral import (CompressionParams, StftParams, audio_from_features,
                             features_from_audio, stft)

rng = np.random.default_rng(0)
params = StftParams(window_size=510, hop_size=128)
cp = CompressionParams(exponent=0.5, scale=0.33)

# a second of tone mixture, the kind of content the toy corpus uses
t = np.arange(16000) / 16000
x = 0.2 * np.sin(2 * np.pi * 220 * t) + 0.1 * np.sin(2 * np.pi * 931 * t)
x += 0.02 * rng.standard_normal(x.size)
sig = AudioSignal(x, 16000)

spec = stft(sig, params)
print(f"waveform: {len(sig)} samples -> spectrogram: {spec.shape} "
      f"(bins x frames), hop {params.hop_size}")

grid = features_from_audio(sig, params, cp)
print(f"packed for the model: {grid.shape} real channels "
      f"(first half real parts, second half imaginary parts)")
squeezed = np.hypot(grid[:params.num_bins], grid[params.num_bins:])
print(f"compression |z| -> {cp.scale} * |z|^{cp.exponent}: "
      f"peak magnitude {np.abs(spec).max():.3f} -> {squeezed.max():.3f}")

# and back out
restored = audio_from_features(grid, params, cp, len(sig), sample_rate=sig.sample_rate)
print(f"round-trip SI-SDR: {si_sdr(restored, sig):.1f} dB "
      f"(capped at 100 for bit-perfect reconstructions)")
print(f"max sample error: {np.max(np.abs(restored.samples - sig.samples)):.2e}")
