"""Task conditions and the signal degradations that synthesize training pairs.

Four restoration tasks are supported: denoising, bandwidth extension, codec
artifact removal, and target speaker extraction (TSE). For the first three the
condition is simply the feature grid of the degraded signal; for TSE the first
TSE_PROMPT_SECONDS (3 s) of a reference recording of the target speaker are
prepended to the mixture before analysis, and the corresponding region is
trimmed from the generated output afterwards. This module is the only place
that knows the prompt length; `tse_prompt_samples` converts it to samples.

The codec degradation is a mu-law quantizer standing in for a neural audio
codec: it produces comparable coding artifacts without an external model.

The degradations draw nothing: their caller, the toy corpus (`harness`),
draws every parameter. `mix_at_snr` adds noise of the clean signal's own
length at a given SNR, `mix_two_speakers` mixes at a given ratio, and
`bandwidth_reduce` takes a factor of 2, 4 or 8.

One windowed-sinc lowpass, `lowpass_taps`, serves bandwidth reduction and
the toy corpus's band-limited noise (`harness`). For a window of ``n``
points and a cutoff ``c`` relative to Nyquist, the taps are
``c * sinc(c * m) * window`` at ``m = k - (n - 1) / 2``, divided by their
sum for unit gain at DC. That is `scipy.signal.firwin`'s arithmetic, and each
caller writes its window as scipy does (a 513-point Kaiser window, beta 8.6,
here; a 65-point Hamming window in `harness`), so the taps are bit-identical
to firwin's.
"""

import enum

import numpy as np
from scipy.special import i0

from .audio import AudioSignal
from .spectral import CompressionParams, StftParams, features_from_audio


class TaskKind(enum.Enum):
    DENOISE = "denoise"
    BANDWIDTH_EXTEND = "bandwidth_extend"
    CODEC_RESTORE = "codec_restore"
    TARGET_SPEAKER_EXTRACT = "target_speaker_extract"


TSE_PROMPT_SECONDS = 3.0  # reference speech prepended to a TSE mixture


def tse_prompt_samples(sample_rate: int) -> int:
    """Length in samples of the TSE prompt at `sample_rate`."""
    return int(round(TSE_PROMPT_SECONDS * sample_rate))


def build_condition(task: TaskKind, degraded: AudioSignal,
                    stft_params: StftParams, compression: CompressionParams,
                    reference: AudioSignal | None = None) -> np.ndarray:
    """Build the conditioning features for one utterance: the float64
    [2 * num_bins, frames] grid of `spectral.features_from_audio`.

    Denoise / bandwidth-extend / codec-restore all condition on the degraded
    signal itself. TSE conditions on the reference prompt concatenated
    before the mixture; `reference` is then required.
    """
    if task is TaskKind.TARGET_SPEAKER_EXTRACT:
        if reference is None:
            raise ValueError("target speaker extraction requires a reference signal")
        degraded = prepend_tse_prompt(degraded, reference)
    return features_from_audio(degraded, stft_params, compression)


def prepend_tse_prompt(mixture: AudioSignal, reference: AudioSignal) -> AudioSignal:
    """Concatenate the first TSE_PROMPT_SECONDS of the reference before the
    mixture; both must share one sample rate."""
    if reference.sample_rate != mixture.sample_rate:
        raise ValueError(f"reference rate {reference.sample_rate} != "
                         f"mixture rate {mixture.sample_rate}")
    n = tse_prompt_samples(mixture.sample_rate)
    if len(reference) < n:
        raise ValueError(f"reference of {len(reference)} samples is shorter than "
                         f"the {n}-sample prompt")
    return AudioSignal(np.concatenate([reference.samples[:n], mixture.samples]),
                       mixture.sample_rate)


def trim_tse_output(generated: AudioSignal, mixture_len: int) -> AudioSignal:
    """Drop the prompt region; return exactly `mixture_len` samples after it."""
    n = tse_prompt_samples(generated.sample_rate)
    if len(generated) < n + mixture_len:
        raise ValueError(f"generated output of {len(generated)} samples cannot cover "
                         f"prompt ({n}) + mixture ({mixture_len})")
    return AudioSignal(generated.samples[n:n + mixture_len], generated.sample_rate)


def mix_at_snr(clean: AudioSignal, noise: AudioSignal, snr_db: float) -> AudioSignal:
    """Add noise of the clean signal's length, scaled to the requested SNR
    in dB: the gain g satisfies
    10 log10(||clean||^2 / ||g * noise||^2) = snr_db.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError(f"sample-rate mismatch: {clean.sample_rate} vs {noise.sample_rate}")
    if len(clean) == 0 or len(noise) != len(clean):
        raise ValueError(f"clean and noise must be nonempty and of one length, "
                         f"got {len(clean)} and {len(noise)} samples")
    clean_power = float(np.sum(clean.samples**2))
    noise_power = float(np.sum(noise.samples**2))
    if clean_power <= 0.0 or noise_power <= 0.0:
        raise ValueError("clean and noise must have nonzero energy")
    gain = np.sqrt(clean_power / (noise_power * 10.0 ** (snr_db / 10.0)))
    return AudioSignal(clean.samples + gain * noise.samples, clean.sample_rate)


_RESAMPLE_TAPS = 513  # odd length keeps the filter linear-phase with integer delay
_KAISER_BETA = 8.6    # ~90 dB stopband


def lowpass_taps(cutoff: float, window: np.ndarray) -> np.ndarray:
    """Windowed-sinc lowpass of ``len(window)`` taps with unit gain at DC;
    `cutoff` is relative to Nyquist (see the module docstring)."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"lowpass cutoff {cutoff} must lie strictly between 0 and Nyquist")
    m = np.arange(len(window)) - 0.5 * (len(window) - 1)
    h = cutoff * np.sinc(cutoff * m) * window
    return h / h.sum()


def _filter_centered(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Linear-phase FIR with the group delay removed; same length as input."""
    full = np.convolve(x, taps, mode="full")
    delay = (len(taps) - 1) // 2
    return full[delay:delay + len(x)]


def bandwidth_reduce(signal: AudioSignal, factor: int) -> AudioSignal:
    """Decimate by `factor` (2, 4 or 8) and resample back, removing content
    above the reduced Nyquist.

    The anti-alias/reconstruction lowpass is a windowed-sinc with cutoff at
    0.9 of the reduced Nyquist, giving well over 40 dB of stopband rejection.
    Output has exactly the input length and sample rate.
    """
    if factor not in (2, 4, 8):
        raise ValueError(f"unsupported down-scaling factor {factor}")
    n = len(signal)
    k, a = np.arange(_RESAMPLE_TAPS), (_RESAMPLE_TAPS - 1) / 2
    kaiser = i0(_KAISER_BETA * np.sqrt(1 - ((k - a) / a) ** 2)) / i0(_KAISER_BETA)
    taps = lowpass_taps(0.9 / factor, kaiser)  # cutoff relative to the original Nyquist
    low = _filter_centered(signal.samples, taps)
    decimated = low[::factor]
    upsampled = np.zeros(len(decimated) * factor)
    upsampled[::factor] = decimated
    restored = _filter_centered(upsampled, taps) * factor  # ceil(n / factor) * factor >= n
    return AudioSignal(restored[:n], signal.sample_rate)


def codec_degrade(signal: AudioSignal, bits_per_sample: int) -> AudioSignal:
    """Mu-law companded uniform quantization at the requested bit depth.

    A deterministic surrogate for low-bitrate codec artifacts: samples are
    clipped to [-1, 1], companded (mu = 255), quantized to a symmetric
    mid-tread grid of 2**bits - 1 levels, and expanded back.
    """
    if not 2 <= bits_per_sample <= 16:
        raise ValueError(f"bits_per_sample must lie in [2, 16], got {bits_per_sample}")
    mu = 255.0
    x = np.clip(signal.samples, -1.0, 1.0)
    companded = np.sign(x) * np.log1p(mu * np.abs(x)) / np.log1p(mu)
    step = 2.0 / (2**bits_per_sample - 1)
    quantized = step * np.round(companded / step)
    expanded = np.sign(quantized) * ((1.0 + mu) ** np.abs(quantized) - 1.0) / mu
    return AudioSignal(expanded, signal.sample_rate)


def mix_two_speakers(a: AudioSignal, b: AudioSignal,
                     ratio_db: float) -> tuple[AudioSignal, AudioSignal]:
    """Two-speaker mixture in min mode; returns (mixture, target).

    Both signals are cropped to the shorter length and summed with the
    interferer scaled so the target-to-interferer ratio is `ratio_db`. The
    target is the cropped first signal.
    """
    if a.sample_rate != b.sample_rate:
        raise ValueError(f"sample-rate mismatch: {a.sample_rate} vs {b.sample_rate}")
    n = min(len(a), len(b))
    if n == 0:
        raise ValueError("speakers must be nonempty")
    target = a.samples[:n]
    interferer = b.samples[:n]
    target_power = float(np.sum(target**2))
    interferer_power = float(np.sum(interferer**2))
    if target_power <= 0.0 or interferer_power <= 0.0:
        raise ValueError("speaker signals must have nonzero energy")
    gain = np.sqrt(target_power / (interferer_power * 10.0 ** (ratio_db / 10.0)))
    mixture = AudioSignal(target + gain * interferer, a.sample_rate)
    return mixture, AudioSignal(target.copy(), a.sample_rate)
