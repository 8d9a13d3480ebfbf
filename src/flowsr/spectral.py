"""Complex STFT analysis/synthesis, magnitude compression, and feature packing.

The flow-matching state space is a real-valued grid built from a one-sided
complex spectrogram: magnitudes are power-law compressed, then real and
imaginary parts are stacked along the channel axis. Everything here is a pure
function; `istft(stft(x))` reconstructs `x` to machine precision via
window-normalized overlap-add.

Nothing here scans for NaN or Inf. Data is checked where it enters: every
waveform when its `AudioSignal` is built (`istft`'s output included), and
every grid the model reads in `vectorfield.forward_batch`.

Frame count convention: with centered framing, a signal of `n` samples
produces ``L = 1 + ceil(n / hop_size)`` frames, so the synthesizable region
``(L - 1) * hop_size`` always covers `n` samples.
"""

import dataclasses
import math

import numpy as np
from scipy.signal import get_window

from .audio import AudioSignal

# Overlap-add weight below this is treated as uncovered.
_OLA_EPS = 1e-10


@dataclasses.dataclass
class StftParams:
    """Analysis/synthesis parameters for the STFT, with a periodic Hann
    window.

    The window/hop pair must admit perfect reconstruction: the squared
    analysis window, overlap-added at the hop, must be bounded away from
    zero over one hop period of the steady-state region.
    """

    window_size: int = 510
    hop_size: int = 128

    def __post_init__(self):
        if self.hop_size <= 0 or self.window_size <= 0:
            raise ValueError("window_size and hop_size must be positive")
        if self.hop_size > self.window_size:
            raise ValueError(f"hop_size {self.hop_size} exceeds window_size {self.window_size}")
        w = self.window()
        # steady-state OLA weight, checked over one hop period
        n_overlap = self.window_size // self.hop_size + 1
        weight = np.zeros(self.hop_size)
        for k in range(-n_overlap, n_overlap + 1):
            start = k * self.hop_size
            idx = np.arange(self.hop_size) - start
            valid = (idx >= 0) & (idx < self.window_size)
            weight[valid] += w[idx[valid]] ** 2
        if weight.min() < 1e-6:
            raise ValueError(
                f"Hann window {self.window_size} at hop {self.hop_size} does not satisfy "
                f"the overlap-add reconstruction condition (min weight {weight.min():.2e})")

    def window(self) -> np.ndarray:
        return get_window("hann", self.window_size, fftbins=True).astype(np.float64)

    @property
    def num_bins(self) -> int:
        return self.window_size // 2 + 1

    def num_frames(self, num_samples: int) -> int:
        """Frames for a signal of `num_samples` samples (centered framing)."""
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        return 1 + math.ceil(num_samples / self.hop_size)

    def max_length(self, num_frames: int) -> int:
        """Longest signal an `num_frames`-frame spectrogram can synthesize."""
        return (num_frames - 1) * self.hop_size


@dataclasses.dataclass
class ComplexSpectrogram:
    """One-sided complex STFT grid, shape [num_bins, num_frames]."""

    bins: np.ndarray
    params: StftParams

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim != 2:
            raise ValueError(f"expected 2-D [bins, frames] grid, got shape {self.bins.shape}")
        if self.bins.shape[0] != self.params.num_bins:
            raise ValueError(f"grid has {self.bins.shape[0]} bins, "
                             f"params imply {self.params.num_bins}")

    @property
    def num_frames(self) -> int:
        return self.bins.shape[1]


@dataclasses.dataclass
class CompressionParams:
    """Power-law magnitude compression |z| -> scale * |z|**exponent."""

    exponent: float = 0.5
    scale: float = 0.33

    def __post_init__(self):
        if self.exponent <= 0 or self.scale <= 0:
            raise ValueError("exponent and scale must be positive")


@dataclasses.dataclass
class FeatureGrid:
    """Real-valued feature grid, shape [2 * num_bins, num_frames].

    Channels 0..num_bins-1 hold real parts, channels num_bins..2*num_bins-1
    hold imaginary parts: the order `pack_features` writes and
    `unpack_features` reads. Unpacking needs the StftParams of the
    frontend that made the grid.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"expected 2-D [channels, frames] grid, got shape {self.values.shape}")
        if self.values.shape[0] % 2 != 0:
            raise ValueError(f"channel count must be even, got {self.values.shape[0]}")

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]


def _pad_centered(x: np.ndarray, pad_left: int, pad_right: int) -> np.ndarray:
    # reflect padding when the signal is long enough, zeros otherwise
    if len(x) > max(pad_left, pad_right):
        return np.pad(x, (pad_left, pad_right), mode="reflect")
    return np.pad(x, (pad_left, pad_right), mode="constant")


def stft(signal: AudioSignal, params: StftParams) -> ComplexSpectrogram:
    """Short-time Fourier transform with centered frames.

    The signal is padded by window_size // 2 on the left (reflectively when
    possible) and enough on the right that ``1 + ceil(n / hop)`` frames fit.

    Args:
        signal: nonempty mono signal.
        params: validated analysis parameters.

    Returns:
        One-sided spectrogram of shape [window_size // 2 + 1, num_frames].
    """
    x = signal.samples
    n = len(x)
    if n == 0:
        raise ValueError("cannot transform an empty signal")
    win_size, hop = params.window_size, params.hop_size
    num_frames = params.num_frames(n)
    half = win_size // 2
    # last frame starts at (num_frames - 1) * hop in the padded signal
    total = (num_frames - 1) * hop + win_size
    padded = _pad_centered(x, half, total - n - half)
    window = params.window()

    starts = np.arange(num_frames) * hop
    frames = padded[starts[:, None] + np.arange(win_size)[None, :]]
    spec = np.fft.rfft(frames * window, n=win_size, axis=1).T
    return ComplexSpectrogram(spec, params)


def istft(spec: ComplexSpectrogram, length: int, sample_rate: int) -> AudioSignal:
    """Inverse STFT by window-normalized overlap-add.

    Args:
        spec: spectrogram to invert.
        length: number of output samples; must not exceed the synthesizable
            region ``(num_frames - 1) * hop_size``.
        sample_rate: rate recorded on the result (spectrograms do not carry one).

    Returns:
        Waveform of exactly `length` samples.
    """
    params = spec.params
    win_size, hop = params.window_size, params.hop_size
    num_frames = spec.num_frames
    if length <= 0:
        raise ValueError("length must be positive")
    if length > params.max_length(num_frames):
        raise ValueError(f"length {length} exceeds the {params.max_length(num_frames)} samples "
                         f"coverable by {num_frames} frames at hop {hop}")
    window = params.window()
    frames = np.fft.irfft(spec.bins.T, n=win_size, axis=1) * window

    total = (num_frames - 1) * hop + win_size
    out = np.zeros(total)
    weight = np.zeros(total)
    win_sq = window**2
    for f in range(num_frames):
        start = f * hop
        out[start:start + win_size] += frames[f]
        weight[start:start + win_size] += win_sq
    covered = weight > _OLA_EPS
    out[covered] /= weight[covered]

    half = win_size // 2
    return AudioSignal(out[half:half + length], sample_rate)


def compress(spec: ComplexSpectrogram, cp: CompressionParams) -> ComplexSpectrogram:
    """Compress magnitudes as scale * |z|**exponent, preserving phase exactly.

    Phase is preserved by multiplying each coefficient by a positive real
    factor; zero maps to zero.
    """
    mag = np.abs(spec.bins)
    factor = np.zeros_like(mag)
    nz = mag > 0
    factor[nz] = cp.scale * mag[nz] ** (cp.exponent - 1.0)
    return ComplexSpectrogram(spec.bins * factor, spec.params)


def decompress(spec: ComplexSpectrogram, cp: CompressionParams) -> ComplexSpectrogram:
    """Exact inverse of `compress`: |w| -> (|w| / scale)**(1 / exponent)."""
    mag = np.abs(spec.bins)
    factor = np.zeros_like(mag)
    nz = mag > 0
    factor[nz] = (mag[nz] / cp.scale) ** (1.0 / cp.exponent) / mag[nz]
    return ComplexSpectrogram(spec.bins * factor, spec.params)


def pack_features(spec: ComplexSpectrogram) -> FeatureGrid:
    """Stack real and imaginary parts into a [2 * bins, frames] real grid."""
    values = np.concatenate([spec.bins.real, spec.bins.imag], axis=0)
    return FeatureGrid(values)


def unpack_features(grid: FeatureGrid, params: StftParams) -> ComplexSpectrogram:
    """Exact inverse of `pack_features`; `params` must imply the grid's bin count."""
    half = grid.num_channels // 2
    if half != params.num_bins:
        raise ValueError(f"grid implies {half} bins but params imply {params.num_bins}")
    return ComplexSpectrogram(grid.values[:half] + 1j * grid.values[half:], params)


def features_from_audio(signal: AudioSignal, params: StftParams,
                        cp: CompressionParams) -> FeatureGrid:
    """Full analysis pipeline: stft -> compress -> pack."""
    return pack_features(compress(stft(signal, params), cp))


def audio_from_features(grid: FeatureGrid, params: StftParams, cp: CompressionParams,
                        length: int, sample_rate: int) -> AudioSignal:
    """Full synthesis pipeline: unpack -> decompress -> istft."""
    return istft(decompress(unpack_features(grid, params), cp), length, sample_rate)
