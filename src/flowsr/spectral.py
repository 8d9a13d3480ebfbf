"""Complex STFT analysis/synthesis, magnitude compression, and feature packing.

The flow-matching state space is a real-valued grid built from a one-sided
complex spectrogram: magnitudes are power-law compressed, then real and
imaginary parts are stacked along the channel axis. Features are plain
arrays, and the two pipeline functions are the frontend:
`features_from_audio` (STFT, compression, packing) and
`audio_from_features` (unpacking, decompression, inverse STFT). `stft`
returns, and `istft` takes, the complex [num_bins, num_frames] spectrogram.
Every public function is pure: it reads its arguments and returns new
arrays. `istft(stft(x))` reconstructs `x` to machine precision via
window-normalized overlap-add.

The packed layout is a float64 grid of shape [2 * num_bins, num_frames]:
channels 0..num_bins-1 hold the real parts of the compressed bins and
channels num_bins..2*num_bins-1 their imaginary parts. A grid carries
neither its `StftParams` nor a sample rate; synthesis takes both from the
caller, and `audio_from_features` refuses a grid whose channel count is not
``2 * params.num_bins``, as `istft` refuses a spectrogram whose row count is
not ``params.num_bins``.

Inside, the transforms work in place on the arrays they made themselves,
and analysis mirrors synthesis: `stft` windows a strided view of the padded
signal's frames in one product and `features_from_audio` compresses
`stft`'s spectrum in place before packing it; `istft` windows the inverse
transform's frames, overlap-adds them one hop offset at a time and frees
them before normalising, and `audio_from_features` unpacks the grid into
one new buffer and decompresses it in place. The spectrograms made here
are stored frames-major, so each frame is one contiguous run for the FFT.

One overlap-add, `_overlap_add`, sums both `istft`'s frames and the window
weight it divides by; `StftParams` checks reconstruction on that same
weight, so the condition it refuses is the division `istft` performs.

The periodic Hann window is ``0.5 + 0.5 cos(linspace(-pi, pi, n + 1))``
without its last point, and ``[1.0]`` at size 1: `scipy.signal.get_window`'s
own arithmetic, so the window is bit-identical to scipy's.

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
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioSignal

# Overlap-add weight below this is treated as uncovered.
_OLA_EPS = 1e-10


@dataclasses.dataclass
class StftParams:
    """Analysis/synthesis parameters for the STFT, with a periodic Hann
    window.

    The window/hop pair must admit perfect reconstruction: the squared
    analysis window, overlap-added at the hop, must be bounded away from
    zero over one hop period of the steady-state region. That period is the
    row ``offsets - 1`` (``offsets = ceil(window / hop)``, the first row
    every offset reaches) of `_overlap_add` over ``offsets`` frames of
    ``window**2``: the weight `istft` divides by, summed the same way.
    """

    window_size: int = 510
    hop_size: int = 128

    def __post_init__(self):
        if self.hop_size <= 0 or self.window_size <= 0:
            raise ValueError("window_size and hop_size must be positive")
        if self.hop_size > self.window_size:
            raise ValueError(f"hop_size {self.hop_size} exceeds window_size {self.window_size}")
        offsets = -(-self.window_size // self.hop_size)
        weight = _overlap_add(np.broadcast_to(self.window() ** 2, (offsets, self.window_size)),
                              self.hop_size).reshape(-1, self.hop_size)[offsets - 1]
        if weight.min() < 1e-6:
            raise ValueError(
                f"Hann window {self.window_size} at hop {self.hop_size} does not satisfy "
                f"the overlap-add reconstruction condition (min weight {weight.min():.2e})")

    def window(self) -> np.ndarray:
        """The periodic Hann window (see the module docstring)."""
        n = self.window_size
        if n == 1:
            return np.ones(1)
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])

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
class CompressionParams:
    """Power-law magnitude compression |z| -> scale * |z|**exponent."""

    exponent: float = 0.5
    scale: float = 0.33

    def __post_init__(self):
        for name in ("exponent", "scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"compression {name} must be positive and finite, "
                                 f"got {value}")


def _pad_centered(x: np.ndarray, pad_left: int, pad_right: int) -> np.ndarray:
    # reflect padding when the signal is long enough, zeros otherwise
    if len(x) > max(pad_left, pad_right):
        return np.pad(x, (pad_left, pad_right), mode="reflect")
    return np.pad(x, (pad_left, pad_right), mode="constant")


def stft(signal: AudioSignal, params: StftParams) -> np.ndarray:
    """Short-time Fourier transform with centered frames.

    The signal is padded by window_size // 2 on the left (reflectively when
    possible) and enough on the right that ``1 + ceil(n / hop)`` frames fit.
    The frames are every hop-th row of a strided window view of the padded
    signal; windowing them is the one product that copies them, into the
    C-ordered array the FFT reads.

    Args:
        signal: nonempty mono signal.
        params: validated analysis parameters.

    Returns:
        One-sided complex spectrogram of shape [num_bins, num_frames],
        stored frames-major.
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
    frames = sliding_window_view(padded, win_size)[::hop] * params.window()
    return np.fft.rfft(frames, n=win_size, axis=1).T


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum `frames` [num_frames, window] at hop spacing into one signal.

    The result, of ``(num_frames + offsets - 1) * hop`` samples with
    ``offsets = ceil(window / hop)``, is viewed as rows of one hop; hop
    offset j of every frame is added to the rows j frame starts later, in
    one slice add per offset. The offsets are taken from last to first, so
    every sample adds its frames in ascending frame order, as a loop over
    frames would, and the sum is bit-identical to that loop.
    """
    num_frames, win_size = frames.shape
    offsets = -(-win_size // hop)
    out = np.zeros((num_frames + offsets - 1) * hop)
    rows = out.reshape(-1, hop)
    for j in reversed(range(offsets)):
        chunk = frames[:, j * hop:(j + 1) * hop]
        rows[j:j + num_frames, :chunk.shape[1]] += chunk
    return out


def istft(bins: np.ndarray, params: StftParams, length: int,
          sample_rate: int) -> AudioSignal:
    """Inverse STFT by window-normalized overlap-add.

    The inverse transform's frames are windowed in place, overlap-added one
    hop offset at a time (`_overlap_add`) and freed before the
    normalisation by the window weight, which is summed the same way.
    A frames-major spectrogram (as `stft` and `audio_from_features` make)
    is transformed without a copy.

    Args:
        bins: one-sided complex spectrogram, [params.num_bins, num_frames].
        params: the analysis parameters that made `bins`.
        length: number of output samples; must not exceed the synthesizable
            region ``(num_frames - 1) * hop_size``.
        sample_rate: rate recorded on the result (spectrograms do not carry one).

    Returns:
        Waveform of exactly `length` samples.
    """
    if bins.ndim != 2 or bins.shape[0] != params.num_bins:
        raise ValueError(f"spectrogram of shape {bins.shape} is not "
                         f"({params.num_bins}, frames)")
    win_size, hop = params.window_size, params.hop_size
    num_frames = bins.shape[1]
    if length <= 0:
        raise ValueError("length must be positive")
    if length > params.max_length(num_frames):
        raise ValueError(f"length {length} exceeds the {params.max_length(num_frames)} samples "
                         f"coverable by {num_frames} frames at hop {hop}")
    window = params.window()
    frames = np.fft.irfft(bins.T, n=win_size, axis=1)
    frames *= window
    out = _overlap_add(frames, hop)
    del frames
    weight = _overlap_add(np.broadcast_to(window**2, (num_frames, win_size)), hop)
    covered = weight > _OLA_EPS
    out[covered] /= weight[covered]

    half = win_size // 2
    return AudioSignal(out[half:half + length], sample_rate)


def _compress_in_place(bins: np.ndarray, cp: CompressionParams) -> None:
    """Compress the magnitudes of a complex array the caller owns as
    scale * |z|**exponent, overwriting it and preserving phase exactly.

    Each coefficient is multiplied by the positive real factor
    scale * |z|**(exponent - 1), and zero stays zero."""
    mag = np.abs(bins)
    with np.errstate(divide="ignore"):
        mag **= cp.exponent - 1.0  # 0 ** negative is inf, set back to 0 below
    mag *= cp.scale
    mag[bins == 0] = 0.0
    bins *= mag


def _decompress_in_place(bins: np.ndarray, cp: CompressionParams) -> None:
    """Exact inverse of `_compress_in_place`, |w| -> (|w| / scale)**(1 / exponent),
    on a complex array the caller owns, overwriting it.

    Each coefficient is multiplied by (|w| / scale)**(1 / exponent) / |w|,
    and zero stays zero."""
    mag = np.abs(bins)
    factor = mag / cp.scale
    factor **= 1.0 / cp.exponent
    with np.errstate(invalid="ignore"):
        factor /= mag  # 0 / 0 where a bin is zero, set back to 0 below
    factor[mag == 0] = 0.0
    bins *= factor


def features_from_audio(signal: AudioSignal, params: StftParams,
                        cp: CompressionParams) -> np.ndarray:
    """Full analysis pipeline: STFT, magnitude compression, packing.

    Returns the float64 [2 * num_bins, num_frames] feature grid (see the
    module docstring for its layout). `stft`'s own spectrum is compressed
    in place and then packed, so beyond the grid, analysis holds the
    spectrum and its magnitudes.
    """
    bins = stft(signal, params)
    _compress_in_place(bins, cp)
    return np.concatenate([bins.real, bins.imag], axis=0)


def audio_from_features(values: np.ndarray, params: StftParams, cp: CompressionParams,
                        length: int, sample_rate: int) -> AudioSignal:
    """Full synthesis pipeline: unpacking, decompression, inverse STFT.

    `values` is a [2 * num_bins, num_frames] feature grid made at `params`
    (see the module docstring for its layout). One complex buffer is made:
    the grid is unpacked into it frames-major, it is decompressed in place,
    and `istft` reads it without a copy. So beyond the grid, synthesis holds
    that buffer and the inverse transform's frames (about 14.7 MiB at 1501
    frames and the default frontend).
    """
    half = params.num_bins
    if values.ndim != 2 or values.shape[0] != 2 * half:
        raise ValueError(f"feature grid of shape {values.shape} is not "
                         f"({2 * half}, frames): params imply {half} bins")
    bins = np.empty((values.shape[1], half), dtype=np.complex128).T
    bins.real = values[:half]
    bins.imag = values[half:]
    _decompress_in_place(bins, cp)
    return istft(bins, params, length, sample_rate)
