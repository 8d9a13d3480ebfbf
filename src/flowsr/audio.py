"""Mono audio container and 16-bit PCM WAV file I/O (stdlib `wave`)."""

import dataclasses
import os
import wave

import numpy as np

PCM16_SCALE = 32767.0


@dataclasses.dataclass
class AudioSignal:
    """A mono waveform with its sample rate.

    Samples are stored as float64 with nominal range [-1, 1]. NaN/Inf
    samples and non-positive rates are rejected on construction.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain NaN or Inf")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def read_wav(path) -> AudioSignal:
    """Read a mono 16-bit PCM WAV file.

    Arbitrary sample rates are accepted and recorded on the returned
    signal. Multi-channel files, other sample widths and formats that the
    stdlib `wave` does not read as PCM (float, and WAVE_FORMAT_EXTENSIBLE
    before Python 3.12) are rejected as ValueErrors, as is a file whose
    data ends mid-sample or holds fewer samples than its header declares
    (a file cut short, or a streaming writer's placeholder size).
    """
    try:
        with wave.open(os.fspath(path), "rb") as fh:
            channels, width = fh.getnchannels(), fh.getsampwidth()
            if channels != 1:
                raise ValueError(f"{path}: expected mono audio, got {channels} channels")
            if width != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * width}-bit samples")
            declared = fh.getnframes()
            rate, frames = fh.getframerate(), fh.readframes(declared)
            if len(frames) % width:
                raise wave.Error("its data ends mid-sample")
            if len(frames) < width * declared:
                raise ValueError(f"{path}: its header declares {declared} samples, "
                                 f"but its data holds {len(frames) // width}")
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: expected a 16-bit PCM WAV file "
                         f"({str(exc) or 'it ends early'})") from None
    return AudioSignal(np.frombuffer(frames, dtype="<i2") / PCM16_SCALE, rate)


def write_wav(path, signal: AudioSignal) -> int:
    """Write a signal as mono 16-bit PCM. Samples are clipped to [-1, 1];
    returns the number of samples that were outside it."""
    clipped = np.clip(signal.samples, -1.0, 1.0)
    pcm = np.round(clipped * PCM16_SCALE).astype("<i2")
    with wave.open(os.fspath(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(signal.sample_rate)
        fh.writeframes(pcm.tobytes())
    return int(np.count_nonzero(clipped != signal.samples))
