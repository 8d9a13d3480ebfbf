"""Objective evaluation: SI-SDR, SI-SDR improvement, failure rate, and LSD.

Scores for numerically perfect matches are capped at +100 dB (and floored at
-100 dB for degenerate projections) so corpus aggregates stay finite.
"""

import dataclasses
import json

import numpy as np

from .audio import AudioSignal
from .spectral import StftParams, stft

SI_SDR_CAP_DB = 100.0
_LOG_FLOOR = 1e-8


def _check_comparable(a: AudioSignal, b: AudioSignal) -> None:
    if a.sample_rate != b.sample_rate:
        raise ValueError(f"sample-rate mismatch: {a.sample_rate} vs "
                         f"{b.sample_rate} Hz")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)} samples")


def si_sdr(estimate: AudioSignal, reference: AudioSignal) -> float:
    """Scale-invariant signal-to-distortion ratio of `estimate` against `reference`.

    The estimate is projected onto the reference (alpha = <est, ref> / ||ref||^2)
    and the ratio of projected-signal power to residual power is returned in dB.
    Invariant to rescaling the estimate; not invariant in the reference.
    """
    _check_comparable(estimate, reference)
    ref = reference.samples
    est = estimate.samples
    ref_power = float(np.dot(ref, ref))
    if ref_power <= 0.0:
        raise ValueError("reference signal has zero energy")
    alpha = float(np.dot(est, ref)) / ref_power
    target = alpha * ref
    err_power = float(np.sum((target - est) ** 2))
    target_power = float(np.sum(target**2))
    if err_power <= target_power * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
        return SI_SDR_CAP_DB
    if target_power <= err_power * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
        return -SI_SDR_CAP_DB
    return float(10.0 * np.log10(target_power / err_power))


def si_sdr_improvement(estimate: AudioSignal, degraded: AudioSignal,
                       reference: AudioSignal) -> float:
    """SI-SDR gain of the estimate over the unprocessed degraded signal."""
    return si_sdr(estimate, reference) - si_sdr(degraded, reference)


def failure_rate(improvements, threshold_db: float = 1.0) -> float:
    """Fraction of improvements strictly below `threshold_db` (default 1 dB)."""
    values = np.asarray(list(improvements), dtype=np.float64)
    if values.size == 0:
        raise ValueError("improvements list is empty")
    return float(np.count_nonzero(values < threshold_db) / values.size)


def lsd(estimate: AudioSignal, reference: AudioSignal, stft_params: StftParams) -> float:
    """Log-spectral distance in dB: 10 x RMS of the log10-magnitude difference.

    Magnitudes below 1e-8 are floored before the log so silent frames do not
    dominate. Symmetric in its audio arguments.
    """
    _check_comparable(estimate, reference)
    diff = _log_magnitude(estimate, stft_params)
    diff -= _log_magnitude(reference, stft_params)
    diff *= diff
    return float(10.0 * np.sqrt(np.mean(diff)))


def _log_magnitude(signal: AudioSignal, stft_params: StftParams) -> np.ndarray:
    """log10 of the floored STFT magnitudes, computed in one new array."""
    mag = np.abs(stft(signal, stft_params))
    np.maximum(mag, _LOG_FLOOR, out=mag)
    return np.log10(mag, out=mag)


@dataclasses.dataclass
class UtteranceScores:
    utterance_id: str
    si_sdr: float
    si_sdr_improvement: float
    lsd: float


@dataclasses.dataclass
class MetricsReport:
    """Per-utterance scores plus arithmetic-mean aggregates."""

    per_utterance: list
    mean_si_sdr: float
    mean_si_sdr_improvement: float
    mean_lsd: float
    failure_rate: float
    count: int

    @classmethod
    def from_scores(cls, scores) -> "MetricsReport":
        scores = list(scores)
        if not scores:
            raise ValueError("no utterance scores to aggregate")
        improvements = [s.si_sdr_improvement for s in scores]
        return cls(
            per_utterance=scores,
            mean_si_sdr=float(np.mean([s.si_sdr for s in scores])),
            mean_si_sdr_improvement=float(np.mean(improvements)),
            mean_lsd=float(np.mean([s.lsd for s in scores])),
            failure_rate=failure_rate(improvements),
            count=len(scores),
        )


def score_utterance(utterance_id: str, estimate: AudioSignal, degraded: AudioSignal,
                    reference: AudioSignal, stft_params: StftParams) -> UtteranceScores:
    score = si_sdr(estimate, reference)
    return UtteranceScores(
        utterance_id=utterance_id,
        si_sdr=score,
        si_sdr_improvement=score - si_sdr(degraded, reference),
        lsd=lsd(estimate, reference, stft_params),
    )


def write_report(report: MetricsReport, path) -> None:
    """Write one JSON record per utterance followed by an aggregate record."""
    with open(path, "w") as fh:
        for s in report.per_utterance:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
        fh.write(json.dumps({
            "aggregate": True,
            "count": report.count,
            "mean_si_sdr": report.mean_si_sdr,
            "mean_si_sdr_improvement": report.mean_si_sdr_improvement,
            "mean_lsd": report.mean_lsd,
            "failure_rate": report.failure_rate,
        }) + "\n")


def format_summary(report: MetricsReport) -> str:
    """Human-readable summary table."""
    lines = [
        f"{'utterance':<24}{'SI-SDR':>10}{'SI-SDRi':>10}{'LSD':>10}",
        "-" * 54,
    ]
    for s in report.per_utterance:
        lines.append(f"{s.utterance_id:<24}{s.si_sdr:>10.2f}"
                     f"{s.si_sdr_improvement:>10.2f}{s.lsd:>10.2f}")
    lines.append("-" * 54)
    lines.append(f"{'mean (' + str(report.count) + ')':<24}{report.mean_si_sdr:>10.2f}"
                 f"{report.mean_si_sdr_improvement:>10.2f}{report.mean_lsd:>10.2f}")
    lines.append(f"failure rate: {100.0 * report.failure_rate:.1f}%")
    return "\n".join(lines)
