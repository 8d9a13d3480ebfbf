"""Objective scores: SI-SDR, improvement, failure rate, log-spectral distance."""

import json

import numpy as np
import pytest

from flowsr import metrics
from flowsr.audio import AudioSignal
from flowsr.metrics import (MetricsReport, UtteranceScores, failure_rate,
                            format_summary, lsd, score_utterance, si_sdr,
                            si_sdr_improvement, write_report)
from flowsr.spectral import StftParams, stft

RATE = 16000


def signal(samples):
    return AudioSignal(np.asarray(samples, dtype=np.float64), RATE)


def noise(n, seed, amp=0.3):
    return signal(np.random.default_rng(seed).uniform(-amp, amp, n))


def test_si_sdr_perfect_match_caps():
    ref = noise(4000, seed=0)
    assert si_sdr(ref, ref) == 100.0


def test_si_sdr_hand_value():
    # projection coefficient 1, signal power 1, error power 1 -> 0 dB
    assert si_sdr(signal([1.0, 1.0]), signal([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_si_sdr_scale_invariance():
    ref = noise(4000, seed=1)
    est = noise(4000, seed=2)
    base = si_sdr(est, ref)
    for alpha in (1e-3, 0.5, 2.0, 1e4):
        scaled = signal(alpha * est.samples)
        assert abs(si_sdr(scaled, ref) - base) < 1e-9


def test_si_sdr_not_invariant_in_reference():
    ref = noise(4000, seed=3)
    est = noise(4000, seed=4)
    shifted = signal(ref.samples + 0.1 * np.roll(ref.samples, 1))
    assert abs(si_sdr(est, ref) - si_sdr(est, shifted)) > 1e-6


def test_si_sdr_validation():
    with pytest.raises(ValueError):
        si_sdr(noise(100, seed=5), noise(101, seed=6))
    with pytest.raises(ValueError):
        si_sdr(noise(100, seed=7), signal(np.zeros(100)))


def test_metrics_refuse_signals_at_different_rates():
    x = np.random.default_rng(16).uniform(-0.3, 0.3, 4000)
    wide, narrow = AudioSignal(x, 16000), AudioSignal(x, 8000)
    for score in (lambda: si_sdr(wide, narrow),
                  lambda: si_sdr_improvement(wide, wide, narrow),
                  lambda: lsd(narrow, wide, StftParams()),
                  lambda: score_utterance("u", wide, wide, narrow, StftParams())):
        with pytest.raises(ValueError, match="16000") as err:
            score()
        assert "8000" in str(err.value)


def test_improvement_identity_and_cap():
    ref = signal([1.0, 0.0])
    degraded = signal([1.0, 1.0])  # sits at exactly 0 dB against ref
    assert si_sdr_improvement(degraded, degraded, ref) == pytest.approx(0.0, abs=1e-12)
    assert si_sdr_improvement(ref, degraded, ref) == pytest.approx(100.0, abs=1e-9)


def test_improvement_antisymmetry():
    ref = noise(2000, seed=8)
    a = noise(2000, seed=9)
    b = signal(ref.samples + 0.05 * a.samples)
    assert si_sdr_improvement(a, b, ref) == pytest.approx(
        -si_sdr_improvement(b, a, ref), abs=1e-9)


def test_failure_rate_examples():
    assert failure_rate([1.0, 2.0, 5.0]) == 0.0
    assert failure_rate([0.5, 2.0]) == 0.5
    assert failure_rate([1.0]) == 0.0  # exactly 1 dB is not a failure
    assert failure_rate([0.999999]) == 1.0
    with pytest.raises(ValueError):
        failure_rate([])


def test_failure_rate_brute_force_and_monotone():
    rng = np.random.default_rng(10)
    for _ in range(200):
        values = rng.uniform(-3.0, 5.0, size=rng.integers(1, 40)).tolist()
        expected = sum(1 for v in values if v < 1.0) / len(values)
        got = failure_rate(values)
        assert got == pytest.approx(expected, abs=1e-15)
        assert 0.0 <= got <= 1.0
        # raising one entry can never increase the rate
        bumped = list(values)
        bumped[0] += 2.0
        assert failure_rate(bumped) <= got


def test_lsd_zero_and_constant_offset():
    params = StftParams()
    ref = noise(16000, seed=11)
    assert lsd(ref, ref, params) == 0.0
    doubled = signal(2.0 * ref.samples)
    assert lsd(doubled, ref, params) == pytest.approx(10.0 * np.log10(2.0), abs=1e-3)


def test_lsd_matches_its_formula_bit_for_bit():
    """Flooring, logs and squares done in place give the textbook value,
    with silent stretches at the floor."""
    params = StftParams()
    est = noise(16000, seed=15)
    ref = signal(np.concatenate([noise(8000, seed=16).samples, np.zeros(8000)]))
    mag_est = np.maximum(np.abs(stft(est, params)), 1e-8)
    mag_ref = np.maximum(np.abs(stft(ref, params)), 1e-8)
    diff = np.log10(mag_est) - np.log10(mag_ref)
    assert lsd(est, ref, params) == float(10.0 * np.sqrt(np.mean(diff ** 2)))


def test_lsd_symmetry_and_validation():
    params = StftParams()
    a = noise(16000, seed=12)
    b = noise(16000, seed=13)
    assert lsd(a, b, params) == pytest.approx(lsd(b, a, params), abs=1e-12)
    with pytest.raises(ValueError):
        lsd(a, noise(15000, seed=14), params)


def test_score_utterance_and_report_aggregation(tmp_path):
    params = StftParams()
    rng = np.random.default_rng(15)
    scores = []
    for i in range(5):
        ref = noise(8000, seed=100 + i)
        degraded = signal(ref.samples + 0.3 * rng.standard_normal(8000))
        estimate = signal(ref.samples + 0.05 * rng.standard_normal(8000))
        scores.append(score_utterance(f"utt{i}", estimate, degraded, ref, params))
    report = MetricsReport.from_scores(scores)
    assert report.count == 5
    assert report.mean_si_sdr == pytest.approx(np.mean([s.si_sdr for s in scores]))
    assert report.mean_si_sdr_improvement == pytest.approx(
        np.mean([s.si_sdr_improvement for s in scores]))
    assert report.mean_lsd == pytest.approx(np.mean([s.lsd for s in scores]))
    assert report.failure_rate == failure_rate(
        [s.si_sdr_improvement for s in scores])
    assert all(s.si_sdr_improvement > 1.0 for s in scores)
    assert report.failure_rate == 0.0

    path = tmp_path / "report.jsonl"
    write_report(report, path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 6
    assert lines[0]["utterance_id"] == "utt0"
    assert lines[-1]["aggregate"] is True
    assert lines[-1]["count"] == 5
    assert lines[-1]["mean_si_sdr"] == pytest.approx(report.mean_si_sdr)

    table = format_summary(report)
    assert "utt3" in table
    assert "failure rate: 0.0%" in table


def test_score_utterance_scores_the_estimate_once(monkeypatch):
    """The estimate's SI-SDR is computed once and serves both scores, which
    equal the direct computations bit for bit."""
    ref = noise(4000, seed=20)
    degraded = signal(ref.samples + noise(4000, seed=21).samples)
    estimate = signal(ref.samples + 0.5 * noise(4000, seed=22).samples)
    calls = []
    monkeypatch.setattr(metrics, "si_sdr", lambda *a: calls.append(a) or si_sdr(*a))
    scores = score_utterance("u", estimate, degraded, ref, StftParams())
    assert len(calls) == 2
    assert scores.si_sdr == si_sdr(estimate, ref)
    assert scores.si_sdr_improvement == si_sdr_improvement(estimate, degraded, ref)


def test_report_rejects_empty():
    with pytest.raises(ValueError):
        MetricsReport.from_scores([])


def test_report_counts_failures():
    scores = [UtteranceScores("a", 5.0, 0.2, 1.0),
              UtteranceScores("b", 9.0, 3.0, 1.0)]
    report = MetricsReport.from_scores(scores)
    assert report.failure_rate == 0.5
