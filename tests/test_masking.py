"""Span masking and condition dropout for pretraining."""

import numpy as np
import pytest

from flowsr.masking import apply_mask, maybe_drop_condition, sample_mask


def span_lengths(flags):
    """Lengths of maximal masked runs, computed independently of the sampler."""
    padded = np.concatenate([[False], flags, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return edges[1::2] - edges[0::2]


def test_mask_extreme_ratios():
    rng = np.random.default_rng(0)
    full = sample_mask(200, 1.0, 10, rng)
    assert full.dtype == bool and full.shape == (200,)
    assert np.all(full)
    assert not np.any(sample_mask(200, 0.0, 10, rng))


def test_mask_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        sample_mask(0, 0.5, 10, rng)
    with pytest.raises(ValueError):
        sample_mask(100, 1.5, 10, rng)
    with pytest.raises(ValueError):
        sample_mask(100, 0.5, 0, rng)


def test_mask_determinism():
    a = sample_mask(500, 0.7, 10, np.random.default_rng(99))
    b = sample_mask(500, 0.7, 10, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_mask_span_and_ratio_statistics():
    """10^4 masks at L=1000: mean fraction near 0.7, no span below 10."""
    rng = np.random.default_rng(2)
    fractions = np.empty(10**4)
    for i in range(10**4):
        mask = sample_mask(1000, 0.7, 10, rng)
        fractions[i] = mask.mean()
        lengths = span_lengths(mask)
        assert lengths.min() >= 10
    assert 0.68 <= fractions.mean() <= 0.72


def test_mask_short_sequence_degenerate_case():
    rng = np.random.default_rng(3)
    mask = sample_mask(6, 0.5, 10, rng)  # L < min_span
    assert mask.sum() == 3


def test_mask_covers_various_lengths():
    rng = np.random.default_rng(4)
    for L in (10, 11, 25, 64, 126, 999):
        for _ in range(20):
            mask = sample_mask(L, 0.7, 10, rng)
            lengths = span_lengths(mask)
            assert lengths.min() >= 10
            # masked count within one max-length span of the target
            target = round(0.7 * L)
            assert target <= mask.sum() <= min(L, target + 20)


def test_apply_mask_zeroes_exactly_the_masked_columns():
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((8, 30))
    mask = sample_mask(30, 0.5, 10, rng)
    cond = apply_mask(grid, mask)
    assert np.all(cond[:, mask] == 0.0)
    keep = ~mask
    assert np.array_equal(cond[:, keep], grid[:, keep])


def test_apply_mask_explicit_span():
    grid = np.ones((4, 40))
    flags = np.zeros(40, dtype=bool)
    flags[10:20] = True
    cond = apply_mask(grid, flags)
    assert np.all(cond[:, 10:20] == 0.0)
    assert np.all(cond[:, :10] == 1.0)
    assert np.all(cond[:, 20:] == 1.0)


def test_apply_mask_all_and_none():
    grid = np.random.default_rng(7).standard_normal((6, 25))
    rng = np.random.default_rng(8)
    all_mask = sample_mask(25, 1.0, 10, rng)
    assert np.all(apply_mask(grid, all_mask) == 0.0)
    no_mask = sample_mask(25, 0.0, 10, rng)
    assert np.array_equal(apply_mask(grid, no_mask), grid)


def test_apply_mask_length_mismatch():
    grid = np.zeros((4, 20))
    mask = sample_mask(30, 0.5, 10, np.random.default_rng(9))
    with pytest.raises(ValueError, match="20 frames"):
        apply_mask(grid, mask)
    with pytest.raises(ValueError, match="20 frames"):
        apply_mask(grid, np.zeros((1, 20), dtype=bool))


def test_dropout_extremes():
    grid = np.random.default_rng(10).standard_normal((4, 9))
    rng = np.random.default_rng(11)
    for _ in range(50):
        assert maybe_drop_condition(grid, 0.0, rng) is grid
    for _ in range(50):
        dropped = maybe_drop_condition(grid, 1.0, rng)
        assert dropped.shape == (4, 9)
        assert np.all(dropped == 0.0)
    assert np.all(grid != 0.0)  # the input grid is never zeroed


def test_dropout_rate():
    """Empirical drop rate over 10^4 draws stays near 10%."""
    grid = np.random.default_rng(12).standard_normal((4, 9))
    rng = np.random.default_rng(13)
    drops = sum(not np.any(maybe_drop_condition(grid, 0.1, rng))
                for _ in range(10**4))
    assert 0.09 <= drops / 10**4 <= 0.11
