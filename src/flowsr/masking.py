"""Span-based frame masking and condition dropout for pretraining.

Masked conditions are built by zeroing a target fraction of frames in
contiguous spans of at least `min_span` frames. Span placement: lengths are
drawn uniformly from [min_span, 2 * min_span] and placed at starts chosen
uniformly among the positions where the span fits in still-unmasked frames;
when no such position exists, a whole unmasked gap adjoining an existing
masked run is filled (merging runs keeps every run at least min_span long).
Placement stops as soon as the masked count reaches the target, so the final
fraction may overshoot by at most one span.

A mask is a 1-D boolean frame array (True = masked), and a condition is a
plain [channels, frames] feature array: a dropped (unconditional) condition
is the all-zero array of the same shape, the input the model sees for "no
condition".
"""

import numpy as np


def _gap_runs(flags: np.ndarray):
    """(start, length) of maximal unmasked runs."""
    free = (~flags).astype(np.int8)
    edges = np.diff(np.concatenate([[0], free, [0]]))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def sample_mask(num_frames: int, ratio: float, min_span: int,
                rng: np.random.Generator) -> np.ndarray:
    """Sample a span mask covering close to `ratio` of `num_frames` frames.

    Returns a boolean array of `num_frames` flags, True where masked.
    Every maximal masked run has length >= min_span, except in the degenerate
    case num_frames < min_span where a single shorter leading span is used.
    Deterministic for a given generator state.
    """
    if num_frames <= 0:
        raise ValueError("num_frames must be positive")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    if min_span < 1:
        raise ValueError(f"min_span must be >= 1, got {min_span}")

    flags = np.zeros(num_frames, dtype=bool)
    target = int(round(ratio * num_frames))
    if target == 0:
        return flags
    if num_frames < min_span:
        flags[:target] = True
        return flags

    masked = 0
    while masked < target:
        span = int(rng.integers(min_span, 2 * min_span + 1))
        span = min(span, num_frames)
        free = (~flags).astype(np.int64)
        window = np.cumsum(np.concatenate([[0], free]))
        fits = window[span:] - window[:-span] == span
        starts = np.flatnonzero(fits)
        if len(starts) > 0:
            start = int(starts[rng.integers(len(starts))])
            flags[start:start + span] = True
            masked += span
            continue
        # No room for a fresh span: fill a whole gap. Gaps adjoining a masked
        # run merge into it; isolated gaps must be long enough on their own.
        gaps = [(s, n) for s, n in _gap_runs(flags)
                if n >= min_span or s > 0 or s + n < num_frames]
        if not gaps:
            break
        start, n = gaps[rng.integers(len(gaps))]
        flags[start:start + n] = True
        masked += n
    return flags


def apply_mask(clean: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the masked frames of `clean` in a new array; unmasked frames are
    copied bit-exactly."""
    flags = np.asarray(mask, dtype=bool)
    if flags.shape != (clean.shape[1],):
        raise ValueError(f"mask of shape {flags.shape} does not cover the "
                         f"grid's {clean.shape[1]} frames")
    values = clean.copy()
    values[:, flags] = 0.0
    return values


def maybe_drop_condition(cond: np.ndarray, p: float,
                         rng: np.random.Generator) -> np.ndarray:
    """With probability `p`, replace the condition by the all-zero grid."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"drop probability must lie in [0, 1], got {p}")
    if rng.random() < p:
        return np.zeros_like(cond)
    return cond
