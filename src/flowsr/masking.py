"""Span-based frame masking and condition dropout for pretraining.

Masked conditions are built by zeroing a target fraction of frames in
contiguous spans of at least `min_span` frames. Span placement: lengths are
drawn uniformly from [min_span, 2 * min_span] and placed at starts chosen
uniformly among the positions where the span fits in still-unmasked frames;
when no such position exists, a whole unmasked gap adjoining an existing
masked run is filled (merging runs keeps every run at least min_span long).
Placement stops as soon as the masked count reaches the target, so the final
fraction may overshoot by at most one span.
"""

import dataclasses

import numpy as np

from .spectral import FeatureGrid


@dataclasses.dataclass
class MaskSpec:
    """Boolean per-frame mask (True = masked)."""

    frame_flags: np.ndarray

    def __post_init__(self):
        self.frame_flags = np.asarray(self.frame_flags, dtype=bool)
        if self.frame_flags.ndim != 1:
            raise ValueError("frame_flags must be 1-D")

    @property
    def num_frames(self) -> int:
        return len(self.frame_flags)


@dataclasses.dataclass
class ConditionInput:
    """Conditioning features plus a flag marking the unconditional case."""

    features: FeatureGrid
    is_null: bool = False

    def __post_init__(self):
        if self.is_null and np.any(self.features.values != 0.0):
            raise ValueError("null condition must carry all-zero features")


def null_condition(num_channels: int, num_frames: int) -> ConditionInput:
    """All-zero condition with the unconditional flag set."""
    return ConditionInput(FeatureGrid(np.zeros((num_channels, num_frames))), is_null=True)


def _gap_runs(flags: np.ndarray):
    """(start, length) of maximal unmasked runs."""
    free = (~flags).astype(np.int8)
    edges = np.diff(np.concatenate([[0], free, [0]]))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def sample_mask(num_frames: int, ratio: float, min_span: int,
                rng: np.random.Generator) -> MaskSpec:
    """Sample a span mask covering close to `ratio` of `num_frames` frames.

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
        return MaskSpec(flags)
    if num_frames < min_span:
        flags[:target] = True
        return MaskSpec(flags)

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
    return MaskSpec(flags)


def apply_mask(clean: FeatureGrid, mask: MaskSpec) -> ConditionInput:
    """Zero the masked frames of `clean`; unmasked frames are copied bit-exactly."""
    if mask.num_frames != clean.num_frames:
        raise ValueError(f"mask covers {mask.num_frames} frames, "
                         f"grid has {clean.num_frames}")
    values = clean.values.copy()
    values[:, mask.frame_flags] = 0.0
    return ConditionInput(FeatureGrid(values), is_null=False)


def maybe_drop_condition(cond: ConditionInput, p: float,
                         rng: np.random.Generator) -> ConditionInput:
    """With probability `p`, replace the condition by the null condition."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"drop probability must lie in [0, 1], got {p}")
    if rng.random() < p:
        grid = cond.features
        return null_condition(grid.num_channels, grid.num_frames)
    return cond
