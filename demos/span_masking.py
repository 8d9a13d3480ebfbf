"""Span masking over condition frames, drawn and visualized.

Pretraining hides a fraction of the clean-feature frames in contiguous spans
and asks the model to reconstruct the whole utterance; a small fraction of
batches drop the condition entirely. A mask is a boolean frame array and a
condition is a plain feature grid; a dropped condition is the all-zero grid.
"""

import numpy as np

from flowsr.masking import apply_mask, maybe_drop_condition, sample_mask

rng = np.random.default_rng(3)

L = 120
mask = sample_mask(L, ratio=0.7, min_span=10, rng=rng)
row = "".join("#" if f else "." for f in mask)
print(f"one mask over {L} frames (# = hidden), ratio 0.7, min span 10:")
for i in range(0, L, 60):
    print("  " + row[i:i + 60])
print(f"  covered {mask.mean():.2%} of frames")

# the hidden frames really are zeroed in the condition the model sees
features = rng.standard_normal((8, L))
cond = apply_mask(features, mask)
zeroed = np.flatnonzero(~np.any(cond != 0.0, axis=0))
print(f"condition zeroed on {zeroed.size} frames; matches mask: "
      f"{np.array_equal(zeroed, np.flatnonzero(mask))}")

# long-run statistics
fractions = []
shortest = np.inf
for _ in range(2000):
    s = sample_mask(1000, 0.7, 10, rng)
    fractions.append(s.mean())
    flags = np.concatenate([[0], s.astype(int), [0]])
    edges = np.flatnonzero(np.diff(flags))
    spans = edges[1::2] - edges[0::2]
    shortest = min(shortest, spans.min())
print(f"\n2000 masks at L=1000: mean fraction {np.mean(fractions):.4f}, "
      f"shortest span ever drawn: {int(shortest)}")

nulls = sum(not np.any(maybe_drop_condition(cond, 0.1, rng))
            for _ in range(5000))
print(f"condition dropout at p=0.1: {nulls}/5000 = {nulls / 5000:.3f} null draws")
