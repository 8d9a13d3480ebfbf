"""Optimal-transport conditional probability path and the flow-matching loss.

The path from the standard-normal prior to a data point ``x1`` interpolates
with mean ``t * x1`` and standard deviation ``1 - (1 - SIGMA_MIN) * t``. Its
conditional vector field has the closed form

    v(x, t | x1) = (x1 - (1 - SIGMA_MIN) * x) / (1 - (1 - SIGMA_MIN) * t)

and, evaluated on the path ``psi_t(x0) = sigma_t * x0 + t * x1``, collapses to
the constant regression target ``x1 - (1 - SIGMA_MIN) * x0``. The path
functions operate elementwise on arrays of any shape. `SIGMA_MIN` is the
path's one residual width: training and the gates use no other, and with
t in [0, 1] the field's denominator is at least SIGMA_MIN.

`cfm_loss` is the training objective: on a [batch, channels, frames] batch
it is the mean over items of each item's squared error against the target,
averaged over the item's loss frames. It has one formula: pretraining may
pass its span masks as the loss frames, and without a mask every frame is
one. It returns the loss with its gradient, the seed of
`vectorfield.backward`.
"""

import dataclasses

import numpy as np

SIGMA_MIN = 1e-4  # standard deviation of the path at t = 1


@dataclasses.dataclass
class TrainingTuple:
    """One flow-matching training sample: (t, x0, x_t, regression target)."""

    t: float
    x0: np.ndarray
    x_t: np.ndarray
    target: np.ndarray


def _check_time(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must lie in [0, 1], got {t}")


def sigma_t(t: float) -> float:
    """Path standard deviation 1 - (1 - SIGMA_MIN) * t."""
    _check_time(t)
    return 1.0 - (1.0 - SIGMA_MIN) * t


def mu_t(t: float, x1: np.ndarray) -> np.ndarray:
    """Path mean t * x1."""
    _check_time(t)
    return t * np.asarray(x1, dtype=np.float64)


def psi_t(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Point on the conditional path: sigma_t(t) * x0 + t * x1."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"shape mismatch: x0 {x0.shape} vs x1 {x1.shape}")
    return sigma_t(t) * x0 + mu_t(t, x1)


def target_vector_field(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Regression target x1 - (1 - SIGMA_MIN) * x0; the time derivative of psi_t."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"shape mismatch: x0 {x0.shape} vs x1 {x1.shape}")
    return x1 - (1.0 - SIGMA_MIN) * x0


def conditional_vector_field(x: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Closed-form conditional field (x1 - (1 - SIGMA_MIN) x) / (1 - (1 - SIGMA_MIN) t).

    On-path evaluation at x = psi_t(x0, x1, t) equals target_vector_field(x0, x1)
    up to rounding.
    """
    _check_time(t)
    x = np.asarray(x, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x.shape != x1.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs x1 {x1.shape}")
    return (x1 - (1.0 - SIGMA_MIN) * x) / (1.0 - (1.0 - SIGMA_MIN) * t)


def cfm_loss(predicted: np.ndarray, target: np.ndarray,
             frame_mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Flow-matching loss of a batch and its gradient.

    `predicted` and `target` are [batch, channels, frames] fields. The loss
    is the mean over items of each item's squared error averaged over its
    loss frames: the True frames of `frame_mask` ([batch, frames] booleans),
    which restricts the objective to reconstructed regions, or every frame
    when no mask is given (an all-True mask, through the same arithmetic).
    An item with no loss frame adds 0 but still counts in the mean over
    items.

    Returns (loss, dpred), where dpred is the gradient of the loss with
    respect to `predicted`, shaped like it.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape or predicted.ndim != 3:
        raise ValueError(f"expected [batch, channels, frames] fields of one shape, "
                         f"got predicted {predicted.shape} vs target {target.shape}")
    batch, channels, frames = predicted.shape
    frame_mask = (np.ones((batch, frames), dtype=bool) if frame_mask is None
                  else np.asarray(frame_mask, dtype=bool))
    if frame_mask.shape != (batch, frames):
        raise ValueError(f"frame_mask shape {frame_mask.shape} does not match "
                         f"{(batch, frames)}")
    diff = predicted - target
    fm = frame_mask.astype(np.float64)
    denom = np.maximum(fm.sum(axis=1) * channels, 1.0)  # masked elements per item
    weighted = diff * fm[:, None, :]
    loss = float(((weighted * diff).sum(axis=(1, 2)) / denom).sum()) / batch
    return loss, 2.0 * weighted / denom[:, None, None] / batch


def sample_training_tuple(x1: np.ndarray, rng: np.random.Generator) -> TrainingTuple:
    """Draw (t, x0) and assemble one training tuple.

    Draw order is fixed (t first, then x0) so identical generator states give
    identical tuples: t ~ U(0, 1), x0 ~ N(0, I). `x1` is not scanned for
    NaN or Inf; `forward_batch` checks the `x_t` built from it.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    t = float(rng.random())
    x0 = rng.standard_normal(x1.shape)
    return TrainingTuple(
        t=t,
        x0=x0,
        x_t=psi_t(x0, x1, t),
        target=target_vector_field(x0, x1),
    )
