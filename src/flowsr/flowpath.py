"""Optimal-transport conditional probability path and the flow-matching loss.

The path from the standard-normal prior to a data point ``x1`` interpolates
with mean ``t * x1`` and standard deviation ``1 - (1 - sigma_min) * t``. Its
conditional vector field has the closed form

    v(x, t | x1) = (x1 - (1 - sigma_min) * x) / (1 - (1 - sigma_min) * t)

and, evaluated on the path ``psi_t(x0) = sigma_t * x0 + t * x1``, collapses to
the constant regression target ``x1 - (1 - sigma_min) * x0``. All functions
operate elementwise on arrays of any shape.
"""

import dataclasses

import numpy as np

# Denominators of the conditional field below this are refused outright; the
# Euler sampler never evaluates t = 1, so this only guards misuse.
DENOM_EPS = 1e-8


class FlowSingularityError(ValueError):
    """Conditional vector field evaluated too close to t = 1 with sigma_min ~ 0."""


@dataclasses.dataclass
class FlowPathConfig:
    sigma_min: float = 1e-4

    def __post_init__(self):
        if not 0.0 <= self.sigma_min < 1.0:
            raise ValueError(f"sigma_min must lie in [0, 1), got {self.sigma_min}")


@dataclasses.dataclass
class TrainingTuple:
    """One flow-matching training sample: (t, x0, x1, x_t, regression target)."""

    t: float
    x0: np.ndarray
    x1: np.ndarray
    x_t: np.ndarray
    target: np.ndarray


def _check_time(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must lie in [0, 1], got {t}")


def sigma_t(t: float, cfg: FlowPathConfig) -> float:
    """Path standard deviation 1 - (1 - sigma_min) * t."""
    _check_time(t)
    return 1.0 - (1.0 - cfg.sigma_min) * t


def mu_t(t: float, x1: np.ndarray) -> np.ndarray:
    """Path mean t * x1."""
    _check_time(t)
    return t * np.asarray(x1, dtype=np.float64)


def psi_t(x0: np.ndarray, x1: np.ndarray, t: float, cfg: FlowPathConfig) -> np.ndarray:
    """Point on the conditional path: sigma_t(t) * x0 + t * x1."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"shape mismatch: x0 {x0.shape} vs x1 {x1.shape}")
    return sigma_t(t, cfg) * x0 + mu_t(t, x1)


def target_vector_field(x0: np.ndarray, x1: np.ndarray, cfg: FlowPathConfig) -> np.ndarray:
    """Regression target x1 - (1 - sigma_min) * x0; the time derivative of psi_t."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"shape mismatch: x0 {x0.shape} vs x1 {x1.shape}")
    return x1 - (1.0 - cfg.sigma_min) * x0


def conditional_vector_field(x: np.ndarray, x1: np.ndarray, t: float,
                             cfg: FlowPathConfig) -> np.ndarray:
    """Closed-form conditional field (x1 - (1 - sigma_min) x) / (1 - (1 - sigma_min) t).

    On-path evaluation at x = psi_t(x0, x1, t) equals target_vector_field(x0, x1)
    up to rounding. Raises FlowSingularityError when the denominator falls
    below DENOM_EPS.
    """
    _check_time(t)
    x = np.asarray(x, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x.shape != x1.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs x1 {x1.shape}")
    denom = 1.0 - (1.0 - cfg.sigma_min) * t
    if denom < DENOM_EPS:
        raise FlowSingularityError(
            f"denominator {denom:.3e} below {DENOM_EPS:.0e} at t={t} "
            f"(sigma_min={cfg.sigma_min})")
    return (x1 - (1.0 - cfg.sigma_min) * x) / denom


def cfm_loss(predicted: np.ndarray, target: np.ndarray,
             frame_mask: np.ndarray | None = None) -> float:
    """Mean squared error between predicted and target fields.

    The squared L2 objective is reduced by the mean over elements so the loss
    magnitude is independent of grid size. With `frame_mask` (boolean over the
    trailing frame axis) only masked frames contribute, for the variant that
    restricts the objective to reconstructed regions.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ValueError(f"shape mismatch: predicted {predicted.shape} vs target {target.shape}")
    sq = (predicted - target) ** 2
    if frame_mask is None:
        return float(sq.mean())
    frame_mask = np.asarray(frame_mask, dtype=bool)
    if frame_mask.shape != (predicted.shape[-1],):
        raise ValueError(f"frame_mask length {frame_mask.shape} does not match "
                         f"frame count {predicted.shape[-1]}")
    if not frame_mask.any():
        return 0.0
    return float(sq[..., frame_mask].mean())


def sample_training_tuple(x1: np.ndarray, cfg: FlowPathConfig,
                          rng: np.random.Generator) -> TrainingTuple:
    """Draw (t, x0) and assemble one training tuple.

    Draw order is fixed (t first, then x0) so identical generator states give
    identical tuples: t ~ U(0, 1), x0 ~ N(0, I).
    """
    x1 = np.asarray(x1, dtype=np.float64)
    if not np.all(np.isfinite(x1)):
        raise ValueError("x1 contains NaN or Inf")
    t = float(rng.random())
    x0 = rng.standard_normal(x1.shape)
    return TrainingTuple(
        t=t,
        x0=x0,
        x1=x1,
        x_t=psi_t(x0, x1, t, cfg),
        target=target_vector_field(x0, x1, cfg),
    )
