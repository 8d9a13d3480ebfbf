"""Fixed-step Euler integration of the learned field, plus the end-to-end
restoration pipeline (degraded audio in, restored audio out).

Generation starts from standard normal noise in the compressed feature domain
and integrates dx/dt = v(x, t | condition) from t = 0 to 1 with a uniform
step. The default step of 0.2 costs exactly five model evaluations per
utterance. The condition is the float64 [channels, frames] feature array
that `tasks.build_condition` returns; for target speaker extraction it spans
the prompt and the mixture, and `tasks.trim_tse_output` cuts the prompt back
off the synthesized audio.

Restoration computes in float32 (mixed precision, Micikevicius et al., arXiv
1710.03740): `generate` casts the model's parameters to float32 once per
utterance, `sample_features` casts the condition and the float64 noise draw
to the model's dtype, and the Euler solve runs on a float32 state, since
`vectorfield.forward_batch` computes in its parameters' dtype. Parameters on
disk, training, condition building and synthesis stay float64; the solved
grid is cast back for synthesis. Called with a float64 model,
`sample_features` and `euler_solve` stay float64 throughout.

Restoration holds one state grid. The solver copies the noise draw once and
updates that state in place, each field is dropped before the next
evaluation, the float64 condition is dropped once cast, and the float32
condition and parameters are dropped before synthesis, so at any stage at
most the state, the condition, the float32 parameters and one stage's own
work are alive. The peak is the field evaluation's.
"""

import dataclasses

import numpy as np

from .audio import AudioSignal
from .spectral import CompressionParams, StftParams, audio_from_features
from .tasks import (TaskKind, build_condition, trim_tse_output,
                    tse_prompt_samples)
from .vectorfield import VectorFieldModel, forward_batch


# Elements per chunk of the in-place Euler update (256 KiB of float64, 128 KiB
# of float32).
_UPDATE_CHUNK_ELEMENTS = 1 << 15


class FieldDivergenceError(RuntimeError):
    """Raised when the integrated state stops being finite."""


@dataclasses.dataclass
class SolverConfig:
    step_size: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError(f"step_size must lie in (0, 1], got {self.step_size}")
        n = round(1.0 / self.step_size)
        if abs(n * self.step_size - 1.0) > 1e-9:
            raise ValueError(f"step_size {self.step_size} does not divide the "
                             "unit interval evenly")

    @property
    def num_steps(self) -> int:
        return round(1.0 / self.step_size)


def euler_solve(field_fn, x0: np.ndarray, config: SolverConfig):
    """Integrate x' = field_fn(x, t) from t=0 to t=1 with uniform Euler steps.

    Args:
        field_fn: callable (state array, scalar time) -> field array. The
            state it is given is the solver's own and is updated in place
            after the call, so a field that keeps it must copy it. The field
            it returns is only read, never written.
        x0: initial state at t = 0. It is copied once, in
            np.result_type(x0, float32): a float32 start stays float32,
            float64 and integer starts give float64. It is never mutated or
            returned; a caller that does not keep its own reference lets it
            be freed before the first evaluation. Fields are cast to the
            state's dtype.
        config: solver settings; the number of steps is 1 / step_size.

    Returns:
        (final state, number of field evaluations). The evaluation count is
        always exactly config.num_steps.

    Raises:
        FieldDivergenceError: if any intermediate state or field value is
            non-finite, reporting the step index and the offending norm.

    One state array is updated for the whole solve, and each field is freed
    before the next evaluation, so a step holds one state and one field.
    """
    n = config.num_steps
    x0 = np.asarray(x0)
    x = np.array(x0, dtype=np.result_type(x0, np.float32))
    del x0  # the copy is the state; the start state need not outlive it
    evals = 0
    for k in range(n):
        t_k = k / n
        v = np.asarray(field_fn(x, t_k), dtype=x.dtype)
        evals += 1
        if v.shape != x.shape:
            raise ValueError(f"field shape {v.shape} != state shape {x.shape}")
        if not np.all(np.isfinite(v)):
            raise FieldDivergenceError(
                f"non-finite field at step {k} (t={t_k:.3f}), "
                f"max finite magnitude {np.max(np.abs(v[np.isfinite(v)]), initial=0.0):.3e}")
        _add_scaled(x, v, 1.0 / n)
        del v  # the next evaluation must not find this field alive
        if not np.all(np.isfinite(x)):
            raise FieldDivergenceError(
                f"non-finite state after step {k} (t={t_k:.3f}), "
                f"max finite magnitude {np.max(np.abs(x[np.isfinite(x)]), initial=0.0):.3e}")
    return x, evals


def _add_scaled(x: np.ndarray, v: np.ndarray, scale: float) -> None:
    """x += scale * v in place, without a temporary the size of the grid.

    Each chunk forms `scale * v` before the add, as `x + scale * v` does,
    so the sum is bit-identical to it. Chunks run along v's slowest-varying
    axis, so each reads one contiguous run of the field; `vectorfield`'s
    field is frames-major (Fortran-ordered as [channels, frames]). A field
    that shares memory with the state is copied first, so no chunk reads
    what an earlier chunk wrote.
    """
    if np.may_share_memory(x, v):
        v = v.copy()
    if v.flags.f_contiguous and not v.flags.c_contiguous:
        x, v = x.T, v.T
    x, v = np.atleast_1d(x), np.atleast_1d(v)
    rows = max(1, _UPDATE_CHUNK_ELEMENTS // max(1, v[:1].size))
    for start in range(0, len(v), rows):
        x[start:start + rows] += scale * v[start:start + rows]


def sample_features(model: VectorFieldModel, cond: np.ndarray,
                    rng: np.random.Generator,
                    solver: SolverConfig | None = None) -> np.ndarray:
    """Draw noise shaped like the condition and integrate the model field,
    in the model's dtype.

    The condition and the noise, drawn as float64 whatever the model's
    dtype so that a seed gives the same draw, are cast to the model's
    dtype; the returned grid is float64. A condition grid that the caller
    passes without keeping a reference is freed once cast.
    """
    solver = solver or SolverConfig()
    values = cond.astype(model.dtype, copy=False)[None]
    del cond  # a grid passed unbound is freed here, before the solve

    def field(x, t):
        return forward_batch(model, x[None], values, np.asarray([t]))[0]

    # the noise draw is not bound here, so euler_solve holds the only state
    final, _ = euler_solve(
        field, rng.standard_normal(values.shape[1:]).astype(model.dtype, copy=False), solver)
    return np.asarray(final, dtype=np.float64)


def generate(model: VectorFieldModel, task: TaskKind, degraded: AudioSignal,
             rng: np.random.Generator, stft_params: StftParams,
             compression: CompressionParams,
             solver: SolverConfig | None = None,
             reference: AudioSignal | None = None) -> AudioSignal:
    """Restore one utterance: condition on the degraded input, sample, invert.

    For target-speaker extraction the condition is built from the reference
    prompt followed by the mixture, and the synthesized prompt span is
    trimmed from the output; other tasks return audio of exactly the
    degraded input's length. `stft_params` and `compression` must be the
    frontend the model was trained on; a checkpoint does not record them.

    The field is evaluated with a float32 copy of the model's parameters,
    made once per call and freed before synthesis; the caller's model is
    not changed. The condition and synthesis are computed in float64.
    """
    # Keyword arguments are evaluated in the order written: the condition is
    # built before the float32 model copy exists. It is not bound here, so
    # sample_features frees the float64 grid once it has cast it, and both
    # float32 copies are gone when sample_features returns.
    features = sample_features(
        cond=build_condition(task, degraded, stft_params, compression, reference=reference),
        model=VectorFieldModel(model.config, {name: values.astype(np.float32)
                                              for name, values in model.params.items()}),
        rng=rng, solver=solver)

    if task is TaskKind.TARGET_SPEAKER_EXTRACT:
        total = tse_prompt_samples(degraded.sample_rate) + len(degraded)
        audio = audio_from_features(features, stft_params, compression, total,
                                    sample_rate=degraded.sample_rate)
        return trim_tse_output(audio, len(degraded))
    return audio_from_features(features, stft_params, compression, len(degraded),
                               sample_rate=degraded.sample_rate)
