"""Euler ODE solver and the audio-to-audio generation pipeline."""

import tracemalloc
import weakref

import numpy as np
import pytest

from flowsr.audio import AudioSignal
from flowsr.flowpath import (SIGMA_MIN, conditional_vector_field,
                             target_vector_field)
from flowsr.sampler import (FieldDivergenceError, SolverConfig, euler_solve,
                            generate, sample_features)
from flowsr.spectral import CompressionParams, StftParams, audio_from_features
from flowsr.tasks import TaskKind, build_condition
from flowsr.vectorfield import (ModelConfig, VectorFieldModel, init_parameters,
                                segment_shapes)


TINY = ModelConfig(num_layers=2, model_dim=16, num_heads=2,
                   feature_channels=8, time_embed_dim=16, feedforward_dim=32)


def tiny_model(seed=0, randomize=False, scale=0.05):
    model = init_parameters(TINY, np.random.default_rng(seed))
    if randomize:
        rng = np.random.default_rng(seed + 1)
        for name, shape in segment_shapes(TINY).items():
            model.params[name] = scale * rng.standard_normal(shape)
    return model


def test_solver_config_validation():
    assert SolverConfig(0.2).num_steps == 5
    assert SolverConfig(1.0).num_steps == 1
    assert SolverConfig(0.05).num_steps == 20
    for bad in (0.0, -0.1, 1.5, 0.3):  # 1/0.3 is not an integer
        with pytest.raises(ValueError):
            SolverConfig(bad)


def test_zero_field_returns_start():
    x0 = np.random.default_rng(0).standard_normal((4, 7))
    out, evals = euler_solve(lambda x, t: np.zeros_like(x), x0, SolverConfig(0.2))
    assert evals == 5
    assert np.array_equal(out, x0)


def test_start_state_is_neither_mutated_nor_returned():
    """euler_solve copies x0 once and updates only its own copy."""
    for x0 in (np.random.default_rng(3).standard_normal((4, 7)),
               np.arange(28).reshape(4, 7)):
        before = x0.copy()
        for dt in (1.0, 0.2):
            out, _ = euler_solve(lambda x, t: np.zeros_like(x), x0, SolverConfig(dt))
            assert out is not x0 and not np.shares_memory(out, x0)
            assert out.dtype == np.float64
            assert np.array_equal(out, before)
            out += 1.0  # writing the result must not reach the caller's array
            assert np.array_equal(x0, before)


def test_each_field_is_freed_before_the_next_evaluation():
    """One state array is updated for the whole solve, and no field the
    solver was given is still alive when it evaluates the next one."""
    fields, states = [], []

    def field(x, t):
        assert all(ref() is None for ref in fields)
        states.append(x)
        v = np.full_like(x, t + 1.0)
        fields.append(weakref.ref(v))
        return v

    out, evals = euler_solve(field, np.zeros((4, 7)), SolverConfig(0.2))
    assert evals == len(fields) == 5
    assert all(x is out for x in states)


@pytest.mark.parametrize("case", ["frames-major field", "state-ordered field",
                                  "the state itself", "the state transposed"])
def test_in_place_update_equals_the_textbook_step(case):
    """The chunked in-place update gives `x + dt * v` bit for bit, whatever
    the field's memory order, on states larger than one chunk, and also when
    the field is the state or a transposed view of it."""
    fields = {
        "frames-major field": lambda x, t: np.asfortranarray(np.cos(3.0 * t) * x + 0.5),
        "state-ordered field": lambda x, t: np.sin(x + t),
        "the state itself": lambda x, t: x,
        "the state transposed": lambda x, t: x.T,
    }
    field_fn = fields[case]
    x0 = np.random.default_rng(40).standard_normal((300, 300))
    for dt in (0.2, 0.05):
        n = round(1.0 / dt)
        expected = x0
        for k in range(n):
            expected = expected + (1.0 / n) * field_fn(expected, k / n)
        out, _ = euler_solve(field_fn, x0, SolverConfig(dt))
        assert np.array_equal(out, expected)


def test_evaluation_count_and_times():
    seen = []

    def field(x, t):
        seen.append(t)
        return np.zeros_like(x)

    euler_solve(field, np.zeros(3), SolverConfig(0.1))
    assert len(seen) == 10
    assert seen == pytest.approx([k / 10 for k in range(10)])
    assert max(seen) < 1.0  # the field is never evaluated at t=1


def test_exact_on_constant_target_field():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((8, 20))
    x1 = rng.standard_normal((8, 20))
    v = target_vector_field(x0, x1)
    out, evals = euler_solve(lambda x, t: v, x0, SolverConfig(0.2))
    assert evals == 5
    assert np.max(np.abs(out - (x1 + SIGMA_MIN * x0))) < 1e-10


def test_exact_on_conditional_field():
    """The per-sample field is affine in x with coefficients that telescope;
    fixed-step Euler lands on the path endpoint exactly."""
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(50)
    x1 = rng.standard_normal(50)
    expected = x1 + SIGMA_MIN * x0
    for dt in (0.2, 0.1, 0.05):
        out, _ = euler_solve(
            lambda x, t: conditional_vector_field(x, x1, t),
            x0, SolverConfig(dt))
        assert np.max(np.abs(out - expected)) < 1e-10


def test_first_order_convergence_on_curved_field():
    """exp(sin t) flow: halving the step roughly halves the endpoint error."""
    x0 = np.full(4, 2.0)
    exact = x0 * np.exp(np.sin(1.0))
    errors = []
    for dt in (0.2, 0.1, 0.05):
        out, _ = euler_solve(lambda x, t: np.cos(t) * x, x0, SolverConfig(dt))
        errors.append(np.max(np.abs(out - exact)))
    assert errors[1] < 0.6 * errors[0]
    assert errors[2] < 0.6 * errors[1]


def test_divergence_diagnostics():
    def exploding(x, t):
        return np.full_like(x, np.inf) if t > 0.3 else np.zeros_like(x)

    with pytest.raises(FieldDivergenceError) as err:
        euler_solve(exploding, np.zeros(3), SolverConfig(0.2))
    assert "step 2" in str(err.value)

    def nan_field(x, t):
        v = np.ones_like(x)
        v[0] = np.nan
        return v

    with pytest.raises(FieldDivergenceError):
        euler_solve(nan_field, np.zeros(3), SolverConfig(0.5))


def test_state_keeps_float32_and_promotes_the_rest():
    """A float32 start state is integrated in float32; float64 and integer
    starts give a float64 state, as does a float32 field on a float64
    state."""
    for x0, dtype in ((np.ones(3, dtype=np.float32), np.float32),
                      (np.ones(3), np.float64), (np.arange(3), np.float64)):
        out, _ = euler_solve(lambda x, t: np.full(x.shape, 0.5, dtype=np.float32),
                             x0, SolverConfig(0.5))
        assert out.dtype == dtype
        assert np.array_equal(out, x0 + 0.5)


def test_field_shape_mismatch():
    with pytest.raises(ValueError):
        euler_solve(lambda x, t: np.zeros(5), np.zeros(3), SolverConfig(0.5))


def test_sample_features_zero_model_returns_prior_draw():
    """A float32 model solves in float32, and the grid it returns is float64
    all the same, as a float64 model's is."""
    model = tiny_model(seed=3)  # fresh init predicts a zero field
    cond = np.random.default_rng(4).standard_normal((8, 12))
    expected = np.random.default_rng(7).standard_normal((8, 12))
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        cast = VectorFieldModel(model.config, {name: values.astype(dtype)
                                               for name, values in model.params.items()})
        out = sample_features(cast, cond, np.random.default_rng(7), SolverConfig(0.2))
        assert out.dtype == np.float64
        assert np.max(np.abs(out - expected)) < tol


def test_sample_features_deterministic():
    model = tiny_model(seed=5, randomize=True)
    cond = np.random.default_rng(6).standard_normal((8, 9))
    a = sample_features(model, cond, np.random.default_rng(42), SolverConfig(0.2))
    b = sample_features(model, cond, np.random.default_rng(42), SolverConfig(0.2))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_features_rejects_non_finite_condition(bad):
    # grids are not scanned on construction; forward_batch checks its input
    values = np.random.default_rng(8).standard_normal((8, 9))
    values[2, 4] = bad
    with pytest.raises(ValueError, match="non-finite model input"):
        sample_features(tiny_model(), values,
                        np.random.default_rng(9), SolverConfig(0.5))


def small_stft():
    return StftParams(window_size=6, hop_size=3)


def test_generate_length_and_determinism():
    params = small_stft()
    model_cfg = ModelConfig(num_layers=1, model_dim=8, num_heads=2,
                            feature_channels=2 * params.num_bins,
                            time_embed_dim=8, feedforward_dim=16)
    model = init_parameters(model_cfg, np.random.default_rng(8))
    comp = CompressionParams()
    for n in (50, 161, 320):
        degraded = AudioSignal(np.random.default_rng(9).uniform(-0.5, 0.5, n), 16000)
        out = generate(model, TaskKind.DENOISE, degraded, np.random.default_rng(1),
                       params, comp, SolverConfig(0.5))
        again = generate(model, TaskKind.DENOISE, degraded, np.random.default_rng(1),
                         params, comp, SolverConfig(0.5))
        assert len(out) == n
        assert out.sample_rate == 16000
        assert np.all(np.isfinite(out.samples))
        assert np.array_equal(out.samples, again.samples)


def test_generate_restores_from_the_float64_draw_rounded_to_float32():
    """`generate` samples with a float32 copy of the model: on a fresh
    model's zero field it synthesizes the float64 noise draw rounded to
    float32, not a float32 draw of the generator, which gives other
    numbers, and leaves the caller's float64 parameters as they are."""
    params, comp = small_stft(), CompressionParams()
    model_cfg = ModelConfig(num_layers=1, model_dim=8, num_heads=2,
                            feature_channels=2 * params.num_bins,
                            time_embed_dim=8, feedforward_dim=16)
    model = init_parameters(model_cfg, np.random.default_rng(14))
    degraded = AudioSignal(np.random.default_rng(15).uniform(-0.5, 0.5, 161), 16000)
    out = generate(model, TaskKind.DENOISE, degraded, np.random.default_rng(16),
                   params, comp, SolverConfig(0.5))
    shape = build_condition(TaskKind.DENOISE, degraded, params, comp).shape
    noise = np.random.default_rng(16).standard_normal(shape).astype(np.float32)
    assert not np.array_equal(
        noise, np.random.default_rng(16).standard_normal(shape, dtype=np.float32))
    expected = audio_from_features(noise, params, comp, len(degraded),
                                   sample_rate=16000)
    assert np.array_equal(out.samples, expected.samples)
    assert {values.dtype for values in model.params.values()} == {np.dtype(np.float64)}


def test_generate_tse_trims_to_mixture_length():
    # a coarse STFT keeps the fixed 3 s prompt at about 1.5k frames
    params = StftParams(window_size=64, hop_size=32)
    model_cfg = ModelConfig(num_layers=1, model_dim=8, num_heads=2,
                            feature_channels=2 * params.num_bins,
                            time_embed_dim=8, feedforward_dim=16)
    model = init_parameters(model_cfg, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    mixture = AudioSignal(rng.uniform(-0.5, 0.5, 435), 16000)
    reference = AudioSignal(rng.uniform(-0.5, 0.5, 48200), 16000)
    out = generate(model, TaskKind.TARGET_SPEAKER_EXTRACT, mixture,
                   np.random.default_rng(12), params, CompressionParams(),
                   SolverConfig(0.5), reference=reference)
    assert len(out) == 435

    with pytest.raises(ValueError):
        generate(model, TaskKind.TARGET_SPEAKER_EXTRACT, mixture,
                 np.random.default_rng(13), params, CompressionParams(),
                 SolverConfig(0.5))  # reference is required


def test_sixty_seconds_restore_within_a_bounded_peak():
    """60 s at the default frontend (7501 frames) with a one-layer model: the
    output has the input's length and is finite, and the tracemalloc peak
    stays at or under 115 MiB. A float64 solve peaked at about 111 MiB, in
    the field evaluation beside one state grid and the condition (29.3 MiB
    each); keeping the previous field and a second state through each
    evaluation peaked at 148.5 MiB. The float32 solve peaks at about 66 MiB,
    and synthesis, at about 95 MiB, sets the peak."""
    config = ModelConfig(num_layers=1)
    model = init_parameters(config, np.random.default_rng(41))
    rng = np.random.default_rng(42)
    for name, shape in segment_shapes(config).items():
        if "ada." in name or "output_proj." in name:  # zero at init
            model.params[name] = 0.02 * rng.standard_normal(shape)
    degraded = AudioSignal(rng.uniform(-0.5, 0.5, 60 * 16000), 16000)
    tracemalloc.start()
    try:
        out = generate(model, TaskKind.DENOISE, degraded, np.random.default_rng(43),
                       StftParams(), CompressionParams(), SolverConfig())
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert len(out) == len(degraded)
    assert np.all(np.isfinite(out.samples))
    assert peak <= 115.0
