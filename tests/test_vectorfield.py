"""Transformer vector-field estimator: conditioning, forward, gradients."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from flowsr import training, vectorfield
from flowsr.flowpath import cfm_loss
from flowsr.masking import maybe_drop_condition
from flowsr.sampler import sample_features
from flowsr.training import (TrainConfig, apply_gradients, init_train_state,
                             pretrain_gradients)
from flowsr.vectorfield import (ModelConfig, VectorFieldModel, _ln_forward,
                                _silu, alibi_bias,
                                alibi_slopes, backward, forward_batch,
                                init_parameters, parameter_count,
                                segment_shapes, time_embedding)

TINY = ModelConfig(num_layers=2, model_dim=16, num_heads=2,
                   feature_channels=8, time_embed_dim=16, feedforward_dim=32)
ONE_LAYER = dataclasses.replace(TINY, num_layers=1)
# ALiBi slopes 1/2 ... 1/256: heads 0 and 1 score only a band of keys from a
# few hundred frames on
EIGHT_HEADS = ModelConfig(num_layers=2, model_dim=32, num_heads=8,
                          feature_channels=8, time_embed_dim=16, feedforward_dim=32)


def randomized(config, seed, scale=0.1):
    """Model with all segments random, so zero-init plateaus cannot hide bugs."""
    rng = np.random.default_rng(seed)
    params = {name: scale * rng.standard_normal(shape)
              for name, shape in segment_shapes(config).items()}
    return VectorFieldModel(config=config, params=params)


def textbook_attention(scores, v):
    """Max-shifted softmax of biased scores [..., frames, frames] and its
    context probabilities @ v. Complex scores are shifted by the largest
    real part, which the softmax ignores."""
    e = np.exp(scores - scores.real.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return probs, probs @ v


def layer_norm(x):
    """`_ln_forward`'s normalisation with the variance as mean((x - mean)^2),
    which stays analytic in complex arithmetic (`x.var` takes |x - mean|^2)."""
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred / np.sqrt((centred * centred).mean(axis=-1, keepdims=True)
                             + vectorfield.LN_EPS)


def dense_forward(model, x_t, cond, t, trace=None):
    """Reference forward pass: the full [batch, heads, frames, frames]
    attention grid with a [heads, frames, frames] ALiBi grid, the textbook
    max-shifted softmax and erf GELU. It is analytic in the parameters, so
    complex parameters give complex-step derivatives. A `trace` list gets one
    dict per layer with its attention input m1, its unscaled q, k, v [batch,
    heads, frames, head_dim] and its biased scores."""
    cfg, p = model.config, model.params
    batch, _, frames = x_t.shape
    heads, head_dim = cfg.num_heads, cfg.head_dim
    idx = np.arange(frames)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    bias = -alibi_slopes(heads)[:, None, None] * dist[None]

    def modulate(x, shift, scale):
        return layer_norm(x) * (1.0 + scale)[:, None, :] + shift[:, None, :]

    w_in, channels = p["input_proj.weight"], cfg.feature_channels
    h = (x_t.transpose(0, 2, 1) @ w_in[:channels]
         + cond.transpose(0, 2, 1) @ w_in[channels:] + p["input_proj.bias"])
    temb = time_embedding(t, cfg.time_embed_dim)
    a_t = _silu(temb @ p["time_mlp.weight1"] + p["time_mlp.bias1"])
    silu_c = _silu(a_t @ p["time_mlp.weight2"] + p["time_mlp.bias2"])
    for i in range(cfg.num_layers):
        w = {name[len(f"block{i}."):]: arr for name, arr in p.items()
             if name.startswith(f"block{i}.")}
        mod = silu_c @ w["ada.weight"] + w["ada.bias"]
        shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = np.split(mod, 6, axis=1)
        m1 = modulate(h, shift_a, scale_a)
        qkv = m1 @ w["qkv.weight"] + w["qkv.bias"]
        q, k, v = [a.reshape(batch, frames, heads, head_dim).transpose(0, 2, 1, 3)
                   for a in np.split(qkv, 3, axis=2)]
        scores = (q / np.sqrt(head_dim)) @ k.transpose(0, 1, 3, 2) + bias[None]
        if trace is not None:
            trace.append(dict(m1=m1, q=q, k=k, v=v, scores=scores))
        ctx = textbook_attention(scores, v)[1]
        ctx = ctx.transpose(0, 2, 1, 3).reshape(batch, frames, cfg.model_dim)
        h = h + gate_a[:, None, :] * (ctx @ w["attn_out.weight"] + w["attn_out.bias"])
        z1 = modulate(h, shift_m, scale_m) @ w["ffn.weight1"] + w["ffn.bias1"]
        a1 = 0.5 * z1 * (1.0 + erf(z1 / np.sqrt(2.0)))
        h = h + gate_m[:, None, :] * (a1 @ w["ffn.weight2"] + w["ffn.bias2"])
    shift_f, scale_f = np.split(silu_c @ p["final_ada.weight"] + p["final_ada.bias"],
                                2, axis=1)
    out = modulate(h, shift_f, scale_f) @ p["output_proj.weight"] + p["output_proj.bias"]
    return out.transpose(0, 2, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(model_dim=130, num_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(time_embed_dim=15)
    with pytest.raises(ValueError):
        ModelConfig(feature_channels=-2)
    assert ModelConfig(model_dim=128, num_heads=4).head_dim == 32


def test_time_embedding_endpoints_and_range():
    emb = time_embedding(np.array([0.0]), 16)
    assert emb.shape == (1, 16)
    assert np.all(emb[0, :8] == 0.0)
    assert np.all(emb[0, 8:] == 1.0)
    assert time_embedding(np.array([0.5]), 8).shape == (1, 8)
    v = time_embedding(np.linspace(0.0, 1.0, 17), 32)
    assert v.shape == (17, 32)
    assert np.all(np.abs(v) <= 1.0)


def test_time_embedding_separates_times():
    a, b = time_embedding(np.array([0.3, 0.7]), 16)
    assert np.linalg.norm(a - b) > 0.0
    # injectivity over a fine grid: the nearest neighbor is never a duplicate
    grid = np.linspace(0.0, 1.0, 101)
    vecs = time_embedding(grid, 16)
    pairwise = np.linalg.norm(vecs[:, None] - vecs[None, :], axis=-1)
    pairwise[np.diag_indices(len(grid))] = np.inf
    assert pairwise.min() > 0.0
    # each row is the embedding of its time alone
    assert np.array_equal(vecs[37], time_embedding(grid[37:38], 16)[0])


def test_time_embedding_odd_dim():
    with pytest.raises(ValueError):
        time_embedding(np.array([0.5]), 7)


def test_alibi_slopes_eight_heads():
    slopes = alibi_slopes(8)
    assert slopes[0] == pytest.approx(0.5)
    assert np.allclose(slopes, 2.0 ** -np.arange(1, 9))
    assert np.all(slopes > 0.0)


def test_alibi_bias_structure():
    bias = alibi_bias(12, 4)
    assert bias.shape == (4, 12, 12)
    for h in range(4):
        assert np.all(np.diag(bias[h]) == 0.0)
        assert np.array_equal(bias[h], bias[h].T)
        # strictly decreasing away from the diagonal
        first_row = bias[h][0]
        assert np.all(np.diff(first_row) < 0.0)
    assert np.allclose(bias, -alibi_slopes(4)[:, None, None]
                       * np.abs(np.subtract.outer(np.arange(12), np.arange(12))))


def test_alibi_bias_is_a_read_only_view():
    """The grid every layer and block reads is O(frames) memory, cannot be
    corrupted by an in-place operation, and holds the exact ALiBi values."""
    tracemalloc.start()
    try:
        bias = alibi_bias(20000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bias.shape == (4, 20000, 20000)
    # the [4, 39999] float64 offsets take 1.22 MiB; a dense grid would take 12 GiB
    assert peak < 2 * 2 ** 20
    with pytest.raises(ValueError):
        bias[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        bias[:, :3] += 1.0
    for frames in (1, 2, 7):
        idx = np.arange(frames)
        dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
        expected = -alibi_slopes(3)[:, None, None] * dist[None]
        assert np.array_equal(alibi_bias(frames, 3), expected)


def test_layer_norm_moments():
    x = np.random.default_rng(1).standard_normal((10, 64)) * 3.0 + 2.0
    y, inv = _ln_forward(x)
    assert np.max(np.abs(y.mean(axis=-1))) < 1e-12
    assert np.max(np.abs(y.var(axis=-1) - 1.0)) < 1e-4  # eps shifts variance slightly
    assert np.allclose(inv[:, 0], 1.0 / np.sqrt(x.var(axis=-1) + vectorfield.LN_EPS))


def test_parameter_count_tiny_config():
    # recount from the layout arithmetic, independently of segment_shapes
    c, d, t, f = 8, 16, 16, 32
    per_block = (d * 3 * d + 3 * d) + (d * d + d) + (d * f + f) + (f * d + d) \
        + (d * 6 * d + 6 * d)
    expected = (2 * c * d + d) + (t * d + 2 * d + d * d) + 2 * per_block \
        + (d * 2 * d + 2 * d) + (d * c + c)
    assert expected == 9080
    assert parameter_count(TINY) == expected
    model = init_parameters(TINY, np.random.default_rng(0))
    assert sum(p.size for p in model.params.values()) == expected


def test_init_deterministic_and_zeroed_head():
    a = init_parameters(TINY, np.random.default_rng(7))
    b = init_parameters(TINY, np.random.default_rng(7))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
        assert np.all(np.isfinite(a.params[name]))
    assert np.all(a.params["output_proj.weight"] == 0.0)
    assert np.all(a.params["final_ada.weight"] == 0.0)
    assert np.all(a.params["block0.ada.weight"] == 0.0)
    assert np.all(a.params["input_proj.bias"] == 0.0)
    # non-zero segments respect the fan-based uniform limit
    w = a.params["input_proj.weight"]
    limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.5 * limit


def test_fresh_model_predicts_zero_field():
    model = init_parameters(TINY, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 11))
    cond = rng.standard_normal((8, 11))
    out = forward_batch(model, x[None], cond[None], np.array([0.37]))[0]
    assert out.shape == (8, 11)
    assert np.all(out == 0.0)


def test_forward_shape_and_determinism():
    model = randomized(TINY, seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 14))
    cond = rng.standard_normal((8, 14))
    out1 = forward_batch(model, x[None], cond[None], np.array([0.6]))[0]
    out2 = forward_batch(model, x[None], cond[None], np.array([0.6]))[0]
    assert out1.shape == x.shape
    assert np.array_equal(out1, out2)
    assert np.all(np.isfinite(out1))


def test_forward_dropped_condition_matches_zero_features():
    model = randomized(TINY, seed=8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((8, 10))
    cond = rng.standard_normal((8, 10))
    dropped = maybe_drop_condition(cond, 1.0, rng)
    as_dropped = forward_batch(model, x[None], dropped[None], np.array([0.2]))[0]
    as_zeros = forward_batch(model, x[None], np.zeros((1, 8, 10)), np.array([0.2]))[0]
    assert np.array_equal(as_dropped, as_zeros)


def test_forward_validation():
    model = randomized(TINY, seed=10)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 8, 10))
    with pytest.raises(ValueError, match="condition shape"):
        forward_batch(model, x, rng.standard_normal((1, 8, 12)), np.array([0.5]))
    good = rng.standard_normal((1, 8, 10))
    for bad_t in (1.5, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            forward_batch(model, x, good, np.array([bad_t]))
    bad = x.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        forward_batch(model, bad, good, np.array([0.5]))
    with pytest.raises(ValueError, match="non-empty"):
        forward_batch(model, np.zeros((1, 8, 0)), np.zeros((1, 8, 0)), np.array([0.5]))
    # times must be one per item: no silent broadcasting of a single time
    x3 = rng.standard_normal((3, 8, 10))
    for t in (np.array([0.5]), 0.5, np.full((3, 1), 0.5)):
        with pytest.raises(ValueError, match=r"times shape .* != \(3,\)"):
            forward_batch(model, x3, x3, t)


def test_forward_batch_matches_single():
    model = randomized(TINY, seed=12)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 8, 9))
    cond = rng.standard_normal((3, 8, 9))
    t = np.array([0.1, 0.5, 0.9])
    batched = forward_batch(model, x, cond, t)
    for i in range(3):
        single = forward_batch(model, x[i][None], cond[i][None], t[i:i + 1])[0]
        assert np.max(np.abs(batched[i] - single)) < 1e-12


def test_frame_reversal_equivariance(monkeypatch):
    """Reversing the input frames reverses the output frames: the symmetric
    distance bias is the only position signal. Checked with one attention
    block and with query blocks of 4 rows."""
    model = randomized(TINY, seed=14)
    rng = np.random.default_rng(15)
    L = 13
    x = rng.standard_normal((8, L))
    cond = rng.standard_normal((8, L))
    for block_elements in (vectorfield.ATTENTION_BLOCK_ELEMENTS, 2 * L * 4):
        monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS", block_elements)
        base = forward_batch(model, x[None], cond[None], np.array([0.4]))[0]
        reversed_ = forward_batch(model, x[None, :, ::-1], cond[None, :, ::-1],
                                  np.array([0.4]))[0]
        assert np.max(np.abs(reversed_ - base[:, ::-1])) < 1e-10


@pytest.mark.parametrize("record", [False, True])
def test_blocked_attention_matches_dense_reference(monkeypatch, record):
    model = randomized(TINY, seed=24)
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, 8, 11))
    cond = rng.standard_normal((2, 8, 11))
    t = np.array([0.2, 0.8])
    dense = dense_forward(model, x, cond, t)

    def run():
        result = forward_batch(model, x, cond, t, record=record)
        return result if record else (result, None)

    single, tape = run()  # the default budget holds the whole 2 x 2 x 11 x 11 grid
    if record:
        assert len(tape.blocks[0][0]["blocks"]) == 1
    # the diagonal shift and the matmul row sums reorder the arithmetic
    assert np.max(np.abs(single - dense)) <= 1e-13 * np.max(np.abs(dense))

    # 2 * 2 * 11 scores per query row: rows of 3 give each head blocks of 3, 3, 3, 2
    monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS", 3 * 44)
    blocked, tape = run()
    if record:
        for head in range(2):
            assert [rows.stop - rows.start for heads, rows, _ in tape.blocks[0][0]["blocks"]
                    if heads == slice(head, head + 1)] == [3, 3, 3, 2]
    assert np.max(np.abs(blocked - dense)) <= 1e-12 * np.max(np.abs(dense))


def scored_qkv(scores, values):
    """A [1, frames, 3 * heads * 16] qkv projection whose attention scores are
    `scores` [heads, frames, frames] and whose values are `values` [heads,
    frames, 16], for frames <= 16: query i holds row i of the scores and key
    j is 4 e_j, so with sqrt(head_dim) = 4 every score is exact."""
    heads, frames, head_dim = values.shape
    q = np.zeros((heads, frames, head_dim))
    q[:, :, :frames] = scores
    k = np.broadcast_to(4.0 * np.eye(frames, head_dim), q.shape)
    return np.concatenate([a.transpose(1, 0, 2).reshape(1, frames, heads * head_dim)
                           for a in (q, k, values)], axis=2)


def run_attention(qkv, heads, bias, record):
    """`_attention_forward` on a qkv projection: the context and, when
    recording, each (heads, rows, keys) block with its probabilities
    [batch, heads, rows, keys], replayed from the taped row sums as
    `_attention_backward` replays them."""
    q, k, v = vectorfield._attention_operands(qkv, heads)
    ctx, attention = vectorfield._attention_forward(q, k, v, bias, record)
    if not record:
        return ctx, None
    blocks, row_sums = attention
    return ctx, [(head_sel, rows, keys,
                  vectorfield._block_weights(q, k, bias, (head_sel, rows, keys))
                  / row_sums[:, head_sel, rows, None])
                 for head_sel, rows, keys in blocks]


@pytest.mark.parametrize("record", [False, True])
def test_diagonal_shift_matches_max_shifted_softmax(monkeypatch, record):
    """Rows are shifted by their diagonal score, not their maximum: where
    the other keys score ~300 above the diagonal and where they score ~300
    below it, the context and the probabilities match the textbook softmax,
    in one block and in blocks of 5 rows."""
    heads, frames = 2, 12
    rng = np.random.default_rng(33)
    diagonal = 5.0 * rng.standard_normal((heads, frames, 1))
    above = np.where(np.arange(frames) % 2 == 0, 1.0, -1.0)[None, :, None]
    scores = diagonal + above * (300.0 + 3.0 * rng.standard_normal((heads, frames, frames)))
    scores[:, np.arange(frames), np.arange(frames)] = diagonal[..., 0]
    values = rng.standard_normal((heads, frames, 16))
    bias = alibi_bias(frames, heads)
    probs, ctx = textbook_attention(scores + bias, values)
    ctx = ctx.transpose(1, 0, 2).reshape(1, frames, heads * 16)
    for block_elements in (vectorfield.ATTENTION_BLOCK_ELEMENTS, 5 * heads * frames):
        monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS", block_elements)
        got, blocks = run_attention(scored_qkv(scores, values), heads, bias, record)
        assert np.max(np.abs(got - ctx)) <= 1e-13 * np.max(np.abs(ctx))
        if record:
            got_probs = np.zeros(probs.shape)
            for head_sel, rows, keys, attn in blocks:
                got_probs[head_sel, rows, keys] = attn[0]
            assert np.max(np.abs(got_probs - probs)) <= 1e-13 * np.max(probs)


def test_overflowing_attention_raises_instead_of_a_finite_field():
    """Weights that overflow float64 must end in an error, never in a
    finite field. A key more than 709 above its row's diagonal score
    overflows `exp`; eleven keys each ~709 above it overflow only the row
    sum, which without a check turns that row's context into zeros."""
    heads, frames = 2, 12
    rng = np.random.default_rng(34)
    values = rng.standard_normal((heads, frames, 16))
    bias = alibi_bias(frames, heads)
    for row, gap in ((0, 720.0), (5, 709.0)):
        scores = np.zeros((heads, frames, frames))
        scores[0, row] = gap
        scores[0, row, row] = 0.0
        assert np.all(np.isfinite(textbook_attention(scores + bias, values)[1]))
        for record in (False, True):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(FloatingPointError, match="overflow"):
                run_attention(scored_qkv(scores, values), heads, bias, record)

    # end to end: a model whose scores run far above their diagonal
    model = randomized(ONE_LAYER, seed=35)
    model.params["block0.qkv.weight"] *= 300.0
    x = rng.standard_normal((1, 8, 10))
    cond = rng.standard_normal((1, 8, 10))
    trace = []
    assert np.all(np.isfinite(dense_forward(model, x, cond, np.array([0.0]), trace)))
    scores = trace[0]["scores"]
    assert np.max(scores - np.diagonal(scores, axis1=2, axis2=3)[..., None]) > 709.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="overflow"):
            sample_features(model, cond[0], rng)
        state = init_train_state(model, TrainConfig())
        with pytest.raises(FloatingPointError, match="overflow"):
            apply_gradients(state, *pretrain_gradients(state, [x[0]] * 2))


def test_overflowing_float32_attention_raises_where_float64_does_not():
    """float32's `exp` overflows near 88.7, not 709: a score 89 above its
    row's diagonal score is refused in float32, naming the dtype and its
    bound ln(finfo(float32).max) - ln(frames), and gives a finite context
    in float64."""
    heads, frames = 2, 12
    values = np.random.default_rng(52).standard_normal((heads, frames, 16))
    scores = np.zeros((heads, frames, frames))
    scores[0, 3, 7] = 89.0
    qkv = scored_qkv(scores, values)
    ctx, _ = run_attention(qkv, heads, alibi_bias(frames, heads), record=False)
    assert np.all(np.isfinite(ctx))
    bound = np.log(np.finfo(np.float32).max) - np.log(frames)
    assert f"{bound:.1f}" == "86.2"
    for record in (False, True):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                FloatingPointError, match=r"overflow float32: .* about 86\.2 or more"):
            run_attention(qkv.astype(np.float32), heads,
                          alibi_bias(frames, heads, np.float32), record)


def float32_copy(model):
    """The model with every parameter segment cast to float32, as
    `sampler.generate` casts it."""
    return VectorFieldModel(model.config, {name: values.astype(np.float32)
                                           for name, values in model.params.items()})


def float64_arrays(value):
    """The shapes of the float64 arrays in an argument or result: arrays,
    and the values of dicts, lists and tuples, recursively."""
    if isinstance(value, np.ndarray):
        return [value.shape] if value.dtype == np.float64 else []
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [shape for item in value for shape in float64_arrays(item)]
    return []


def test_float32_model_computes_in_float32(monkeypatch):
    """A float32 model's field, tape and gradients are float32, and no
    sublayer or attention block loop receives or returns a float64 array,
    including when the state and condition are given as float64."""
    seen = []

    def checked(name):
        function = getattr(vectorfield, name)

        def call(*args, **kwargs):
            result = function(*args, **kwargs)
            seen.append((name, float64_arrays([args, kwargs]), float64_arrays(result)))
            return result

        monkeypatch.setattr(vectorfield, name, call)

    for name in ("_attention_sublayer", "_ffn_sublayer", "_attention_forward"):
        checked(name)
    model = float32_copy(randomized(TINY, seed=53))
    rng = np.random.default_rng(54)
    x, cond, seed = (rng.standard_normal((2, 8, 30)) for _ in range(3))
    t = np.array([0.2, 0.7])
    assert forward_batch(model, x, cond, t).dtype == np.float32
    field, tape = forward_batch(model, x.astype(np.float32), cond.astype(np.float32), t,
                                record=True)
    assert field.dtype == np.float32
    assert float64_arrays([tape.inputs, tape.blocks, tape.final]) == []
    grads = backward(model, tape, seed.astype(np.float32))
    assert {values.dtype for values in grads.values()} == {np.dtype(np.float32)}
    assert len(seen) == 2 * 3 * TINY.num_layers
    assert [entry for entry in seen if entry[1] or entry[2]] == []


@pytest.mark.parametrize("frames, banded", [(1501, 2), (501, 0)])
def test_float32_field_stays_near_float64(monkeypatch, frames, banded):
    """At the default config the float32 copy's field lies within 1e-5 of
    max |field| of the float64 model's, on 1501 frames (12 s), where heads 0
    and 1 score a band of keys, and on 501 frames, one block per head."""
    model = randomized(ModelConfig(), seed=40, scale=0.05)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((1, 512, frames))
    cond = rng.standard_normal((1, 512, frames))
    expected = forward_batch(model, x, cond, np.array([0.6]))
    counts = []
    key_bands = vectorfield._key_bands

    def count_banded(q, k, rows):
        blocks = key_bands(q, k, rows)
        counts.append(len(banded_heads(blocks, q.shape[2])))
        return blocks

    monkeypatch.setattr(vectorfield, "_key_bands", count_banded)
    field = forward_batch(float32_copy(model), x, cond, np.array([0.6]))
    assert field.dtype == np.float32 and counts == [banded] * 4
    assert np.max(np.abs(field - expected)) <= 1e-5 * np.max(np.abs(expected))


def test_attention_gradients_match_dense_textbook(monkeypatch):
    """`backward`'s qkv gradients on a one-layer model equal the textbook
    softmax gradient P * (dP - rowsum(dP * P)) on the dense grid, given the
    same context gradient: with one block and with blocks of 3 rows, and on
    eight heads in blocks of 40 rows, whose first two score only a band of
    keys."""
    captured = []
    attention_backward = vectorfield._attention_backward

    def capture(dctx, *args):
        captured.append(dctx)
        return attention_backward(dctx, *args)

    monkeypatch.setattr(vectorfield, "_attention_backward", capture)
    batch = 2
    for config, frames, scale, block_rows in [
            (ONE_LAYER, 11, 0.5, (None, 3)),
            (dataclasses.replace(EIGHT_HEADS, num_layers=1), 400, 0.1, (40,))]:
        model = randomized(config, seed=36, scale=scale)
        rng = np.random.default_rng(37)
        heads, head_dim = config.num_heads, config.head_dim
        x = rng.standard_normal((batch, 8, frames))
        cond = rng.standard_normal((batch, 8, frames))
        t = np.array([0.3, 0.6])
        trace = []
        dense_forward(model, x, cond, t, trace)
        layer = trace[0]
        probs, _ = textbook_attention(layer["scores"], layer["v"])
        assert np.min(probs.max(axis=-1)) < 0.9  # no row is one-hot

        for rows in block_rows:
            monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS",
                                2 ** 20 if rows is None else rows * batch * heads * frames)
            out, tape = forward_batch(model, x, cond, t, record=True)
            if heads == 8:
                assert {0, 1} <= set(banded_blocks(tape, 0))
            grads = backward(model, tape, rng.standard_normal(out.shape))
            dctx = captured.pop()
            dprobs = dctx @ layer["v"].transpose(0, 1, 3, 2)
            dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
            dq = dscores @ layer["k"] / np.sqrt(head_dim)
            dk = dscores.transpose(0, 1, 3, 2) @ layer["q"] / np.sqrt(head_dim)
            dv = probs.transpose(0, 1, 3, 2) @ dctx
            dqkv = np.concatenate([a.transpose(0, 2, 1, 3).reshape(batch, frames, -1)
                                   for a in (dq, dk, dv)], axis=2)
            expected = {"block0.qkv.weight": np.einsum("bli,blo->io", layer["m1"], dqkv),
                        "block0.qkv.bias": dqkv.sum(axis=(0, 1))}
            for name, ref in expected.items():
                assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def banded_heads(blocks, frames):
    """The heads of (heads, rows, keys, ...) attention blocks that score a
    band of keys: those with a block on fewer keys than every frame."""
    return {heads.start for heads, _, keys, *_ in blocks if keys != slice(0, frames)}


def banded_blocks(tape, layer):
    """{head: [(rows, keys)]} of a recorded layer's banded heads."""
    blocks = tape.blocks[layer][0]["blocks"]
    return {head: [(rows, keys) for heads, rows, keys in blocks
                   if heads == slice(head, head + 1)]
            for head in sorted(banded_heads(blocks, tape.inputs["x_t"].shape[2]))}


def full_range(monkeypatch):
    """Make every head score every key, in blocks of rows."""
    def every_key(q, k, rows):
        heads, frames = q.shape[1:3]
        return [(slice(0, heads), slice(start, min(start + rows, frames)), slice(0, frames))
                for start in range(0, frames, rows)]

    monkeypatch.setattr(vectorfield, "_key_bands", every_key)


def test_key_bands_keep_the_field(monkeypatch):
    """Eight heads at 400 frames in blocks of 40 rows: heads 0 and 1 score
    a band of keys, and the field stays within 1e-14 of the dense textbook
    and of a pass over every key. The recorded field equals the unrecorded
    one bit for bit, and the tape's banded blocks cover their rows, skip
    keys, and lie in row order per head; every other head scores every key
    in blocks of its own. Every head's row blocks tile the frames exactly
    once, each block's keys hold its own rows, each block's replayed
    weights have its extent, and the taped row sums, one per head and row,
    are at least the diagonal weight 1."""
    model = randomized(EIGHT_HEADS, seed=38)
    rng = np.random.default_rng(39)
    batch, frames = 2, 400
    x = rng.standard_normal((batch, 8, frames))
    cond = rng.standard_normal((batch, 8, frames))
    t = np.array([0.0, 0.6])
    monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS", 40 * batch * 8 * frames)
    field = forward_batch(model, x, cond, t)
    recorded, tape = forward_batch(model, x, cond, t, record=True)
    assert np.array_equal(recorded, field)
    dense = dense_forward(model, x, cond, t)
    assert np.max(np.abs(field - dense)) <= 1e-14 * np.max(np.abs(dense))
    for layer in range(2):
        bands = banded_blocks(tape, layer)
        assert {0, 1} <= set(bands) and set(bands) == set(range(len(bands)))
        for head, blocks in bands.items():
            assert [rows.start for rows, _ in blocks] == list(range(0, frames, 40))
            for rows, keys in blocks:
                assert rows.stop - rows.start == 40
                assert keys.start <= rows.start and rows.stop <= keys.stop <= frames
        kept = sum((rows.stop - rows.start) * (keys.stop - keys.start)
                   for rows, keys in bands[0]) / frames ** 2
        assert kept < 0.6, kept
        sub = tape.blocks[layer][0]
        blocks = sub["blocks"]
        full = [block for block in blocks if block[0].start not in bands]
        assert {tuple(s.stop - s.start for s in block) for block in full} == {(1, 40, frames)}
        covered = np.zeros((8, frames), dtype=int)
        for block in blocks:
            heads, rows, keys = block
            covered[heads, rows] += 1
            assert keys.start <= rows.start and rows.stop <= keys.stop
            weights = vectorfield._block_weights(sub["q"], sub["k"], alibi_bias(frames, 8), block)
            assert weights.shape == (batch, heads.stop - heads.start, rows.stop - rows.start,
                                     keys.stop - keys.start)
        assert np.all(covered == 1)
        assert sub["row_sums"].shape == (batch, 8, frames) and np.all(sub["row_sums"] >= 1.0)
    full_range(monkeypatch)
    everything = forward_batch(model, x, cond, t)
    assert np.max(np.abs(field - everything)) <= 1e-14 * np.max(np.abs(everything))


def test_key_bands_at_the_default_config(monkeypatch):
    """At the default config on 1501 frames (12 s), heads 0 and 1 score a
    band of keys, and the field stays within 1e-14 of a pass over every
    key."""
    model = randomized(ModelConfig(), seed=40, scale=0.05)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((1, 512, 1501))
    cond = rng.standard_normal((1, 512, 1501))
    banded = []
    key_bands = vectorfield._key_bands

    def count_banded(q, k, rows):
        blocks = key_bands(q, k, rows)
        banded.append(len(banded_heads(blocks, q.shape[2])))
        return blocks

    monkeypatch.setattr(vectorfield, "_key_bands", count_banded)
    for t in (0.0, 0.6):
        field = forward_batch(model, x, cond, np.array([t]))
        assert banded == [2] * 4
        banded.clear()
        with monkeypatch.context() as patch:
            full_range(patch)
            everything = forward_batch(model, x, cond, np.array([t]))
        assert np.max(np.abs(field - everything)) <= 1e-14 * np.max(np.abs(everything))


def test_key_bands_cap_every_block_at_one_heads_share():
    """At 4 heads, batch 1 and 2, and every length from 2 to 1600 frames,
    with rows sized as `_attention_forward` sizes them, no block scores more
    than one head's share of ATTENTION_BLOCK_ELEMENTS, every block's keys
    hold its rows, and every (head, row) pair lies in exactly one block: an
    input of one row block splits its heads into blocks that each fit the
    share (at batch 1: two blocks of two heads from 257 frames, one block
    per head from 363 to 512), and only an input whose block over every
    head fits the share (up to 256 frames at batch 1, 181 at batch 2) keeps
    that single block."""
    heads = 4
    share = vectorfield.ATTENTION_BLOCK_ELEMENTS // heads
    rng = np.random.default_rng(49)
    q_all, k_all = (rng.standard_normal((2, heads, 1600, 33)) for _ in range(2))
    for batch in (1, 2):
        for frames in range(2, 1601):
            q, k = q_all[:batch, :, :frames], k_all[:batch, :, :frames]
            rows = max(1, vectorfield.ATTENTION_BLOCK_ELEMENTS // (batch * heads * frames))
            blocks = vectorfield._key_bands(q, k, rows)
            covered = np.zeros((heads, frames), dtype=int)
            for head_sel, sel, keys in blocks:
                extent = [s.stop - s.start for s in (head_sel, sel, keys)]
                assert batch * np.prod(extent) <= share, (batch, frames, extent)
                assert keys.start <= sel.start and sel.stop <= keys.stop
                covered[head_sel, sel] += 1
            assert np.all(covered == 1), (batch, frames)
            assert (len(blocks) == 1) == (batch * heads * frames ** 2 <= share)
            if batch == 1 and frames <= 512:
                assert len(blocks) == (1 if frames <= 256 else 2 if frames <= 362 else 4)


@pytest.mark.parametrize("frames, groups", [(300, 2), (450, 4)])
def test_head_blocks_keep_every_bit(monkeypatch, frames, groups):
    """An input of one row block that splits its heads into blocks (two of
    two heads at 300 frames, one per head at 450) gives the unrecorded
    field, the recorded field and every `backward` gradient equal bit for
    bit to those of the single block over every head: each head's matmuls
    are the same calls either way."""
    config = ModelConfig(num_layers=2, model_dim=32, num_heads=4,
                         feature_channels=8, time_embed_dim=16, feedforward_dim=32)
    model = randomized(config, seed=50)
    rng = np.random.default_rng(51)
    x, cond, seed = (rng.standard_normal((1, 8, frames)) for _ in range(3))
    t = np.array([0.4])

    def run():
        field = forward_batch(model, x, cond, t)
        recorded, tape = forward_batch(model, x, cond, t, record=True)
        count = len(tape.blocks[0][0]["blocks"])
        return field, recorded, backward(model, tape, seed), count

    field, recorded, grads, count = run()
    assert count == groups
    with monkeypatch.context() as patch:
        patch.setattr(vectorfield, "_key_bands", lambda q, k, rows: [
            (slice(0, q.shape[1]), slice(0, q.shape[2]), slice(0, q.shape[2]))])
        one_field, one_recorded, one_grads, one_count = run()
    assert one_count == 1
    assert np.array_equal(field, one_field) and np.array_equal(recorded, one_recorded)
    assert all(np.array_equal(grads[name], one_grads[name]) for name in grads)


def test_rows_far_above_their_diagonal_see_every_key(monkeypatch):
    """A query whose score on one key lies 300 above its diagonal score
    widens its block's band to every key, and the context still matches the
    textbook softmax; the other blocks keep their band."""
    heads, frames, head_dim, row = 8, 400, 4, 205
    rng = np.random.default_rng(42)
    qkv = rng.standard_normal((1, frames, 3 * heads * head_dim))
    key_dim = heads * head_dim + head_dim - 1  # head 0's last key coordinate
    qkv[0, :, key_dim] = 0.0
    qkv[0, row + 10, key_dim] = 1.0
    qkv[0, row, head_dim - 1] = 300.0 * np.sqrt(head_dim)
    q, k, v = [a.reshape(frames, heads, head_dim).transpose(1, 0, 2)
               for a in np.split(qkv[0], 3, axis=1)]
    bias = alibi_bias(frames, heads)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    assert scores[0, row, row + 10] - scores[0, row, row] > 295.0
    probs, ctx = textbook_attention(scores + bias, v)
    ctx = ctx.transpose(1, 0, 2).reshape(1, frames, heads * head_dim)
    monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS", 40 * heads * frames)
    got, blocks = run_attention(qkv, heads, bias, record=True)
    assert np.max(np.abs(got - ctx)) <= 1e-13 * np.max(np.abs(ctx))
    head0 = {rows.start: (keys.start, attn) for heads, rows, keys, attn in blocks
             if heads == slice(0, 1)}
    assert head0[200][0] == 0 and head0[200][1].shape[3] == frames
    assert np.max(np.abs(head0[200][1][0, 0] - probs[0, 200:240])) <= 1e-13
    assert all(attn.shape[3] < frames for start, (_, attn) in head0.items()
               if start != 200)


def test_attention_memory_grows_linearly_in_frames():
    model = init_parameters(ModelConfig(), np.random.default_rng(26))

    def peak_mib(frames):
        rng = np.random.default_rng(frames)
        x = rng.standard_normal((1, 512, frames))
        cond = rng.standard_normal((1, 512, frames))
        tracemalloc.start()
        try:
            forward_batch(model, x, cond, np.array([0.5]))
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    # a dense [frames, frames] grid would quadruple the peak and need ~1.2 GiB at 2501
    assert peak_mib(2000) < 2.5 * peak_mib(1000)
    assert peak_mib(2501) < 150.0


@pytest.mark.parametrize("frames, bound", [(2501, 32.0), (501, 6.0)])
def test_inference_forward_peak_is_bounded(frames, bound):
    """Without recording, activations are freed at their last use: one NFE at
    the defaults peaks at about 17.6 MiB on 20 s (2501 frames), where an
    attention sublayer builds its operands beside the qkv projection and
    runs its block loop, and at the output projection, not at the sum of
    every layer's temporaries (nor at a [frames, 2 * channels] input, which
    the split input projection never builds). On 4 s (501 frames), one row
    block, each head is its own block, so the peak is about 4.6 MiB, where
    one block over all four heads took about 10.7 MiB."""
    model = init_parameters(ModelConfig(), np.random.default_rng(27))
    rng = np.random.default_rng(28)
    x = rng.standard_normal((1, 512, frames))
    cond = rng.standard_normal((1, 512, frames))
    tracemalloc.start()
    try:
        forward_batch(model, x, cond, np.array([0.5]))
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


def test_unrecorded_field_equals_recorded(monkeypatch):
    """Freeing activations early in an unrecorded pass must not change any
    arithmetic: at the default depth and width, with several attention
    blocks, both passes give the same field bit for bit."""
    model = randomized(ModelConfig(), seed=29)
    rng = np.random.default_rng(30)
    x = rng.standard_normal((2, 512, 23))
    cond = rng.standard_normal((2, 512, 23))
    t = np.array([0.25, 0.75])
    # 2 * 4 * 23 scores per query row: rows of 5 give each head blocks of 5, 5, 5, 5, 3
    monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS", 5 * 184)
    recorded, tape = forward_batch(model, x, cond, t, record=True)
    assert len(tape.blocks) == 4
    for head in range(4):
        assert [rows.stop - rows.start for heads, rows, _ in tape.blocks[3][0]["blocks"]
                if heads == slice(head, head + 1)] == [5, 5, 5, 5, 3]
    assert np.array_equal(forward_batch(model, x, cond, t), recorded)


def test_backward_zero_seed_gives_zero_gradients():
    model = randomized(TINY, seed=16)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1, 8, 7))
    cond = rng.standard_normal((1, 8, 7))
    _, tape = forward_batch(model, x, cond, np.array([0.5]), record=True)
    grads = backward(model, tape, np.zeros((1, 8, 7)))
    assert set(grads) == set(model.params)
    for g in grads.values():
        assert np.all(g == 0.0)


def test_tape_holds_only_what_backward_reads():
    """Every taped entry is read by `backward`, so a recorded pass keeps no
    activation alive for nothing (the hidden states and the modulated
    inputs m are not taped; backward recomputes m from n, shift and scale).
    Every layer tapes an attention and an FFN sublayer, each under the same
    modulation and output key names. The references are taken before
    `backward`, which consumes the tape."""

    class ReadTracking(dict):
        def __init__(self, entries):
            super().__init__(entries)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

    model = randomized(TINY, seed=31)
    rng = np.random.default_rng(32)
    x = rng.standard_normal((2, 8, 9))
    out, tape = forward_batch(model, x, rng.standard_normal((2, 8, 9)),
                              np.array([0.3, 0.7]), record=True)
    tape.inputs = ReadTracking(tape.inputs)
    tape.final = ReadTracking(tape.final)
    tape.blocks = [tuple(ReadTracking(sub) for sub in blk) for blk in tape.blocks]
    entries = [tape.inputs, tape.final, *[sub for blk in tape.blocks for sub in blk]]
    backward(model, tape, np.ones_like(out))
    _, final, *sublayers = entries
    assert len(sublayers) == 2 * TINY.num_layers
    assert set(final) == {"n", "inv", "shift", "scale"}
    for sub in sublayers:
        assert {"n", "inv", "shift", "scale", "gate", "out"} <= set(sub) and "m" not in sub
    for sub in entries:
        assert sub.read == set(sub)


def test_backward_consumes_its_tape():
    """`backward` releases the tape as it goes: the tape holds nothing
    afterwards, and a second `backward` on it is refused by name, while a
    fresh recording gives the same gradients bit for bit."""
    model = randomized(TINY, seed=45)
    rng = np.random.default_rng(46)
    x, cond, seed = (rng.standard_normal((2, 8, 9)) for _ in range(3))
    t = np.array([0.3, 0.7])
    _, tape = forward_batch(model, x, cond, t, record=True)
    grads = backward(model, tape, seed)
    assert tape.inputs is None and tape.final is None and tape.blocks == []
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        backward(model, tape, seed)
    _, tape = forward_batch(model, x, cond, t, record=True)
    again = backward(model, tape, seed)
    assert all(np.array_equal(again[name], grads[name]) for name in grads)


def test_recorded_pass_memory_is_linear_in_frames():
    """No taped array has two axes of length frames, on an input that fits
    one attention block (200 frames) and on one 16 s crop (2001 frames):
    each attention layer tapes its blocks' slices and one row sum per head
    and frame, not their probabilities. At the default config the 16 s
    crop's recorded forward plus `backward` peaks under 160 MiB, where
    taping every probability block took about 500 MiB."""
    def arrays_in(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (dict, list, tuple)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from arrays_in(item)

    model = randomized(ModelConfig(), seed=47, scale=0.05)
    rng = np.random.default_rng(48)
    for frames in (200, 2001):
        x, cond, seed = (rng.standard_normal((1, 512, frames)) for _ in range(3))
        tracemalloc.start()
        try:
            _, tape = forward_batch(model, x, cond, np.array([0.5]), record=True)
            assert len(tape.blocks[0][0]["blocks"]) == (1 if frames == 200 else 4 * 16)
            arrays = list(arrays_in([tape.inputs, tape.final, tape.blocks]))
            assert len(arrays) > 20
            assert max(a.shape.count(frames) for a in arrays) == 1, frames
            del arrays
            backward(model, tape, seed)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert peak <= 160.0, peak


def _spot_check_gradients(batch, frames):
    model = randomized(TINY, seed=19)
    rng = np.random.default_rng(20)
    x = rng.standard_normal((batch, 8, frames))
    cond = rng.standard_normal((batch, 8, frames))
    t = np.linspace(0.35, 0.65, batch)
    target = rng.standard_normal((batch, 8, frames))

    def loss_value():
        return cfm_loss(forward_batch(model, x, cond, t), target)[0]

    out, tape = forward_batch(model, x, cond, t, record=True)
    grads = backward(model, tape, cfm_loss(out, target)[1])
    h = 1e-5
    for name in ("input_proj.weight", "time_mlp.weight1", "block0.qkv.weight",
                 "block0.ada.bias", "block1.ffn.weight2", "final_ada.weight",
                 "output_proj.bias"):
        flat = model.params[name].reshape(-1)
        for k in rng.choice(flat.size, size=4, replace=False):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_value()
            flat[k] = orig - h
            dn = loss_value()
            flat[k] = orig
            fd = (up - dn) / (2 * h)
            an = grads[name].reshape(-1)[k]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            assert rel < 1e-4, (f"{batch}x{frames} frames, {name}[{k}]: "
                                f"fd {fd:.3e} vs analytic {an:.3e}")


def test_backward_spot_finite_differences(monkeypatch):
    """A fast cross-section of the full gradient check (the exhaustive sweep
    lives in the acceptance suite), with one attention block and with query
    blocks of 2, 2, 2, 1 rows."""
    for batch, frames, block_elements in [
            (1, 6, vectorfield.ATTENTION_BLOCK_ELEMENTS),
            (2, 7, 2 * 2 * 7 * 2)]:
        monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS", block_elements)
        _spot_check_gradients(batch, frames)


def analytic_cfm_loss(predicted, target, frame_mask=None):
    """`cfm_loss`'s value, in arithmetic that stays analytic."""
    batch, channels, frames = predicted.shape
    diff = predicted - target
    mask = np.ones((batch, frames)) if frame_mask is None else frame_mask.astype(np.float64)
    per_item = np.maximum(mask.sum(axis=1) * channels, 1.0)
    return ((diff * diff * mask[:, None, :]).sum(axis=(1, 2)) / per_item).sum() / batch


FOUR_HEADS = dataclasses.replace(TINY, num_heads=4)
# name: (config, parameter scale, batch, frames, attention block rows or None
# for one block, training slice frames or None for `backward` on one pass,
# masked loss)
COMPLEX_STEP_CASES = {
    "one pass": (FOUR_HEADS, 0.3, 2, 9, None, None, False),
    "blocks of 2 rows, masked": (FOUR_HEADS, 0.3, 2, 9, 2, None, True),
    "slices of 2, 2, 1 items": (FOUR_HEADS, 0.3, 5, 7, 3, 14, False),
    "slices of 2, 2, 1 items, masked": (FOUR_HEADS, 0.3, 5, 7, None, 14, True),
    "banded heads": (dataclasses.replace(EIGHT_HEADS, num_layers=1), 0.1, 1, 240, 24,
                     None, False),
}


@pytest.mark.parametrize("case", COMPLEX_STEP_CASES)
def test_gradients_match_complex_step(monkeypatch, case):
    """Every segment's gradient, from `backward` on one pass or from the
    training step's slices, equals the complex-step derivative
    Im loss(p + ih e_k) / h at h = 1e-30 of the dense analytic loss to 1e-12
    of the segment's largest gradient: for the argmax entry and two others
    per segment, with one and several attention blocks, banded heads and
    `cfm_loss` masked (with one item that has no masked frame) or not. The
    complex step has no subtractive cancellation, so it is exact to
    rounding."""
    config, scale, batch, frames, rows, slice_frames, masked = COMPLEX_STEP_CASES[case]
    model = randomized(config, seed=43, scale=scale)
    rng = np.random.default_rng(44)
    x, cond, target = (rng.standard_normal((batch, 8, frames)) for _ in range(3))
    t = np.linspace(0.2, 0.9, batch)
    mask = None
    if masked:
        mask = rng.random((batch, frames)) < 0.5
        mask[1] = False
    if rows is not None:
        sliced = batch if slice_frames is None else slice_frames // frames
        monkeypatch.setattr(vectorfield, "ATTENTION_BLOCK_ELEMENTS",
                            rows * sliced * config.num_heads * frames)
    if slice_frames is None:
        out, tape = forward_batch(model, x, cond, t, record=True)
        assert (len(tape.blocks[0][0]["blocks"]) > 1) == (rows is not None)
        if config.num_heads == 8:
            assert 0 in banded_blocks(tape, 0)
        loss, dpred = cfm_loss(out, target, mask)
        grads = backward(model, tape, dpred)
    else:
        monkeypatch.setattr(training, "MICRO_BATCH_FRAMES", slice_frames)
        loss, grads = training._forward_backward(
            model, batch,
            lambda i: (x[i], cond[i], t[i], target[i], None if mask is None else mask[i]))

    def complex_loss(params):
        return analytic_cfm_loss(dense_forward(VectorFieldModel(config, params),
                                               x, cond, t), target, mask)

    h = 1e-30
    assert abs(complex_loss(model.params) - loss) <= 1e-13 * loss
    for name, grad in grads.items():
        largest = np.max(np.abs(grad))
        assert largest > 0.0, name
        entries = {int(np.argmax(np.abs(grad))),
                   *rng.choice(grad.size, size=min(2, grad.size), replace=False)}
        for k in entries:
            params = {n: a.astype(complex) for n, a in model.params.items()}
            params[name].reshape(-1)[k] += 1j * h
            exact = complex_loss(params).imag / h
            assert abs(grad.reshape(-1)[k] - exact) <= 1e-12 * largest, (
                f"{case}: {name}[{k}] {grad.reshape(-1)[k]!r} vs complex step {exact!r}")
