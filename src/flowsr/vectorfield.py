"""Transformer vector-field estimator with ALiBi attention bias and adaptive
normalization time conditioning.

The network maps (state, condition, time) to a predicted velocity field of the
same shape as the state. State and condition grids are projected to the model
width by the two halves of one input projection (the projection of their
channel-axis concatenation, which is never built), and processed by pre-norm
transformer blocks whose normalization scale/shift/gate are produced from the
time embedding (modulation projections and the output head are
zero-initialized, so a fresh model predicts the zero field). ALiBi supplies
the only position information: a bias -slope_h * |i - j| between frames i
and j. The [heads, frames, frames] bias grid is a read-only strided view over
one [heads, 2 * frames - 1] array of offsets, built once per forward pass and
shared by every layer and block, so it costs O(heads * frames) memory.

Attention is exact and computed in blocks of query rows, so inference holds
O(batch * heads * rows * frames) attention memory, with rows chosen to keep a
block near ATTENTION_BLOCK_ELEMENTS scores, rather than a full [batch, heads,
frames, frames] grid. Queries are scaled by 1/sqrt(head_dim), and each row's
softmax is shifted by the row's diagonal score rather than its maximum
(ALiBi's bias is 0 on the diagonal), which one extra column of q and k folds
into the score matmul. The softmax is normalised on the context:
exp(scores) @ [v, 1] gives the weighted values beside the row sums, which
divide them; the probabilities are normalised only when taped. A block thus
costs two matmuls, one bias add and one exp. A block scores only the keys
whose weight can reach 1e-16 of its row sums: ALiBi's steep heads decay by
e^(-m_h) per frame, so on long inputs they score a band of keys around the
block, sized from a bound on the layer's scores, while the other heads score
every key in one batched group. `_key_bands` lays this out once per layer as
one list of (heads, rows, keys) slices, which the forward loop scores and
the backward loop differentiates. Training crops and short utterances fit
in one block: (all heads, all rows, all keys). A recorded forward pass tapes
every block as (heads, rows, keys, probabilities), O(batch * frames^2) in
total; training bounds it by recording slices of about
`training.MICRO_BATCH_FRAMES` frames (four 128-frame crops), not the whole
batch.

The attention and feed-forward branches of a block are each one function
whose temporaries are locals; both, and the final layer, modulate their
input with `_modulate` (layer norm, then the time-dependent scale and
shift). Without recording only the hidden state and the step in progress
stay live (see `forward_batch`): one field evaluation at the defaults peaks
at about 13 MiB at 1501 frames and 22 MiB at 2501 frames.

Forward and backward passes are written directly against numpy in float64;
`backward` consumes the `ForwardTape` recorded by
`forward_batch(..., record=True)`, which holds only what it reads (the
residual stream's hidden states are not taped), and is validated against
central finite differences and complex-step derivatives in the test suite.
Each sublayer tapes itself, under the same key names n, inv, m (the
`_modulate` outputs), scale, gate and out (its un-gated output), beside its
own extra entries. Backward mirrors the sublayers:
`_attention_sublayer_backward` and `_ffn_sublayer_backward` each read only
their own tape and return their input's gradient, their own segments'
gradients and their modulation's gradients, so every parameter segment's
gradient is computed once, in one place.

Parameter count for a config (D = model_dim, C = feature_channels,
T = time_embed_dim, F = feedforward_dim, N = num_layers):

    D*(2C + 1)                                  input projection
    + T*D + D + D*D + D                         time-embedding MLP
    + N*(4*D*D + 4*D + 2*D*F + F + D + 6*D*D + 6*D)   blocks
    + 2*D*D + 2*D                               final modulation
    + D*C + C                                   output projection
"""

import dataclasses

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

LN_EPS = 1e-6
TIME_SCALE = 1000.0  # sinusoidal input scaling; keeps frequencies well spread on [0, 1]
# Score elements per attention block (8 MiB of float64). Training crops and
# short utterances fit in one block, which is the dense computation unchanged.
ATTENTION_BLOCK_ELEMENTS = 2 ** 20


@dataclasses.dataclass
class ModelConfig:
    num_layers: int = 4
    model_dim: int = 128
    num_heads: int = 4
    feature_channels: int = 512
    time_embed_dim: int = 128
    feedforward_dim: int = 256

    def __post_init__(self):
        for name in ("num_layers", "model_dim", "num_heads", "feature_channels",
                     "time_embed_dim", "feedforward_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(f"model_dim {self.model_dim} not divisible by "
                             f"num_heads {self.num_heads}")
        if self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be even")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


@dataclasses.dataclass
class VectorFieldModel:
    """Configuration plus named parameter segments (dict of float64 arrays)."""

    config: ModelConfig
    params: dict


def segment_shapes(config: ModelConfig) -> dict:
    """Ordered name -> shape map defining the parameter layout."""
    d, c = config.model_dim, config.feature_channels
    t, f = config.time_embed_dim, config.feedforward_dim
    shapes = {
        "input_proj.weight": (2 * c, d),
        "input_proj.bias": (d,),
        "time_mlp.weight1": (t, d),
        "time_mlp.bias1": (d,),
        "time_mlp.weight2": (d, d),
        "time_mlp.bias2": (d,),
    }
    for i in range(config.num_layers):
        shapes[f"block{i}.qkv.weight"] = (d, 3 * d)
        shapes[f"block{i}.qkv.bias"] = (3 * d,)
        shapes[f"block{i}.attn_out.weight"] = (d, d)
        shapes[f"block{i}.attn_out.bias"] = (d,)
        shapes[f"block{i}.ffn.weight1"] = (d, f)
        shapes[f"block{i}.ffn.bias1"] = (f,)
        shapes[f"block{i}.ffn.weight2"] = (f, d)
        shapes[f"block{i}.ffn.bias2"] = (d,)
        shapes[f"block{i}.ada.weight"] = (d, 6 * d)
        shapes[f"block{i}.ada.bias"] = (6 * d,)
    shapes["final_ada.weight"] = (d, 2 * d)
    shapes["final_ada.bias"] = (2 * d,)
    shapes["output_proj.weight"] = (d, c)
    shapes["output_proj.bias"] = (c,)
    return shapes


def parameter_count(config: ModelConfig) -> int:
    """Closed-form parameter count (matches the docstring formula)."""
    return sum(int(np.prod(s)) for s in segment_shapes(config).values())


# Modulation projections and the output head start at zero so the initial
# field is identically zero and residual branches switch on gradually.
_ZERO_INIT_SEGMENTS = ("ada.", "output_proj.")


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> VectorFieldModel:
    """Deterministic initialization: Xavier-uniform weights, zero biases,
    zero modulation/output segments."""
    params = {}
    for name, shape in segment_shapes(config).items():
        if any(tag in name for tag in _ZERO_INIT_SEGMENTS) or ".bias" in name:
            params[name] = np.zeros(shape)
        else:
            fan_in, fan_out = shape[0], shape[1]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-limit, limit, size=shape)
    return VectorFieldModel(config=config, params=params)


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal encodings [batch, dim] of times t [batch] in [0, 1] at
    geometrically spaced frequencies.

    First half sine, second half cosine; entries lie in [-1, 1] and the map is
    injective on [0, 1] because the slowest component is monotone there.
    """
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {dim}")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = TIME_SCALE * t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def alibi_slopes(num_heads: int) -> np.ndarray:
    """Geometric per-head slopes m_h = 2**(-8h/H), h = 1..H."""
    h = np.arange(1, num_heads + 1, dtype=np.float64)
    return 2.0 ** (-8.0 * h / num_heads)


def alibi_bias(frames: int, num_heads: int) -> np.ndarray:
    """Attention bias [heads, frames, frames]: -slope_h * |i - j|.

    A read-only view: row i is the window of one [heads, 2 * frames - 1]
    array of offset biases that starts at offset -i, so the grid costs
    O(heads * frames) memory and no in-place operation can alter it.
    """
    offsets = np.abs(np.arange(1 - frames, frames, dtype=np.float64))
    biases = -alibi_slopes(num_heads)[:, None] * offsets[None]
    return sliding_window_view(biases, frames, axis=1)[:, ::-1]


def _ln_forward(x):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    return (x - mean) * inv, inv


def _ln_backward(dy, y, inv):
    return inv * (dy - dy.mean(axis=-1, keepdims=True)
                  - y * (dy * y).mean(axis=-1, keepdims=True))


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s


def _silu_grad(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _linear_grads(x, dy, layer, suffix=""):
    """Segment gradients {layer}.weight{suffix} and {layer}.bias{suffix} of
    a linear layer, from its input x [..., in] and output gradient dy [..., out]."""
    x2d = x.reshape(-1, x.shape[-1])
    dy2d = dy.reshape(-1, dy.shape[-1])
    return {f"{layer}.weight{suffix}": x2d.T @ dy2d,
            f"{layer}.bias{suffix}": dy2d.sum(axis=0)}


@dataclasses.dataclass
class ForwardTape:
    """Intermediate activations recorded for one batched forward pass.

    inputs: the state and condition grids and the time-embedding MLP's
    activations. blocks: per layer, the pair (attention tape, FFN tape) of
    `_attention_sublayer` and `_ffn_sublayer`. final: the final layer's
    `_modulate` outputs n, inv, m and its scale.
    """

    inputs: dict
    blocks: list
    final: dict


def _attention_operands(qkv, num_heads):
    """Attention operands q, k, v, each [batch, heads, frames, head_dim + 1],
    from the [batch, frames, 3 * heads * head_dim] qkv projection.

    q holds [q / sqrt(head_dim), -c], where c_i = q_i . k_i / sqrt(head_dim)
    is row i's diagonal score; k holds [k, 1] and v holds [v, 1]. So q @ k^T
    gives every score shifted by its row's diagonal score, and
    weights @ v gives the weighted sum of values beside the row sum of the
    weights. `_attention_backward` reads the first head_dim columns.
    """
    batch, frames, width = qkv.shape
    head_dim = width // (3 * num_heads)
    q, k, v = (np.empty((batch, num_heads, frames, head_dim + 1)) for _ in range(3))
    parts = [a.reshape(batch, frames, num_heads, head_dim).transpose(0, 2, 1, 3)
             for a in np.split(qkv, 3, axis=2)]
    np.divide(parts[0], np.sqrt(head_dim), out=q[..., :-1])
    k[..., :-1] = parts[1]
    v[..., :-1] = parts[2]
    np.einsum("bhld,bhld->bhl", q[..., :-1], k[..., :-1], out=q[..., -1])
    np.negative(q[..., -1], out=q[..., -1])
    k[..., -1] = 1.0
    v[..., -1] = 1.0
    return q, k, v


def _key_bands(q, k, rows):
    """The attention blocks of `_attention_forward`: a list of (heads, rows,
    keys) slices, in which every head's query rows appear exactly once, each
    against every key whose weight can reach 1e-16 of its row sum.

    Query rows are cut into blocks of `rows`. A banded head gets one entry
    per row block, on the keys within W frames of the block; the other heads,
    the last ones, get one batched group entry per row block on every key.
    When rows >= frames the list is the single block (all heads, all rows,
    all keys), which sees every key whatever W is, so it costs no bound.

    The band keeps every key whose weight can reach 1e-16 of its row sum.
    Row i's weight on key j is exp(q_i . k_j - c_i - m_h |i - j|), q scaled,
    c_i the diagonal score and m_h the `alibi_slopes` slope. With
    K_h = max_j |k_j| over the batch and frames,
    q_i . k_j - c_i <= S_i = |q_i| K_h - c_i, and q's last column holds
    -c_i. The keys more than W frames away then weigh at most
    2 sum_{d > W} e^(S_i - m_h d) = 2 e^(S_i - m_h (W + 1)) / (1 - e^-m_h)
    <= 2 e^(S_i - m_h W) / m_h in total, since 1 - e^-m >= m e^-m, while the
    diagonal weight 1 makes the row sum at least 1. With S the largest S_i
    of the block and at least 0, W = ceil((S + R_h) / m_h) and
    R_h = ln(2e16) - ln m_h drop less than 1e-16 of every row sum.

    A band gives its head blocks of its own, so a head is banded only where
    its band skips at least one block's worth of scores (rows * frames);
    bands that skipped less were measured no faster. Slopes fall with h, so
    the banded heads come first and the others stay one batched group.
    """
    heads, frames = q.shape[1:3]
    if rows >= frames:
        return [(slice(0, heads), slice(0, frames), slice(0, frames))]
    slopes = alibi_slopes(heads)
    starts = np.arange(0, frames, rows)
    stops = np.minimum(starts + rows, frames)
    key_norm = np.sqrt(np.einsum("bhld,bhld->bhl", k[..., :-1], k[..., :-1]).max(axis=(0, 2)))
    query_norm = np.sqrt(np.einsum("bhld,bhld->bhl", q[..., :-1], q[..., :-1]))
    reach = np.maximum.reduceat((query_norm * key_norm[:, None] + q[..., -1]).max(axis=0),
                                starts, axis=1)  # S per head and block
    half_width = np.ceil((np.maximum(reach, 0.0) + np.log(2e16 / slopes)[:, None])
                         / slopes[:, None])  # W per head and block
    half_width = np.where(half_width < frames, half_width, frames).astype(np.int64)  # inf, nan
    lo = np.maximum(starts - half_width, 0)
    hi = np.minimum(stops + half_width, frames)
    skipped = frames * frames - ((hi - lo) * (stops - starts)).sum(axis=1)
    pays = np.flatnonzero(skipped >= rows * frames)
    banded = int(pays[-1]) + 1 if pays.size else 0
    row_blocks = [slice(start, stop) for start, stop in zip(starts.tolist(), stops.tolist())]
    blocks = [(slice(h, h + 1), sel, slice(key_lo, key_hi)) for h in range(banded)
              for sel, key_lo, key_hi in zip(row_blocks, lo[h].tolist(), hi[h].tolist())]
    if banded < heads:
        blocks += [(slice(banded, heads), sel, slice(0, frames)) for sel in row_blocks]
    return blocks


def _attention_forward(q, k, v, bias, record):
    """Exact softmax attention with ALiBi, one block of query rows at a time.

    q, k, v: the `_attention_operands` of the layer; bias: the `alibi_bias`
    grid. The blocks are `_key_bands`' (heads, rows, keys) slices, and each
    sees every key whose weight can reach 1e-16 of its row sum: ALiBi's
    steep heads score only a band of keys around the block, and the other
    heads, batched, every key, so each row's softmax is complete without an
    online rescaling. Each row is shifted by its diagonal score instead of
    its maximum, which the score matmul applies: the bias is 0 on the
    diagonal, which every band holds, so the diagonal weight is exp(0) = 1
    and every row sum is at least 1. The row sums come out of the context
    matmul, so a block costs two matmuls, one bias add and one exp. A row
    sum overflows float64 only when scores lie about 709 - ln(frames) or
    more above their row's diagonal score; a row sum of inf would turn that
    row's context into zeros, so the block raises FloatingPointError
    instead.

    Returns the context [batch, frames, heads * head_dim] and, when
    recording, the tape of blocks (empty otherwise): (heads, rows, keys,
    probabilities [batch, heads, rows, keys]) for each block, in
    `_key_bands`' order.
    """
    batch, heads, frames, width = q.shape
    rows = max(1, ATTENTION_BLOCK_ELEMENTS // (batch * heads * frames))
    k_t = k.transpose(0, 1, 3, 2)
    ctx = np.empty((batch, frames, heads, width - 1))
    attn_blocks = []
    for group, sel, keys in _key_bands(q, k, rows):
        attn = q[:, group, sel] @ k_t[:, group, :, keys]
        attn += bias[group, sel, keys]
        np.exp(attn, out=attn)
        out = attn @ v[:, group, keys]  # [..., :-1] weighted values, [..., -1:] row sums
        total = out[..., -1:]
        if np.isinf(total).any():
            raise FloatingPointError(
                "attention weights overflow float64: a score lies about "
                f"{709 - np.log(frames):.0f} or more above its row's diagonal score")
        ctx[:, sel, group] = (out[..., :-1] / total).transpose(0, 2, 1, 3)
        if record:
            attn /= total
            attn_blocks.append((group, sel, keys, attn))
        del attn, out, total  # otherwise still held while the next block is scored
    return ctx.reshape(batch, frames, heads * (width - 1)), attn_blocks


def _attention_backward(dctx, ctx, q, k, v, attn_blocks):
    """Gradients (dq, dk, dv) of the unscaled q, k, v [batch, heads, frames,
    head_dim] of `_attention_forward`, given dctx and ctx shaped like them
    and the forward's `_attention_operands` and tape of (heads, rows, keys,
    probabilities) blocks, each differentiated over the heads, rows and keys
    it covers.

    The softmax backward's row term sum_j dP_ij * P_ij equals dctx_i . ctx_i,
    because P @ v = ctx, so it is one O(frames * head_dim) product per layer
    rather than a reduction over every probability block.
    """
    q, k, v = q[..., :-1], k[..., :-1], v[..., :-1]  # q is already scaled
    scale = np.sqrt(q.shape[-1])
    row_terms = np.einsum("bhld,bhld->bhl", dctx, ctx)[..., None]
    dq = np.empty(q.shape)
    dk = np.zeros(k.shape)
    dv = np.zeros(v.shape)
    v_t = v.transpose(0, 1, 3, 2)
    for group, sel, keys, attn in attn_blocks:
        dk_keys, dv_keys = dk[:, group, keys], dv[:, group, keys]
        dctx_blk = dctx[:, group, sel]
        dv_keys += attn.transpose(0, 1, 3, 2) @ dctx_blk
        dscores = dctx_blk @ v_t[:, group, :, keys]
        dscores -= row_terms[:, group, sel]
        dscores *= attn
        dq[:, group, sel] = dscores @ k[:, group, keys] / scale
        dk_keys += dscores.transpose(0, 1, 3, 2) @ q[:, group, sel]
    return dq, dk, dv


def _modulate(x, shift, scale):
    """adaLN modulation of x [batch, frames, dim] by per-item shift and scale
    [batch, dim]. Returns (n, inv, m): the layer-normalised x, its inverse
    deviations and the modulated m = n * (1 + scale) + shift."""
    n, inv = _ln_forward(x)
    return n, inv, n * (1.0 + scale)[:, None, :] + shift[:, None, :]


def _modulate_backward(dm, n, inv, scale):
    """Backward of `_modulate`, given the gradient of m: the gradients of x,
    shift and scale."""
    dscale = np.einsum("bld,bld->bd", dm, n)
    dshift = dm.sum(axis=1)
    return _ln_backward(dm * (1.0 + scale)[:, None, :], n, inv), dshift, dscale


def _attention_sublayer(h_in, p, name, shift, scale, gate, bias, num_heads, record):
    """Pre-norm adaLN attention branch: h_in + gate * out.

    Returns the new hidden state and, when recording, its tape for `backward`
    (None otherwise): the `_modulate` outputs n, inv and m, its scale and
    gate, the un-gated branch output out, and the attention operands, blocks
    and context. Without recording every temporary is freed at its last use.
    """
    n, inv, m = _modulate(h_in, shift, scale)
    qkv = m @ p[f"{name}.qkv.weight"] + p[f"{name}.qkv.bias"]
    tape = dict(n=n, inv=inv, m=m, scale=scale, gate=gate) if record else None
    del n, m
    q, k, v = _attention_operands(qkv, num_heads)
    del qkv  # the operands are copies, so it is freed before the block loop
    ctx, attn_blocks = _attention_forward(q, k, v, bias, record)
    if record:
        tape.update(q=q, k=k, v=v, attn_blocks=attn_blocks, ctx=ctx)
    del q, k, v
    out = ctx @ p[f"{name}.attn_out.weight"] + p[f"{name}.attn_out.bias"]
    del ctx
    if record:
        tape["out"] = out  # un-gated: backward's dgate reads it
    return h_in + gate[:, None, :] * out, tape


def _attention_sublayer_backward(dh, tape, p, name):
    """Backward of `_attention_sublayer`, given the gradient of its output.

    Returns the gradient of its input, its segments' gradients and the
    gradients of its modulation (shift, scale, gate).
    """
    batch, frames, dim = dh.shape
    num_heads = tape["q"].shape[1]
    dout = dh * tape["gate"][:, None, :]
    dgate = np.einsum("bld,bld->bd", dh, tape["out"])
    grads = _linear_grads(tape["ctx"], dout, f"{name}.attn_out")
    dctx, ctx = [a.reshape(batch, frames, num_heads, dim // num_heads).transpose(0, 2, 1, 3)
                 for a in (dout @ p[f"{name}.attn_out.weight"].T, tape["ctx"])]
    dq, dk, dv = _attention_backward(dctx, ctx, tape["q"], tape["k"], tape["v"],
                                     tape["attn_blocks"])
    dqkv = np.concatenate(
        [a.transpose(0, 2, 1, 3).reshape(batch, frames, dim) for a in (dq, dk, dv)],
        axis=2)
    grads.update(_linear_grads(tape["m"], dqkv, f"{name}.qkv"))
    dx, dshift, dscale = _modulate_backward(dqkv @ p[f"{name}.qkv.weight"].T,
                                            tape["n"], tape["inv"], tape["scale"])
    return dh + dx, grads, (dshift, dscale, dgate)


def _ffn_sublayer(h_mid, p, name, shift, scale, gate, record):
    """Pre-norm adaLN GELU feed-forward branch: h_mid + gate * out.

    Returns the new hidden state and, when recording, its tape for `backward`
    (None otherwise): the `_modulate` outputs n, inv and m, its scale and
    gate, the un-gated branch output out, the GELU output and the GELU
    derivative, which is taped in place of the pre-activation. Without
    recording every temporary is freed at its last use.
    """
    n, inv, m = _modulate(h_mid, shift, scale)
    z1 = m @ p[f"{name}.ffn.weight1"] + p[f"{name}.ffn.bias1"]
    tape = dict(n=n, inv=inv, m=m, scale=scale, gate=gate) if record else None
    del n, m
    cdf = 0.5 * (1.0 + erf(z1 / np.sqrt(2.0)))  # standard normal CDF
    a1 = z1 * cdf
    if record:
        # GELU derivative cdf(z) + z * pdf(z)
        tape["gelu_grad"] = cdf + z1 * np.exp(-0.5 * z1 * z1) / np.sqrt(2.0 * np.pi)
        tape["a1"] = a1
    del z1, cdf
    out = a1 @ p[f"{name}.ffn.weight2"] + p[f"{name}.ffn.bias2"]
    del a1
    if record:
        tape["out"] = out  # un-gated: backward's dgate reads it
    return h_mid + gate[:, None, :] * out, tape


def _ffn_sublayer_backward(dh, tape, p, name):
    """Backward of `_ffn_sublayer`, given the gradient of its output.

    Returns the gradient of its input, its segments' gradients and the
    gradients of its modulation (shift, scale, gate).
    """
    dout = dh * tape["gate"][:, None, :]
    dgate = np.einsum("bld,bld->bd", dh, tape["out"])
    grads = _linear_grads(tape["a1"], dout, f"{name}.ffn", "2")
    dz1 = (dout @ p[f"{name}.ffn.weight2"].T) * tape["gelu_grad"]
    grads.update(_linear_grads(tape["m"], dz1, f"{name}.ffn", "1"))
    dx, dshift, dscale = _modulate_backward(dz1 @ p[f"{name}.ffn.weight1"].T,
                                            tape["n"], tape["inv"], tape["scale"])
    return dh + dx, grads, (dshift, dscale, dgate)


def forward_batch(model: VectorFieldModel, x_t: np.ndarray, cond: np.ndarray,
                  t: np.ndarray, record: bool = False):
    """Batched forward pass on raw arrays.

    Attention runs in blocks of query rows, each against every key whose
    weight can reach 1e-16 of its row sums (`_attention_forward`), so without
    recording it holds O(batch * heads * rows * frames) attention memory
    (about ATTENTION_BLOCK_ELEMENTS scores) instead of a full frames x frames
    grid. The ALiBi bias on frame indices is one `alibi_bias` view built per
    call and read by every layer and block. Each block's softmax is shifted
    by each row's diagonal score and normalised on its context; the
    probabilities are normalised only for the tape of a recorded pass, which
    keeps every block: O(batch * frames^2).

    The state and the condition are projected by the two halves of
    `input_proj.weight`, so no [batch, frames, 2 * channels] input is built,
    and a recorded pass tapes `x_t` and `cond` as they are. Without
    recording, every activation is freed at its last use: each sublayer's
    temporaries inside `_attention_sublayer` and `_ffn_sublayer`, and the
    last hidden state before the output projection. Only the hidden state
    and the step in progress stay live, so the peak is one attention block
    beside the attention operands and the context, or the output projection.

    Args:
        x_t: state grids [batch, channels, frames].
        cond: condition grids, same shape as x_t.
        t: times in [0, 1], shape [batch].
        record: also return a ForwardTape for `backward`.

    Returns:
        Field prediction [batch, channels, frames], and the tape if recorded.
    """
    cfg = model.config
    p = model.params
    if x_t.shape != cond.shape:
        raise ValueError(f"state shape {x_t.shape} != condition shape {cond.shape}")
    if x_t.ndim != 3 or x_t.shape[1] != cfg.feature_channels or x_t.size == 0:
        raise ValueError(f"expected non-empty [batch, {cfg.feature_channels}, frames] "
                         f"input, got {x_t.shape}")
    if not (np.all(np.isfinite(x_t)) and np.all(np.isfinite(cond))):
        raise ValueError("non-finite model input")
    batch, _, frames = x_t.shape
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (batch,):
        raise ValueError(f"times shape {t.shape} != {(batch,)} for input {x_t.shape}")
    if not np.all((t >= 0.0) & (t <= 1.0)):  # also refuses NaN
        raise ValueError(f"times must lie in [0, 1], got {t}")
    bias = alibi_bias(frames, cfg.num_heads)

    temb = time_embedding(t, cfg.time_embed_dim)
    z_t = temb @ p["time_mlp.weight1"] + p["time_mlp.bias1"]
    a_t = _silu(z_t)
    c = a_t @ p["time_mlp.weight2"] + p["time_mlp.bias2"]
    silu_c = _silu(c)

    w_in = p["input_proj.weight"]
    h = x_t.transpose(0, 2, 1) @ w_in[:cfg.feature_channels]
    h += cond.transpose(0, 2, 1) @ w_in[cfg.feature_channels:]
    h += p["input_proj.bias"]
    inputs = dict(x_t=x_t, cond=cond, temb=temb, z_t=z_t, a_t=a_t, c=c,
                  silu_c=silu_c) if record else None

    blocks_tape = []
    for i in range(cfg.num_layers):
        mod = silu_c @ p[f"block{i}.ada.weight"] + p[f"block{i}.ada.bias"]
        shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = np.split(mod, 6, axis=1)
        h, attn_tape = _attention_sublayer(h, p, f"block{i}", shift_a, scale_a, gate_a,
                                           bias, cfg.num_heads, record)
        h, ffn_tape = _ffn_sublayer(h, p, f"block{i}", shift_m, scale_m, gate_m, record)
        if record:
            blocks_tape.append((attn_tape, ffn_tape))

    mod_f = silu_c @ p["final_ada.weight"] + p["final_ada.bias"]
    shift_f, scale_f = np.split(mod_f, 2, axis=1)
    n, inv, m = _modulate(h, shift_f, scale_f)
    final = dict(n=n, inv=inv, m=m, scale=scale_f) if record else None
    del h, n
    out = m @ p["output_proj.weight"] + p["output_proj.bias"]
    field = out.transpose(0, 2, 1)  # [B, C, L]

    if not record:
        return field
    return field, ForwardTape(inputs=inputs, blocks=blocks_tape, final=final)


def backward(model: VectorFieldModel, tape: ForwardTape,
             output_grad: np.ndarray) -> dict:
    """Gradients of sum(output * output_grad) for every parameter segment.

    Args:
        tape: activations from `forward_batch(..., record=True)`.
        output_grad: upstream gradient, [batch, channels, frames].

    Returns:
        Dict of gradients aligned with the model's parameter segments, in
        their order.
    """
    if tape is None:
        raise ValueError("backward called without a recorded forward pass")
    p = model.params
    if output_grad.shape != tape.inputs["x_t"].shape:
        raise ValueError(f"output_grad shape {output_grad.shape} != "
                         f"{tape.inputs['x_t'].shape}")
    silu_c = tape.inputs["silu_c"]

    # final projection and modulation
    dout = output_grad.transpose(0, 2, 1)  # [B, L, C]
    fin = tape.final
    grads = _linear_grads(fin["m"], dout, "output_proj")
    dh, dshift_f, dscale_f = _modulate_backward(dout @ p["output_proj.weight"].T,
                                                fin["n"], fin["inv"], fin["scale"])
    dmod_f = np.concatenate([dshift_f, dscale_f], axis=1)
    grads.update(_linear_grads(silu_c, dmod_f, "final_ada"))
    d_silu_c = dmod_f @ p["final_ada.weight"].T

    for i in reversed(range(model.config.num_layers)):
        name = f"block{i}"
        attn_tape, ffn_tape = tape.blocks[i]
        dh, ffn_grads, dmod_m = _ffn_sublayer_backward(dh, ffn_tape, p, name)
        dh, attn_grads, dmod_a = _attention_sublayer_backward(dh, attn_tape, p, name)
        dmod = np.concatenate([*dmod_a, *dmod_m], axis=1)
        grads.update(ffn_grads)
        grads.update(attn_grads)
        grads.update(_linear_grads(silu_c, dmod, f"{name}.ada"))
        d_silu_c += dmod @ p[f"{name}.ada.weight"].T

    # input projection: one weight half per input, [C, B * L] @ [B * L, D]
    grads["input_proj.weight"] = np.concatenate(
        [np.tensordot(tape.inputs[name], dh, axes=([0, 2], [0, 1]))
         for name in ("x_t", "cond")])
    grads["input_proj.bias"] = dh.reshape(-1, dh.shape[-1]).sum(axis=0)

    # time-embedding MLP
    dc = d_silu_c * _silu_grad(tape.inputs["c"])
    grads.update(_linear_grads(tape.inputs["a_t"], dc, "time_mlp", "2"))
    dz_t = (dc @ p["time_mlp.weight2"].T) * _silu_grad(tape.inputs["z_t"])
    grads.update(_linear_grads(tape.inputs["temb"], dz_t, "time_mlp", "1"))
    # parameter order: clip_global_norm sums the squared norms in this order
    return {name: grads[name] for name in p}
