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
one block of scores at a time rather than a full [batch, heads, frames,
frames] grid. Rows are sized so that all heads' blocks of one row block hold
about ATTENTION_BLOCK_ELEMENTS scores, and no block holds more than one
head's share of them. Queries are scaled by 1/sqrt(head_dim), and each row's
softmax is shifted by the row's diagonal score rather than its maximum
(ALiBi's bias is 0 on the diagonal), which one extra column of q and k folds
into the score matmul. The softmax is normalised on the context:
exp(scores) @ [v, 1] gives the weighted values beside the row sums, which
divide them; no probability is ever normalised in the forward pass. A block
thus costs two matmuls, one bias add and one exp. A block scores only the keys
whose weight can reach 1e-16 of its row sums: ALiBi's heads decay by
e^(-m_h) per frame, so on long inputs each head scores, per block of rows,
its own band of keys around the block, sized from a bound on the layer's
scores (the steep heads a narrow band, the shallow ones up to every key).
`_key_bands` lays this out once per layer as one list of (heads, rows, keys)
slices, which the forward loop scores and the backward loop replays. An
input of one row block puts as many whole heads in a block as fit one head's
share, each block on all rows and keys: training crops (two 128-frame crops)
and utterances of up to 256 frames at batch 1 are the single block (all
heads, all rows, all keys), 257 to 362 frames run two blocks of two heads,
and 363 to 512 frames (about 4 s) one block per head. A recorded forward
pass runs the same block loop and tapes only the slices and every row's sum
of weights, [batch, heads, frames]; backward replays each block's
probabilities from them, bit for bit, one block at a time. So a recorded
pass and its backward hold memory linear in frames: one 16 s crop (2001
frames) at the defaults peaks at about 115 MiB, where taping every
probability block took about 500 MiB. Training also records slices of about
`training.MICRO_BATCH_FRAMES` frames (two 128-frame crops), not the whole
batch.

The attention and feed-forward branches of a block are each one function
whose temporaries are locals; both, and the final layer, modulate their
input with `_modulate` (layer norm, then the time-dependent scale and
shift). Without recording only the hidden state and the step in progress
stay live (see `forward_batch`): one float64 field evaluation at the
defaults peaks at about 4.6 MiB at 501 frames (4 s), 10.6 MiB at 1501
frames and 17.6 MiB at 2501 frames, and a float32 one at half that (2.3,
5.3 and 8.8 MiB).

Forward and backward passes are written directly against numpy and compute
in the dtype of the model's parameters: every array they make takes that
dtype, and state and condition grids are cast to it. Parameters are float64
from `init_parameters` on, so training and its gradients are float64;
`sampler.generate` restores with a float32 copy of the parameters. Only the
times and their sinusoidal arguments stay float64, since float32
sin(1000 t f) is off by about 6e-5, and the [batch, time_embed_dim]
embedding is cast. Element-wise chains are written in place (`out=` and
augmented assignment) in the order of the plain formula, so the arithmetic
is the same, and scalars are Python floats (`math.sqrt`), which take the
array's dtype where a numpy float64 scalar would promote it.
`backward` consumes the `ForwardTape` recorded by
`forward_batch(..., record=True)`, which holds only what it reads (the
residual stream's hidden states and the modulated inputs are not taped),
releases each layer's tape once it is differentiated, and is validated
against central finite differences and complex-step derivatives in the test
suite. Each sublayer tapes itself, under the same key names n and inv (the
layer norm's outputs), shift, scale, gate and out (its un-gated output),
beside its own extra entries; backward recomputes the modulated input
m = n * (1 + scale) + shift with `_modulated`, the helper `_modulate` uses.
Backward mirrors the sublayers:
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
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

LN_EPS = 1e-6
TIME_SCALE = 1000.0  # sinusoidal input scaling; keeps frequencies well spread on [0, 1]
# Score elements of one row block over all heads (8 MiB of float64, 4 MiB of
# float32). A block holds at most one head's share (2 MiB of float64 at 4
# heads): training crops and utterances of up to 256 frames fit in one block
# over every head, which is the dense computation unchanged.
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
    """Configuration plus named parameter segments (dict of arrays of one
    dtype). `init_parameters`, training and checkpoints keep them float64;
    `sampler.generate` restores with a float32 copy."""

    config: ModelConfig
    params: dict

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, which `forward_batch` computes in."""
        return self.params["input_proj.weight"].dtype


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
            params[name] = np.zeros(shape, dtype=np.float64)
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


def alibi_bias(frames: int, num_heads: int, dtype=np.float64) -> np.ndarray:
    """Attention bias [heads, frames, frames]: -slope_h * |i - j|, in `dtype`.

    A read-only view: row i is the window of one [heads, 2 * frames - 1]
    array of offset biases that starts at offset -i, so the grid costs
    O(heads * frames) memory and no in-place operation can alter it.
    """
    offsets = np.abs(np.arange(1 - frames, frames, dtype=np.float64))
    biases = (-alibi_slopes(num_heads)[:, None] * offsets[None]).astype(dtype, copy=False)
    return sliding_window_view(biases, frames, axis=1)[:, ::-1]


def _ln_forward(x):
    """Layer norm of x over its last axis: (y, inv), y = (x - mean) * inv.

    The variance is `x.var`'s arithmetic (the mean of the squared centred
    values) on the one centred array, which then becomes y in place.
    """
    y = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((y * y).mean(axis=-1, keepdims=True) + LN_EPS)
    y *= inv
    return y, inv


def _ln_backward(dy, y, inv):
    """Backward of `_ln_forward`, given the gradient dy of y, which it
    overwrites with the input's gradient and returns."""
    term = dy * y
    y_term = np.multiply(y, term.mean(axis=-1, keepdims=True), out=term)
    dy -= dy.mean(axis=-1, keepdims=True)
    dy -= y_term
    dy *= inv
    return dy


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
    layer-norm outputs n and inv and its shift and scale.

    A tape serves one `backward`, which consumes it: it releases each
    layer's tapes as it goes and leaves inputs and final None and blocks
    empty, so a second `backward` on it raises ValueError.
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
    weights. `_attention_backward` replays the scores from every column and
    differentiates the first head_dim columns.
    """
    batch, frames, width = qkv.shape
    head_dim = width // (3 * num_heads)
    q, k, v = (np.empty((batch, num_heads, frames, head_dim + 1), dtype=qkv.dtype)
               for _ in range(3))
    parts = [a.reshape(batch, frames, num_heads, head_dim).transpose(0, 2, 1, 3)
             for a in np.split(qkv, 3, axis=2)]
    np.divide(parts[0], math.sqrt(head_dim), out=q[..., :-1])
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

    Query rows are cut into blocks of `rows`, and every head gets one entry
    per row block, head by head, on the keys within W frames of the block
    (every key when W reaches that far). When rows >= frames every block
    holds all rows and all keys, so it sees every key whatever W is and
    costs no bound; a block then takes as many whole heads as fit one
    head's share of scores, rows // frames of them, and the heads are cut
    into the fewest such blocks, of near-equal size. So no block holds more
    than one head's share, and an input whose block over every head fits
    it is the single block (all heads, all rows, all keys).

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
    """
    heads, frames = q.shape[1:3]
    if rows >= frames:
        groups = -(-heads // (rows // frames))
        cuts = [g * heads // groups for g in range(groups + 1)]
        return [(slice(lo, hi), slice(0, frames), slice(0, frames))
                for lo, hi in zip(cuts, cuts[1:])]
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
    row_blocks = [slice(start, stop) for start, stop in zip(starts.tolist(), stops.tolist())]
    return [(slice(h, h + 1), sel, slice(key_lo, key_hi)) for h in range(heads)
            for sel, key_lo, key_hi in zip(row_blocks, lo[h].tolist(), hi[h].tolist())]


def _block_weights(q, k, bias, block):
    """exp of one (heads, rows, keys) block's scores [batch, heads, rows,
    keys], each shifted by its row's diagonal score (q's last column), with
    the ALiBi bias added. `_attention_forward` and `_attention_backward`
    both call it, on the same operand views, so they get the same bits."""
    head_sel, sel, keys = block
    weights = q[:, head_sel, sel] @ k[:, head_sel, keys].transpose(0, 1, 3, 2)
    weights += bias[head_sel, sel, keys]
    return np.exp(weights, out=weights)


def _attention_forward(q, k, v, bias, record):
    """Exact softmax attention with ALiBi, one block of query rows at a time.

    q, k, v: the `_attention_operands` of the layer; bias: the `alibi_bias`
    grid. The blocks are `_key_bands`' (heads, rows, keys) slices, and each
    sees every key whose weight can reach 1e-16 of its row sum: on an input
    of several row blocks every head scores its own band of keys around each
    block (ALiBi's steep heads a narrow one), so each row's softmax is
    complete without an online rescaling. Rows are sized for all heads, and
    no block holds more than one head's share of scores, so an input that
    fits one row block runs blocks of whole heads over every row and key:
    one over every head up to 256 frames at batch 1, two of two heads to
    362 frames, then one per head. Each row is shifted by its diagonal
    score instead of its maximum, which the score matmul applies: the bias
    is 0 on the diagonal, which every band holds, so the diagonal weight is
    exp(0) = 1 and every row sum is at least 1. The row sums come out of the
    context matmul, so a block costs two matmuls, one bias add and one exp.
    A row sum overflows the compute dtype only when scores lie about
    ln(finfo(dtype).max) - ln(frames) or more above their row's diagonal
    score (709 - ln(frames) in float64, 88.7 - ln(frames) in float32); a row
    sum of inf would turn that row's context into zeros, so the block raises
    FloatingPointError instead.

    Recorded and unrecorded passes run the same loop and differ only in
    what they keep. Returns the context [batch, frames, heads * head_dim]
    and, when recording, the pair (blocks, row_sums) that
    `_attention_backward` replays (None otherwise): the `_key_bands` list of
    (heads, rows, keys) slices and every row's sum of weights, copied into
    one [batch, heads, frames] array, so the tape is O(batch * heads *
    frames) however many blocks there are.
    """
    batch, heads, frames, width = q.shape
    rows = max(1, ATTENTION_BLOCK_ELEMENTS // (batch * heads * frames))
    ctx = np.empty((batch, frames, heads, width - 1), dtype=q.dtype)
    blocks = _key_bands(q, k, rows)
    row_sums = np.empty((batch, heads, frames), dtype=q.dtype) if record else None
    for block in blocks:
        head_sel, sel, keys = block
        weights = _block_weights(q, k, bias, block)
        out = weights @ v[:, head_sel, keys]  # [..., :-1] weighted values, [..., -1:] row sums
        del weights  # otherwise still held while the context is normalised
        total = out[..., -1:]
        if np.isinf(total).any():
            bound = math.log(np.finfo(q.dtype).max) - math.log(frames)
            raise FloatingPointError(
                f"attention weights overflow {q.dtype}: a score lies about "
                f"{bound:.1f} or more above its row's diagonal score")
        ctx[:, sel, head_sel] = (out[..., :-1] / total).transpose(0, 2, 1, 3)
        if record:
            row_sums[:, head_sel, sel] = total[..., 0]  # a copy: a view would keep `out`
        del out, total
    ctx = ctx.reshape(batch, frames, heads * (width - 1))
    return ctx, (blocks, row_sums) if record else None


def _attention_backward(dctx, ctx, q, k, v, bias, blocks, row_sums):
    """Gradients (dq, dk, dv) of the unscaled q, k, v [batch, heads, frames,
    head_dim] of `_attention_forward`, given dctx and ctx shaped like them,
    the forward's `_attention_operands` and `alibi_bias` grid, and its tape:
    the (heads, rows, keys) blocks and the row sums.

    Each block's probabilities are replayed, not read from a tape: one score
    matmul, bias add and exp (`_block_weights`, on the forward's operand
    views) and a division by the taped row sums, which gives the forward's
    probabilities bit for bit at O(rows * keys) memory per block (Rabe &
    Staats 2021, arXiv 2112.05682). The softmax backward's row term
    sum_j dP_ij * P_ij equals dctx_i . ctx_i, because P @ v = ctx, so it is
    one O(frames * head_dim) product per layer rather than a reduction over
    every probability block.
    """
    head_dim = q.shape[-1] - 1  # q is already scaled
    scale = math.sqrt(head_dim)
    row_terms = np.einsum("bhld,bhld->bhl", dctx, ctx)[..., None]
    dq = np.empty(dctx.shape, dtype=dctx.dtype)
    dk = np.zeros(dctx.shape, dtype=dctx.dtype)
    dv = np.zeros(dctx.shape, dtype=dctx.dtype)
    v_t = v[..., :-1].transpose(0, 1, 3, 2)
    for block in blocks:
        head_sel, sel, keys = block
        attn = _block_weights(q, k, bias, block)
        attn /= row_sums[:, head_sel, sel, None]
        dk_keys, dv_keys = dk[:, head_sel, keys], dv[:, head_sel, keys]
        dctx_blk = dctx[:, head_sel, sel]
        dv_keys += attn.transpose(0, 1, 3, 2) @ dctx_blk
        dscores = dctx_blk @ v_t[:, head_sel, :, keys]
        dscores -= row_terms[:, head_sel, sel]
        dscores *= attn
        del attn  # otherwise still held while the next block is replayed
        dq[:, head_sel, sel] = dscores @ k[:, head_sel, keys, :-1] / scale
        dk_keys += dscores.transpose(0, 1, 3, 2) @ q[:, head_sel, sel, :-1]
        del dscores
    return dq, dk, dv


def _linear(x, weight, bias):
    """x @ weight + bias, with the bias added in place."""
    y = x @ weight
    y += bias
    return y


def _modulated(n, shift, scale):
    """adaLN's m = n * (1 + scale) + shift of a layer-normalised n [batch,
    frames, dim], by per-item shift and scale [batch, dim]. `_modulate`
    computes m with it, and backward recomputes m with it from the tape."""
    m = n * (1.0 + scale)[:, None, :]
    m += shift[:, None, :]
    return m


def _modulate(x, shift, scale):
    """adaLN modulation of x [batch, frames, dim] by per-item shift and scale
    [batch, dim]. Returns (n, inv, m): the layer-normalised x, its inverse
    deviations and the `_modulated` m."""
    n, inv = _ln_forward(x)
    return n, inv, _modulated(n, shift, scale)


def _modulate_backward(dm, n, inv, scale):
    """Backward of `_modulate`, given the gradient of m, which it overwrites:
    the gradients of x, shift and scale."""
    dscale = np.einsum("bld,bld->bd", dm, n)
    dshift = dm.sum(axis=1)
    dm *= (1.0 + scale)[:, None, :]
    return _ln_backward(dm, n, inv), dshift, dscale


def _gated_residual(h_in, out, gate, record):
    """A branch's new hidden state h_in + gate * out, written into out unless
    out is taped (backward's dgate reads the un-gated output)."""
    h = out * gate[:, None, :] if record else np.multiply(out, gate[:, None, :], out=out)
    h += h_in
    return h


def _attention_sublayer(h_in, p, name, shift, scale, gate, bias, num_heads, record):
    """Pre-norm adaLN attention branch: h_in + gate * out.

    Returns the new hidden state and, when recording, its tape for `backward`
    (None otherwise): the `_modulate` outputs n and inv, its shift, scale and
    gate, the un-gated branch output out, the attention operands q, k, v,
    the blocks and row sums of `_attention_forward`, and the context. Without
    recording every temporary is freed at its last use.
    """
    n, inv, m = _modulate(h_in, shift, scale)
    tape = dict(n=n, inv=inv, shift=shift, scale=scale, gate=gate) if record else None
    qkv = _linear(m, p[f"{name}.qkv.weight"], p[f"{name}.qkv.bias"])
    del n, m
    q, k, v = _attention_operands(qkv, num_heads)
    del qkv  # the operands are copies, so it is freed before the block loop
    ctx, attention = _attention_forward(q, k, v, bias, record)
    if record:
        blocks, row_sums = attention
        tape.update(q=q, k=k, v=v, blocks=blocks, row_sums=row_sums, ctx=ctx)
    del q, k, v, attention
    out = _linear(ctx, p[f"{name}.attn_out.weight"], p[f"{name}.attn_out.bias"])
    del ctx
    if record:
        tape["out"] = out
    return _gated_residual(h_in, out, gate, record), tape


def _attention_sublayer_backward(dh, tape, p, name, bias):
    """Backward of `_attention_sublayer`, given the gradient of its output
    and the forward's `alibi_bias` grid.

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
    del dout
    dq, dk, dv = _attention_backward(dctx, ctx, tape["q"], tape["k"], tape["v"], bias,
                                     tape["blocks"], tape["row_sums"])
    del dctx, ctx
    dqkv = np.concatenate(
        [a.transpose(0, 2, 1, 3).reshape(batch, frames, dim) for a in (dq, dk, dv)],
        axis=2)
    del dq, dk, dv
    n, inv, scale = tape["n"], tape["inv"], tape["scale"]
    grads.update(_linear_grads(_modulated(n, tape["shift"], scale), dqkv, f"{name}.qkv"))
    dx, dshift, dscale = _modulate_backward(dqkv @ p[f"{name}.qkv.weight"].T, n, inv, scale)
    dx += dh
    return dx, grads, (dshift, dscale, dgate)


def _ffn_sublayer(h_mid, p, name, shift, scale, gate, record):
    """Pre-norm adaLN GELU feed-forward branch: h_mid + gate * out.

    Returns the new hidden state and, when recording, its tape for `backward`
    (None otherwise): the `_modulate` outputs n and inv, its shift, scale and
    gate, the un-gated branch output out, the GELU output and the GELU
    derivative, which is taped in place of the pre-activation. Without
    recording every temporary is freed at its last use.
    """
    n, inv, m = _modulate(h_mid, shift, scale)
    tape = dict(n=n, inv=inv, shift=shift, scale=scale, gate=gate) if record else None
    z1 = _linear(m, p[f"{name}.ffn.weight1"], p[f"{name}.ffn.bias1"])
    del n, m
    a1 = np.divide(z1, math.sqrt(2.0))  # the standard normal CDF, then the GELU output
    erf(a1, out=a1)
    a1 += 1.0
    a1 *= 0.5
    if record:
        # GELU derivative cdf(z) + z * pdf(z), built in one buffer
        gelu_grad = np.multiply(z1, -0.5)
        gelu_grad *= z1
        np.exp(gelu_grad, out=gelu_grad)
        gelu_grad *= z1
        gelu_grad /= math.sqrt(2.0 * math.pi)
        gelu_grad += a1
        tape.update(gelu_grad=gelu_grad, a1=a1)
    a1 *= z1
    del z1
    out = _linear(a1, p[f"{name}.ffn.weight2"], p[f"{name}.ffn.bias2"])
    del a1
    if record:
        tape["out"] = out
    return _gated_residual(h_mid, out, gate, record), tape


def _ffn_sublayer_backward(dh, tape, p, name):
    """Backward of `_ffn_sublayer`, given the gradient of its output.

    Returns the gradient of its input, its segments' gradients and the
    gradients of its modulation (shift, scale, gate).
    """
    dout = dh * tape["gate"][:, None, :]
    dgate = np.einsum("bld,bld->bd", dh, tape["out"])
    grads = _linear_grads(tape["a1"], dout, f"{name}.ffn", "2")
    dz1 = dout @ p[f"{name}.ffn.weight2"].T
    del dout
    dz1 *= tape["gelu_grad"]
    n, inv, scale = tape["n"], tape["inv"], tape["scale"]
    grads.update(_linear_grads(_modulated(n, tape["shift"], scale), dz1, f"{name}.ffn", "1"))
    dx, dshift, dscale = _modulate_backward(dz1 @ p[f"{name}.ffn.weight1"].T, n, inv, scale)
    dx += dh
    return dx, grads, (dshift, dscale, dgate)


def forward_batch(model: VectorFieldModel, x_t: np.ndarray, cond: np.ndarray,
                  t: np.ndarray, record: bool = False):
    """Batched forward pass on raw arrays, in the parameters' dtype.

    Attention runs in blocks of query rows, each against every key whose
    weight can reach 1e-16 of its row sums (`_attention_forward`), so without
    recording it holds one block of at most one head's share of
    ATTENTION_BLOCK_ELEMENTS scores instead of a full frames x frames grid.
    The ALiBi bias on frame indices is one `alibi_bias` view built per call
    and read by every layer and block. Each block's softmax is shifted
    by each row's diagonal score and normalised on its context. A recorded
    pass runs the same blocks and tapes only their slices and the row sums,
    from which `backward` replays them, so its tape is O(batch * frames) per
    layer: no taped array has two axes of length frames.

    The state and the condition are projected by the two halves of
    `input_proj.weight`, so no [batch, frames, 2 * channels] input is built,
    and a recorded pass tapes `x_t` and `cond` as they are. Without
    recording, every activation is freed at its last use: each sublayer's
    temporaries inside `_attention_sublayer` and `_ffn_sublayer`, and the
    last hidden state before the output projection. Only the hidden state
    and the step in progress stay live, so the peak is one attention block
    beside the attention operands and the context, or the output projection.

    The state and condition are cast to the model's dtype (no copy when
    they have it already), so a float32 model's pass is float32 throughout.

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
    x_t, cond = (np.asarray(a, dtype=model.dtype) for a in (x_t, cond))
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
    bias = alibi_bias(frames, cfg.num_heads, model.dtype)

    # float32 sin(1000 t f) would be off by about 6e-5: only the result is cast
    temb = time_embedding(t, cfg.time_embed_dim).astype(model.dtype, copy=False)
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
    final = dict(n=n, inv=inv, shift=shift_f, scale=scale_f) if record else None
    del h, n
    out = _linear(m, p["output_proj.weight"], p["output_proj.bias"])
    del m
    field = out.transpose(0, 2, 1)  # [B, C, L]

    if not record:
        return field
    return field, ForwardTape(inputs=inputs, blocks=blocks_tape, final=final)


def backward(model: VectorFieldModel, tape: ForwardTape,
             output_grad: np.ndarray) -> dict:
    """Gradients of sum(output * output_grad) for every parameter segment.

    Consumes `tape`: each layer's FFN tape is released once that sublayer is
    differentiated and its attention tape after it, so the tape's memory
    falls as the gradients are built. A consumed tape is refused with a
    ValueError; record a new forward pass to differentiate again.

    Args:
        tape: activations from `forward_batch(..., record=True)`.
        output_grad: upstream gradient, [batch, channels, frames].

    Returns:
        Dict of gradients aligned with the model's parameter segments, in
        their order.
    """
    if tape is None:
        raise ValueError("backward called without a recorded forward pass")
    if tape.final is None:
        raise ValueError("this tape was consumed by an earlier backward; "
                         "record a new forward pass")
    p = model.params
    if output_grad.shape != tape.inputs["x_t"].shape:
        raise ValueError(f"output_grad shape {output_grad.shape} != "
                         f"{tape.inputs['x_t'].shape}")
    silu_c = tape.inputs["silu_c"]
    bias = alibi_bias(output_grad.shape[2], model.config.num_heads, model.dtype)

    # final projection and modulation
    dout = output_grad.transpose(0, 2, 1)  # [B, L, C]
    fin, tape.final = tape.final, None
    grads = _linear_grads(_modulated(fin["n"], fin["shift"], fin["scale"]), dout,
                          "output_proj")
    dh, dshift_f, dscale_f = _modulate_backward(dout @ p["output_proj.weight"].T,
                                                fin["n"], fin["inv"], fin["scale"])
    del fin
    dmod_f = np.concatenate([dshift_f, dscale_f], axis=1)
    grads.update(_linear_grads(silu_c, dmod_f, "final_ada"))
    d_silu_c = dmod_f @ p["final_ada.weight"].T

    for i in reversed(range(model.config.num_layers)):
        name = f"block{i}"
        attn_tape, ffn_tape = tape.blocks.pop()  # layer i's tapes, released once used
        dh, ffn_grads, dmod_m = _ffn_sublayer_backward(dh, ffn_tape, p, name)
        del ffn_tape
        dh, attn_grads, dmod_a = _attention_sublayer_backward(dh, attn_tape, p, name, bias)
        del attn_tape
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
    tape.inputs = None
    # parameter order: clip_global_norm sums the squared norms in this order
    return {name: grads[name] for name in p}
