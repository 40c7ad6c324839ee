"""Decoder-only transformer in plain numpy with hand-written gradients.

Pre-norm blocks, causal self-attention, GELU feed-forward, learned
positional embeddings, optional weight tying between the input embedding
and the output projection. Forward and backward compute in the dtype of
the parameters: float64 from `init_params` and checkpoints (gradient
checks, sampling), float32 in training. Forward keeps a cache that
backward consumes, and the gradients are exact (they are checked against
central finite differences in the tests). Given a `kv` dict, forward
decodes incrementally: each layer's keys and values go into buffers
preallocated at the full context length, written in place, so a decode
step copies only its own new positions.

Linear layers and the logits are one 2-D matmul over the flattened
[batch * seq, d] rows: numpy runs `@` on a 3-D operand as one matmul per
batch row. The elementwise kernels work in their own buffers with `out=`
and in-place operators, applying the same operations in the same order
as the plain expressions they replace, so they give the same bits.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .config import ModelConfig

LN_EPS = 1e-5
INIT_STD = 0.02
NEG_INF = -1e9


def init_params(cfg: ModelConfig, seed: int) -> dict:
    """Normal(0, 0.02^2) weights, zero biases, unit layer-norm scales."""
    rng = np.random.default_rng(seed)

    def w(*shape):
        return rng.normal(0.0, INIT_STD, shape)

    params = {
        "tok_emb": w(cfg.vocab_size, cfg.d_model),
        "pos_emb": w(cfg.max_seq_len, cfg.d_model),
    }
    for i in range(cfg.n_layers):
        p = f"h{i}."
        params[p + "ln1.g"] = np.ones(cfg.d_model)
        params[p + "ln1.b"] = np.zeros(cfg.d_model)
        for name in ("wq", "wk", "wv", "wo"):
            params[p + "attn." + name] = w(cfg.d_model, cfg.d_model)
        for name in ("bq", "bk", "bv", "bo"):
            params[p + "attn." + name] = np.zeros(cfg.d_model)
        params[p + "ln2.g"] = np.ones(cfg.d_model)
        params[p + "ln2.b"] = np.zeros(cfg.d_model)
        params[p + "mlp.w1"] = w(cfg.d_model, cfg.d_ff)
        params[p + "mlp.b1"] = np.zeros(cfg.d_ff)
        params[p + "mlp.w2"] = w(cfg.d_ff, cfg.d_model)
        params[p + "mlp.b2"] = np.zeros(cfg.d_model)
    params["lnf.g"] = np.ones(cfg.d_model)
    params["lnf.b"] = np.zeros(cfg.d_model)
    if not cfg.tie_embeddings:
        params["head.w"] = w(cfg.d_model, cfg.vocab_size)
    return params


# The means below are a sum and an in-place divide by d: what ndarray.mean
# computes, bit for bit, without its per-call Python overhead.

def _layernorm_fwd(x, g, b):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True)
    mu /= d
    xc = x - mu
    sq = xc * xc
    var = sq.sum(axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc
    xhat *= inv
    y = np.multiply(xhat, g, out=sq)
    y += b
    return y, (xhat, inv, g)


def _layernorm_bwd(dy, cache):
    xhat, inv, g = cache
    tmp = dy * xhat
    dg = tmp.sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    d = dy.shape[-1]
    dx = dy * g
    m1 = dx.sum(axis=-1, keepdims=True)
    m1 /= d
    np.multiply(dx, xhat, out=tmp)
    m2 = tmp.sum(axis=-1, keepdims=True)
    m2 /= d
    dx -= m1
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx, dg, db


def _linear_fwd(x, w, b):
    """x [..., d_in] @ w + b as one 2-D matmul over the flattened rows."""
    x2 = x.reshape(-1, x.shape[-1])
    y = x2 @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1]), (x2, w)


def _linear_bwd(dy, cache):
    x2, w = cache
    dy2 = dy.reshape(-1, dy.shape[-1])
    dx = (dy2 @ w.T).reshape(*dy.shape[:-1], w.shape[0])
    dw = x2.T @ dy2
    db = dy2.sum(axis=0)
    return dx, dw, db


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_fwd(x):
    # 0.5 x (1 + tanh(c (x + 0.044715 x^3))), one operation at a time
    t = x * 0.044715
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = x * 0.5
    y *= t + 1.0
    return y, (x, t)


def _gelu_bwd(dy, cache):
    # dy (0.5 (1 + t) + 0.5 x (1 - t^2) du), du = c (1 + 3 * 0.044715 x^2)
    x, t = cache
    du = x * (3.0 * 0.044715)
    du *= x
    du += 1.0
    du *= _GELU_C
    one_minus_tt = t * t
    np.subtract(1.0, one_minus_tt, out=one_minus_tt)
    dx = x * 0.5
    dx *= one_minus_tt
    dx *= du
    half_one_plus_t = np.add(t, 1.0, out=du)
    half_one_plus_t *= 0.5
    dx += half_one_plus_t
    dx *= dy
    return dx


def _keep_mask(shape, dtype, rate, rng):
    """`rng.random(shape, dtype=dtype) >= rate`, with the same bits and the
    same generator state afterwards.

    A float32 draw is (u >> 8) * 2**-24 for the next 32-bit half u of the
    bit generator's 64-bit words, low half first, and it is compared with
    float32(rate). So for float32 the mask is read from raw words as
    u >> 8 >= ceil(float32(rate) * 2**24), which skips the floats. The last
    two draws go through `rng.random`, which leaves the generator's buffered
    half as it would be. Odd sizes, an already buffered half, generators
    without one, float64 and big-endian machines take `rng.random`.
    """
    size = math.prod(shape)
    if (
        dtype != np.float32
        or size < 2
        or size % 2
        or sys.byteorder != "little"
        or rng.bit_generator.state.get("has_uint32", 1)
    ):
        return rng.random(shape, dtype=dtype) >= rate
    halves = rng.bit_generator.random_raw(size // 2 - 1).view(np.uint32)
    halves >>= 8
    keep = np.empty(size, dtype=bool)
    np.greater_equal(halves, math.ceil(float(np.float32(rate)) * 2**24), out=keep[:-2])
    keep[-2:] = rng.random(2, dtype=np.float32) >= rate
    return keep.reshape(shape)


def _dropout_fwd(x, rate, train_mode, rng):
    if not train_mode or rate == 0.0:
        return x, None
    keep = _keep_mask(x.shape, x.dtype, rate, rng)
    scale = 1.0 / (1.0 - rate)
    y = x * keep
    y *= scale
    return y, (keep, scale)


def _dropout_bwd(dy, cache):
    if cache is None:
        return dy
    keep, scale = cache
    dx = dy * keep
    dx *= scale
    return dx


def _softmax(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


_MASK_CACHE = {}


def _causal_mask(t: int, past: int, dtype) -> np.ndarray:
    """[t, past + t] in `dtype`: query i may see keys up to past + i.

    Scores add the mask of their own dtype: a float64 mask would make the
    add run in float64. The masked scores differ in their last bits, but
    their exp is 0 either way, so the attention weights are the same.
    """
    key = (t, past, np.dtype(dtype))
    if key not in _MASK_CACHE:
        _MASK_CACHE[key] = np.triu(np.full((t, past + t), NEG_INF, dtype=dtype), k=past + 1)
    return _MASK_CACHE[key]


def _attention_fwd(x, params, prefix, cfg, rate, train_mode, rng, kv):
    b, t, d = x.shape
    h, dh = cfg.n_heads, cfg.d_head
    q, cq = _linear_fwd(x, params[prefix + "wq"], params[prefix + "bq"])
    k, ck = _linear_fwd(x, params[prefix + "wk"], params[prefix + "bk"])
    v, cv = _linear_fwd(x, params[prefix + "wv"], params[prefix + "bv"])

    def split(y):
        return y.reshape(b, t, h, dh).transpose(0, 2, 1, 3)

    qs, ks, vs = split(q), split(k), split(v)
    if kv is not None:
        if prefix in kv:
            kbuf, vbuf, past = kv[prefix]
        else:
            kbuf = np.empty((b, h, cfg.max_seq_len, dh), dtype=ks.dtype)
            vbuf = np.empty_like(kbuf)
            past = 0
        kbuf[:, :, past:past + t] = ks
        vbuf[:, :, past:past + t] = vs
        ks, vs = kbuf[:, :, :past + t], vbuf[:, :, :past + t]
        kv[prefix] = (kbuf, vbuf, past + t)
    scores = qs @ ks.transpose(0, 1, 3, 2)
    scores /= math.sqrt(dh)
    if t > 1:
        scores += _causal_mask(t, ks.shape[2] - t, scores.dtype)
    att = _softmax(scores)
    att_d, catt_drop = _dropout_fwd(att, rate, train_mode, rng)
    ctx = att_d @ vs
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
    out, co = _linear_fwd(merged, params[prefix + "wo"], params[prefix + "bo"])
    out_d, cout_drop = _dropout_fwd(out, rate, train_mode, rng)
    cache = (cq, ck, cv, qs, ks, vs, att, att_d, catt_drop, co, cout_drop, (b, t, d, h, dh))
    return out_d, cache


def _attention_bwd(dout, cache, grads, prefix):
    cq, ck, cv, qs, ks, vs, att, att_d, catt_drop, co, cout_drop, shape = cache
    b, t, d, h, dh = shape
    dout = _dropout_bwd(dout, cout_drop)
    dmerged, dwo, dbo = _linear_bwd(dout, co)
    grads[prefix + "wo"] = dwo
    grads[prefix + "bo"] = dbo
    dctx = dmerged.reshape(b, t, h, dh).transpose(0, 2, 1, 3)
    datt_d = dctx @ vs.transpose(0, 1, 3, 2)
    dvs = att_d.transpose(0, 1, 3, 2) @ dctx
    datt = _dropout_bwd(datt_d, catt_drop)
    # att * (datt - sum(datt * att)) / sqrt(dh) in one buffer
    dscores = datt * att
    row = dscores.sum(axis=-1, keepdims=True)
    np.subtract(datt, row, out=dscores)
    dscores *= att
    dscores /= math.sqrt(dh)
    dqs = dscores @ ks
    dks = dscores.transpose(0, 1, 3, 2) @ qs

    def merge(y):
        return y.transpose(0, 2, 1, 3).reshape(b, t, d)

    dq, dwq, dbq = _linear_bwd(merge(dqs), cq)
    dk, dwk, dbk = _linear_bwd(merge(dks), ck)
    dv, dwv, dbv = _linear_bwd(merge(dvs), cv)
    grads[prefix + "wq"] = dwq
    grads[prefix + "bq"] = dbq
    grads[prefix + "wk"] = dwk
    grads[prefix + "bk"] = dbk
    grads[prefix + "wv"] = dwv
    grads[prefix + "bv"] = dbv
    return dq + dk + dv


def forward(params, cfg: ModelConfig, ids, train_mode: bool = False, rng=None, *, kv=None):
    """Logits [batch, seq, vocab] plus the cache backward needs.

    In train mode dropout draws from `rng`; eval mode is deterministic.
    `kv` maps each layer's attention prefix ("h0.attn.", ...) to its key and value
    buffers [batch, heads, max_seq_len, d_head] and the number L of positions
    before `ids` they hold. Forward fills an empty `kv` with new buffers, writes
    the keys and values of `ids` at [L, L + t) in place and attends over [:L + t].
    """
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    b, t = ids.shape
    past = kv["h0.attn."][2] if kv else 0
    if past + t > cfg.max_seq_len:
        raise ValueError(f"sequence length {past + t} exceeds max_seq_len {cfg.max_seq_len}")
    if train_mode and cfg.dropout_rate > 0.0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")
    rate = cfg.dropout_rate

    x = params["tok_emb"][ids] + params["pos_emb"][past:past + t][None, :, :]
    x, demb = _dropout_fwd(x, rate, train_mode, rng)
    blocks = []
    for i in range(cfg.n_layers):
        p = f"h{i}."
        a, cln1 = _layernorm_fwd(x, params[p + "ln1.g"], params[p + "ln1.b"])
        attn_out, cattn = _attention_fwd(a, params, p + "attn.", cfg, rate, train_mode, rng, kv)
        x += attn_out
        m, cln2 = _layernorm_fwd(x, params[p + "ln2.g"], params[p + "ln2.b"])
        f1, cf1 = _linear_fwd(m, params[p + "mlp.w1"], params[p + "mlp.b1"])
        g1, cg = _gelu_fwd(f1)
        f2, cf2 = _linear_fwd(g1, params[p + "mlp.w2"], params[p + "mlp.b2"])
        f2, cmlp_drop = _dropout_fwd(f2, rate, train_mode, rng)
        x += f2
        blocks.append((cln1, cattn, cln2, cf1, cg, cf2, cmlp_drop))
    hf, clnf = _layernorm_fwd(x, params["lnf.g"], params["lnf.b"])
    hf2 = hf.reshape(b * t, -1)
    head = params["tok_emb"].T if cfg.tie_embeddings else params["head.w"]
    logits = (hf2 @ head).reshape(b, t, -1)
    cache = (ids, demb, blocks, clnf, hf2)
    return logits, cache


def backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients of whatever scalar produced `dlogits`, keyed like params."""
    ids, demb, blocks, clnf, hf2 = cache
    grads = {name: None for name in params}

    dl2 = dlogits.reshape(-1, dlogits.shape[-1])
    if cfg.tie_embeddings:
        dhf2 = dl2 @ params["tok_emb"]
        dtok_head = dl2.T @ hf2
    else:
        dhf2 = dl2 @ params["head.w"].T
        grads["head.w"] = hf2.T @ dl2
    dhf = dhf2.reshape(*ids.shape, -1)

    dx, grads["lnf.g"], grads["lnf.b"] = _layernorm_bwd(dhf, clnf)

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"h{i}."
        cln1, cattn, cln2, cf1, cg, cf2, cmlp_drop = blocks[i]
        df2 = _dropout_bwd(dx, cmlp_drop)
        dg1, grads[p + "mlp.w2"], grads[p + "mlp.b2"] = _linear_bwd(df2, cf2)
        df1 = _gelu_bwd(dg1, cg)
        dm, grads[p + "mlp.w1"], grads[p + "mlp.b1"] = _linear_bwd(df1, cf1)
        dx_ln2, grads[p + "ln2.g"], grads[p + "ln2.b"] = _layernorm_bwd(dm, cln2)
        dx += dx_ln2
        da = _attention_bwd(dx, cattn, grads, p + "attn.")
        dx_ln1, grads[p + "ln1.g"], grads[p + "ln1.b"] = _layernorm_bwd(da, cln1)
        dx += dx_ln1

    dx = _dropout_bwd(dx, demb)
    dtok = np.zeros_like(params["tok_emb"])
    np.add.at(dtok, ids, dx)
    if cfg.tie_embeddings:
        dtok += dtok_head
    grads["tok_emb"] = dtok
    dpos = np.zeros_like(params["pos_emb"])
    dpos[: ids.shape[1]] = dx.sum(axis=0)
    grads["pos_emb"] = dpos
    return grads


def cross_entropy(logits, targets, mask):
    """Mean masked cross-entropy and its gradient wrt the logits.

    targets are the input ids shifted left by one; mask is 1 where the
    target is a real token and 0 at padding.
    """
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=logits.dtype)
    m = mask.sum()
    if m == 0:
        raise ValueError("all target positions are masked")
    b, t = targets.shape
    at_target = (np.arange(b)[:, None], np.arange(t)[None, :], targets)
    # one [B, T, V] buffer holds the shifted logits, their exp, then the gradient
    dlogits = logits - logits.max(axis=-1, keepdims=True)
    z_target = dlogits[at_target]
    np.exp(dlogits, out=dlogits)
    total = dlogits.sum(axis=-1)
    loss = -((z_target - np.log(total)) * mask).sum() / m
    dlogits /= total[:, :, None]
    dlogits[at_target] -= 1.0
    dlogits *= (mask / m)[:, :, None]
    return loss, dlogits


def loss_and_grads(
    params,
    cfg: ModelConfig,
    inputs,
    targets,
    mask,
    train_mode: bool = True,
    rng=None,
):
    """One training step's loss and exact parameter gradients.

    A non-finite gradient raises FloatingPointError.
    """
    logits, cache = forward(params, cfg, inputs, train_mode=train_mode, rng=rng)
    loss, dlogits = cross_entropy(logits, targets, mask)
    grads = backward(params, cfg, cache, dlogits)
    for name, g in grads.items():
        if g is not None and not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    return loss, grads
