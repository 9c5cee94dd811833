"""Sequence classifiers for stress progression.

Two architectures: parallel unidirectional LSTM encoders (speech + stress
context) and a transformer encoder.  Both fuse the encoded sequences with a
cross-attention block (the final speech state queries the context states) and
classify the result into three independent VAD probabilities.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor, attention, concat, linear
from .segmentation import DataError
from .vad import DEFAULT_CODE, VadCode


@dataclass(frozen=True)
class ModelConfig:
    arch: str  # "lstm" | "transformer"
    feature_dim: int
    hidden: int = 128
    layers: int = 2
    heads: int = 4
    ffn: int = 256
    ctx_layers: int = 1
    dropout: float = 0.3

    def __post_init__(self):
        if self.arch not in ("lstm", "transformer"):
            raise DataError(f"unknown architecture {self.arch!r}")
        for name in ("feature_dim", "hidden", "ffn"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise DataError("hidden size must be divisible by a positive head count")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")


# --- parameters ---

def _transformer_layer_shapes(shapes, prefix, hidden, ffn):
    shapes[f"{prefix}.ln1.g"] = shapes[f"{prefix}.ln1.b"] = (hidden,)
    for name in ("wq", "wk", "wv", "wo"):
        shapes[f"{prefix}.attn.{name}"] = (hidden, hidden)
    # No attention has a key bias: softmax over keys ignores the constant
    # q.bk it would add to every score of a query.
    for name in ("bq", "bv", "bo"):
        shapes[f"{prefix}.attn.{name}"] = (hidden,)
    shapes[f"{prefix}.ln2.g"] = shapes[f"{prefix}.ln2.b"] = (hidden,)
    shapes[f"{prefix}.ffn.w1"] = (hidden, ffn)
    shapes[f"{prefix}.ffn.b1"] = (ffn,)
    shapes[f"{prefix}.ffn.w2"] = (ffn, hidden)
    shapes[f"{prefix}.ffn.b2"] = (hidden,)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of ``cfg``, in the order
    ``init_params`` draws them."""
    h = cfg.hidden
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.arch == "lstm":
        for prefix, in_dim in (("speech_lstm", cfg.feature_dim), ("ctx_lstm", 3)):
            shapes[f"{prefix}.w"] = (in_dim, 4 * h)
            shapes[f"{prefix}.u"] = (h, 4 * h)
            shapes[f"{prefix}.b"] = (4 * h,)
        head_in = 2 * h
    else:
        for prefix, proj, in_dim, n_layers in (
            ("enc", "proj", cfg.feature_dim, cfg.layers),
            ("ctx", "ctxproj", 3, cfg.ctx_layers),
        ):
            shapes[f"{proj}.w"] = (in_dim, h)
            shapes[f"{proj}.b"] = (h,)
            for i in range(n_layers):
                _transformer_layer_shapes(shapes, f"{prefix}{i}", h, cfg.ffn)
            shapes[f"{prefix}.lnf.g"] = shapes[f"{prefix}.lnf.b"] = (h,)
        head_in = h
    for name in ("wq", "wk", "wv"):
        shapes[f"attn.{name}"] = (h, h)
    shapes["attn.bq"] = shapes["attn.bv"] = (h,)
    shapes["head.w"] = (head_in, 3)
    shapes["head.b"] = (3,)
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Weight matrices uniform in +-1/sqrt(fan_in), layer-norm gains one,
    biases zero."""
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            r = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-r, r, size=shape)
        else:
            data = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


# --- building blocks (batched: B x T x dim) ---

def lstm_states(x: Tensor, params, prefix: str, hidden: int) -> Tensor:
    """Unidirectional LSTM over (B, T, D); returns hidden states (B, T, H).

    One tape node with a hand-written backward (the fused-gate LSTM of
    Appleyard et al. 2016): the forward keeps every step's gate activations
    and cell states, the backward runs BPTT over them, and the ``w``, ``u``
    and ``b`` gradients are each one reduction over all B*T rows."""
    w, u, b = params[f"{prefix}.w"], params[f"{prefix}.u"], params[f"{prefix}.b"]
    if x.shape[-1] != w.shape[0]:
        raise DataError(
            f"{prefix}: input dim {x.shape[-1]} does not match weights {w.shape[0]}"
        )
    B, T, D = x.shape
    H = hidden
    # Gate pre-activations of every step, input projection as one GEMM;
    # each step adds its recurrent term and activates its slice in place.
    acts = (x.data.reshape(B * T, D) @ w.data + b.data).reshape(B, T, 4 * H)
    hs = np.zeros((B, T + 1, H))  # hs[:, t] and cs[:, t] enter step t
    cs = np.zeros((B, T + 1, H))
    tanh_c = np.empty((B, T, H))
    for t in range(T):
        z = acts[:, t]
        if t:  # the state entering step 0 is zero
            z += hs[:, t] @ u.data
        g = np.tanh(z[:, 2 * H : 3 * H])
        z[:] = 1.0 / (1.0 + np.exp(-z))
        z[:, 2 * H : 3 * H] = g
        cs[:, t + 1] = z[:, H : 2 * H] * cs[:, t] + z[:, :H] * g
        tanh_c[:, t] = np.tanh(cs[:, t + 1])
        hs[:, t + 1] = z[:, 3 * H :] * tanh_c[:, t]

    def back(gh):
        i, f, g, o = (acts[..., k * H : (k + 1) * H] for k in range(4))
        slope = acts * (1.0 - acts)  # d activation / d pre-activation
        slope[..., 2 * H : 3 * H] = 1.0 - g * g
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(acts)  # d loss / d pre-activation, every step
        dh = dc = np.zeros((B, H))
        for t in reversed(range(T)):
            dh = gh[:, t] + dh
            dc = dc + dh * dc_dh[:, t]
            dz[:, t] = slope[:, t] * np.concatenate(
                (dc * g[:, t], dc * cs[:, t], dc * i[:, t], dh * tanh_c[:, t]), axis=1)
            dc = dc * f[:, t]
            if t:
                dh = dz[:, t] @ u.data.T
        rows = dz.reshape(B * T, 4 * H)
        if x.requires_grad:
            x._accum((rows @ w.data.T).reshape(B, T, D))
        if w.requires_grad:
            w._accum(x.data.reshape(B * T, D).T @ rows)
        if u.requires_grad:
            u._accum(hs[:, :-1].reshape(B * T, H).T @ rows)
        if b.requires_grad:
            b._accum(rows.sum(axis=0))

    return Tensor._make(hs[:, 1:], (x, w, u, b), back)


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """Normalise the last axis, then scale by ``g`` and shift by ``b``; one
    tape node."""
    n = x.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    r = ((xc * xc).sum(axis=-1, keepdims=True) * (1.0 / n) + 1e-5) ** -0.5
    xn = xc * r
    def back(gy):
        if g.requires_grad:
            g._accum((gy * xn).reshape(-1, n).sum(axis=0))
        if b.requires_grad:
            b._accum(gy.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            gx = gy * g.data
            x._accum(r * (gx - gx.mean(axis=-1, keepdims=True)
                          - xn * (gx * xn).mean(axis=-1, keepdims=True)))
    return Tensor._make(xn * g.data + b.data, (x, g, b), back)


def positional_encoding(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def _self_attention(x: Tensor, params, prefix: str, heads: int) -> Tensor:
    q = linear(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k = linear(x, params[f"{prefix}.wk"])
    v = linear(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    out = attention(q, k, v, heads)
    return linear(out, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _gelu(x: Tensor) -> Tensor:
    # tanh-form GELU as one node; smooth, so finite-difference checks stay
    # clean even with discrete 0/1 context inputs.
    a, c = x.data, np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (a + 0.044715 * (a * a * a)))
    def back(gy):
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * (a * a))
        x._accum(gy * (0.5 * (1.0 + t) + 0.5 * a * dt))
    return Tensor._make(0.5 * a * (1.0 + t), (x,), back)


def transformer_layer(x: Tensor, params, prefix: str, heads: int) -> Tensor:
    # Pre-norm: residual around attention, then around the feed-forward.
    a = _self_attention(
        layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"]),
        params, f"{prefix}.attn", heads,
    )
    x = x + a
    h = layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    ff = _gelu(linear(h, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"]))
    ff = linear(ff, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    return x + ff


def transformer_states(
    x: Tensor, params, cfg: ModelConfig, prefix: str, proj: str, n_layers: int,
) -> Tensor:
    w = params[f"{proj}.w"]
    if x.shape[-1] != w.shape[0]:
        raise DataError(
            f"{proj}: input dim {x.shape[-1]} does not match weights {w.shape[0]}"
        )
    h = linear(x, w, params[f"{proj}.b"])
    h = h + Tensor(positional_encoding(x.shape[1], cfg.hidden))
    for i in range(n_layers):
        h = transformer_layer(h, params, f"{prefix}{i}", cfg.heads)
    return layer_norm(h, params[f"{prefix}.lnf.g"], params[f"{prefix}.lnf.b"])


def cross_attention_states(primary: Tensor, context: Tensor, params) -> Tensor:
    """Scaled dot-product attention, primary as query, context as key/value,
    with a residual connection onto the projected primary states."""
    if primary.shape[0] == 0 or primary.shape[1] == 0 or context.shape[1] == 0:
        raise DataError("cross-attention requires non-empty sequences")
    q = linear(primary, params["attn.wq"], params["attn.bq"])
    k = linear(context, params["attn.wk"])
    v = linear(context, params["attn.wv"], params["attn.bv"])
    return q + attention(q, k, v, 1)


def _dropout(t: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    mask = (rng.random(t.shape) >= p) / (1.0 - p)
    return t * Tensor(mask)


def context_array(codes: Sequence[VadCode]) -> np.ndarray:
    """Context sequence as floats; first entry must be the default code."""
    if not codes:
        raise DataError("context sequence must be non-empty")
    if codes[0] != DEFAULT_CODE:
        raise DataError("context sequence must start with the default code")
    return np.array([c.as_tuple() for c in codes], dtype=np.float64)


def make_context(previous_labels: Sequence[VadCode]) -> list[VadCode]:
    """Default code followed by the preceding stress labels."""
    return [DEFAULT_CODE, *previous_labels]


def speech_states(X: np.ndarray, params, cfg: ModelConfig) -> Tensor:
    """Speech encoder states (B, T, H) of (B, T, d) features.  They do not
    depend on the context, so inference encodes each window only once."""
    xt = Tensor(X)
    if cfg.arch == "lstm":
        return lstm_states(xt, params, "speech_lstm", cfg.hidden)
    return transformer_states(xt, params, cfg, "enc", "proj", cfg.layers)


def fuse(
    hs: Tensor, S: np.ndarray, params, cfg: ModelConfig,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Probabilities (B, 3) from speech states ``hs`` (B, T, H) and contexts
    ``S`` (B, T', 3): the context encoder, dropout, cross-attention and head.
    Only the last speech state is read."""
    st = Tensor(S)
    if cfg.arch == "lstm":
        hc = lstm_states(st, params, "ctx_lstm", cfg.hidden)
    else:
        hc = transformer_states(st, params, cfg, "ctx", "ctxproj", cfg.ctx_layers)
    # The head reads only the last position, so only it queries the context.
    query = hs[:, -1:, :]
    if rng is not None and cfg.dropout > 0:
        # the speech mask is drawn before the context mask
        query = _dropout(query, cfg.dropout, rng)
        hc = _dropout(hc, cfg.dropout, rng)
    fused = cross_attention_states(query, hc, params)
    last = fused[:, -1, :]
    if cfg.arch == "lstm":
        last = concat([last, hc[:, -1, :]], axis=1)
    logits = linear(last, params["head.w"], params["head.b"])
    return logits.sigmoid()


def forward_batch(
    X: np.ndarray, S: np.ndarray, params, cfg: ModelConfig,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Probabilities (B, 3) for a batch of aligned speech/context sequences;
    dropout is on exactly when an ``rng`` is given."""
    if X.ndim != 3 or S.ndim != 3:
        raise DataError("forward_batch expects (B, T, d) inputs")
    if X.shape[0] != S.shape[0] or X.shape[1] != S.shape[1]:
        raise DataError(
            f"speech {X.shape} and context {S.shape} sequences are misaligned"
        )
    if X.shape[1] == 0:
        raise DataError("empty sequences")
    return fuse(speech_states(X, params, cfg), S, params, cfg, rng)


def binarise(probs: np.ndarray) -> np.ndarray:
    """The paper's decision rule: True where p > 0.5."""
    return probs > 0.5


def decode(probs: np.ndarray) -> VadCode:
    """Binary code of one (3,) probability row."""
    return VadCode(*(int(b) for b in binarise(probs)))


def param_names(params) -> list[str]:
    return sorted(params)


# --- checkpoints: "SPCK" header, tensor directory, f32 payload, CRC32 ---

_CKPT_MAGIC = b"SPCK"
_CKPT_VERSION = 1


def save_checkpoint(path: str | Path, params, cfg: ModelConfig) -> None:
    names = param_names(params)
    arch = cfg.arch.encode()
    head = bytearray()
    head += _CKPT_MAGIC
    head += struct.pack("<IB", _CKPT_VERSION, len(arch))
    head += arch
    head += struct.pack(
        "<6I", cfg.feature_dim, cfg.hidden, cfg.layers, cfg.heads,
        cfg.ffn, cfg.ctx_layers,
    )
    head += struct.pack("<I", len(names))
    payload = bytearray()
    for n in names:
        arr = params[n].data.astype("<f4")
        nb = n.encode()
        head += struct.pack("<H", len(nb)) + nb
        head += struct.pack("<B", arr.ndim)
        head += struct.pack(f"<{arr.ndim}I", *arr.shape)
        head += struct.pack("<Q", len(payload))
        payload += arr.tobytes()
    blob = bytes(head) + bytes(payload)
    blob += struct.pack("<I", zlib.crc32(blob))
    Path(path).write_bytes(blob)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Tensor], ModelConfig]:
    """Parameters and config of a checkpoint.  Every tensor the header's
    config needs must be present with its shape; tensors it does not build
    (such as the attention key biases of older checkpoints) are dropped."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing checkpoint: {path}")
    blob = path.read_bytes()
    if len(blob) < 8 or blob[:4] != _CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    body, crc = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != crc:
        raise DataError(f"{path}: checkpoint CRC mismatch")
    off = 4

    def take(fmt: str) -> tuple:
        nonlocal off
        values = struct.unpack_from(fmt, body, off)
        off += struct.calcsize(fmt)
        return values

    # struct.error: header cut short; ValueError: a field fails to decode or validate
    try:
        version, arch_len = take("<IB")
        if version != _CKPT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        arch = take(f"{arch_len}s")[0].decode()
        dims = take("<6I")
        cfg = ModelConfig(arch, *dims)
        entries = {}
        for _ in range(take("<I")[0]):
            (nlen,) = take("<H")
            name = take(f"{nlen}s")[0].decode()
            (ndim,) = take("<B")
            entries[name] = (take(f"<{ndim}I"), take("<Q")[0])
        # every layer owns tensors: this bounds the shape table a corrupt
        # layer count would build
        if cfg.layers + cfg.ctx_layers > len(entries):
            raise DataError(f"{cfg.layers} + {cfg.ctx_layers} layers but "
                            f"{len(entries)} tensors")
        params = {}
        for name, want in param_shapes(cfg).items():
            if name not in entries:
                raise DataError(f"missing tensor {name}")
            shape, start = entries[name]
            if shape != want:
                raise DataError(f"tensor {name} has shape {shape}, not {want}")
            size = math.prod(shape)
            if off + start + 4 * size > len(body):
                raise DataError(f"tensor {name} lies past the end of the file")
            arr = np.frombuffer(body, dtype="<f4", count=size, offset=off + start)
            if not np.isfinite(arr).all():
                raise DataError(f"tensor {name} holds NaN or inf")
            params[name] = Tensor(arr.astype(np.float64).reshape(shape))
        return params, cfg
    except (struct.error, ValueError) as e:
        raise DataError(f"{path}: malformed checkpoint ({e})") from None
