"""Sequence classifiers for stress progression.

Two architectures: parallel unidirectional LSTM encoders (speech + stress
context) and a transformer encoder.  Both fuse the encoded sequences with a
cross-attention block (speech as query, context as key/value) and classify
the final fused position into three independent VAD probabilities.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor, concat, softmax, stack
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
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise DataError("hidden size must be divisible by a positive head count")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")


# --- parameter initialisation ---

def _uniform(rng, shape, fan_in):
    r = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-r, r, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape):
    return Tensor(np.ones(shape), requires_grad=True)


def _init_lstm(params, prefix, in_dim, hidden, rng):
    params[f"{prefix}.w"] = _uniform(rng, (in_dim, 4 * hidden), in_dim)
    params[f"{prefix}.u"] = _uniform(rng, (hidden, 4 * hidden), hidden)
    params[f"{prefix}.b"] = _zeros((4 * hidden,))


def _init_transformer_layer(params, prefix, hidden, ffn, rng):
    params[f"{prefix}.ln1.g"] = _ones((hidden,))
    params[f"{prefix}.ln1.b"] = _zeros((hidden,))
    for name in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.attn.{name}"] = _uniform(rng, (hidden, hidden), hidden)
    for name in ("bq", "bk", "bv", "bo"):
        params[f"{prefix}.attn.{name}"] = _zeros((hidden,))
    params[f"{prefix}.ln2.g"] = _ones((hidden,))
    params[f"{prefix}.ln2.b"] = _zeros((hidden,))
    params[f"{prefix}.ffn.w1"] = _uniform(rng, (hidden, ffn), hidden)
    params[f"{prefix}.ffn.b1"] = _zeros((ffn,))
    params[f"{prefix}.ffn.w2"] = _uniform(rng, (ffn, hidden), ffn)
    params[f"{prefix}.ffn.b2"] = _zeros((hidden,))


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    h = cfg.hidden
    params: dict[str, Tensor] = {}
    if cfg.arch == "lstm":
        _init_lstm(params, "speech_lstm", cfg.feature_dim, h, rng)
        _init_lstm(params, "ctx_lstm", 3, h, rng)
        head_in = 2 * h
    else:
        params["proj.w"] = _uniform(rng, (cfg.feature_dim, h), cfg.feature_dim)
        params["proj.b"] = _zeros((h,))
        for i in range(cfg.layers):
            _init_transformer_layer(params, f"enc{i}", h, cfg.ffn, rng)
        params["enc.lnf.g"] = _ones((h,))
        params["enc.lnf.b"] = _zeros((h,))
        params["ctxproj.w"] = _uniform(rng, (3, h), 3)
        params["ctxproj.b"] = _zeros((h,))
        for i in range(cfg.ctx_layers):
            _init_transformer_layer(params, f"ctx{i}", h, cfg.ffn, rng)
        params["ctx.lnf.g"] = _ones((h,))
        params["ctx.lnf.b"] = _zeros((h,))
        head_in = h
    for name in ("wq", "wk", "wv"):
        params[f"attn.{name}"] = _uniform(rng, (h, h), h)
    for name in ("bq", "bk", "bv"):
        params[f"attn.{name}"] = _zeros((h,))
    params["head.w"] = _uniform(rng, (head_in, 3), head_in)
    params["head.b"] = _zeros((3,))
    return params


# --- building blocks (batched: B x T x dim) ---

def lstm_states(x: Tensor, params, prefix: str, hidden: int) -> Tensor:
    """Unidirectional LSTM over (B, T, D); returns hidden states (B, T, H)."""
    w, u, b = params[f"{prefix}.w"], params[f"{prefix}.u"], params[f"{prefix}.b"]
    if x.shape[-1] != w.shape[0]:
        raise DataError(
            f"{prefix}: input dim {x.shape[-1]} does not match weights {w.shape[0]}"
        )
    B, T, _ = x.shape
    h = Tensor(np.zeros((B, hidden)))
    c = Tensor(np.zeros((B, hidden)))
    outs = []
    for t in range(T):
        z = x[:, t, :] @ w + h @ u + b
        i = z[:, 0 * hidden : 1 * hidden].sigmoid()
        f = z[:, 1 * hidden : 2 * hidden].sigmoid()
        g = z[:, 2 * hidden : 3 * hidden].tanh()
        o = z[:, 3 * hidden : 4 * hidden].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        outs.append(h)
    return stack(outs, axis=1)


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * ((var + 1e-5) ** -0.5) * g + b


def positional_encoding(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def _self_attention(x: Tensor, params, prefix: str, heads: int) -> Tensor:
    B, T, H = x.shape
    hd = H // heads
    q = x @ params[f"{prefix}.wq"] + params[f"{prefix}.bq"]
    k = x @ params[f"{prefix}.wk"] + params[f"{prefix}.bk"]
    v = x @ params[f"{prefix}.wv"] + params[f"{prefix}.bv"]
    q = q.reshape(B, T, heads, hd).transpose(0, 2, 1, 3)
    k = k.reshape(B, T, heads, hd).transpose(0, 2, 1, 3)
    v = v.reshape(B, T, heads, hd).transpose(0, 2, 1, 3)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
    att = softmax(scores, axis=-1)
    out = (att @ v).transpose(0, 2, 1, 3).reshape(B, T, H)
    return out @ params[f"{prefix}.wo"] + params[f"{prefix}.bo"]


def _gelu(x: Tensor) -> Tensor:
    # tanh-form GELU; smooth, so finite-difference checks stay clean even
    # with discrete 0/1 context inputs.
    inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + inner.tanh())


def transformer_layer(x: Tensor, params, prefix: str, heads: int) -> Tensor:
    # Pre-norm: residual around attention, then around the feed-forward.
    a = _self_attention(
        layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"]),
        params, f"{prefix}.attn", heads,
    )
    x = x + a
    h = layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    ff = _gelu(h @ params[f"{prefix}.ffn.w1"] + params[f"{prefix}.ffn.b1"])
    ff = ff @ params[f"{prefix}.ffn.w2"] + params[f"{prefix}.ffn.b2"]
    return x + ff


def transformer_states(
    x: Tensor, params, cfg: ModelConfig, prefix: str, proj: str, n_layers: int,
) -> Tensor:
    w = params[f"{proj}.w"]
    if x.shape[-1] != w.shape[0]:
        raise DataError(
            f"{proj}: input dim {x.shape[-1]} does not match weights {w.shape[0]}"
        )
    h = x @ w + params[f"{proj}.b"]
    h = h + Tensor(positional_encoding(x.shape[1], cfg.hidden))
    for i in range(n_layers):
        h = transformer_layer(h, params, f"{prefix}{i}", cfg.heads)
    return layer_norm(h, params[f"{prefix}.lnf.g"], params[f"{prefix}.lnf.b"])


def cross_attention_states(primary: Tensor, context: Tensor, params) -> Tensor:
    """Scaled dot-product attention, primary as query, context as key/value,
    with a residual connection onto the projected primary states."""
    if primary.shape[0] == 0 or primary.shape[1] == 0 or context.shape[1] == 0:
        raise DataError("cross-attention requires non-empty sequences")
    H = primary.shape[-1]
    q = primary @ params["attn.wq"] + params["attn.bq"]
    k = context @ params["attn.wk"] + params["attn.bk"]
    v = context @ params["attn.wv"] + params["attn.bv"]
    scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(H))
    att = softmax(scores, axis=-1)
    return q + att @ v


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


def forward_batch(
    X: np.ndarray, S: np.ndarray, params, cfg: ModelConfig,
    train: bool = False, rng: np.random.Generator | None = None,
) -> Tensor:
    """Probabilities (B, 3) for a batch of aligned speech/context sequences."""
    if X.ndim != 3 or S.ndim != 3:
        raise DataError("forward_batch expects (B, T, d) inputs")
    if X.shape[0] != S.shape[0] or X.shape[1] != S.shape[1]:
        raise DataError(
            f"speech {X.shape} and context {S.shape} sequences are misaligned"
        )
    if X.shape[1] == 0:
        raise DataError("empty sequences")
    xt, st = Tensor(X), Tensor(S)
    if cfg.arch == "lstm":
        hs = lstm_states(xt, params, "speech_lstm", cfg.hidden)
        hc = lstm_states(st, params, "ctx_lstm", cfg.hidden)
    else:
        hs = transformer_states(xt, params, cfg, "enc", "proj", cfg.layers)
        hc = transformer_states(st, params, cfg, "ctx", "ctxproj", cfg.ctx_layers)
    if train and cfg.dropout > 0:
        if rng is None:
            raise ValueError("dropout needs an rng in training mode")
        hs = _dropout(hs, cfg.dropout, rng)
        hc = _dropout(hc, cfg.dropout, rng)
    fused = cross_attention_states(hs, hc, params)
    last = fused[:, -1, :]
    if cfg.arch == "lstm":
        last = concat([last, hc[:, -1, :]], axis=1)
    logits = last @ params["head.w"] + params["head.b"]
    return logits.sigmoid()


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
        entries = []
        for _ in range(take("<I")[0]):
            (nlen,) = take("<H")
            name = take(f"{nlen}s")[0].decode()
            (ndim,) = take("<B")
            entries.append((name, take(f"<{ndim}I"), take("<Q")[0]))
        params = {}
        for name, shape, start in entries:
            size = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(body, dtype="<f4", count=size, offset=off + start)
            params[name] = Tensor(arr.astype(np.float64).reshape(shape))
        return params, ModelConfig(arch, *dims)
    except (struct.error, ValueError) as e:
        raise DataError(f"{path}: malformed checkpoint ({e})") from None
