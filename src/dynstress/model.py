"""Sequence classifiers for stress progression.

Two architectures: parallel unidirectional LSTM encoders (speech + stress
context) and a transformer encoder.  Both fuse the encoded sequences with a
cross-attention block (the final speech state queries the context states) and
classify the result into three independent VAD probabilities.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import zipfile
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor, attention, linear, pick_rows, take_rows
from .segmentation import DataError, open_input, read_f32_npy
from .vad import ALL_CODES, DEFAULT_CODE, VadCode


@dataclass(frozen=True)
class ModelConfig:
    arch: str  # "lstm" | "transformer"
    feature_dim: int
    hidden: int = 128
    layers: int | None = None
    heads: int | None = None
    ffn: int | None = None
    dropout: float = 0.3

    def __post_init__(self):
        if self.arch not in ("lstm", "transformer"):
            raise DataError(f"unknown architecture {self.arch!r}")
        # only the transformer has ffn, layers and heads: each LSTM encoder is one layer
        own = ("ffn", "layers", "heads") if self.arch == "transformer" else ()
        for name, default in (("ffn", 256), ("layers", 2), ("heads", 4)):
            if name not in own and getattr(self, name) is not None:
                raise DataError(f"{name} shapes only the transformer")
            if name in own and getattr(self, name) is None:
                object.__setattr__(self, name, default)  # the dataclass is frozen
        # the transformer's last speech layer computes the only state the head reads
        for name in ("feature_dim", "hidden", *own):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")
        if self.arch == "transformer" and self.hidden % self.heads != 0:
            raise DataError("hidden size must be divisible by the head count")
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
            ("ctx", "ctxproj", 3, 1),  # one context layer
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

def lstm_states(acts: Tensor, u: Tensor) -> Tensor:
    """Unidirectional LSTM over gate pre-activations ``x @ w + b`` (B, T, 4H)
    to hidden states (B, T, H).  One tape node with a hand-written backward
    (the fused-gate LSTM of Appleyard et al. 2016): the forward keeps every
    step's gate activations and cell states; the backward runs BPTT, hands
    the pre-activation gradients back and takes the ``u`` gradient in one GEMM."""
    B, T, _ = acts.shape
    H = u.shape[0]
    # A copy: each step adds its recurrent term and activates its slice in place.
    gates = np.array(acts.data)
    dtype = gates.dtype
    hs = np.zeros((B, T + 1, H), dtype)  # hs[:, t] and cs[:, t] enter step t
    cs = np.zeros((B, T + 1, H), dtype)
    tanh_c = np.empty((B, T, H), dtype)
    # exp(-z) = inf gives a gate's exact 0; the errstate costs about 1 us
    # to enter, so it is entered once per call, not once per step
    with np.errstate(over="ignore"):
        for t in range(T):
            z = gates[:, t]
            if t:  # the state entering step 0 is zero
                z += hs[:, t] @ u.data
            g = np.tanh(z[:, 2 * H : 3 * H])
            z[:] = 1.0 / (1.0 + np.exp(-z))
            z[:, 2 * H : 3 * H] = g
            cs[:, t + 1] = z[:, H : 2 * H] * cs[:, t] + z[:, :H] * g
            tanh_c[:, t] = np.tanh(cs[:, t + 1])
            hs[:, t + 1] = z[:, 3 * H :] * tanh_c[:, t]

    def back(gh):
        i, f, g, o = (gates[..., k * H : (k + 1) * H] for k in range(4))
        slope = gates * (1.0 - gates)  # d activation / d pre-activation
        slope[..., 2 * H : 3 * H] = 1.0 - g * g
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(gates)  # d loss / d pre-activation, every step
        dh = dc = np.zeros((B, H), dtype)
        for t in reversed(range(T)):
            dh = gh[:, t] + dh
            dc = dc + dh * dc_dh[:, t]
            dz[:, t] = slope[:, t] * np.concatenate(
                (dc * g[:, t], dc * cs[:, t], dc * i[:, t], dh * tanh_c[:, t]), axis=1)
            dc = dc * f[:, t]
            if t:
                dh = dz[:, t] @ u.data.T
        if acts.requires_grad:
            acts._accum(dz)
        if u.requires_grad:
            u._accum(hs[:, :-1].reshape(B * T, H).T @ dz.reshape(B * T, 4 * H))

    return Tensor._make(hs[:, 1:], (acts, u), back)


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


@functools.lru_cache(maxsize=None)
def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal positions (length, dim), computed once per shape and shared
    by every caller, so the array is read-only."""
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    enc.flags.writeable = False
    return enc


def _self_attention(
    xq: Tensor, x: Tensor, params, prefix: str, heads: int, mask=None,
) -> Tensor:
    """Attention of the rows ``xq`` over keys and values of the rows ``x``
    that the key ``mask`` keeps (every row without one)."""
    q = linear(xq, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k = linear(x, params[f"{prefix}.wk"])
    v = linear(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    out = attention(q, k, v, heads, mask)
    return linear(out, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _gelu(x: Tensor) -> Tensor:
    # tanh-form GELU as one node; smooth, so finite-difference checks stay
    # clean even with discrete 0/1 context inputs.
    a, c = x.data, math.sqrt(2.0 / math.pi)  # a Python float keeps float32
    t = np.tanh(c * (a + 0.044715 * (a * a * a)))
    def back(gy):
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * (a * a))
        x._accum(gy * (0.5 * (1.0 + t) + 0.5 * a * dt))
    return Tensor._make(0.5 * a * (1.0 + t), (x,), back)


def transformer_layer(
    x: Tensor, params, prefix: str, heads: int, rows=None, mask=None,
) -> Tensor:
    """Pre-norm layer: residual around attention, then around the
    feed-forward.  With ``rows`` (B,), only the output (B, 1, H) of row
    ``rows[b]`` of each sequence is computed; it still attends to every
    row.  A key ``mask`` (B, T) hides the rows where it is False from every
    row's attention."""
    h = layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    hq = h
    if rows is not None:
        x, hq = pick_rows(x, rows), pick_rows(h, rows)
    x = x + _self_attention(hq, h, params, f"{prefix}.attn", heads, mask)
    h = layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    ff = _gelu(linear(h, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"]))
    ff = linear(ff, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    return x + ff


def transformer_states(
    h: Tensor, params, cfg: ModelConfig, prefix: str, n_layers: int,
    rows=None, mask=None,
) -> Tensor:
    """Encoder states (B, T, H) of projected inputs; adds the positions.  With
    ``rows`` (B,), only state ``rows[b]`` of each sequence, (B, 1, H), which
    the last layer computes for that row alone.  A key ``mask`` (B, T) hides
    the rows where it is False from every layer's attention, so a sequence
    padded after its rows has the states of its unpadded run on them."""
    pos = positional_encoding(h.shape[1], cfg.hidden).astype(h.data.dtype, copy=False)
    h = h + Tensor(pos)
    for i in range(n_layers):
        h = transformer_layer(h, params, f"{prefix}{i}", cfg.heads,
                              rows if i == n_layers - 1 else None, mask)
    return layer_norm(h, params[f"{prefix}.lnf.g"], params[f"{prefix}.lnf.b"])


def cross_attention_states(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention of projected queries over projected keys
    and values, with a residual connection onto the queries."""
    if q.shape[0] == 0 or q.shape[1] == 0 or k.shape[1] == 0:
        raise DataError("cross-attention requires non-empty sequences")
    return q + attention(q, k, v, 1)


def _dropout(t: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout of ``t`` with rate ``p``, as one node: a mask drawn
    from ``rng`` zeroes each element or scales it by 1 / (1 - p)."""
    mask = (rng.random(t.shape) >= p).astype(t.data.dtype) / (1.0 - p)
    def back(g):
        t._accum(g * mask)
    return Tensor._make(t.data * mask, (t,), back)


def context_array(previous_labels: Sequence[VadCode]) -> np.ndarray:
    """Context rows as floats: the default code, then the preceding stress
    labels."""
    return np.array([c.as_tuple() for c in (DEFAULT_CODE, *previous_labels)],
                    dtype=np.float64)


def _project(X: np.ndarray, params, name: str) -> Tensor:
    """Input projection ``X @ w + b`` of raw (..., d) inputs, cast to the
    weights' dtype."""
    w = params[f"{name}.w"]
    if X.shape[-1] != w.shape[0]:
        raise DataError(f"{name}: input dim {X.shape[-1]} does not match "
                        f"weights {w.shape[0]}")
    return linear(Tensor(X.astype(w.data.dtype, copy=False)), w, params[f"{name}.b"])


def speech_inputs(X: np.ndarray, params, cfg: ModelConfig) -> Tensor:
    """Input projection of (..., d) speech features, row by row, so inference
    projects each row of a recording once."""
    return _project(X, params, "speech_lstm" if cfg.arch == "lstm" else "proj")


def speech_states(
    P: Tensor, params, cfg: ModelConfig, lengths: np.ndarray | None = None,
) -> Tensor:
    """Last speech encoder state (B, 1, H) of projected windows ``P``, the
    only one the head reads.  It does not depend on the context, so
    inference encodes each window only once.  With ``lengths`` (B,), window
    b is the first ``lengths[b]`` rows of ``P[b]``, the rest padding, and its
    state is that of its unpadded run: the LSTM is causal, and the
    transformer hides the padding from every key."""
    B, T = P.shape[:2]
    rows = np.full(B, T - 1) if lengths is None else lengths - 1
    if cfg.arch == "lstm":
        return pick_rows(lstm_states(P, params["speech_lstm.u"]), rows)
    mask = None if lengths is None else np.arange(T) < lengths[:, None]
    return transformer_states(P, params, cfg, "enc", cfg.layers, rows, mask)


def context_states(S: np.ndarray, params, cfg: ModelConfig) -> Tensor:
    """Context encoder states (B, T', H) of contexts ``S`` (B, T', 3)."""
    if cfg.arch == "lstm":
        return lstm_states(_project(S, params, "ctx_lstm"), params["ctx_lstm.u"])
    return transformer_states(
        _project(S, params, "ctxproj"), params, cfg, "ctx", 1)


def context_memory(hc: Tensor, params) -> tuple[Tensor, Tensor, Tensor]:
    """Context states ``hc`` with their cross-attention keys and values."""
    wk, wv, bv = params["attn.wk"], params["attn.wv"], params["attn.bv"]
    return hc, linear(hc, wk), linear(hc, wv, bv)


class LoadedParams(Mapping):
    """A loaded checkpoint's tensors, read-only like their arrays, and the
    context memory that :func:`context_memo` keeps for them."""

    __slots__ = ("_tensors", "_memos")

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors, self._memos = tensors, {}

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)


def context_memo(
    params, cfg: ModelConfig,
) -> dict[tuple[VadCode, ...], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The memory in which sequential inference keeps each context's keys,
    values and last state under its codes.  A :func:`load_checkpoint`
    result keeps one per ``cfg`` for every call on it, freed with it: its
    tensors and their arrays cannot change.  Any other ``params`` (training
    updates its arrays in place) gets a new one."""
    if isinstance(params, LoadedParams):
        return params._memos.setdefault(cfg, {})
    return {}


def _head(x: np.ndarray, params) -> np.ndarray:
    """The VAD probabilities of head inputs ``x`` (..., head_in): the sigmoids
    of ``x @ head.w + head.b``.  The caller enters ``np.errstate(over="ignore")``:
    a logit below about -88 (float32) or -709 (float64) gives exactly 0."""
    return 1.0 / (1.0 + np.exp(-(x @ params["head.w"].data + params["head.b"].data)))


def readout(q: Tensor, hc: Tensor, k: Tensor, v: Tensor, params, cfg) -> Tensor:
    """Probabilities (B, 3) of projected queries ``q`` (B, 1, H) over context
    states ``hc`` and their keys and values: cross-attention, then the head
    as one node on the last cross-attention row and, for the LSTM, the last
    context state."""
    ins = (cross_attention_states(q, k, v), *((hc,) if cfg.arch == "lstm" else ()))
    x = np.concatenate([t.data[:, -1] for t in ins], axis=1)
    w, b = params["head.w"], params["head.b"]
    with np.errstate(over="ignore"):
        probs = _head(x, params)
    def back(g):
        gz = g * probs * (1.0 - probs)  # through the sigmoid
        if w.requires_grad:
            w._accum(x.T @ gz)
        if b.requires_grad:
            b._accum(gz.sum(axis=0))
        # hc, a parent, takes its last row's gradient before its keys and values add theirs
        for t, gt in zip(ins, np.split(gz @ w.data.T, len(ins), axis=1)):
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad[:, -1] += gt
    return Tensor._make(probs, (*ins, w, b), back)


def readout_array(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, last: np.ndarray, params, cfg,
) -> np.ndarray:
    """Probabilities (3,) of one projected query ``q`` (H,) over one context's
    keys and values ``k``, ``v`` (L, H) and its last state ``last`` (H,), which
    only the LSTM head reads: :func:`readout` on plain arrays, without a tape.
    The caller enters ``np.errstate(over="ignore")``, as :func:`_head` asks."""
    s = (k @ q) * (1.0 / math.sqrt(q.shape[0]))  # a Python float keeps float32
    e = np.exp(s - s.max())
    x = q + (e / e.sum()) @ v
    if cfg.arch == "lstm":
        x = np.concatenate((x, last))
    return _head(x, params)


def _distinct_rows(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``S`` in order of first appearance, and the
    position of each row of ``S`` among them."""
    first: dict[bytes, int] = {}
    index = np.array([first.setdefault(row.tobytes(), len(first)) for row in S],
                     dtype=np.intp)
    distinct = np.empty((len(first), *S.shape[1:]), dtype=S.dtype)
    distinct[index] = S  # repeated rows write the same bytes
    return distinct, index


def fuse(
    hs: Tensor, S: np.ndarray, params, cfg: ModelConfig,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Probabilities (B, 3) from last speech states ``hs`` (B, 1, H) and
    contexts ``S`` (B, T', 3): the context encoder, dropout, cross-attention
    and head."""
    # A batch repeats few contexts: encode each once, then gather every row.
    distinct, index = _distinct_rows(S)
    hc = take_rows(context_states(distinct, params, cfg), index)
    if rng is not None and cfg.dropout > 0:
        # the speech mask is drawn before the context mask
        hs = _dropout(hs, cfg.dropout, rng)
        hc = _dropout(hc, cfg.dropout, rng)
    q = linear(hs, params["attn.wq"], params["attn.bq"])
    return readout(q, *context_memory(hc, params), params, cfg)


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
    hs = speech_states(speech_inputs(X, params, cfg), params, cfg)
    return fuse(hs, S, params, cfg, rng)


def binarise(probs: np.ndarray) -> np.ndarray:
    """The paper's decision rule: True where p > 0.5."""
    return probs > 0.5


def decode(probs: np.ndarray) -> VadCode:
    """Binary code of one (3,) probability row, one of the 8 ``ALL_CODES``."""
    v, a, d = binarise(probs).tolist()
    return ALL_CODES[4 * v + 2 * a + d]


# --- checkpoints: an .npz of header.json and params.npy, both stored ---

_CKPT_VERSION = 3
# each architecture's fields, with the JSON types a header may give them (a float takes an int)
_LSTM_FIELDS = {"arch": (str,), "feature_dim": (int,), "hidden": (int,),
                "dropout": (int, float)}
_HEADER_FIELDS = {"lstm": _LSTM_FIELDS, "transformer": {
    **_LSTM_FIELDS, "layers": (int,), "heads": (int,), "ffn": (int,)}}


def save_checkpoint(path: str | Path, params, cfg: ModelConfig) -> None:
    """``header.json`` holds the version, the fields of ``cfg``'s architecture
    and ``[[name, shape], ...]`` in ``param_shapes`` order; ``params.npy``
    holds those tensors raveled into one float32 vector."""
    shapes = param_shapes(cfg)
    for name, shape in shapes.items():
        data = params[name].data
        if data.shape != shape:
            raise DataError(f"tensor {name} has shape {data.shape}, not {shape}")
        if np.any(np.abs(data[np.isfinite(data)]) > np.finfo("<f4").max):
            raise DataError(f"tensor {name} holds a finite value beyond the float32 range")
    tensors = [[name, list(shape)] for name, shape in shapes.items()]
    model = {name: getattr(cfg, name) for name in _HEADER_FIELDS[cfg.arch]}
    header = {"version": _CKPT_VERSION, "model": model, "tensors": tensors}
    flat = np.concatenate([params[name].data.ravel() for name in shapes]).astype("<f4")
    with zipfile.ZipFile(path, "w") as z:
        # a bare ZipInfo and ZipFile.open date members 1980-01-01: equal parameters, equal bytes
        z.writestr(zipfile.ZipInfo("header.json"), json.dumps(header))
        with z.open("params.npy", "w") as f:
            np.lib.format.write_array(f, flat, version=(1, 0), allow_pickle=False)


def _stored_member(z: zipfile.ZipFile, fp: io.BytesIO, blob: bytes, name: str) -> memoryview:
    """The bytes of the stored member ``name`` of the archive ``z`` read from
    ``fp``, which holds ``blob``: a view of ``blob``, with the local header
    and CRC-32 checks of ``ZipFile.read`` but without its copy."""
    info = z.getinfo(name)
    with z.open(info):  # checks the local header and leaves fp at the member's data
        start = fp.tell()
    data = memoryview(blob)[start : start + info.file_size]
    if len(data) != info.file_size or info.compress_size != info.file_size:
        raise EOFError(f"{name}: {len(data)} bytes stored, {info.compress_size} "
                       f"declared stored, {info.file_size} declared")
    if zlib.crc32(data) != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {name!r}")
    return data


def load_checkpoint(path: str | Path) -> tuple[LoadedParams, ModelConfig]:
    """A :func:`save_checkpoint` file's tensors, as read-only float32 views of
    ``params.npy`` in a read-only mapping that also holds their context
    memory, and its config; each header field is checked first."""
    with open_input(path, "checkpoint") as f:
        blob = f.read()  # read whole: no member a corrupt zip declares can be larger
    if blob[:4] == b"SPCK":
        raise DataError(f"{path}: SPCK (version 1) checkpoints are retired; "
                        "train again to write an .npz checkpoint")
    try:
        fp = io.BytesIO(blob)
        z = zipfile.ZipFile(fp)
        # stored members only: no decompressor runs on the file's bytes
        if any(info.compress_type != zipfile.ZIP_STORED for info in z.infolist()):
            raise DataError("a member is compressed")
        header = json.loads(z.read("header.json"))
        version = header.get("version") if isinstance(header, dict) else None
        if version != _CKPT_VERSION:
            raise DataError(f"unsupported checkpoint version {version!r}")
        model, tensors = header.get("model"), header.get("tensors")
        if not (isinstance(model, dict) and isinstance(tensors, list)):
            raise DataError("header holds no model config and tensor list")
        types = _HEADER_FIELDS.get(arch) if isinstance(arch := model.get("arch"), str) else None
        if types is None:  # any JSON value, a list or dict (unhashable) included
            raise DataError(f"unknown architecture {arch!r}")
        if model.keys() != types.keys() or any(type(model[k]) not in types[k] for k in model):
            raise DataError(f"{arch} model fields are {', '.join(types)}, got {json.dumps(model)}")
        cfg = ModelConfig(**model)
        # each transformer layer owns tensors, which bounds the table a bad count builds
        if cfg.arch == "transformer" and cfg.layers >= len(tensors):
            raise DataError(f"{cfg.layers} speech layers, {len(tensors)} tensors")
        shapes = param_shapes(cfg)
        for got, want in itertools.zip_longest(tensors, shapes.items()):
            if want is None or got != [want[0], list(want[1])]:
                raise DataError(f"header lists tensor {got!r} where the model has {want!r}")
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        flat = read_f32_npy(_stored_member(z, fp, blob, "params.npy"), "params.npy")
        if flat.shape != (ends[-1],):
            raise DataError(f"params.npy holds float32 {flat.shape}, not ({ends[-1]},)")
    except (zipfile.BadZipFile, KeyError, NotImplementedError, EOFError, ValueError,
            RuntimeError) as e:  # DataError is a ValueError
        raise DataError(f"{path}: malformed checkpoint ({e})") from None
    params = {}
    for (name, shape), part in zip(shapes.items(), np.split(flat, ends[:-1])):
        if not np.isfinite(part).all():
            raise DataError(f"{path}: tensor {name} holds NaN or inf")
        params[name] = Tensor(part.reshape(shape))
    return LoadedParams(params), cfg
