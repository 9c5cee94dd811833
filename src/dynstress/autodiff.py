"""Minimal reverse-mode automatic differentiation over numpy arrays.

The tape holds only the nodes the sequence models run: ``Tensor``'s one op,
``+`` (residuals, and constants such as the positional encoding, the only
operands that broadcast), row gathers (``take_rows``, ``pick_rows``), a
projection by a 2-D weight (``linear``) and multi-head attention, one node
each.  The model's layers, dropout and head, and the training loss, build
their own single nodes with ``Tensor._make``.  Gradients are exact; the test
suite checks them against central finite differences.

A tensor holds float32 when it is given float32 and float64 otherwise, and
every node computes in its inputs' dtype (the batch loss alone is a float64
scalar), so a float32 model trains in float32 while float64 callers get
float64 arithmetic throughout.
"""

from __future__ import annotations

import math

import numpy as np


_F32 = np.dtype(np.float32)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        f32 = getattr(data, "dtype", None) is _F32
        self.data = np.asarray(data, dtype=np.float32 if f32 else np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # -- graph construction helpers --

    @staticmethod
    def _make(data, parents, backward):
        # Outputs of constants keep no parents and no backward, so a
        # single-parent backward runs only when its parent needs a gradient.
        req = any(p.requires_grad for p in parents)
        return Tensor(data, req, parents if req else (), backward if req else None)

    def _accum(self, g):
        # The first gradient is copied, never kept: ``g`` can be a view of
        # another tensor's ``.grad`` that a later ``+=`` must not write into.
        # It takes this tensor's dtype: a float32 tensor below a float64
        # scalar loss still gets float32 gradients.
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # -- arithmetic --

    def __add__(self, o: Tensor) -> Tensor:
        # Only a constant broadcasts, so the backward sums over no axis.
        out = self.data + o.data
        if any(t.requires_grad and t.shape != out.shape for t in (self, o)):
            raise ValueError(f"shapes {self.shape} and {o.shape}: an operand that "
                             "needs a gradient must not broadcast")
        def back(g):
            if self.requires_grad:
                self._accum(g)
            if o.requires_grad:
                o._accum(g)
        return self._make(out, (self, o), back)

    # -- backprop driver --

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo, seen = [], set()
        def visit(t):
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)
        visit(self)
        # ``visit`` refers to itself through its closure cell, which also
        # holds ``topo``; deleting it breaks that cycle, so the tape is freed
        # when this call returns instead of at the next cyclic collection.
        del visit
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)


# -- functional helpers --

def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``x[index]`` along the first axis, as one node; a row of ``x`` may
    be read many times or never.  The backward sums each row's gradients
    with one (rows of ``x``, len(index)) indicator product."""
    index = np.asarray(index)
    def back(g):
        onehot = (np.arange(x.shape[0])[:, None] == index).astype(x.data.dtype)
        x._accum((onehot @ g.reshape(len(index), -1)).reshape(x.shape))
    return Tensor._make(x.data[index], (x,), back)


def pick_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Row ``rows[b]`` of each sequence ``x[b]`` of (B, T, ...), as
    (B, 1, ...) and one node.  Each element of the result reads a distinct
    element of ``x``, so the backward adds ``g`` in place, as a slice's does."""
    b = np.arange(x.shape[0])
    def back(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[b, rows] += g[:, 0]
    return Tensor._make(x.data[b, rows][:, None], (x,), back)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, as one node: one GEMM over
    every leading row forward, one GEMM each for the ``x`` and ``w``
    gradients, and one row sum for ``b``."""
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise ValueError(f"linear: cannot project shape {x.shape} by {w.shape}")
    k, n = w.shape
    rows = x.data.reshape(-1, k)
    out = rows @ w.data
    if b is not None:
        out += b.data
    def back(g):
        g = g.reshape(-1, n)
        if x.requires_grad:
            x._accum((g @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accum(rows.T @ g)
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=0))
    parents = (x, w) if b is None else (x, w, b)
    return Tensor._make(out.reshape(*x.shape[:-1], n), parents, back)


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention of queries (B, Tq, H) over keys
    and values (B, Tk, H), as one node.  H is split into ``heads`` slices of
    width d = H / heads; each head computes softmax(q k^T / sqrt(d)) v, and
    the heads are merged back into (B, Tq, H).  A boolean key ``mask``
    (B, Tk) keeps the keys where it is True: the others score -inf, so they
    get zero weight and zero gradient.  Each row must keep a key."""
    H = q.shape[-1]
    d = H // heads
    def split(a):  # (B, T, H) -> (B, heads, T, d), a view
        return a.reshape(a.shape[0], a.shape[1], heads, d).transpose(0, 2, 1, 3)
    def merge(a):  # (B, heads, T, d) -> (B, T, H)
        return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], H)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(d)  # a Python float: an np.float64 widens float32 scores
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale
    if mask is not None:
        np.copyto(scores, -np.inf, where=~mask[:, None, None, :])
    # The max-shift is a constant per query; the softmax ignores it.
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    def back(g):
        g = split(g)
        if v.requires_grad:
            v._accum(merge(np.matmul(np.swapaxes(att, -1, -2), g)))
        ga = np.matmul(g, np.swapaxes(vh, -1, -2))
        gs = att * (ga - (ga * att).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q._accum(merge(np.matmul(gs, kh)))
        if k.requires_grad:
            k._accum(merge(np.matmul(np.swapaxes(gs, -1, -2), qh)))
    return Tensor._make(merge(np.matmul(att, vh)), (q, k, v), back)
