"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough generic ops for the sequence models: addition, multiplication,
division, sigmoid, sums, slicing and concatenation.  Only a constant operand
broadcasts in them; an operand that needs a gradient must have the result's
shape.  A projection by a 2-D weight (``linear``) and multi-head scaled
dot-product attention are one node each, and the model's heavier layers
build their own single nodes with ``Tensor._make``.  Gradients are exact;
the test suite checks them against central finite differences.
"""

from __future__ import annotations

import numpy as np


_BASIC_KEYS = (int, np.integer, slice, type(None), type(Ellipsis))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
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
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    # -- arithmetic --

    def _binary(self, other, op):
        # Only a constant broadcasts, so no backward sums over broadcast axes.
        o = other if isinstance(other, Tensor) else Tensor(other)
        out = op(self.data, o.data)
        if any(t.requires_grad and t.shape != out.shape for t in (self, o)):
            raise ValueError(f"shapes {self.shape} and {o.shape}: an operand that "
                             "needs a gradient must not broadcast")
        return o, out

    def __add__(self, other):
        o, out = self._binary(other, np.add)
        def back(g):
            if self.requires_grad:
                self._accum(g)
            if o.requires_grad:
                o._accum(g)
        return self._make(out, (self, o), back)

    def __mul__(self, other):
        o, out = self._binary(other, np.multiply)
        def back(g):
            if self.requires_grad:
                self._accum(g * o.data)
            if o.requires_grad:
                o._accum(g * self.data)
        return self._make(out, (self, o), back)

    def __truediv__(self, other):
        o, out = self._binary(other, np.divide)
        def back(g):
            if self.requires_grad:
                self._accum(g / o.data)
            if o.requires_grad:
                o._accum(-g * self.data / (o.data * o.data))
        return self._make(out, (self, o), back)

    # -- activations --

    def sigmoid(self):
        val = 1.0 / (1.0 + np.exp(-self.data))
        def back(g):
            self._accum(g * val * (1.0 - val))
        return self._make(val, (self,), back)

    # -- reductions --

    def sum(self):
        def back(g):
            self._accum(np.broadcast_to(g, self.data.shape))
        return self._make(self.data.sum(), (self,), back)

    def mean(self):
        return self.sum() / self.data.size

    # -- slicing --

    def __getitem__(self, key):
        # Basic keys only: each element of the result then reads a distinct
        # element of ``self``, so the backward can add ``g`` into a view.
        parts = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, bool) or not isinstance(k, _BASIC_KEYS) for k in parts):
            raise TypeError(
                f"Tensor index must be ints, slices, None or Ellipsis, got {key!r}")
        def back(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += g
        return self._make(self.data[key], (self,), back)

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

def concat(tensors, axis=0):
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    def back(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            if t.requires_grad:
                t._accum(g[tuple(sl)])
            offset += size
    return Tensor._make(np.concatenate(datas, axis=axis), tuple(tensors), back)


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


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of queries (B, Tq, H) over keys
    and values (B, Tk, H), as one node.  H is split into ``heads`` slices of
    width d = H / heads; each head computes softmax(q k^T / sqrt(d)) v, and
    the heads are merged back into (B, Tq, H)."""
    H = q.shape[-1]
    d = H // heads
    def split(a):  # (B, T, H) -> (B, heads, T, d), a view
        return a.reshape(a.shape[0], a.shape[1], heads, d).transpose(0, 2, 1, 3)
    def merge(a):  # (B, heads, T, d) -> (B, T, H)
        return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], H)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(d)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * scale
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
