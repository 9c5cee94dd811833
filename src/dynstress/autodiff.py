"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough generic ops for the sequence models: addition, multiplication,
matmul, sigmoid, sums, reshapes, slicing and concatenation, plus scaled
dot-product attention as one node.  The model's heavier layers build their
own single nodes with ``Tensor._make``.  Gradients are exact; the test suite
checks them against central finite differences.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # Sum gradient over axes that were broadcast in the forward op.
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


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
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

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

    def __add__(self, other):
        o = self._lift(other)
        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if o.requires_grad:
                o._accum(_unbroadcast(g, o.data.shape))
        return self._make(self.data + o.data, (self, o), back)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._lift(other)
        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * o.data, self.data.shape))
            if o.requires_grad:
                o._accum(_unbroadcast(g * self.data, o.data.shape))
        return self._make(self.data * o.data, (self, o), back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / o.data, self.data.shape))
            if o.requires_grad:
                o._accum(_unbroadcast(-g * self.data / (o.data * o.data), o.data.shape))
        return self._make(self.data / o.data, (self, o), back)

    def __matmul__(self, other):
        o = self._lift(other)
        a, w = self.data, o.data
        # A stack of rows times a shared 2-D weight runs as one GEMM over
        # every leading row, forward and backward, not as one small GEMM per
        # leading index.  One row per index (the last-state query) stays
        # stacked: numpy runs it as matrix-vector products, whose sums round
        # differently from a GEMM's, so flattening would move trained
        # weights in their last bits.
        flat = a.ndim > 2 and w.ndim == 2 and a.shape[-2] > 1
        def back(g):
            if self.requires_grad and flat:
                self._accum((g.reshape(-1, w.shape[1]) @ w.T).reshape(a.shape))
            elif self.requires_grad:
                ga = np.matmul(g, np.swapaxes(w, -1, -2))
                self._accum(_unbroadcast(ga, a.shape))
            if o.requires_grad and w.ndim == 2:
                o._accum(a.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1]))
            elif o.requires_grad:
                gb = np.matmul(np.swapaxes(a, -1, -2), g)
                o._accum(_unbroadcast(gb, w.shape))
        if flat:
            out = (a.reshape(-1, w.shape[0]) @ w).reshape(*a.shape[:-1], w.shape[1])
        else:
            out = np.matmul(a, w)
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

    # -- shape ops --

    def reshape(self, *shape):
        old = self.data.shape
        def back(g):
            self._accum(g.reshape(old))
        return self._make(self.data.reshape(*shape), (self,), back)

    def transpose(self, *axes):
        inv = np.argsort(axes)
        def back(g):
            self._accum(g.transpose(*inv))
        return self._make(self.data.transpose(*axes), (self,), back)

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


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention, softmax(q k^T / sqrt(d)) v, of queries
    (..., Tq, d) over keys and values (..., Tk, d) with the same leading
    dimensions, as one node."""
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * scale
    # The max-shift is a constant per query; the softmax ignores it.
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    def back(g):
        if v.requires_grad:
            v._accum(np.matmul(np.swapaxes(att, -1, -2), g))
        ga = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gs = att * (ga - (ga * att).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q._accum(np.matmul(gs, k.data))
        if k.requires_grad:
            k._accum(np.matmul(np.swapaxes(gs, -1, -2), q.data))
    return Tensor._make(np.matmul(att, v.data), (q, k, v), back)
