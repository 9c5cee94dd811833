"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough ops for the sequence models: elementwise arithmetic, matmul,
activations, reductions, reshapes and slicing.  Gradients are exact; the
test suite checks them against central finite differences.
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

    def __neg__(self):
        def back(g):
            self._accum(-g)
        return self._make(-self.data, (self,), back)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

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

    def __pow__(self, p: float):
        def back(g):
            self._accum(g * p * self.data ** (p - 1))
        return self._make(self.data ** p, (self,), back)

    def __matmul__(self, other):
        o = self._lift(other)
        def back(g):
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(o.data, -1, -2))
                self._accum(_unbroadcast(ga, self.data.shape))
            if o.requires_grad and o.data.ndim == 2:
                # A shared weight: one GEMM over every leading row, not a
                # per-example stack that _unbroadcast then sums away.
                k, n = o.data.shape
                o._accum(self.data.reshape(-1, k).T @ g.reshape(-1, n))
            elif o.requires_grad:
                gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
                o._accum(_unbroadcast(gb, o.data.shape))
        return self._make(np.matmul(self.data, o.data), (self, o), back)

    # -- activations and elementwise functions --

    def exp(self):
        val = np.exp(self.data)
        def back(g):
            self._accum(g * val)
        return self._make(val, (self,), back)

    def log(self):
        def back(g):
            self._accum(g / self.data)
        return self._make(np.log(self.data), (self,), back)

    def tanh(self):
        val = np.tanh(self.data)
        def back(g):
            self._accum(g * (1.0 - val * val))
        return self._make(val, (self,), back)

    def sigmoid(self):
        val = 1.0 / (1.0 + np.exp(-self.data))
        def back(g):
            self._accum(g * val * (1.0 - val))
        return self._make(val, (self,), back)

    def clip(self, lo: float, hi: float):
        # Pass-through gradient inside [lo, hi], zero outside.
        mask = (self.data >= lo) & (self.data <= hi)
        def back(g):
            self._accum(g * mask)
        return self._make(np.clip(self.data, lo, hi), (self,), back)

    # -- reductions --

    def sum(self, axis=None, keepdims=False):
        def back(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))
        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

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


def softmax(x: Tensor, axis=-1) -> Tensor:
    # Max-shift is a constant; its gradient contribution cancels.
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)
