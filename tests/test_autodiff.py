import numpy as np
import pytest

from dynstress.autodiff import Tensor, attention, concat, linear
from dynstress.model import _gelu, layer_norm, lstm_states
from dynstress.training import _bce_terms, numerical_gradient

A = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 4))
B = np.random.default_rng(1).uniform(0.5, 2.0, size=(3, 4))


def lstm_on(x, w, u, b):
    return lstm_states(x, {"l.w": w, "l.u": u, "l.b": b}, "l", u.shape[0])


# every op and fused layer node of the tape, applied to constant inputs
OPS = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "truediv": lambda a, b: a / b,
    "matmul": lambda a, b: linear(a, Tensor(b.data.T)),
    "linear": lambda a, b: linear(a, Tensor(b.data.T), b[0, :3]),
    "sigmoid": lambda a, b: a.sigmoid(),
    "sum": lambda a, b: a.sum(),
    "mean": lambda a, b: a.mean(),
    "getitem": lambda a, b: a[:, 1:3],
    "concat": lambda a, b: concat([a, b], axis=1),
    "lstm": lambda a, b: lstm_on(a[None], linear(Tensor(b.data.T), b), b[:1], b[0]),
    "layer_norm": lambda a, b: layer_norm(a, b[0], b[1]),
    "attention": lambda a, b: attention(a[None], b[None], b[None], 2),
    "gelu": lambda a, b: _gelu(a),
    "bce": lambda a, b: _bce_terms(a, (B > 1.0).astype(float)),
}


@pytest.mark.parametrize("op", OPS)
def test_constant_inputs_record_no_tape(op):
    out = OPS[op](Tensor(A), Tensor(B))
    assert not out.requires_grad
    assert out._parents == ()
    assert out._backward is None


# binary ops, linear and concat with one operand a constant, on either side;
# "matmul" has a constant weight or input, "linear" a constant bias or a
# constant input and weight
MIXED = {
    "add": lambda x, c: x + c,
    "mul": lambda x, c: x * c,
    "truediv": lambda x, c: x / c,
    "matmul": lambda x, c: linear(x[:, :3], c),
    "linear": lambda x, c: linear(x[:, :3], x[:3], c[0]),
    "concat": lambda x, c: concat([x, c], axis=1),
}


@pytest.mark.parametrize("constant_first", [False, True])
@pytest.mark.parametrize("op", MIXED)
def test_constant_operand_gets_no_gradient(op, constant_first):
    x = Tensor(A.copy(), requires_grad=True)
    c = Tensor(B[:, :3] if op == "concat" else B)
    weights = np.random.default_rng(2).normal(size=(3, 7 if op == "concat" else 4))

    def graph():
        out = MIXED[op](c, x) if constant_first else MIXED[op](x, c)
        return (out * weights).sum()

    graph().backward()
    assert c.grad is None
    num = numerical_gradient(lambda: float(graph().data), {"x": x}, h=1e-6)
    assert np.allclose(x.grad, num["x"], rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("key", [np.array([0, 0, 1]), [0, 0, 1],
                                 (slice(None), np.array([1, 2])),
                                 A > 1.0, True],
                         ids=["array", "list", "mixed", "mask", "bool"])
def test_getitem_rejects_advanced_keys(key):
    # A repeated index would need an accumulating backward; only basic keys
    # are taken, so every output element reads a distinct input element.
    with pytest.raises(TypeError):
        Tensor(A, requires_grad=True)[key]


@pytest.mark.parametrize("key", [(slice(None), slice(1, 3)), (slice(None), -1), 1,
                                 (Ellipsis, None, 2)],
                         ids=["columns", "last_column", "row", "ellipsis_newaxis"])
def test_getitem_basic_key_gradient(key):
    x = Tensor(A.copy(), requires_grad=True)
    weights = np.random.default_rng(3).normal(size=A[key].shape)

    def graph():
        # x is read twice, so the slice backward adds onto an existing grad.
        return (x[key] * weights).sum() + (x * x).sum()

    graph().backward()
    num = numerical_gradient(lambda: float(graph().data), {"x": x}, h=1e-6)
    assert np.allclose(x.grad, num["x"], rtol=1e-6, atol=1e-8)


# (input shape, weight shape, einsum of the per-example sums: input grad,
# weight grad); the weight is shared by every leading row
LINEARS = {
    "sequence_by_weight": ((3, 4, 5), (5, 2), "btn,kn->btk", "btk,btn->kn"),
    "one_row_by_weight": ((3, 1, 5), (5, 2), "btn,kn->btk", "btk,btn->kn"),
    "batch_by_weight": ((3, 5), (5, 2), "bn,kn->bk", "bk,bn->kn"),
}


@pytest.mark.parametrize("bias", [False, True], ids=["no_bias", "bias"])
@pytest.mark.parametrize("case", LINEARS)
def test_linear_gradients_match_einsum_and_finite_differences(case, bias):
    x_shape, w_shape, gx_spec, gw_spec = LINEARS[case]
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    b = Tensor(rng.normal(size=w_shape[1]), requires_grad=True) if bias else None
    want = np.matmul(x.data, w.data) + (b.data if bias else 0.0)
    weights = rng.normal(size=want.shape)
    inputs = {"x": x, "w": w, **({"b": b} if bias else {})}

    def graph():
        return (linear(x, w, b) * weights).sum()

    assert np.allclose(linear(x, w, b).data, want, rtol=1e-12, atol=0)
    graph().backward()
    assert np.allclose(x.grad, np.einsum(gx_spec, weights, w.data), rtol=1e-12, atol=0)
    assert np.allclose(w.grad, np.einsum(gw_spec, x.data, weights), rtol=1e-12, atol=0)
    if bias:
        assert np.allclose(b.grad, weights.reshape(-1, w_shape[1]).sum(axis=0),
                           rtol=1e-12, atol=0)
    num = numerical_gradient(lambda: float(graph().data), inputs, h=1e-6)
    for name, t in inputs.items():
        assert np.allclose(t.grad, num[name], rtol=1e-6, atol=1e-8), name


@pytest.mark.parametrize("shape", [(2, 3, 5, 4), (5,), (4, 5)],
                         ids=["4d", "1d", "inner_dim"])
def test_linear_rejects_mismatched_weight(shape):
    # the input's last axis has 5 entries
    x = Tensor(np.ones((2, 3, 4, 5)), requires_grad=True)
    with pytest.raises(ValueError):
        linear(x, Tensor(np.ones(shape)))


@pytest.mark.parametrize("op", ["add", "mul", "truediv"])
@pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 1), (2, 3, 4)],
                         ids=["vector", "row", "column", "batched"])
def test_broadcast_operand_needing_gradient_is_rejected(op, shape):
    # Operands of shapes (3, 4) and ``shape``: the one that broadcasts up to
    # the result needs a gradient, on either side.
    grows = shape if len(shape) < 3 else A.shape
    fixed = A.shape if len(shape) < 3 else shape
    for pair in ((grows, fixed), (fixed, grows)):
        a, b = (Tensor(np.ones(s), requires_grad=s == grows) for s in pair)
        with pytest.raises(ValueError):
            MIXED[op](a, b)
        # constants still broadcast
        out = MIXED[op](Tensor(np.ones(pair[0])), Tensor(np.ones(pair[1])))
        assert out.shape == np.broadcast_shapes(grows, fixed)


def _bce_probs():
    # row 0 inside the clamp, row 1 in the clamped region at both ends
    return np.array([[0.2, 0.55, 0.9], [0.0, 1e-9, 1.0 - 1e-9]])


def _rand(rng, *shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


# name: (inputs that need a gradient, the node applied to them, step h)
FUSED = {
    # B=2, T=4: the h and c carries run through three steps of BPTT
    "lstm": (lambda rng: {"x": _rand(rng, 2, 4, 3), "w": _rand(rng, 3, 8, scale=0.7),
                          "u": _rand(rng, 2, 8, scale=0.7), "b": _rand(rng, 8, scale=0.3)},
             lambda t: lstm_on(t["x"], t["w"], t["u"], t["b"]), 1e-6),
    "layer_norm": (lambda rng: {"x": _rand(rng, 2, 3, 5), "g": _rand(rng, 5),
                                "b": _rand(rng, 5)},
                   lambda t: layer_norm(t["x"], t["g"], t["b"]), 1e-6),
    # B=2, H=4 split into 2 heads, 3 queries over 5 keys
    "attention": (lambda rng: {"q": _rand(rng, 2, 3, 4), "k": _rand(rng, 2, 5, 4),
                               "v": _rand(rng, 2, 5, 4)},
                  lambda t: attention(t["q"], t["k"], t["v"], 2), 1e-6),
    "gelu": (lambda rng: {"x": _rand(rng, 3, 4, scale=2.0)},
             lambda t: _gelu(t["x"]), 1e-6),
    # h keeps the clamped probabilities clamped on both sides
    "bce": (lambda rng: {"p": Tensor(_bce_probs(), requires_grad=True)},
            lambda t: _bce_terms(t["p"], [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]), 1e-8),
}


@pytest.mark.parametrize("node", FUSED)
def test_fused_node_matches_finite_differences(node):
    build, apply, h = FUSED[node]
    rng = np.random.default_rng(5)
    inputs = build(rng)
    weights = rng.normal(size=apply(inputs).shape)  # every output gets a gradient

    def graph():
        return (apply(inputs) * weights).sum()

    graph().backward()
    num = numerical_gradient(lambda: float(graph().data), inputs, h=h)
    for name, t in inputs.items():
        assert np.allclose(t.grad, num[name], rtol=1e-6, atol=1e-7), name
    if node == "bce":
        assert np.all(inputs["p"].grad[1] == 0.0)
        assert np.all(inputs["p"].grad[0] != 0.0)


def per_head_attention(q, k, v, heads, g):
    """Output of multi-head attention and the q, k, v gradients of
    sum(output * g), one batch row and one head's column slice at a time,
    with the softmax backward as its Jacobian diag(a) - a a^T."""
    d = q.shape[-1] // heads
    out, gq, gk, gv = (np.zeros_like(x) for x in (q, q, k, v))
    for b in range(q.shape[0]):
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            qs, ks, vs, gs = q[b, :, cols], k[b, :, cols], v[b, :, cols], g[b, :, cols]
            scores = qs @ ks.T / np.sqrt(d)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            out[b, :, cols] = a @ vs
            ga = gs @ vs.T
            gscores = np.stack([(np.diag(r) - np.outer(r, r)) @ gr
                                for r, gr in zip(a, ga)]) / np.sqrt(d)
            gq[b, :, cols] = gscores @ ks
            gk[b, :, cols] = gscores.T @ qs
            gv[b, :, cols] = a.T @ gs
    return out, gq, gk, gv


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_attention_matches_per_head_reference(heads):
    rng = np.random.default_rng(6)
    q, k, v = (_rand(rng, 2, t, 6) for t in (3, 4, 4))
    g = rng.normal(size=(2, 3, 6))
    out = attention(q, k, v, heads)
    (out * g).sum().backward()
    want = per_head_attention(q.data, k.data, v.data, heads, g)
    for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
        assert np.allclose(got, ref, rtol=1e-12, atol=0)
