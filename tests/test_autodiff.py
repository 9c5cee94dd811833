import warnings

import numpy as np
import pytest

from dynstress.autodiff import Tensor, attention, linear, pick_rows, take_rows
from dynstress.model import ModelConfig, _dropout, _gelu, layer_norm, lstm_states, readout
from dynstress.training import batch_loss_graph, numerical_gradient

A = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 4))
B = np.random.default_rng(1).uniform(0.5, 2.0, size=(3, 4))


def lstm_on(x, w, u, b):
    """An LSTM layer: the input projection, then the recurrence node."""
    return lstm_states(linear(x, w, b), u)


def weighted_sum(out, weights):
    """The scalar ``sum(out * weights)`` as one node, the loss of the
    gradient checks: each element of ``out`` gets its weight as gradient."""
    def back(g):
        out._accum(g * weights)
    return Tensor._make(np.sum(out.data * weights), (out,), back)


def head_readout(arch):
    """``readout`` of one architecture with the head weights ``w`` and ``b``
    as arguments; its config reads only the architecture."""
    cfg = ModelConfig(arch, feature_dim=1, hidden=4)
    def apply(q, hc, k, v, w, b):
        return readout(q, hc, k, v, {"head.w": w, "head.b": b}, cfg)
    return apply


# every op and fused layer node of the tape, applied to constant inputs
OPS = {
    "add": lambda a, b: a + b,
    "matmul": lambda a, b: linear(a, Tensor(b.data.T)),
    "linear": lambda a, b: linear(a, Tensor(b.data.T), Tensor(B[0, :3])),
    "take_rows": lambda a, b: take_rows(a, [2, 0, 2]),
    "lstm": lambda a, b: lstm_on(Tensor(A[None]), linear(Tensor(B.T), b), Tensor(B[:1]),
                                 Tensor(B[0])),
    "layer_norm": lambda a, b: layer_norm(a, Tensor(B[0]), Tensor(B[1])),
    "attention": lambda a, b: attention(Tensor(A[None]), Tensor(B[None]), Tensor(B[None]), 2),
    "gelu": lambda a, b: _gelu(a),
    "dropout": lambda a, b: _dropout(a, 0.5, np.random.default_rng(0)),
    # the rows of A and B as queries, context states, keys and values
    **{f"readout_{arch}": lambda a, b, arch=arch: head_readout(arch)(
        Tensor(A[:, None]), Tensor(B[:, None]), Tensor(B[:, None]), Tensor(B[:, None]),
        Tensor(np.ones((8 if arch == "lstm" else 4, 3))), Tensor(B[0, :3]))
       for arch in ("lstm", "transformer")},
    "bce": lambda a, b: batch_loss_graph(a, (B > 1.0).astype(float)),
}


@pytest.mark.parametrize("op", OPS)
def test_constant_inputs_record_no_tape(op):
    out = OPS[op](Tensor(A), Tensor(B))
    assert not out.requires_grad
    assert out._parents == ()
    assert out._backward is None


# addition and linear with one operand a constant, on either side: "matmul"
# has a constant weight or input, "linear" a constant bias or a constant
# input and weight; each with the shapes of its first and second operands
MIXED = {
    "add": (lambda a, b: a + b, (3, 4), (3, 4)),
    "matmul": (lambda a, b: linear(a, b), (3, 4), (4, 3)),
    "linear": (lambda a, b: linear(a, a, b), (4, 4), (4,)),
}


@pytest.mark.parametrize("constant_first", [False, True])
@pytest.mark.parametrize("op", MIXED)
def test_constant_operand_gets_no_gradient(op, constant_first):
    node, *shapes = MIXED[op]
    rng = np.random.default_rng(2)
    a, b = (Tensor(rng.uniform(0.5, 2.0, size=shape), requires_grad=grad)
            for shape, grad in zip(shapes, (not constant_first, constant_first)))
    x, c = (b, a) if constant_first else (a, b)
    weights = rng.normal(size=node(a, b).shape)

    def graph():
        return weighted_sum(node(a, b), weights)

    graph().backward()
    assert c.grad is None
    num = numerical_gradient(lambda: float(graph().data), {"x": x}, h=1e-6)
    assert np.allclose(x.grad, num["x"], rtol=1e-6, atol=1e-8)


def test_take_rows_gradient_with_repeated_and_unread_rows():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
    index = np.array([2, 0, 2, 2, 1])  # row 2 is read three times, row 3 never
    weights = rng.normal(size=(5, 2, 3))

    def graph():
        return weighted_sum(take_rows(x, index), weights)

    assert take_rows(x, index).data.tobytes() == x.data[index].tobytes()
    graph().backward()
    assert np.all(x.grad[3] == 0.0)
    assert np.allclose(x.grad[2], weights[[0, 2, 3]].sum(axis=0), rtol=1e-12, atol=0)
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
        return weighted_sum(linear(x, w, b), weights)

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


@pytest.mark.parametrize("op", ["add"])
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
            MIXED[op][0](a, b)
        # constants still broadcast
        out = MIXED[op][0](Tensor(np.ones(pair[0])), Tensor(np.ones(pair[1])))
        assert out.shape == np.broadcast_shapes(grows, fixed)


def _bce_probs():
    # row 0 inside the clamp, row 1 in the clamped region at both ends
    return np.array([[0.2, 0.55, 0.9], [0.0, 1e-9, 1.0 - 1e-9]])


def _rand(rng, *shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


KEY_MASK = np.array([[True, False, True, True, False],
                     [True, True, False, False, False]])

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
    # the same, with keys 1 and 4 of row 0 and keys 2-4 of row 1 masked out
    "masked_attention": (lambda rng: {"q": _rand(rng, 2, 3, 4), "k": _rand(rng, 2, 5, 4),
                                      "v": _rand(rng, 2, 5, 4)},
                         lambda t: attention(t["q"], t["k"], t["v"], 2, KEY_MASK), 1e-6),
    # B=3, T=4: sequence 1 reads its first row, sequence 2 its third
    "pick_rows": (lambda rng: {"x": _rand(rng, 3, 4, 2)},
                  lambda t: pick_rows(t["x"], np.array([3, 0, 2])), 1e-6),
    "gelu": (lambda rng: {"x": _rand(rng, 3, 4, scale=2.0)},
             lambda t: _gelu(t["x"]), 1e-6),
    # B=3, 5 elements each: a fresh generator of one seed draws the same mask
    "dropout": (lambda rng: {"x": _rand(rng, 3, 5)},
                lambda t: _dropout(t["x"], 0.5, np.random.default_rng(8)), 1e-6),
    # B=3, H=4, over 2 context states, whose last one only the LSTM's head
    # reads; row 2's logits are beyond +-1000, so its probabilities are
    # exactly 0 or 1 and pass no gradient back
    **{f"readout_{arch}": (lambda rng, arch=arch: {
        "q": Tensor(rng.normal(size=(3, 1, 4)) * [[[1.0]], [[1.0]], [[1e4]]],
                    requires_grad=True),
        **({"hc": _rand(rng, 3, 2, 4)} if arch == "lstm" else {}),
        "k": _rand(rng, 3, 2, 4), "v": _rand(rng, 3, 2, 4),
        "w": _rand(rng, 8 if arch == "lstm" else 4, 3), "b": _rand(rng, 3)},
        lambda t, arch=arch: head_readout(arch)(
            t["q"], t.get("hc"), t["k"], t["v"], t["w"], t["b"]), 1e-6)
       for arch in ("lstm", "transformer")},
    # the mean loss; h keeps the clamped probabilities clamped on both sides
    "bce": (lambda rng: {"p": Tensor(_bce_probs(), requires_grad=True)},
            lambda t: batch_loss_graph(t["p"], np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])),
            1e-8),
}


@pytest.mark.parametrize("node", FUSED)
def test_fused_node_matches_finite_differences(node):
    build, apply, h = FUSED[node]
    rng = np.random.default_rng(5)
    inputs = build(rng)
    weights = rng.normal(size=apply(inputs).shape)  # every output gets a gradient

    def graph():
        return weighted_sum(apply(inputs), weights)

    graph().backward()
    num = numerical_gradient(lambda: float(graph().data), inputs, h=h)
    for name, t in inputs.items():
        assert np.allclose(t.grad, num[name], rtol=1e-6, atol=1e-7), name
    if node == "masked_attention":  # a masked key is not read at all
        for name in ("k", "v"):
            assert np.all(inputs[name].grad[~KEY_MASK] == 0.0), name
            assert np.all(inputs[name].grad[KEY_MASK] != 0.0), name
    if node == "pick_rows":  # a row not picked gets no gradient
        picked = np.zeros((3, 4), bool)
        picked[[0, 1, 2], [3, 0, 2]] = True
        assert np.all(inputs["x"].grad[~picked] == 0.0)
        assert np.all(inputs["x"].grad[picked] != 0.0)
    if node == "bce":
        assert np.all(inputs["p"].grad[1] == 0.0)
        assert np.all(inputs["p"].grad[0] != 0.0)
    if node == "dropout":  # a dropped element gets no gradient
        kept = _dropout(Tensor(np.ones((3, 5))), 0.5, np.random.default_rng(8)).data != 0.0
        assert np.all(inputs["x"].grad[~kept] == 0.0) and np.all(inputs["x"].grad[kept] != 0.0)
    if node.startswith("readout"):  # the saturated row passes back nothing
        for name in ("q", "hc", "k", "v") if node == "readout_lstm" else ("q", "k", "v"):
            assert np.all(inputs[name].grad[2] == 0.0), name
            assert np.all(inputs[name].grad[:2, -1] != 0.0), name


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
    weighted_sum(out, g).backward()
    want = per_head_attention(q.data, k.data, v.data, heads, g)
    for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
        assert np.allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("heads", [1, 2])
def test_masked_attention_equals_attention_over_the_kept_keys(heads):
    """Row by row, the output and the q, k, v gradients equal those of an
    attention given only the kept keys; a masked key's gradient is zero."""
    rng = np.random.default_rng(7)
    q, k, v = (_rand(rng, 3, t, 4) for t in (2, 5, 5))
    mask = np.array([[True, False, True, True, False],
                     [False, False, False, False, True],  # one key kept
                     [True] * 5])
    g = rng.normal(size=(3, 2, 4))
    out = attention(q, k, v, heads, mask)
    weighted_sum(out, g).backward()
    for b, keep in enumerate(mask):
        qb, kb, vb = (Tensor(x, requires_grad=True) for x in (
            q.data[b : b + 1], k.data[b : b + 1, keep], v.data[b : b + 1, keep]))
        want = attention(qb, kb, vb, heads)
        weighted_sum(want, g[b : b + 1]).backward()
        for got, ref in ((out.data[b], want.data[0]), (q.grad[b], qb.grad[0]),
                         (k.grad[b, keep], kb.grad[0]), (v.grad[b, keep], vb.grad[0])):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert np.all(k.grad[b, ~keep] == 0.0) and np.all(v.grad[b, ~keep] == 0.0)


@pytest.mark.parametrize("dtype, z", [(np.float32, 100.0), (np.float64, 1000.0)],
                         ids=["float32", "float64"])
def test_saturated_sigmoids_are_exact_and_raise_no_warning(dtype, z):
    """exp(-z) overflows to inf for z = -100 in float32 and -1000 in float64;
    the sigmoid is then exactly 0, its gradient is finite, and numpy's
    overflow warning is not raised, in the head of ``readout`` and in the
    LSTM's gates alike."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # one query over one context state, all zero: the logits are the biases
        ins = [Tensor(np.zeros((1, 1, 2), dtype), requires_grad=True) for _ in range(4)]
        w = Tensor(np.zeros((4, 3), dtype), requires_grad=True)
        b = Tensor(np.array([-z, z, 0.0], dtype), requires_grad=True)
        s = head_readout("lstm")(*ins, w, b)
        weighted_sum(s, np.ones(3, dtype)).backward()
        assert s.data.dtype == dtype and s.data.tolist() == [[0.0, 1.0, 0.5]]
        assert all(np.all(np.isfinite(t.grad)) for t in (*ins, w, b))
        # gates (i, f, g, o) of one unit: the first sequence opens i and o and
        # keeps c = 1; the second closes i and o, so c and h are exactly 0
        acts = Tensor(np.array([[[z, -z, z, z]] * 2, [[-z, -z, z, -z]] * 2], dtype),
                      requires_grad=True)
        u = Tensor(np.ones((1, 4), dtype), requires_grad=True)
        h = lstm_states(acts, u)
        weighted_sum(h, np.ones(h.shape, dtype)).backward()
        assert h.data.dtype == dtype
        assert h.data[0].ravel().tolist() == [np.tanh(dtype(1.0))] * 2
        assert h.data[1].ravel().tolist() == [0.0, 0.0]
        assert np.all(np.isfinite(acts.grad)) and np.all(np.isfinite(u.grad))
