import numpy as np
import pytest

from dynstress.autodiff import Tensor, concat, softmax
from dynstress.training import numerical_gradient

A = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 4))
B = np.random.default_rng(1).uniform(0.5, 2.0, size=(3, 4))

# every op of the tape, applied to constant inputs
OPS = {
    "add": lambda a, b: a + b,
    "radd": lambda a, b: 1.0 + a,
    "sub": lambda a, b: a - b,
    "rsub": lambda a, b: 1.0 - a,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b,
    "rmul": lambda a, b: 2.0 * a,
    "truediv": lambda a, b: a / b,
    "pow": lambda a, b: a ** 1.5,
    "matmul": lambda a, b: a @ b.transpose(1, 0),
    "exp": lambda a, b: a.exp(),
    "log": lambda a, b: a.log(),
    "tanh": lambda a, b: a.tanh(),
    "sigmoid": lambda a, b: a.sigmoid(),
    "clip": lambda a, b: a.clip(0.8, 1.2),
    "sum": lambda a, b: a.sum(axis=1),
    "mean": lambda a, b: a.mean(),
    "reshape": lambda a, b: a.reshape(4, 3),
    "transpose": lambda a, b: a.transpose(1, 0),
    "getitem": lambda a, b: a[:, 1:3],
    "concat": lambda a, b: concat([a, b], axis=1),
    "softmax": lambda a, b: softmax(a, axis=-1),
}


@pytest.mark.parametrize("op", OPS)
def test_constant_inputs_record_no_tape(op):
    out = OPS[op](Tensor(A), Tensor(B))
    assert not out.requires_grad
    assert out._parents == ()
    assert out._backward is None


# binary ops and concat with one operand a constant, on either side
MIXED = {
    "add": lambda x, c: x + c,
    "mul": lambda x, c: x * c,
    "truediv": lambda x, c: x / c,
    "matmul": lambda x, c: x @ c.transpose(1, 0),
    "concat": lambda x, c: concat([x, c], axis=1),
}


@pytest.mark.parametrize("constant_first", [False, True])
@pytest.mark.parametrize("op", MIXED)
def test_constant_operand_gets_no_gradient(op, constant_first):
    x = Tensor(A.copy(), requires_grad=True)
    c = Tensor(B[:, :3] if op == "concat" else B)
    weights = np.random.default_rng(2).normal(size=(3, 7 if op == "concat" else 4))
    if op == "matmul":
        weights = weights[:, :3]

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


# (left shape, right shape, einsum of the old per-example sums: left grad,
# right grad); the right operand is a shared 2-D weight in the first two
MATMULS = {
    "sequence_by_weight": ((3, 4, 5), (5, 2), "btn,kn->btk", "btk,btn->kn"),
    "batch_by_weight": ((3, 5), (5, 2), "bn,kn->bk", "bk,bn->kn"),
    "batched_4d": ((2, 3, 4, 5), (2, 3, 5, 4),
                   "bhts,bhds->bhtd", "bhtd,bhts->bhds"),
}


@pytest.mark.parametrize("case", MATMULS)
def test_matmul_gradients_match_einsum_and_finite_differences(case):
    a_shape, b_shape, ga_spec, gb_spec = MATMULS[case]
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=a_shape), requires_grad=True)
    b = Tensor(rng.normal(size=b_shape), requires_grad=True)
    weights = rng.normal(size=np.matmul(a.data, b.data).shape)

    def graph():
        return ((a @ b) * weights).sum()

    graph().backward()
    assert np.allclose(a.grad, np.einsum(ga_spec, weights, b.data), rtol=1e-12, atol=0)
    assert np.allclose(b.grad, np.einsum(gb_spec, a.data, weights), rtol=1e-12, atol=0)
    num = numerical_gradient(lambda: float(graph().data), {"a": a, "b": b}, h=1e-6)
    assert np.allclose(a.grad, num["a"], rtol=1e-6, atol=1e-8)
    assert np.allclose(b.grad, num["b"], rtol=1e-6, atol=1e-8)
