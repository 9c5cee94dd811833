import numpy as np
import pytest

from dynstress.autodiff import Tensor, concat, softmax, stack
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
    "stack": lambda a, b: stack([a, b], axis=0),
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
