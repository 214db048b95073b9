"""Gradient and semantics tests for the core Tensor ops."""

import numpy as np
import pytest

from repro.autograd.functional import ste_binarize
from repro.autograd.tensor import Tensor, concatenate, no_grad, stack, where
from repro.errors import GradientError, ShapeError
from repro.utils.gradcheck import gradcheck


def _t(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


class TestArithmetic:
    def test_add(self):
        gradcheck(lambda a, b: a + b, [_t((3, 4), 0), _t((3, 4), 1)])

    def test_add_broadcast(self):
        gradcheck(lambda a, b: a + b, [_t((3, 4), 0), _t((4,), 1)])

    def test_add_scalar(self):
        a = _t((2, 3), 0)
        out = a + 2.5
        assert np.allclose(out.data, a.data + 2.5)
        gradcheck(lambda a: a + 2.5, [a])

    def test_radd(self):
        gradcheck(lambda a: 1.5 + a, [_t((3,), 0)])

    def test_sub(self):
        gradcheck(lambda a, b: a - b, [_t((2, 2), 0), _t((2, 2), 1)])

    def test_rsub(self):
        gradcheck(lambda a: 3.0 - a, [_t((4,), 2)])

    def test_mul(self):
        gradcheck(lambda a, b: a * b, [_t((3, 4), 0), _t((3, 4), 1)])

    def test_mul_broadcast_column(self):
        gradcheck(lambda a, b: a * b, [_t((3, 4), 0), _t((3, 1), 1)])

    def test_div(self):
        a, b = _t((3,), 0), _t((3,), 1)
        b.data = np.abs(b.data) + 1.0
        gradcheck(lambda a, b: a / b, [a, b])

    def test_rdiv(self):
        a = _t((3,), 0)
        a.data = np.abs(a.data) + 1.0
        gradcheck(lambda a: 2.0 / a, [a])

    def test_neg(self):
        gradcheck(lambda a: -a, [_t((5,), 3)])

    def test_pow(self):
        a = _t((4,), 0)
        a.data = np.abs(a.data) + 0.5
        gradcheck(lambda a: a ** 3, [a])

    def test_pow_rejects_array_exponent(self):
        with pytest.raises(ShapeError):
            _t((2,), 0) ** np.array([1.0, 2.0])


class TestMatmul:
    def test_2d_2d(self):
        gradcheck(lambda a, b: a @ b, [_t((3, 4), 0), _t((4, 5), 1)])

    def test_2d_1d(self):
        gradcheck(lambda a, b: a @ b, [_t((3, 4), 0), _t((4,), 1)])

    def test_1d_2d(self):
        gradcheck(lambda a, b: a @ b, [_t((4,), 0), _t((4, 3), 1)])

    def test_batched(self):
        gradcheck(lambda a, b: a @ b, [_t((2, 3, 4), 0), _t((2, 4, 5), 1)])

    def test_values(self):
        a, b = _t((2, 3), 0), _t((3, 2), 1)
        assert np.allclose((a @ b).data, a.data @ b.data)


class TestReductions:
    def test_sum_all(self):
        gradcheck(lambda a: a.sum(), [_t((3, 4), 0)])

    def test_sum_axis(self):
        gradcheck(lambda a: a.sum(axis=1), [_t((3, 4), 0)])

    def test_sum_axis_keepdims(self):
        gradcheck(lambda a: a.sum(axis=0, keepdims=True), [_t((3, 4), 0)])

    def test_sum_negative_axis(self):
        gradcheck(lambda a: a.sum(axis=-1), [_t((2, 3, 4), 0)])

    def test_sum_multiple_axes(self):
        gradcheck(lambda a: a.sum(axis=(0, 2)), [_t((2, 3, 4), 0)])

    def test_mean(self):
        gradcheck(lambda a: a.mean(), [_t((3, 4), 0)])

    def test_mean_axis(self):
        gradcheck(lambda a: a.mean(axis=1), [_t((3, 4), 0)])

    def test_mean_value(self):
        a = _t((6,), 0)
        assert np.isclose(a.mean().item(), a.data.mean())

    def test_var(self):
        gradcheck(lambda a: a.var(), [_t((8,), 0)])

    def test_var_axis(self):
        gradcheck(lambda a: a.var(axis=0), [_t((5, 3), 0)])

    def test_var_matches_numpy(self):
        a = _t((7,), 1)
        assert np.isclose(a.var().item(), a.data.var())

    def test_max_all(self):
        gradcheck(lambda a: a.max(), [_t((4, 4), 0)])

    def test_max_axis(self):
        gradcheck(lambda a: a.max(axis=1), [_t((3, 5), 2)])


class TestElementwise:
    def test_exp(self):
        gradcheck(lambda a: a.exp(), [_t((4,), 0)])

    def test_log(self):
        a = _t((4,), 0)
        a.data = np.abs(a.data) + 0.5
        gradcheck(lambda a: a.log(), [a])

    def test_sigmoid(self):
        gradcheck(lambda a: a.sigmoid(), [_t((6,), 0)])

    def test_tanh(self):
        gradcheck(lambda a: a.tanh(), [_t((6,), 1)])

    def test_abs(self):
        a = _t((5,), 0)
        a.data += np.sign(a.data) * 0.1  # keep away from the kink
        gradcheck(lambda a: a.abs(), [a])

    def test_relu(self):
        a = _t((6,), 0)
        a.data += np.sign(a.data) * 0.1
        gradcheck(lambda a: a.relu(), [a])

    def test_clip(self):
        a = Tensor(np.array([-2.0, -0.5, 0.3, 0.9, 2.0]), requires_grad=True)
        gradcheck(lambda a: a.clip(-1.0, 1.0), [a])

    def test_maximum(self):
        a, b = _t((5,), 0), _t((5,), 1)
        gradcheck(lambda a, b: a.maximum(b), [a, b])

    def test_maximum_scalar(self):
        a = _t((5,), 0)
        gradcheck(lambda a: a.maximum(0.0), [a])

    def test_minimum(self):
        a, b = _t((5,), 2), _t((5,), 3)
        gradcheck(lambda a, b: a.minimum(b), [a, b])


class TestShapes:
    def test_reshape(self):
        gradcheck(lambda a: a.reshape(2, 6), [_t((3, 4), 0)])

    def test_reshape_tuple(self):
        gradcheck(lambda a: a.reshape((4, 3)), [_t((3, 4), 0)])

    def test_transpose_default(self):
        gradcheck(lambda a: a.transpose(), [_t((3, 4), 0)])

    def test_transpose_axes(self):
        gradcheck(lambda a: a.transpose(2, 0, 1), [_t((2, 3, 4), 0)])

    def test_getitem_int(self):
        gradcheck(lambda a: a[1], [_t((3, 4), 0)])

    def test_getitem_slice(self):
        gradcheck(lambda a: a[1:3], [_t((5, 2), 0)])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        gradcheck(lambda a: a[idx], [_t((4, 3), 0)])

    def test_getitem_fancy_duplicate_accumulates(self):
        a = _t((3,), 0)
        out = a[np.array([1, 1])].sum()
        out.backward()
        assert np.allclose(a.grad, [0.0, 2.0, 0.0])

    def test_pad2d(self):
        gradcheck(lambda a: a.pad2d(2), [_t((1, 2, 3, 3), 0)])

    def test_pad2d_zero_noop(self):
        a = _t((1, 1, 2, 2), 0)
        assert a.pad2d(0) is a


class TestCombinators:
    def test_stack(self):
        a, b = _t((3,), 0), _t((3,), 1)
        gradcheck(lambda a, b: stack([a, b], axis=0), [a, b])

    def test_stack_axis1(self):
        a, b = _t((3,), 0), _t((3,), 1)
        gradcheck(lambda a, b: stack([a, b], axis=1), [a, b])

    def test_concatenate(self):
        a, b = _t((2, 3), 0), _t((4, 3), 1)
        gradcheck(lambda a, b: concatenate([a, b], axis=0), [a, b])

    def test_concatenate_axis1(self):
        a, b = _t((3, 2), 0), _t((3, 5), 1)
        gradcheck(lambda a, b: concatenate([a, b], axis=1), [a, b])

    def test_where(self):
        cond = np.array([True, False, True, False])
        a, b = _t((4,), 0), _t((4,), 1)
        gradcheck(lambda a, b: where(cond, a, b), [a, b])


class TestBackwardSemantics:
    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * a + a  # d/da = 2a + 1 = 5
        out.sum().backward()
        assert np.allclose(a.grad, [5.0])

    def test_backward_requires_grad(self):
        a = Tensor(np.ones(3))
        with pytest.raises(GradientError):
            a.sum().backward()

    def test_backward_nonscalar_needs_seed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradientError):
            (a * 2).backward()

    def test_backward_with_seed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2).backward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(a.grad, [2.0, 4.0, 6.0])

    def test_seed_shape_mismatch(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (a * 2).backward(np.ones(4))

    def test_no_grad_suppresses_tape(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = a * 3
        assert not out.requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a.detach() * 2).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph(self):
        # y = (a + a) * (a * a): checks topological ordering on shared nodes
        a = Tensor(np.array([3.0]), requires_grad=True)
        y = (a + a) * (a * a)  # 2a^3, dy/da = 6a^2 = 54
        y.sum().backward()
        assert np.allclose(a.grad, [54.0])

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a
        for _ in range(5000):
            out = out + 0.001
        out.sum().backward()
        assert np.allclose(a.grad, [1.0])

    def test_item_scalar(self):
        assert Tensor(np.array([7.0])).item() == 7.0

    def test_item_nonscalar_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)).item()

    def test_comparisons_return_numpy(self):
        a = Tensor(np.array([1.0, -1.0]))
        assert isinstance(a > 0, np.ndarray)
        assert (a > 0).tolist() == [True, False]
        assert (a < 0).tolist() == [False, True]
        assert (a >= 1.0).tolist() == [True, False]
        assert (a <= -1.0).tolist() == [False, True]

    def test_repr(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        assert "2, 2" in repr(a)


def _assert_private_grads(*tensors):
    """No two gradient buffers share memory: a later ``+=`` into one must
    never show up in another."""
    grads = [t.grad for t in tensors]
    assert all(g is not None for g in grads)
    for i, first in enumerate(grads):
        for second in grads[i + 1:]:
            assert not np.shares_memory(first, second)


class TestGradientOwnership:
    """One gradient array reaching several tensors: each tensor still ends
    up with its own buffer, holding the same values as ever."""

    def test_add_hands_one_array_to_both_operands(self):
        a, b = _t((3, 4), 0), _t((3, 4), 1)
        out = a + b
        seed = np.random.default_rng(2).normal(size=(3, 4))
        out.backward(seed)
        assert np.array_equal(a.grad, seed) and np.array_equal(b.grad, seed)
        _assert_private_grads(a, b, out)

    def test_self_add(self):
        x = _t((5,), 0)
        y = x + x
        seed = np.random.default_rng(3).normal(size=5)
        y.backward(seed)
        assert np.array_equal(x.grad, seed + seed)
        _assert_private_grads(x, y)

    def test_mul_and_sub_operands(self):
        a, b = _t((4,), 0), _t((4,), 1)
        prod = a * b
        out = prod - a
        seed = np.random.default_rng(4).normal(size=4)
        out.backward(seed)
        assert np.array_equal(b.grad, seed * a.data)
        assert np.array_equal(a.grad, seed * b.data + -seed)
        _assert_private_grads(a, b, prod, out)

    def test_ste_passes_its_gradient_through(self):
        x = _t((6,), 0)
        soft = x * 2.0
        hard = ste_binarize(soft)
        seed = np.random.default_rng(5).normal(size=6)
        hard.backward(seed)
        assert np.array_equal(soft.grad, seed)
        assert np.array_equal(x.grad, seed * 2.0)
        _assert_private_grads(x, soft, hard)

    def test_reshape_and_transpose_views(self):
        x = _t((2, 6), 0)
        y = x.reshape(3, 4)
        z = y.transpose()
        seed = np.random.default_rng(6).normal(size=(4, 3))
        z.backward(seed)
        assert np.array_equal(y.grad, seed.T)
        assert np.array_equal(x.grad, seed.T.reshape(2, 6))
        _assert_private_grads(x, y, z)

    def test_getitem_into_an_existing_gradient(self):
        x = _t((5, 3), 0)
        (x * 3.0).sum().backward()
        first = x.grad
        head = x[1:]
        head.backward(np.ones((4, 3)))
        expected = np.full((5, 3), 3.0)
        expected[1:] += 1.0
        assert x.grad is first  # added in place, no new full-size buffer
        assert np.array_equal(x.grad, expected)
        _assert_private_grads(x, head)

    def test_getitem_pair_on_one_tensor(self):
        # The temporal-diversity pattern: two slices of one record.
        x = _t((6, 2), 0)
        later, earlier = x[1:], x[:-1]
        diff = later - earlier
        seed = np.random.default_rng(7).normal(size=(5, 2))
        diff.backward(seed)
        expected = np.zeros((6, 2))
        expected[1:] = seed
        expected[:-1] += -seed
        assert np.array_equal(x.grad, expected)
        _assert_private_grads(x, later, earlier, diff)
