"""Tests for NN functional ops: spike surrogate, Gumbel-Softmax, STE, conv."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.autograd import functional as F
from repro.errors import ConfigurationError, ShapeError
from repro.utils.gradcheck import gradcheck


def _t(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


class TestSpike:
    def test_forward_is_heaviside(self):
        x = Tensor(np.array([-1.0, -0.001, 0.0, 0.3, 2.0]))
        out = F.spike(x)
        assert out.data.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("kind", F.SURROGATES)
    def test_backward_uses_surrogate(self, kind):
        x = Tensor(np.array([-0.5, 0.0, 0.5]), requires_grad=True)
        F.spike(x, surrogate=kind).sum().backward()
        from repro.autograd.functional import _surrogate_derivative

        expected = _surrogate_derivative(x.data, kind, 5.0)
        assert np.allclose(x.grad, expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fast_sigmoid_matches_closed_form_bytes(self, dtype):
        from repro.autograd.functional import _surrogate_derivative

        xs = np.random.default_rng(0).normal(scale=2.0, size=257).astype(dtype)
        xs[:3] = [0.0, -0.0, np.inf]
        for x in (xs, xs[7]):  # an array and a scalar
            expected = 1.0 / (1.0 + 5.0 * np.abs(x)) ** 2
            got = _surrogate_derivative(x, "fast_sigmoid", 5.0)
            assert got.dtype == expected.dtype
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_surrogate_peaks_at_threshold(self):
        from repro.autograd.functional import _surrogate_derivative

        xs = np.linspace(-2, 2, 101)
        for kind in F.SURROGATES:
            d = _surrogate_derivative(xs, kind, 5.0)
            assert np.argmax(d) == 50  # x == 0

    def test_unknown_surrogate(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ConfigurationError):
            F.spike(x, surrogate="nope")

    def test_output_binary(self):
        x = _t((100,), 0)
        out = F.spike(x)
        assert set(np.unique(out.data)).issubset({0.0, 1.0})


class TestGumbelSoftmax:
    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        logits = _t((50,), 1)
        out = F.gumbel_softmax(logits, tau=0.5, rng=rng)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_low_tau_sharpens(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        logits = _t((200,), 2, scale=2.0)
        soft = F.gumbel_softmax(logits, tau=1.0, rng=rng_a)
        sharp = F.gumbel_softmax(logits, tau=0.05, rng=rng_b)
        # Sharper temperature pushes values towards {0, 1}.
        dist_soft = np.minimum(soft.data, 1 - soft.data).mean()
        dist_sharp = np.minimum(sharp.data, 1 - sharp.data).mean()
        assert dist_sharp < dist_soft

    def test_deterministic_without_noise(self):
        logits = Tensor(np.array([2.0, -2.0]), requires_grad=True)
        out = F.gumbel_softmax(logits, tau=1.0, rng=np.random.default_rng(0), noise_scale=0.0)
        expected = 1.0 / (1.0 + np.exp(-logits.data))
        assert np.allclose(out.data, expected)

    def test_gradients_flow(self):
        logits = _t((10,), 4)
        rng_state = np.random.default_rng(7)
        noise = rng_state.logistic(size=10)

        class FrozenRng:
            def logistic(self, loc=0.0, scale=1.0, size=None):
                return noise

        gradcheck(lambda l: F.gumbel_softmax(l, 0.7, FrozenRng()), [logits])

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ConfigurationError):
            F.gumbel_softmax(_t((2,), 0), tau=0.0, rng=np.random.default_rng(0))

    def test_degenerate_infinite_draw_stays_finite(self):
        """A logistic sampler can emit +/-Inf when the underlying uniform
        draw is exactly 0 or 1 (log(0)); the clamp keeps output and
        gradients finite instead of propagating NaN into the loop."""

        class DegenerateRng:
            def logistic(self, loc=0.0, scale=1.0, size=None):
                noise = np.zeros(size)
                noise.flat[0] = np.inf
                noise.flat[-1] = -np.inf
                return noise

        logits = _t((6,), 5)
        out = F.gumbel_softmax(logits, tau=0.5, rng=DegenerateRng())
        assert np.isfinite(out.data).all()
        out.sum().backward()
        assert np.isfinite(logits.grad).all()
        # The clamped draw still saturates in the right direction.
        assert out.data[0] > 0.99
        assert out.data[-1] < 0.01

    def test_nondegenerate_draws_bit_identical(self):
        """The clamp bound sits far beyond any non-degenerate float64
        logistic draw, so normal sampling is bit-identical to the
        unclipped computation."""
        logits = _t((64,), 6, scale=2.0)
        noise = np.random.default_rng(9).logistic(scale=0.3, size=64)

        class FrozenRng:
            def logistic(self, loc=0.0, scale=1.0, size=None):
                return noise.copy()

        tau = 0.7
        out = F.gumbel_softmax(logits, tau=tau, rng=FrozenRng(), noise_scale=0.3)
        expected = ((Tensor(logits.data) + noise) * (1.0 / tau)).sigmoid()
        assert np.array_equal(out.data, expected.data)


class TestSTE:
    def test_forward_binarizes(self):
        x = Tensor(np.array([0.1, 0.49, 0.51, 0.9]))
        assert F.ste_binarize(x).data.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_backward_identity(self):
        x = Tensor(np.array([0.2, 0.8]), requires_grad=True)
        out = F.ste_binarize(x)
        out.backward(np.array([3.0, -1.5]))
        assert np.allclose(x.grad, [3.0, -1.5])

    def test_custom_threshold(self):
        x = Tensor(np.array([0.1, 0.2, 0.3]))
        assert F.ste_binarize(x, threshold=0.15).data.tolist() == [0.0, 1.0, 1.0]


class TestLinear:
    def test_matches_numpy(self):
        x, w, b = _t((4, 3), 0), _t((3, 5), 1), _t((5,), 2)
        out = F.linear(x, w, b)
        assert np.allclose(out.data, x.data @ w.data + b.data)

    def test_gradcheck(self):
        gradcheck(lambda x, w, b: F.linear(x, w, b), [_t((4, 3), 0), _t((3, 5), 1), _t((5,), 2)])

    def test_no_bias(self):
        gradcheck(lambda x, w: F.linear(x, w), [_t((2, 3), 0), _t((3, 2), 1)])


class TestConv2d:
    def test_matches_scipy(self):
        from scipy.signal import correlate

        x = _t((1, 2, 6, 6), 0)
        w = _t((3, 2, 3, 3), 1)
        out = F.conv2d(x, w, stride=1, padding=0)
        for f in range(3):
            expected = sum(
                correlate(x.data[0, c], w.data[f, c], mode="valid") for c in range(2)
            )
            assert np.allclose(out.data[0, f], expected)

    def test_gradcheck_basic(self):
        gradcheck(
            lambda x, w: F.conv2d(x, w),
            [_t((2, 2, 5, 5), 0), _t((3, 2, 3, 3), 1)],
        )

    def test_gradcheck_stride_padding(self):
        gradcheck(
            lambda x, w: F.conv2d(x, w, stride=2, padding=1),
            [_t((1, 2, 6, 6), 2), _t((2, 2, 3, 3), 3)],
        )

    def test_gradcheck_bias(self):
        gradcheck(
            lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
            [_t((1, 1, 4, 4), 0), _t((2, 1, 3, 3), 1), _t((2,), 2)],
        )

    def test_output_shape(self):
        x = _t((2, 3, 8, 8), 0)
        w = _t((4, 3, 3, 3), 1)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)

    def test_rejects_bad_input_rank(self):
        with pytest.raises(ShapeError):
            F.conv2d(_t((3, 8, 8), 0), _t((4, 3, 3, 3), 1))

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError):
            F.conv2d(_t((1, 3, 8, 8), 0), _t((4, 2, 3, 3), 1))

    def test_rejects_empty_output(self):
        with pytest.raises(ShapeError):
            F.conv2d(_t((1, 1, 2, 2), 0), _t((1, 1, 5, 5), 1))


class TestSumPool:
    def test_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.sum_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[10.0, 18.0], [42.0, 50.0]])

    def test_gradcheck(self):
        gradcheck(lambda x: F.sum_pool2d(x, 2), [_t((2, 3, 4, 4), 0)])

    def test_rejects_indivisible(self):
        with pytest.raises(ShapeError):
            F.sum_pool2d(_t((1, 1, 5, 5), 0), 2)

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            F.sum_pool2d(_t((1, 4, 4), 0), 2)


class TestSoftmaxCrossEntropy:
    def test_softmax_sums_to_one(self):
        out = F.softmax(_t((3, 5), 0))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_gradcheck(self):
        gradcheck(lambda x: F.softmax(x), [_t((2, 4), 1)])

    def test_log_softmax_consistency(self):
        x = _t((2, 4), 2)
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_cross_entropy_value(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0]]), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0]))
        assert loss.item() < 0.01

    def test_cross_entropy_gradcheck(self):
        labels = np.array([1, 0, 2])
        gradcheck(lambda x: F.cross_entropy(x, labels), [_t((3, 4), 3)])

    def test_cross_entropy_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(_t((3,), 0), np.array([0]))
        with pytest.raises(ShapeError):
            F.cross_entropy(_t((3, 4), 0), np.array([0, 1]))
