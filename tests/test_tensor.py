import io
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfctx import dct
from tfctx import tensor as T
from tfctx.errors import NumericalError, ShapeError


def conv2d_loops(x, w, stride, padding):
    """Nested-loop direct convolution oracle."""
    n, cin, f, t = x.shape
    cout, _, kf, kt = w.shape
    sf, st_ = stride
    pf, pt = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pf, pf), (pt, pt)))
    fo = (f + 2 * pf - kf) // sf + 1
    to = (t + 2 * pt - kt) // st_ + 1
    out = np.zeros((n, cout, fo, to))
    for ni in range(n):
        for ko in range(cout):
            for fi in range(fo):
                for ti in range(to):
                    acc = 0.0
                    for ci in range(cin):
                        for a in range(kf):
                            for bb in range(kt):
                                acc += xp[ni, ci, fi * sf + a, ti * st_ + bb] * w[ko, ci, a, bb]
                    out[ni, ko, fi, ti] = acc
    return out


class TestConv2d:
    def test_scalar_kernel_scales(self):
        x = T.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = T.Tensor([[[[2.0]]]])
        y = T.conv2d(x, w, (1, 1), (0, 0))
        np.testing.assert_allclose(y.data, [[[[2, 4], [6, 8]]]])

    def test_identity_impulse(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.normal(size=(1, 1, 4, 5)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y = T.conv2d(x, T.Tensor(w), (1, 1), (1, 1))
        np.testing.assert_allclose(y.data, x.data)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        got = T.conv2d(T.Tensor(x), T.Tensor(w), (1, 1), (0, 0))
        want = conv2d_loops(x, w, (1, 1), (0, 0))
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    # (x shape, w shape, stride, padding): narrow convs, then wide ones
    # (cin*k*k or cout*k*k above 300), a 1x1 stride-2 projection, and an
    # unpadded stride-2 conv whose last row no window covers
    CONV_CASES = [
        pytest.param((2, 2, 6, 5), (3, 2, 3, 3), (1, 1), (1, 1), id="stride0-padding0"),
        pytest.param((2, 2, 6, 5), (3, 2, 3, 3), (2, 1), (0, 1), id="stride1-padding1"),
        pytest.param((2, 2, 6, 5), (3, 2, 3, 3), (2, 2), (1, 0), id="stride2-padding2"),
        pytest.param((2, 34, 4, 3), (3, 34, 3, 3), (1, 1), (1, 1), id="wide_cin_stride1"),
        pytest.param((2, 34, 5, 4), (3, 34, 3, 3), (2, 2), (1, 1), id="wide_cin_stride2"),
        pytest.param((2, 2, 4, 4), (34, 2, 3, 3), (1, 1), (1, 1), id="wide_cout_stride1"),
        pytest.param((2, 3, 5, 6), (4, 3, 1, 1), (2, 2), (0, 0), id="projection_1x1_stride2"),
        pytest.param((2, 2, 6, 6), (3, 2, 3, 3), (2, 2), (0, 0), id="uncovered_tail"),
    ]

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_CASES)
    def test_strided_padded_matches_oracle(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(11)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        got = T.conv2d(T.Tensor(x), T.Tensor(w), stride, padding)
        np.testing.assert_allclose(got.data, conv2d_loops(x, w, stride, padding), atol=1e-12)

    def test_output_extent_formula(self):
        x = T.Tensor(np.zeros((1, 1, 10, 9)))
        w = T.Tensor(np.zeros((2, 1, 3, 3)))
        y = T.conv2d(x, w, (2, 2), (1, 1))
        assert y.shape == (1, 2, (10 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError, match="channel"):
            T.conv2d(T.Tensor(np.zeros((1, 2, 4, 4))), T.Tensor(np.zeros((1, 3, 3, 3))), (1, 1), (0, 0))

    def test_kernel_too_large_raises(self):
        with pytest.raises(ShapeError, match="kernel"):
            T.conv2d(T.Tensor(np.zeros((1, 1, 2, 2))), T.Tensor(np.zeros((1, 1, 5, 5))), (1, 1), (0, 0))

    def test_gradients(self):
        cases = [((2, 2, 4, 5), (3, 2, 3, 3), (1, 2), (1, 1))]
        cases += [tuple(case.values) for case in self.CONV_CASES[3:]]
        for x_shape, w_shape, stride, padding in cases:
            rng = np.random.default_rng(3)
            x = rng.normal(size=x_shape)
            w = rng.normal(size=w_shape)

            def loss_wrt(which):
                def fn(t):
                    args = {"x": T.Tensor(x), "w": T.Tensor(w)}
                    args[which] = t
                    y = T.conv2d(args["x"], args["w"], stride, padding)
                    return T.reduce(T.mul(y, y), None, "sum")
                return fn

            for which, init in (("x", x), ("w", w)):
                err = T.finite_diff_check(loss_wrt(which), T.Tensor(init))
                assert err < 1e-6, (x_shape, w_shape, stride, padding, which, err)

    @pytest.mark.parametrize("layout", ["transposed", "sliced"])
    def test_non_contiguous_input_stride2_unpadded(self, layout):
        # conv outputs are transposed views, so the next conv (the 1x1
        # projection among them) reads a non-contiguous input
        rng = np.random.default_rng(23)
        if layout == "transposed":
            x = rng.normal(size=(2, 3, 7, 6)).transpose(0, 1, 3, 2)
        else:
            x = rng.normal(size=(2, 3, 13, 8))[:, :, ::2, 1:]
        assert not x.flags.c_contiguous
        w = rng.normal(size=(4, 3, 3, 3))
        got = T.conv2d(T.Tensor(x), T.Tensor(w), (2, 2), (0, 0))
        np.testing.assert_allclose(got.data, conv2d_loops(x, w, (2, 2), (0, 0)), atol=1e-12)

        w_in = rng.normal(size=(3, 3, 1, 1))

        def fn(t):
            inner = T.conv2d(t, T.Tensor(w_in), (1, 1), (0, 0))
            assert not inner.data.flags.c_contiguous
            y = T.conv2d(inner, T.Tensor(w), (2, 2), (0, 0))
            return T.reduce(T.mul(y, y), None, "sum")

        assert T.finite_diff_check(fn, T.Tensor(np.ascontiguousarray(x))) < 1e-6


class TestBatchNorm:
    def test_constant_input_reduces_to_beta(self):
        x = T.Tensor(np.full((2, 3, 4, 5), 7.0))
        y = T.batch_norm2d(x, T.Tensor(np.ones(3)), T.Tensor(np.full(3, 0.5)), eps=1e-5)
        np.testing.assert_allclose(y.data, 0.5, atol=1e-12)

    def test_normalizes_per_channel(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(loc=3.0, scale=2.0, size=(4, 3, 6, 7)))
        y = T.batch_norm2d(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), eps=1e-12)
        np.testing.assert_allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.data.var(axis=(0, 2, 3)), 1.0, atol=1e-6)

    def test_running_stats_and_inference(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 2, 3, 4))
        running = T.RunningStats(2)
        T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), running=running)
        # one update from the initial zeros
        np.testing.assert_allclose(running.mean, T.RunningStats.MOMENTUM * x.mean(axis=(0, 2, 3)))
        y = T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
                           training=False, running=running)
        want = (x - running.mean[None, :, None, None]) / np.sqrt(running.var[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(y.data, want)

    def test_gamma_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.batch_norm2d(T.Tensor(np.zeros((1, 3, 2, 2))), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 4, 3))
        gamma = rng.normal(size=2)
        beta = rng.normal(size=2)
        target = rng.normal(size=(3, 2, 4, 3))

        def fn_x(t):
            y = T.batch_norm2d(t, T.Tensor(gamma), T.Tensor(beta))
            d = T.add(y, T.mul(T.Tensor(target), -1.0))
            return T.reduce(T.mul(d, d), None, "sum")

        def fn_gamma(t):
            y = T.batch_norm2d(T.Tensor(x), t, T.Tensor(beta))
            return T.reduce(T.mul(y, T.Tensor(target)), None, "sum")

        assert T.finite_diff_check(fn_x, T.Tensor(x)) < 1e-4
        assert T.finite_diff_check(fn_gamma, T.Tensor(gamma)) < 1e-6

    def test_beta_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2, 4, 3))
        gamma = rng.normal(size=2)
        target = rng.normal(size=(3, 2, 4, 3))

        def fn_beta(t):
            y = T.batch_norm2d(T.Tensor(x), T.Tensor(gamma), t)
            d = T.add(y, T.mul(T.Tensor(target), -1.0))
            return T.reduce(T.mul(d, d), None, "sum")

        assert T.finite_diff_check(fn_beta, T.Tensor(rng.normal(size=2))) < 1e-6

    def test_eval_mode_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 2, 4, 3))
        gamma = rng.normal(size=2)
        beta = rng.normal(size=2)
        target = rng.normal(size=(3, 2, 4, 3))
        running = T.RunningStats(2)
        running.mean = rng.normal(size=2)
        running.var = rng.uniform(0.5, 2.0, size=2)

        def loss(xt, gt, bt):
            y = T.batch_norm2d(xt, gt, bt, training=False, running=running)
            d = T.add(y, T.mul(T.Tensor(target), -1.0))
            return T.reduce(T.mul(d, d), None, "sum")

        assert T.finite_diff_check(lambda t: loss(t, T.Tensor(gamma), T.Tensor(beta)), T.Tensor(x)) < 1e-4
        assert T.finite_diff_check(lambda t: loss(T.Tensor(x), t, T.Tensor(beta)), T.Tensor(gamma)) < 1e-6
        assert T.finite_diff_check(lambda t: loss(T.Tensor(x), T.Tensor(gamma), t), T.Tensor(beta)) < 1e-6

    def test_running_var_is_biased_batch_variance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(loc=-2.0, scale=3.0, size=(5, 3, 4, 6))
        running = T.RunningStats(3)
        T.batch_norm2d(T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), running=running)
        m = T.RunningStats.MOMENTUM  # one update from the initial ones
        np.testing.assert_allclose(running.var, (1 - m) + m * x.var(axis=(0, 2, 3)), rtol=0, atol=1e-12)

    def test_running_stats_frozen_under_no_grad(self):
        rng = np.random.default_rng(13)
        x = T.Tensor(rng.normal(loc=1.5, size=(4, 2, 3, 5)))
        gamma, beta = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
        running = T.RunningStats(2)
        with T.no_grad():
            T.batch_norm2d(x, gamma, beta, training=True, running=running)
        np.testing.assert_array_equal(running.mean, np.zeros(2))
        np.testing.assert_array_equal(running.var, np.ones(2))
        T.batch_norm2d(x, gamma, beta, training=True, running=running)
        m = T.RunningStats.MOMENTUM
        np.testing.assert_allclose(running.mean, m * x.data.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(running.var, (1 - m) + m * x.data.var(axis=(0, 2, 3)))

    @pytest.mark.parametrize("training", [True, False])
    def test_non_contiguous_input_matches_contiguous_copy(self, training):
        rng = np.random.default_rng(12)
        view = rng.normal(size=(3, 2, 5, 4)).transpose(0, 1, 3, 2)
        assert not view.flags.c_contiguous
        gamma = rng.normal(size=2)
        beta = rng.normal(size=2)
        g = rng.normal(size=view.shape)
        running = T.RunningStats(2)
        running.var = rng.uniform(0.5, 2.0, size=2)
        results = []
        for data in (view, np.ascontiguousarray(view)):
            xt, gt, bt = (T.Tensor(a, requires_grad=True) for a in (data, gamma, beta))
            y = T.batch_norm2d(xt, gt, bt, training=training, running=running)
            T.reduce(T.mul(y, T.Tensor(g)), None, "sum").backward()
            results.append((y.data, xt.grad, gt.grad, bt.grad))
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


_ACTIVATIONS = {"relu": lambda x: T.clamp_min(x, 0.0), "tanh": T.tanh, "sigmoid": T.sigmoid}


def activation(x: T.Tensor, kind: str) -> T.Tensor:
    """Elementwise nonlinearity; kind is one of relu|tanh|sigmoid."""
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}") from None


class TestActivations:
    def test_fixed_points(self):
        assert activation(T.Tensor([0.0]), "sigmoid").item() == pytest.approx(0.5)
        assert activation(T.Tensor([0.0]), "tanh").item() == 0.0
        assert activation(T.Tensor([-3.0]), "relu").item() == 0.0

    def test_sigmoid_value(self):
        assert T.sigmoid(T.Tensor([1.0])).item() == pytest.approx(0.7310585786300049, abs=1e-10)

    def test_sigmoid_extreme_inputs_stable(self):
        y = T.sigmoid(T.Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(y.data, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_matches_logistic_formula(self):
        x = np.linspace(-30.0, 30.0, 6001)
        y = T.sigmoid(T.Tensor(x)).data
        np.testing.assert_allclose(y, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activation(T.Tensor([0.0]), "swish")

    @pytest.mark.parametrize("floor", [0.0, 1e-8, -2.5])
    def test_clamp_min_no_gradient_at_floor(self, floor):
        x = T.Tensor([floor - 1.0, floor, floor + 1.0], requires_grad=True)
        T.clamp_min(x, floor).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


class TestSoftmax:
    def test_uniform(self):
        y = T.softmax_over(T.Tensor([0.0, 0.0]), (0,))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    def test_huge_logits_no_overflow(self):
        y = T.softmax_over(T.Tensor([1000.0, 1000.0]), (0,))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    def test_reference_values(self):
        y = T.softmax_over(T.Tensor([1.0, 2.0, 3.0]), (0,))
        np.testing.assert_allclose(y.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-6)

    def test_multi_axis_sums_to_one(self):
        rng = np.random.default_rng(4)
        y = T.softmax_over(T.Tensor(rng.normal(size=(2, 3, 4))), (1, 2))
        np.testing.assert_allclose(y.data.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_empty_axes_rejected(self):
        with pytest.raises(ShapeError):
            T.softmax_over(T.Tensor([1.0, 2.0]), ())

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_property(self, logits):
        y = T.softmax_over(T.Tensor(logits), (0,))
        assert abs(float(y.data.sum()) - 1.0) < 1e-12
        assert (y.data > 0).all()


class TestCrossEntropy:
    def test_huge_logits_match_closed_form(self):
        logits = T.Tensor([[1000.0, -1000.0, 0.0],
                           [-1000.0, 1000.0, 1000.0],
                           [1000.0, 1000.0, 1000.0],
                           [1000.0, -1000.0, -1000.0]], requires_grad=True)
        loss = T.cross_entropy(logits, [0, 1, 2, 1])
        # rows: lse - own = 0, log 2, log 3, 2000
        assert loss.item() == pytest.approx((np.log(2) + np.log(3) + 2000.0) / 4, abs=1e-12)
        loss.backward()
        want = np.array([[0.0, 0.0, 0.0], [0.0, -0.5, 0.5], [1 / 3, 1 / 3, -2 / 3], [1.0, -1.0, 0.0]]) / 4
        np.testing.assert_allclose(logits.grad, want, rtol=0, atol=1e-15)

    def test_targets_shape_checked(self):
        with pytest.raises(ShapeError):
            T.cross_entropy(T.Tensor(np.zeros((3, 4))), [0, 1])


class TestLinear:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(12)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
        np.testing.assert_allclose(T.linear(T.Tensor(x), T.Tensor(w)).data, x @ w.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data, x @ w.T + b,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((3,), (4, 3), None),      # rank-1 rows
        ((2, 3), (4, 3, 1), None),  # rank-3 weights
        ((2, 3), (4, 2), None),    # width mismatch
        ((2, 3), (4, 3), (3,)),    # bias of the input width
    ])
    def test_shape_mismatch_raises(self, x_shape, w_shape, b_shape):
        bias = None if b_shape is None else T.Tensor(np.zeros(b_shape))
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros(x_shape)), T.Tensor(np.zeros(w_shape)), bias)


class TestReduce:
    def test_mean(self):
        assert T.reduce(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), (0, 1), "mean").item() == 2.5

    def test_max_tie_routes_to_lowest_flat_index(self):
        x = T.Tensor([3.0, 3.0, 1.0], requires_grad=True)
        T.reduce(x, (0,), "max").backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0])

    def test_max_over_two_axes_rejected(self):
        with pytest.raises(ShapeError, match="one axis"):
            T.reduce(T.Tensor(np.zeros((2, 2, 3))), (1, 2), "max")

    def test_sum_gradient_is_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.reduce(x, (0, 1), "sum").backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_empty_axes_rejected(self):
        with pytest.raises(ShapeError):
            T.reduce(T.Tensor([1.0]), (), "sum")

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_mean_equals_sum_over_count(self, values):
        x = T.Tensor(values)
        m = T.reduce(x, (0,), "mean").item()
        s = T.reduce(x, (0,), "sum").item()
        assert abs(m - s / len(values)) < 1e-12 * max(1.0, abs(s))


def standardize_chain(x, axes, guard, eps):
    """The primitive chain ``standardize_over`` fuses, as TFE recorded it."""
    mu = T.reduce(x, axes, "mean", keepdims=True)
    centered = T.add(x, T.mul(mu, -1.0))
    var = T.reduce(T.mul(centered, centered), axes, "mean", keepdims=True)
    return T.div(centered, T.add(T.sqrt(T.add(var, guard)), eps))


class TestStandardizeOver:
    # random shapes and axes, then the TFE score grids of the toy net at
    # batch 40 (8 groups): the stem's 32x100 map and the stage maps below it
    @pytest.mark.parametrize("shape,axes", [
        ((3, 7), (1,)), ((4, 5, 6), (0, 2)), ((2, 3, 4, 5), (2, 3)), ((6,), None),
        ((40, 8, 32, 100), (2, 3)), ((40, 8, 16, 50), (2, 3)), ((40, 8, 8, 25), (2, 3)),
        ((40, 8, 4, 13), (2, 3)),
    ])
    def test_matches_the_op_chain(self, shape, axes):
        rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
        x = rng.normal(size=shape) * 3.0 + 1.5
        g = rng.normal(size=shape)
        outs, grads = [], []
        for fn in (T.standardize_over, standardize_chain):
            t = T.Tensor(x, requires_grad=True)
            y = fn(t, axes, 1e-24, 1e-5)
            T.mul(y, T.Tensor(g)).sum().backward()
            outs.append(y.data)
            grads.append(t.grad)
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-12, atol=1e-15)

    def test_constant_grid_stays_finite(self):
        # zero variance: the guard keeps sqrt's derivative finite, which
        # is what blocks._VAR_GUARD exists for
        t = T.Tensor(np.full((2, 3, 4, 5), -2.5), requires_grad=True)
        y = T.standardize_over(t, (2, 3), 1e-24, 1e-5)
        np.testing.assert_array_equal(y.data, 0.0)
        T.mul(y, T.Tensor(np.random.default_rng(3).normal(size=y.shape))).sum().backward()
        assert np.isfinite(t.grad).all()


class TestBackward:
    def test_quadratic(self):
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        T.reduce(T.mul(x, x), (0,), "sum").backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_sigmoid_chain(self):
        x = T.Tensor([0.3, -1.2], requires_grad=True)
        T.reduce(T.sigmoid(x), (0,), "sum").backward()
        s = 1 / (1 + np.exp(-x.data))
        np.testing.assert_allclose(x.grad, s * (1 - s))

    def test_non_scalar_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            T.mul(x, x).backward()

    def test_backward_twice_rejected(self):
        x = T.Tensor([1.0], requires_grad=True)
        loss = T.reduce(T.mul(x, x), (0,), "sum")
        loss.backward()
        with pytest.raises(RuntimeError, match="already called"):
            loss.backward()

    def test_grad_accumulates_across_reuse(self):
        x = T.Tensor([2.0], requires_grad=True)
        loss = T.add(T.mul(x, x), T.mul(x, 3.0)).sum()  # x^2 + 3x
        loss.backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_consumed_interior_node_rejected(self):
        # a second graph built on an interior node of a replayed one would
        # silently re-run (or, with its tape gone, skip) that node's VJP
        x = T.Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
        y.sum().backward()
        with pytest.raises(RuntimeError, match="consumed"):
            T.mul(y, 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_intermediate_freed_after_backward(self):
        x = T.Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        h = T.tanh(x)
        ref = weakref.ref(h)
        loss = T.mul(h, h).sum()
        del h
        assert ref() is not None  # held by the recorded graph
        loss.backward()
        assert ref() is None
        np.testing.assert_allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))

    def test_held_intermediate_keeps_grad(self):
        x = T.Tensor([0.5, -1.0], requires_grad=True)
        h = T.mul(x, 3.0)
        T.mul(h, h).sum().backward()
        np.testing.assert_allclose(h.grad, 2 * h.data)
        np.testing.assert_allclose(x.grad, 18 * x.data)


class TestTapeMemory:
    """Recording an op keeps its output and a few per-channel vectors, no
    array that the inputs' data determine: the VJP rebuilds those."""

    SLACK = 32 * 1024  # closure, tensor and per-channel vectors; inputs are 256 KiB

    @staticmethod
    def _kept_beyond_output(op):
        op()  # fill the per-spec plan caches outside the trace
        tracemalloc.start()
        try:
            out = op()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        return kept - out.data.nbytes

    def test_padded_conv2d(self):
        rng = np.random.default_rng(41)
        x = T.Tensor(rng.normal(size=(4, 8, 32, 32)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        assert self._kept_beyond_output(lambda: T.conv2d(x, w, (1, 1), (1, 1))) < self.SLACK

    def test_training_batch_norm2d(self):
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.normal(size=(4, 8, 32, 32)), requires_grad=True)
        gamma, beta = (T.Tensor(rng.normal(size=8), requires_grad=True) for _ in range(2))
        assert self._kept_beyond_output(lambda: T.batch_norm2d(x, gamma, beta)) < self.SLACK

    def test_standardize_over(self):
        x = T.Tensor(np.random.default_rng(43).normal(size=(4, 8, 32, 32)), requires_grad=True)
        assert self._kept_beyond_output(lambda: T.standardize_over(x, (2, 3), 1e-24, 1e-5)) < self.SLACK

    def test_eval_batch_norm2d_gradients_ignore_a_later_running_update(self):
        rng = np.random.default_rng(44)
        x, g = rng.normal(size=(3, 2, 4, 5)), rng.normal(size=(3, 2, 4, 5))
        gamma, beta = rng.normal(size=2), rng.normal(size=2)
        batch = T.Tensor(rng.normal(loc=3.0, size=(3, 2, 4, 5)))

        def grads(between):
            running = T.RunningStats(2)
            running.mean = np.array([0.5, -1.0])
            running.var = np.array([2.0, 0.5])
            xt, gt, bt = (T.Tensor(a, requires_grad=True) for a in (x, gamma, beta))
            y = T.batch_norm2d(xt, gt, bt, training=False, running=running)
            between(running)
            T.mul(y, T.Tensor(g)).sum().backward()
            return xt.grad, gt.grad, bt.grad

        def update(running):
            # a checkpoint load writes the stats in place; a training batch replaces them
            running.mean[...] = 7.0
            running.var[...] = 9.0
            T.batch_norm2d(batch, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), running=running)

        for got, want in zip(grads(update), grads(lambda running: None)):
            np.testing.assert_array_equal(got, want)


class TestNoGrad:
    def test_records_nothing(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(T.tanh(x), x)
        assert not y.requires_grad
        assert y._vjp is None and y._parents == ()
        np.testing.assert_array_equal(y.data, T.mul(T.tanh(x), x).data)

    def test_nested_and_restored(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.mul(x, x).requires_grad
        assert T.mul(x, x).requires_grad

    def test_restored_on_exception(self):
        x = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.linear(x, x)  # rank-1 operands
        assert T.mul(x, x).requires_grad


class TestFiniteDiff:
    def test_linear_nearly_exact(self):
        w = np.array([1.0, -2.0, 0.5])
        fn = lambda t: T.reduce(T.mul(t, T.Tensor(w)), (0,), "sum")
        assert T.finite_diff_check(fn, T.Tensor([0.1, 0.2, 0.3])) < 1e-10

    def test_quadratic_nearly_exact(self):
        fn = lambda t: T.reduce(T.mul(t, t), (0,), "sum")
        assert T.finite_diff_check(fn, T.Tensor([0.5, -1.5])) < 1e-8

    def test_rejects_non_scalar_fn(self):
        with pytest.raises(ShapeError):
            T.finite_diff_check(lambda t: T.mul(t, t), T.Tensor([1.0, 2.0]))

    def test_detects_wrong_gradient(self):
        def broken_square_sum(t):
            y = T.mul(t, t)

            def bad_vjp(g):
                t._accumulate(g.sum(axis=0, keepdims=True).repeat(t.shape[0], 0) * 17.0)

            fake = T.Tensor._from_op(y.data, (t,), bad_vjp)
            return T.reduce(fake, (0,), "sum")

        assert T.finite_diff_check(broken_square_sum, T.Tensor([1.0, 2.0])) > 1e-4


# every spec the blocks and conv2d contract, then four more layouts: the
# two-step pooling of a (K, F, T) grid stack
CONTRACT_SPECS = [
    "hc,ncft->nhft", "h,nhft->nft", "nft,ncft->nc", "ncft,kft->nck",
    "ngd,dc->ngc", "ngd,gdc->ngc", "ngc,ngcft->ngft",
    "ncftab,kcab->nkft", "nkft,ncftab->kcab", "nkft,kcab->ncftab",
    "kab,af->kfb", "bt,kfb->kft", "kab,bt->kat", "af,kat->kft",
]
EINSUM2_SPECS = CONTRACT_SPECS[:7]
EXTENTS = dict(n=3, c=4, f=5, t=6, h=2, k=3, g=2, d=3, a=2, b=3)


def _operands(spec, extents, seed=0):
    rng = np.random.default_rng(seed)
    subs = spec.split("->")[0].split(",")
    return [rng.normal(size=[extents[i] for i in sub]) for sub in subs]


class TestContract:
    """``_contract`` against ``np.einsum``, and einsum2's VJPs against
    central differences."""

    @pytest.mark.parametrize("spec", CONTRACT_SPECS + [s for spec in EINSUM2_SPECS for s in T._vjp_specs(spec)])
    def test_matches_einsum(self, spec):
        a, b = _operands(spec, EXTENTS)
        np.testing.assert_allclose(T._contract(spec, a, b), np.einsum(spec, a, b), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("ones", ["n", "ng", "d", "c", "h", "nft"])
    @pytest.mark.parametrize("spec", EINSUM2_SPECS + ["nft,nhft->h", "ngft,ngc->ngcft"])
    def test_extent_one_axes(self, spec, ones):
        # batch, kept or summed axes of extent 1; every summed extent 1
        # makes the contraction a plain product
        extents = dict(EXTENTS, **{i: 1 for i in ones})
        a, b = _operands(spec, extents, seed=1)
        np.testing.assert_allclose(T._contract(spec, a, b), np.einsum(spec, a, b), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec", ["i,j->ij", "ij,k->kji", "ngft,ngc->ngcft"])
    def test_outer_product(self, spec):
        a, b = _operands(spec, dict(EXTENTS, i=3, j=4))
        np.testing.assert_array_equal(T._contract(spec, a, b), np.einsum(spec, a, b))

    def test_transposed_operands(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 5, 4, 3)).transpose(3, 2, 1, 0)  # (n, c, f, t) view
        p = rng.normal(size=(4, 2)).T
        for spec, a, b in (("hc,ncft->nhft", p, m), ("ncft,hc->nhft", m, p), ("ab,cb->ac", p, p)):
            np.testing.assert_allclose(T._contract(spec, a, b), np.einsum(spec, a, b), rtol=1e-12, atol=1e-12)

    def test_strided_window_view(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 9, 8))
        patches = np.lib.stride_tricks.sliding_window_view(x, (3, 2), axis=(2, 3))[:, :, ::2, ::3]
        w = rng.normal(size=(4, 3, 3, 2))
        got = T._contract("ncftab,kcab->nkft", patches, w)
        np.testing.assert_allclose(got, np.einsum("ncftab,kcab->nkft", patches, w), rtol=1e-12, atol=1e-12)
        g = rng.normal(size=got.shape)
        np.testing.assert_allclose(T._contract("nkft,ncftab->kcab", g, patches),
                                   np.einsum("nkft,ncftab->kcab", g, patches), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c", [3, 1])
    def test_batch_spec_vjps_vs_finite_differences(self, c):
        a, b = _operands("ngc,ngcft->ngft", dict(EXTENTS, c=c), seed=4)
        weight = T.Tensor(np.random.default_rng(5).normal(size=(3, 2, 5, 6)))

        def loss(x, y):
            return T.mul(T.einsum2("ngc,ngcft->ngft", x, y), weight).sum()

        assert T.finite_diff_check(lambda t: loss(t, T.Tensor(b)), T.Tensor(a)) < 1e-8
        assert T.finite_diff_check(lambda t: loss(T.Tensor(a), t), T.Tensor(b)) < 1e-8

    def test_private_index_rejected(self):
        with pytest.raises(ShapeError, match="private"):
            T.einsum2("ab,b->b", T.Tensor(np.ones((2, 3))), T.Tensor(np.ones(3)))


class TestEveryDifferentiableOp:
    """Spec invariant: each primitive passes the finite-difference oracle on
    small random inputs."""

    @pytest.mark.parametrize("name,fn,shape", [
        ("add", lambda t, c: T.add(t, c).sum(), (3, 4)),
        ("mul", lambda t, c: T.mul(t, c).sum(), (3, 4)),
        ("div", lambda t, c: T.div(t, T.add(T.mul(c, c), 1.0)).sum(), (3, 4)),
        ("linear", lambda t, c: T.tanh(T.linear(t, c)).sum(), (3, 4)),
        ("linear_weight", lambda t, c: T.tanh(T.linear(c, t)).sum(), (3, 4)),
        ("sqrt", lambda t, c: T.sqrt(T.add(T.mul(t, t), 1.0)).sum(), (3, 4)),
        ("relu", lambda t, c: T.clamp_min(t, 0.0).sum(), (3, 4)),
        ("tanh", lambda t, c: T.tanh(t).sum(), (3, 4)),
        ("sigmoid", lambda t, c: T.sigmoid(t).sum(), (3, 4)),
        ("clamp_min", lambda t, c: T.clamp_min(t, 0.25).sum(), (3, 4)),
        ("softmax", lambda t, c: T.mul(T.softmax_over(t, (0, 1)), c).sum(), (3, 4)),
        ("sum", lambda t, c: T.mul(T.reduce(t, (1,), "sum"), T.reduce(c, (1,), "mean")).sum(), (3, 4)),
        ("mean", lambda t, c: T.mul(T.reduce(t, (0,), "mean"), T.reduce(c, (0,), "max")).sum(), (3, 4)),
        ("max", lambda t, c: T.reduce(t, (1,), "max").sum(), (3, 4)),
        ("reshape", lambda t, c: T.mul(T.reshape(t, (4, 3)), T.reshape(c, (4, 3))).sum(), (3, 4)),
        ("linear_bias", lambda t, c: T.tanh(T.linear(c, c, T.reduce(t, (1,), "sum"))).sum(), (3, 4)),
        ("narrow", lambda t, c: T.mul(T.narrow(t, 1, 1, 2), T.narrow(c, 1, 0, 2)).sum(), (3, 4)),
        ("concat", lambda t, c: T.mul(T.concat([t, c], 1), T.concat([c, t], 1)).sum(), (3, 4)),
        ("cross_entropy", lambda t, c: T.cross_entropy(t, [2, 0, 3]), (3, 4)),
        ("einsum2", lambda t, c: T.einsum2("ab,cb->ac", t, c).sum(), (3, 4)),
        ("standardize_over", lambda t, c: T.mul(T.standardize_over(t, (1,), 1e-24, 1e-5), c).sum(), (3, 4)),
    ])
    def test_primitive(self, name, fn, shape):
        # crc32, not hash(): str hashes are salted per process, so a seed
        # from hash() draws new inputs on every run
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = rng.normal(size=shape) + 0.1  # nudge away from relu/clamp kinks
        const = T.Tensor(rng.normal(size=shape))
        h = 1e-5
        # every input more than h from its kink, or a failure says nothing
        # about the engine: the floor, or the runner-up of its max slice
        floor = {"relu": 0.0, "clamp_min": 0.25}.get(name)
        if floor is not None:
            assert np.abs(x - floor).min() > h
        if name == "max":
            runner_up, top = np.sort(x, axis=1)[:, -2:].T
            assert (top - runner_up).min() > h
        assert T.finite_diff_check(lambda t: fn(t, const), T.Tensor(x), h) < 1e-4

    def test_adaptive_avg_pool(self):
        # pooling 5x7 maps to a 2x3 grid is folded into the grids, and the
        # full K=6 set spans every pooled map
        rng = np.random.default_rng(15)
        x = rng.normal(size=(1, 2, 5, 7))
        grids = T.Tensor(dct.pooled_grids(2, 3, 6, 5, 7))
        c = T.Tensor(rng.normal(size=(1, 2, 6)))
        fn = lambda t: T.mul(T.einsum2("ncft,kft->nck", t, grids), c).sum()
        assert T.finite_diff_check(fn, T.Tensor(x)) < 1e-6


class TestAdaptivePool:
    """Adaptive average pooling, which the DCT context folds into its grids
    (``dct.pooled_grids``)."""

    def test_identity_when_size_matches(self):
        np.testing.assert_array_equal(dct._pool_matrix(4, 4), np.eye(4))
        np.testing.assert_array_equal(dct.pooled_grids(3, 4, 5, 3, 4), dct.basis_grids(3, 4, 5))

    def test_global_pool_is_mean(self):
        x = np.random.default_rng(2).normal(size=(4, 5))
        np.testing.assert_allclose(dct._pool_matrix(4, 1) @ x @ dct._pool_matrix(5, 1).T, [[x.mean()]])
        # the (0, 0) grid is all ones, so its pooled form is a plain mean
        np.testing.assert_allclose(dct.pooled_grids(1, 1, 1, 4, 5), np.full((1, 4, 5), 1 / 20))

    def test_cell_means(self):
        x = np.arange(8.0).reshape(2, 4)
        y = dct._pool_matrix(2, 1) @ x @ dct._pool_matrix(4, 2).T
        np.testing.assert_allclose(y, [[(0 + 1 + 4 + 5) / 4, (2 + 3 + 6 + 7) / 4]])
        # overlapping cells when the extent does not divide: [0, 2), [1, 3)
        np.testing.assert_allclose(dct._pool_matrix(3, 2), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])

    # the maps the toy backbone hands its 4x13 DCT grids: stem output (a
    # block before the first conv sees it), then stages 0 to 3
    @pytest.mark.parametrize("f,t", [(32, 100), (16, 50), (8, 25), (4, 13)])
    def test_pooled_is_the_plain_product_at_toy_stage_shapes(self, f, t):
        grids = dct.pooled_grids(4, 13, 2, f, t)
        want = dct._pool_matrix(f, 4).T @ dct.basis_grids(4, 13, 2) @ dct._pool_matrix(t, 13)
        np.testing.assert_array_equal(grids, want)
        assert grids.flags.c_contiguous and not grids.flags.writeable
        assert dct.pooled_grids(4, 13, 2, f, t) is grids


class TestFinitePolicy:
    @pytest.mark.parametrize("data", [[1, 2], [True, False], np.arange(3, dtype=np.int8)],
                             ids=["ints", "bools", "int8"])
    def test_stored_as_float64(self, data):
        x = T.Tensor(data)
        assert x.data.dtype == np.float64
        np.testing.assert_array_equal(x.data, np.asarray(data, dtype=np.float64))

    def test_nan_input_rejected(self):
        with pytest.raises(NumericalError):
            T.Tensor([1.0, float("nan")])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_in_op_rejected(self):
        with pytest.raises(NumericalError):
            T.mul(T.Tensor([1e300]), 1e300)

    # the guard sums first: a finite sum proves every term finite, and an
    # overflowing sum of finite terms must fall back to the elementwise test
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_values_whose_sum_overflows_accepted(self):
        assert np.isinf(np.sum([1e308, 1e308]))
        np.testing.assert_array_equal(T.Tensor([1e308, 1e308]).data, [1e308, 1e308])
        y = T.mul(T.Tensor(np.full((2, 3), 1e308)), 1.0)
        np.testing.assert_array_equal(y.data, np.full((2, 3), 1e308))

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf]],
                             ids=["nan", "inf", "-inf", "inf_and_-inf"])
    @pytest.mark.filterwarnings("ignore:invalid")
    def test_non_finite_input_rejected(self, values):
        with pytest.raises(NumericalError):
            T.Tensor(values)

    # each op that keeps the check, fed finite inputs it turns non-finite;
    # a non-finite constant operand of add / mul, or floor of clamp_min, is
    # caught by the same check
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid", "ignore:divide")
    @pytest.mark.parametrize("op", [
        lambda: T.sqrt(T.Tensor([-1.0, 4.0])),
        lambda: T.mul(T.Tensor([1e300, 1.0]), 1e300),
        lambda: T.mul(T.Tensor([1.0, -1e300]), 1e300),
        lambda: T.mul(T.Tensor([1e300, -1e300]), 1e300),
        lambda: T.einsum2("i,j->ij", T.Tensor([1e300, -1e300]), T.Tensor([1e300])),
        lambda: T.add(T.Tensor([1e308, 1.0]), T.Tensor([1e308, 1.0])),
        lambda: T.div(T.Tensor([1.0, 2.0]), T.Tensor([1e-320, 1.0])),
        lambda: T.reduce(T.Tensor([[1e308, 1e308]]), (1,), "sum"),
        lambda: T.reduce(T.Tensor([[1e308, 1e308]]), (1,), "mean"),
        lambda: T.linear(T.Tensor([[1e308, 1e308]]), T.Tensor([[1.0, 1.0]])),
        lambda: T.conv2d(T.Tensor(np.full((1, 1, 1, 2), 1e308)), T.Tensor(np.ones((1, 1, 1, 2))), (1, 1), (0, 0)),
        lambda: T.batch_norm2d(T.Tensor(np.full((2, 1, 1, 1), 1e308)), T.Tensor([1.0]), T.Tensor([0.0])),
        lambda: T.cross_entropy(T.Tensor([[1e308, -1e308]]), [1]),
        lambda: T.standardize_over(T.Tensor([[2.0, 2.0]]), (1,), 0.0, 0.0),
        lambda: T.add(T.Tensor([1.0, 2.0]), float("inf")),
        lambda: T.add(T.Tensor([1.0, 2.0]), float("nan")),
        lambda: T.mul(T.Tensor([1.0, 0.0]), float("inf")),
        lambda: T.mul(T.Tensor([1.0, 2.0]), float("nan")),
        lambda: T.clamp_min(T.Tensor([1.0, 2.0]), float("inf")),
    ], ids=["nan", "inf", "-inf", "inf_and_-inf", "inf_and_-inf_contracted",
            "add", "div", "sum", "mean", "linear", "conv2d", "batch_norm2d",
            "cross_entropy", "standardize_over",
            "add_inf_constant", "add_nan_constant", "mul_inf_constant", "mul_nan_constant",
            "clamp_min_inf_floor"])
    def test_non_finite_op_output_rejected(self, op):
        with pytest.raises(NumericalError, match="operation produced"):
            op()

    # the ops that skip the check: finite in, finite out, down to the
    # extremes (+-1e308 overflow a difference, subnormals underflow a scale)
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:underflow")
    @pytest.mark.parametrize("op", [
        lambda x: T.reshape(x, (-1,)),
        lambda x: T.narrow(x, 1, 1, 1),
        lambda x: T.concat([x, x], 0),
        lambda x: T.clamp_min(x, 0.0),
        lambda x: T.clamp_min(x, -1e308),
        lambda x: T.tanh(x),
        lambda x: T.sigmoid(x),
        lambda x: T.softmax_over(x, (0, 1)),
        lambda x: T.reduce(x, (1,), "max"),
    ], ids=["reshape", "narrow", "concat", "clamp_min", "clamp_min_huge_floor", "tanh", "sigmoid",
            "softmax_over", "max"])
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=6))
    @example([(1e308, -1e308), (-1e308, 1e308)])
    @example([(5e-324, -5e-324), (2.2e-308, -1.5e-310)])
    @example([(1.7976931348623157e308, 0.0)])
    @settings(max_examples=60, deadline=None)
    def test_unchecked_op_keeps_finite_values_finite(self, op, rows):
        y = op(T.Tensor(rows))
        assert np.isfinite(y.data).all()


class TestDumpFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        arr = rng.normal(size=(3, 4, 5))
        buf = io.BytesIO()
        T.save_tensor(buf, arr)
        buf.seek(0)
        back = T.load_tensor(buf)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_header_layout(self):
        buf = io.BytesIO()
        T.save_tensor(buf, np.array([1.0, 2.0]))
        raw = buf.getvalue()
        assert raw[:8] == (1).to_bytes(8, "little")
        assert raw[8:16] == (2).to_bytes(8, "little")
        assert len(raw) == 16 + 2 * 8

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            T.load_tensor(io.BytesIO(b"\x01"))

    @pytest.mark.parametrize("header", [(1, 2**33), (2**40,), (1, 2**64 - 1)])
    def test_huge_header_rejected_before_reading(self, header):
        raw = b"".join(v.to_bytes(8, "little") for v in header) + bytes(16)
        with pytest.raises(ValueError, match="bytes left"):
            T.load_tensor(io.BytesIO(raw))
