import numpy as np
import pytest

from gradcheck import fd_gradient, max_rel_error
from shiftnet import ops
from shiftnet.ops import (BatchNormState, ConvKernel, batchnorm_backward,
                          batchnorm_forward, conv2d_depthwise,
                          conv2d_pointwise, conv2d_spatial)


# --- independently coded loop oracles ------------------------------------

def spatial_oracle(x, w, stride, pad):
    b, m, h, wd = x.shape
    k = w.shape[0]
    n = w.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((b, n, ho, wo), dtype=x.dtype)
    for bi in range(b):
        for ni in range(n):
            for ki in range(ho):
                for li in range(wo):
                    acc = 0.0
                    for i in range(k):
                        for j in range(k):
                            for mi in range(m):
                                acc += w[i, j, mi, ni] * xp[bi, mi, ki * stride + i,
                                                            li * stride + j]
                    out[bi, ni, ki, li] = acc
    return out


def depthwise_oracle(x, w, stride, pad):
    b, m, h, wd = x.shape
    k = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((b, m, ho, wo), dtype=x.dtype)
    for bi in range(b):
        for mi in range(m):
            for ki in range(ho):
                for li in range(wo):
                    acc = 0.0
                    for i in range(k):
                        for j in range(k):
                            acc += w[i, j, mi] * xp[bi, mi, ki * stride + i,
                                                    li * stride + j]
                    out[bi, mi, ki, li] = acc
    return out


def pointwise_oracle(x, p, stride):
    b, m, h, w = x.shape
    n = p.shape[1]
    ho = (h + stride - 1) // stride
    wo = (w + stride - 1) // stride
    out = np.zeros((b, n, ho, wo), dtype=x.dtype)
    for bi in range(b):
        for ni in range(n):
            for ki in range(ho):
                for li in range(wo):
                    acc = 0.0
                    for mi in range(m):
                        acc += p[mi, ni] * x[bi, mi, ki * stride, li * stride]
                    out[bi, ni, ki, li] = acc
    return out


class TestSpatialConv:
    def test_ones_counting(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        k = ConvKernel(np.ones((3, 3, 1, 1), dtype=np.float32), 1, 1)
        y = conv2d_spatial(x, k)
        assert y[0, 0, 1, 1] == 9.0
        for corner in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y[0, 0][corner] == 4.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for m in range(3):
            w[1, 1, m, m] = 1.0
        y = conv2d_spatial(x, ConvKernel(w, 1, 1))
        assert np.array_equal(y, x)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_oracle(self, stride):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 8, 8))
        w = rng.normal(size=(3, 3, 4, 5))
        y = conv2d_spatial(x, ConvKernel(w, stride, 1))
        np.testing.assert_allclose(y, spatial_oracle(x, w, stride, 1), rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_spatial(np.zeros((1, 2, 4, 4)), ConvKernel(np.zeros((3, 3, 3, 1)), 1, 1))

    def test_nonpositive_output(self):
        with pytest.raises(ValueError, match="output size"):
            conv2d_spatial(np.zeros((1, 1, 2, 2)), ConvKernel(np.zeros((5, 5, 1, 1)), 1, 0))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ConvKernel(np.zeros((4, 4, 1, 1)), 1, 1)


class TestDepthwiseConv:
    def test_one_hot_center_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        w = np.zeros((3, 3, 4), dtype=np.float32)
        w[1, 1, :] = 1.0
        assert np.array_equal(conv2d_depthwise(x, ConvKernel(w, 1, 1)), x)

    def test_box_filter_on_constant(self):
        c = 3.7
        x = np.full((1, 1, 6, 6), c, dtype=np.float64)
        w = np.full((3, 3, 1), 1 / 9, dtype=np.float64)
        y = conv2d_depthwise(x, ConvKernel(w, 1, 1))
        np.testing.assert_allclose(y[0, 0, 1:-1, 1:-1], c, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(3, 3, 3))
        y = conv2d_depthwise(x, ConvKernel(w, 1, 1))
        np.testing.assert_allclose(y, depthwise_oracle(x, w, 1, 1), rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_depthwise(np.zeros((1, 2, 4, 4)), ConvKernel(np.zeros((3, 3, 3)), 1, 1))


class TestPointwiseConv:
    def test_identity_matrix(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5, 4, 4)).astype(np.float32)
        y = conv2d_pointwise(x, ConvKernel(np.eye(5, dtype=np.float32), 1))
        assert np.array_equal(y, x)

    def test_channel_sum(self):
        a, b = 1.5, -2.25
        x = np.empty((1, 2, 3, 3), dtype=np.float32)
        x[0, 0], x[0, 1] = a, b
        p = np.ones((2, 1), dtype=np.float32)
        y = conv2d_pointwise(x, ConvKernel(p, 1))
        assert y.shape == (1, 1, 3, 3)
        np.testing.assert_allclose(y, a + b)

    def test_stride2_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 7, 7))
        p = rng.normal(size=(4, 3))
        y = conv2d_pointwise(x, ConvKernel(p, 2))
        np.testing.assert_allclose(y, pointwise_oracle(x, p, 2), rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        y = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        p = ConvKernel(rng.normal(size=(4, 6)).astype(np.float32), 1)
        alpha, beta = 0.7, -1.3
        lhs = conv2d_pointwise(alpha * x + beta * y, p)
        rhs = alpha * conv2d_pointwise(x, p) + beta * conv2d_pointwise(y, p)
        np.testing.assert_allclose(lhs, rhs, rtol=2e-6, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_pointwise(np.zeros((1, 3, 2, 2)), ConvKernel(np.zeros((2, 2)), 1))


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(7)
        x = (rng.normal(size=(8, 5, 16, 16)) * 3 + 1.5).astype(np.float32)
        state = BatchNormState.create(5)
        y, _ = batchnorm_forward(x, state, "train")
        mean = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-5
        assert np.max(np.abs(var - 1)) < 1e-3

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        x = (rng.normal(size=(16, 3, 8, 8)) * 2 + 0.5).astype(np.float32)
        state = BatchNormState.create(3)
        batchnorm_forward(x, state, "train")
        expected_mean = 0.9 * 0 + 0.1 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(state.running_mean, expected_mean, rtol=1e-5)
        assert np.all(state.running_var > 0)

    def test_eval_uses_running_stats_and_leaves_them_alone(self):
        rng = np.random.default_rng(9)
        state = BatchNormState.create(4)
        state.running_mean[:] = rng.normal(size=4)
        state.running_var[:] = rng.uniform(0.5, 2.0, size=4)
        rm, rv = state.running_mean.copy(), state.running_var.copy()
        x = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        y, _ = batchnorm_forward(x, state, "eval")
        expected = (x - rm.reshape(1, -1, 1, 1)) / np.sqrt(rv + 1e-5).reshape(1, -1, 1, 1)
        np.testing.assert_allclose(y, expected, rtol=1e-5, atol=1e-6)
        assert np.array_equal(rm, state.running_mean)
        assert np.array_equal(rv, state.running_var)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            batchnorm_forward(np.zeros((1, 2, 2, 2)), BatchNormState.create(2), "test")

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            batchnorm_forward(np.zeros((1, 3, 2, 2)), BatchNormState.create(2), "train")


class TestPoolsAndHead:
    def test_avgpool_example(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        assert ops.avgpool2x2(x)[0, 0, 0, 0] == 2.5

    def test_avgpool_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ops.avgpool2x2(np.zeros((1, 1, 3, 4)))

    def test_global_avgpool(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(ops.global_avgpool(x), x.mean(axis=(2, 3)))

    def test_fc_feature_mismatch(self):
        with pytest.raises(ValueError, match="feature mismatch"):
            ops.fc_forward(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(2))

    def test_softmax_xent_uniform(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4)
        loss, probs = ops.softmax_xent(logits, labels)
        np.testing.assert_allclose(probs, 0.1, rtol=1e-6)
        np.testing.assert_allclose(loss, np.log(10), rtol=1e-5)

    def test_softmax_perfect_prediction_grad_vanishes(self):
        logits = np.zeros((2, 5))
        labels = np.array([3, 1])
        logits[0, 3] = logits[1, 1] = 40.0
        loss, probs = ops.softmax_xent(logits, labels)
        grad = ops.softmax_xent_backward(probs, labels)
        assert loss < 1e-8
        assert np.max(np.abs(grad)) < 1e-8


class TestRelu:
    def test_positive_region_passes_gradient(self):
        x = np.abs(np.random.default_rng(0).normal(size=(2, 3, 4, 4))) + 0.1
        dout = np.random.default_rng(1).normal(size=x.shape)
        assert np.array_equal(ops.relu_backward(dout, x), dout)


def _scalar_loss(forward, dout):
    return lambda: float(np.sum(forward() * dout))


class TestGradients:
    """Central finite differences (64-bit, h=1e-4), max relative error < 1e-4."""

    def test_conv_spatial(self):
        rng = np.random.default_rng(20)
        for stride in (1, 2):
            x = rng.normal(size=(2, 3, 6, 6))
            w = rng.normal(size=(3, 3, 3, 4))
            k = ConvKernel(w, stride, 1)
            dout = rng.normal(size=conv2d_spatial(x, k).shape)
            loss = _scalar_loss(lambda: conv2d_spatial(x, k), dout)
            dx, dw = ops.conv2d_spatial_backward(dout, x, k)
            assert max_rel_error(dx, fd_gradient(loss, x)[0]) < 1e-4
            assert max_rel_error(dw, fd_gradient(loss, w)[0]) < 1e-4

    def test_conv_depthwise(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(3, 3, 4))
        k = ConvKernel(w, 1, 1)
        dout = rng.normal(size=x.shape)
        loss = _scalar_loss(lambda: conv2d_depthwise(x, k), dout)
        dx, dw = ops.conv2d_depthwise_backward(dout, x, k)
        assert max_rel_error(dx, fd_gradient(loss, x)[0]) < 1e-4
        assert max_rel_error(dw, fd_gradient(loss, w)[0]) < 1e-4

    def test_conv_pointwise(self):
        rng = np.random.default_rng(22)
        for stride in (1, 2):
            x = rng.normal(size=(2, 5, 5, 5))
            w = rng.normal(size=(5, 3))
            k = ConvKernel(w, stride)
            dout = rng.normal(size=conv2d_pointwise(x, k).shape)
            loss = _scalar_loss(lambda: conv2d_pointwise(x, k), dout)
            dx, dw = ops.conv2d_pointwise_backward(dout, x, k)
            assert max_rel_error(dx, fd_gradient(loss, x)[0]) < 1e-4
            assert max_rel_error(dw, fd_gradient(loss, w)[0]) < 1e-4

    def test_batchnorm_train(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 4, 5, 5))
        gamma = rng.normal(size=4)
        beta = rng.normal(size=4)
        dout = rng.normal(size=x.shape)

        def fresh_state():
            s = BatchNormState.create(4, np.float64)
            s.gamma[:] = gamma
            s.beta[:] = beta
            return s

        def loss():
            y, _ = batchnorm_forward(x, fresh_state(), "train")
            return float(np.sum(y * dout))

        _, cache = batchnorm_forward(x, fresh_state(), "train")
        dx, dgamma, dbeta = batchnorm_backward(dout, cache)
        assert max_rel_error(dx, fd_gradient(loss, x)[0]) < 1e-4
        assert max_rel_error(dgamma, fd_gradient(loss, gamma)[0]) < 1e-4
        assert max_rel_error(dbeta, fd_gradient(loss, beta)[0]) < 1e-4

    def test_pools_fc_softmax(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 3, 4, 4))
        dout = rng.normal(size=ops.avgpool2x2(x).shape)
        loss = _scalar_loss(lambda: ops.avgpool2x2(x), dout)
        assert max_rel_error(ops.avgpool2x2_backward(dout, x),
                             fd_gradient(loss, x)[0]) < 1e-4

        dg = rng.normal(size=(2, 3))
        loss = _scalar_loss(lambda: ops.global_avgpool(x), dg)
        assert max_rel_error(ops.global_avgpool_backward(dg, x),
                             fd_gradient(loss, x)[0]) < 1e-4

        xf = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 3))
        b = rng.normal(size=3)
        df = rng.normal(size=(4, 3))
        loss = _scalar_loss(lambda: ops.fc_forward(xf, w, b), df)
        dx, dw, db = ops.fc_backward(df, xf, w)
        assert max_rel_error(dx, fd_gradient(loss, xf)[0]) < 1e-4
        assert max_rel_error(dw, fd_gradient(loss, w)[0]) < 1e-4
        assert max_rel_error(db, fd_gradient(loss, b)[0]) < 1e-4

        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        _, probs = ops.softmax_xent(logits, labels)
        dlogits = ops.softmax_xent_backward(probs, labels)
        num, _ = fd_gradient(lambda: ops.softmax_xent(logits, labels)[0], logits)
        assert max_rel_error(dlogits, num) < 1e-4
