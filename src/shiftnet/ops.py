"""Conventional layers with explicit forward and backward passes.

Spatial, depthwise and pointwise (1x1) convolutions, batch normalization,
ReLU, average pooling, fully-connected and softmax cross-entropy. All
functions are pure in their array arguments (BatchNormState running stats
are the one documented exception, updated only in train mode) and respect
the dtype of their inputs, so the same code path runs in float32 for
training and float64 for finite-difference checks.

Convolution kernels carry no bias: every convolution in this framework is
followed by a batch norm whose beta subsumes it, and parameter/FLOP counts
stay the bare products of the kernel dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConvKernel:
    """Convolution weights plus stride/padding.

    weights shape is (k, k, in_channels, out_channels) for spatial kernels,
    (k, k, channels) for depthwise and (in_channels, out_channels) for
    pointwise. Spatial/depthwise kernel sides must be odd.
    """

    weights: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.weights.ndim in (3, 4) and self.weights.shape[0] % 2 == 0:
            raise ValueError(f"kernel side must be odd, got {self.weights.shape[0]}")


@dataclass
class BatchNormState:
    """Per-channel affine batch normalization state."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    epsilon: float = 1e-5

    @staticmethod
    def create(channels: int, dtype=np.float32) -> "BatchNormState":
        return BatchNormState(
            gamma=np.ones(channels, dtype=dtype),
            beta=np.zeros(channels, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _out_size(size: int, k: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - k) // stride + 1
    if out <= 0:
        raise ValueError(f"non-positive output size for input {size}, kernel {k}, "
                         f"stride {stride}, padding {padding}")
    return out


def _im2col(x: np.ndarray, k: int, stride: int, padding: int):
    """Unfold k x k patches into rows ordered (ki, kj, channel)."""
    b, c, h, w = x.shape
    ho = _out_size(h, k, stride, padding)
    wo = _out_size(w, k, stride, padding)
    xp = _pad(x, padding)
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]          # (b, c, ho, wo, k, k)
    cols = win.transpose(0, 2, 3, 4, 5, 1)        # (b, ho, wo, ki, kj, c)
    return cols.reshape(b * ho * wo, k * k * c), (ho, wo)


def conv2d_spatial(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Spatial convolution: out[b,n,k,l] = sum_{i,j,m} W[i,j,m,n] x[b,m,k*s+i-pad,l*s+j-pad]."""
    k, k2, m, n = kernel.weights.shape
    if k != k2:
        raise ValueError("spatial kernels must be square")
    if x.shape[1] != m:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, kernel expects {m}")
    cols, (ho, wo) = _im2col(x, k, kernel.stride, kernel.padding)
    wmat = kernel.weights.reshape(k * k * m, n)
    y = cols @ wmat
    return y.reshape(x.shape[0], ho, wo, n).transpose(0, 3, 1, 2).copy()


def conv2d_spatial_backward(dout: np.ndarray, x: np.ndarray, kernel: ConvKernel):
    """Gradients (dx, dweights) of conv2d_spatial."""
    k = kernel.weights.shape[0]
    m, n = kernel.weights.shape[2], kernel.weights.shape[3]
    s, p = kernel.stride, kernel.padding
    b, _, h, w = x.shape
    ho, wo = dout.shape[2], dout.shape[3]
    cols, _ = _im2col(x, k, s, p)
    dymat = dout.transpose(0, 2, 3, 1).reshape(b * ho * wo, n)
    dw = (cols.T @ dymat).reshape(kernel.weights.shape)
    dcols = dymat @ kernel.weights.reshape(k * k * m, n).T
    dcols = dcols.reshape(b, ho, wo, k, k, m).transpose(0, 5, 1, 2, 3, 4)
    dxp = np.zeros((b, m, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += dcols[:, :, :, :, ki, kj]
    dx = dxp[:, :, p:p + h, p:p + w] if p else dxp
    return dx, dw


def conv2d_depthwise(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Per-channel spatial aggregation; channel count is preserved."""
    k, k2, m = kernel.weights.shape
    if k != k2:
        raise ValueError("depthwise kernels must be square")
    if x.shape[1] != m:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, kernel expects {m}")
    s, p = kernel.stride, kernel.padding
    b, _, h, w = x.shape
    ho = _out_size(h, k, s, p)
    wo = _out_size(w, k, s, p)
    xp = _pad(x, p)
    y = np.zeros((b, m, ho, wo), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            tap = kernel.weights[ki, kj].reshape(1, m, 1, 1)
            y += tap * xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
    return y


def conv2d_depthwise_backward(dout: np.ndarray, x: np.ndarray, kernel: ConvKernel):
    """Gradients (dx, dweights) of conv2d_depthwise."""
    k, _, m = kernel.weights.shape
    s, p = kernel.stride, kernel.padding
    b, _, h, w = x.shape
    ho, wo = dout.shape[2], dout.shape[3]
    xp = _pad(x, p)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(kernel.weights)
    for ki in range(k):
        for kj in range(k):
            window = xp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s]
            dw[ki, kj] = np.sum(window * dout, axis=(0, 2, 3))
            dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += \
                kernel.weights[ki, kj].reshape(1, m, 1, 1) * dout
    dx = dxp[:, :, p:p + h, p:p + w] if p else dxp
    return dx, dw


def conv2d_pointwise(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """1x1 convolution mixing channels; stride s keeps positions with k,l = 0 mod s."""
    w = kernel.weights
    if w.ndim != 2:
        raise ValueError("pointwise kernels are (in_channels, out_channels) matrices")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, kernel expects {w.shape[0]}")
    s = kernel.stride
    xs = x[:, :, ::s, ::s]
    b, c, ho, wo = xs.shape
    y = np.matmul(w.T, xs.reshape(b, c, ho * wo))   # (n, c) @ (b, c, p) -> (b, n, p)
    return y.reshape(b, w.shape[1], ho, wo)


def conv2d_pointwise_backward(dout: np.ndarray, x: np.ndarray, kernel: ConvKernel):
    """Gradients (dx, dweights) of conv2d_pointwise."""
    s = kernel.stride
    xs = x[:, :, ::s, ::s]
    b, c, ho, wo = xs.shape
    n = kernel.weights.shape[1]
    xr = xs.reshape(b, c, ho * wo)
    dr = dout.reshape(b, n, ho * wo)
    dw = np.matmul(xr, dr.transpose(0, 2, 1)).sum(axis=0)
    dxs = np.matmul(kernel.weights, dr).reshape(b, c, ho, wo)
    if s == 1:
        return dxs, dw
    dx = np.zeros_like(x)
    dx[:, :, ::s, ::s] = dxs
    return dx, dw


def batchnorm_forward(x: np.ndarray, state: BatchNormState, mode: str = "train"):
    """Normalize per channel. Returns (y, cache); train mode updates running stats.

    Train-mode normalization uses biased batch statistics over (batch, row,
    col); eval mode uses the running statistics and leaves them untouched.
    """
    if x.shape[1] != state.gamma.shape[0]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"batch norm expects {state.gamma.shape[0]}")
    if mode == "train":
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + state.epsilon)
        m = state.momentum
        state.running_mean[:] = m * state.running_mean + (1 - m) * mean
        state.running_var[:] = m * state.running_var + (1 - m) * var
    elif mode == "eval":
        mean = state.running_mean.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
    else:
        raise ValueError(f"unknown batch norm mode {mode!r}")
    mean = mean.astype(x.dtype, copy=False)
    inv_std = inv_std.astype(x.dtype, copy=False)
    scale = state.gamma * inv_std
    offset = state.beta - scale * mean
    y = x * scale.reshape(1, -1, 1, 1)
    y += offset.reshape(1, -1, 1, 1)
    return y, (mode, x, mean, inv_std, state)


def batchnorm_backward(dout: np.ndarray, cache):
    """Gradients (dx, dgamma, dbeta) of batchnorm_forward."""
    mode, x, mean, inv_std, state = cache
    dbeta = np.sum(dout, axis=(0, 2, 3))
    sum_dx_x = np.einsum("bchw,bchw->c", dout, x)
    dgamma = (sum_dx_x - mean * dbeta) * inv_std
    scale = state.gamma * inv_std
    if mode == "eval":
        return dout * scale.reshape(1, -1, 1, 1), dgamma, dbeta
    # dx = A*dout + B*x + C with per-channel coefficients (the usual
    # batch-stat chain rule rearranged into one affine pass)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    coef_a = scale
    coef_b = -scale * inv_std * dgamma / n
    coef_c = -coef_a * dbeta / n - coef_b * mean
    dx = dout * coef_a.reshape(1, -1, 1, 1)
    dx += x * coef_b.reshape(1, -1, 1, 1)
    dx += coef_c.reshape(1, -1, 1, 1)
    return dx.astype(x.dtype, copy=False), dgamma, dbeta


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dout * (x > 0)


def avgpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling with stride 2; spatial dims must be even."""
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avgpool2x2 needs even spatial dims, got {h}x{w}")
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avgpool2x2_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    dx = np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) * x.dtype.type(0.25)
    return dx.astype(x.dtype, copy=False)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    """Mean over all spatial positions; returns (batch, channels)."""
    return x.mean(axis=(2, 3))


def global_avgpool_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    return (dout / (h * w)).reshape(b, c, 1, 1) * np.ones_like(x)


def fc_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fully-connected layer on (batch, features) input: y = x @ W + b."""
    if x.shape[1] != weight.shape[0]:
        raise ValueError(f"feature mismatch: input has {x.shape[1]}, "
                         f"weight expects {weight.shape[0]}")
    return x @ weight + bias


def fc_backward(dout: np.ndarray, x: np.ndarray, weight: np.ndarray):
    """Gradients (dx, dweight, dbias) of fc_forward."""
    return dout @ weight.T, x.T @ dout, dout.sum(axis=0)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over the batch. Returns (loss, probs)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(logits.dtype).tiny
    loss = -np.mean(np.log(probs[np.arange(n), labels] + eps))
    return float(loss), probs


def softmax_xent_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    n = probs.shape[0]
    d = probs.copy()
    d[np.arange(n), labels] -= 1.0
    return d / n

