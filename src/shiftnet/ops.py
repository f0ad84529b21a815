"""Conventional layers with explicit forward and backward passes.

One k x k convolution (the 1x1 is k = 1), depthwise convolution, batch
normalization, ReLU, average pooling, fully-connected and softmax
cross-entropy. All functions are pure in their array arguments, with two
exceptions: `batchnorm_backward` commits its train forward's batch
statistics to the BatchNormState running stats, and `relu` and
`relu_backward` write into the `out=` array, which saves an allocation when
the caller owns that array and nothing else reads it. All respect the dtype
of their inputs, so the same code path runs in float32 for training and
float64 for finite-difference checks.

Convolution kernels carry no bias: every convolution in this framework is
followed by a batch norm whose beta subsumes it, and parameter/FLOP counts
stay the bare products of the kernel dimensions. In eval that batch norm is
a fixed per-channel map, which `conv2d` takes inside its product (`affine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass
class ConvKernel:
    """Convolution weights plus stride/padding.

    weights shape is (k, k, in_channels, out_channels) for a convolution,
    (in_channels, out_channels) for its 1x1, and (k, k, channels) for
    depthwise. Kernel sides must be odd.
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
    """Per-channel affine batch norm state; `momentum` and `epsilon` are constants."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: ClassVar[float] = 0.9
    epsilon: ClassVar[float] = 1e-5

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


def out_size(size: int, k: int, stride: int, padding: int) -> int:
    """Output side of a k-wide window slid at `stride` over a padded input."""
    out = (size + 2 * padding - k) // stride + 1
    if out <= 0:
        raise ValueError(f"non-positive output size for input {size}, kernel {k}, "
                         f"stride {stride}, padding {padding}")
    return out


def _im2col(x: np.ndarray, k: int, stride: int, padding: int, ones: bool = False,
            rectify: bool = False):
    """Unfold k x k patches into (b, k*k*c, ho*wo), rows ordered (ki, kj, channel),
    plus a last row of ones if `ones`. A plain 1x1 at stride 1 is `x` reshaped.
    With `rectify` each patch copy is relu(x); eval folds it only into a 1x1."""
    b, c, h, w = x.shape
    ho = out_size(h, k, stride, padding)
    wo = out_size(w, k, stride, padding)
    if (k, stride, padding, ones, rectify) == (1, 1, 0, False, False):
        return x.reshape(b, c, h * w), (ho, wo)
    s, xp = stride, _pad(x, padding)
    cols = np.empty((b, k * k * c + ones, ho, wo), dtype=x.dtype)
    for t, (i, j) in enumerate(np.ndindex(k, k)):
        patch, dst = xp[:, :, i:i + s * ho:s, j:j + s * wo:s], cols[:, t * c:(t + 1) * c]
        relu(patch, out=dst) if rectify else np.copyto(dst, patch)
    cols[:, k * k * c:] = 1
    return cols.reshape(b, -1, ho * wo), (ho, wo)


def _side(w: np.ndarray) -> int:
    """Side k of a (k, k, in, out) weight; an (in, out) weight is the 1x1."""
    if w.ndim == 2:
        return 1
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ValueError("convolution kernels are (k, k, in, out) or (in, out) arrays")
    return w.shape[0]


def conv2d(x: np.ndarray, kernel: ConvKernel, affine=None, rectify=False) -> np.ndarray:
    """Convolution: out[b,n,k,l] = sum_{i,j,m} W[i,j,m,n] x[b,m,k*s+i-pad,l*s+j-pad].

    A 2-D (in, out) weight is the 1x1: it mixes channels, and at stride s
    keeps the positions with k, l = 0 mod s. `affine` = (scale, offset) folds
    a per-output-channel `out * scale + offset` into the one product: scaled
    weight columns, and the offsets a last weight row against a row of ones.
    `rectify` convolves relu(x), taken in `_im2col`'s copy; `x` is not written.
    """
    k, (m, n) = _side(kernel.weights), kernel.weights.shape[-2:]
    if x.shape[1] != m:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, kernel expects {m}")
    w = kernel.weights.reshape(-1, n)
    if affine is not None:
        w = np.vstack([w * affine[0], affine[1]])
    cols, (ho, wo) = _im2col(x, k, kernel.stride, kernel.padding, affine is not None, rectify)
    y = np.matmul(w.T, cols)   # (b, n, ho*wo)
    return y.reshape(x.shape[0], n, ho, wo)


def conv2d_backward(dout: np.ndarray, x: np.ndarray, kernel: ConvKernel):
    """Gradients (dx, dweights) of conv2d.

    dw is one product per image, added over the images in order, so its
    bits do not depend on how the batch is split into runs of images.
    """
    k, (m, n) = _side(kernel.weights), kernel.weights.shape[-2:]
    s, p = kernel.stride, kernel.padding
    b, _, h, w = x.shape
    ho, wo = dout.shape[2], dout.shape[3]
    cols, _ = _im2col(x, k, s, p)
    dr = dout.reshape(b, n, ho * wo)
    dw = np.matmul(cols, dr.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.weights.shape)
    dcols = np.matmul(kernel.weights.reshape(-1, n), dr)
    if (k, s, p) == (1, 1, 0):
        return dcols.reshape(x.shape), dw
    dcols = dcols.reshape(b, k, k, m, ho, wo)
    dxp = np.zeros((b, m, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += dcols[:, ki, kj]
    dx = dxp[:, :, p:p + h, p:p + w] if p else dxp
    return dx, dw


# older names of the same op, which criterion 6 of tests/test_acceptance.py imports
conv2d_spatial = conv2d_pointwise = conv2d
conv2d_spatial_backward = conv2d_pointwise_backward = conv2d_backward


def conv2d_depthwise(x: np.ndarray, kernel: ConvKernel) -> np.ndarray:
    """Per-channel spatial aggregation; channel count is preserved."""
    k, k2, m = kernel.weights.shape
    if k != k2:
        raise ValueError("depthwise kernels must be square")
    if x.shape[1] != m:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, kernel expects {m}")
    s, p = kernel.stride, kernel.padding
    b, _, h, w = x.shape
    ho = out_size(h, k, s, p)
    wo = out_size(w, k, s, p)
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


def row_sums(a: np.ndarray, b: np.ndarray):
    """Per-row sum(a) and sum(a * b) of two (rows, n) arrays.

    Each row is its own einsum sum, so its bits do not depend on the other
    rows in the call. A GEMV with ones is faster but does: OpenBLAS sums a
    remainder of under 4 rows, and each thread's share, in another order.
    """
    return np.einsum("ij->i", a), np.einsum("ij,ij->i", a, b)


def batch_moments(s: np.ndarray, q: np.ndarray, n: int):
    """Float64 per-channel mean and biased variance from per-image row sums.

    `s` and `q` are (images, channels) sums of x and x^2, each over n
    positions. Each row is centred on its own mean, and the rows combine over
    images in a fixed order (Chan, Golub & LeVeque's update at equal counts).
    """
    s, q = s.astype(np.float64), q.astype(np.float64)
    row_mean = s / n
    mean = row_mean.mean(axis=0)
    m2 = (q - s * row_mean).sum(axis=0) + n * np.square(row_mean - mean).sum(axis=0)
    return mean, m2 / (n * len(s))


def _plane(coef: np.ndarray, shape) -> np.ndarray:
    """Per-channel coefficients on a contiguous (c, h, w) plane, which numpy streams
    faster than a (1, c, 1, 1) broadcast, to the same products."""
    return np.repeat(coef, shape[2] * shape[3]).reshape(shape[1:])


def batchnorm_affine(state: BatchNormState, dtype):
    """Eval batch norm as per-channel (scale, offset) in `dtype`, from the running stats."""
    mean = state.running_mean.astype(dtype)
    inv_std = (1.0 / np.sqrt(state.running_var + state.epsilon)).astype(dtype, copy=False)
    scale = state.gamma * inv_std
    return scale, state.beta - scale * mean


def batchnorm_forward(x: np.ndarray, state: BatchNormState, mode: str):
    """Normalize per channel. Returns (y, cache) and writes no argument.

    Train mode normalizes with biased batch statistics over (batch, row, col)
    and caches them; eval mode uses the running statistics (cache None).
    The statistics are `batch_moments` of each (image, channel) plane's
    `row_sums`, so any split of the batch into runs of images gives the same bits.
    """
    if x.shape[1] != state.gamma.shape[0]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"batch norm expects {state.gamma.shape[0]}")
    if mode == "train":
        b, c = x.shape[:2]
        rows = x.reshape(b * c, -1)
        s, q = row_sums(rows, rows)
        mean, var = batch_moments(s.reshape(b, c), q.reshape(b, c), rows.shape[1])
        mean = mean.astype(x.dtype)
        inv_std = (1.0 / np.sqrt(var + state.epsilon)).astype(x.dtype)
        scale = state.gamma * inv_std
        offset = state.beta - scale * mean
    elif mode == "eval":        # also what a convolution folding this batch norm applies
        scale, offset = batchnorm_affine(state, x.dtype)
    else:
        raise ValueError(f"unknown batch norm mode {mode!r}")
    y = x * _plane(scale, x.shape)
    y += _plane(offset, x.shape)
    return y, (x, mean, inv_std, var, state) if mode == "train" else None


def batchnorm_backward(dout: np.ndarray, cache):
    """Gradients (dx, dgamma, dbeta) of a train forward; commits its batch stats.

    Its sums over (batch, row, col) add per-image `row_sums` in float64.
    """
    x, mean, inv_std, var, state = cache
    m = state.momentum
    state.running_mean[:] = m * state.running_mean + (1 - m) * mean
    state.running_var[:] = m * state.running_var + (1 - m) * var
    b, c = x.shape[:2]
    dbeta, sum_dx_x = (p.reshape(b, c).sum(axis=0, dtype=np.float64) for p in
                       row_sums(dout.reshape(b * c, -1), x.reshape(b * c, -1)))
    dgamma = ((sum_dx_x - mean * dbeta) * inv_std).astype(x.dtype)
    dbeta = dbeta.astype(x.dtype)
    scale = state.gamma * inv_std
    # dx = A*dout + B*x + C with per-channel coefficients (the usual
    # batch-stat chain rule rearranged into one affine pass)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    coef_a = scale
    coef_b = -scale * inv_std * dgamma / n
    coef_c = -coef_a * dbeta / n - coef_b * mean
    dx = dout * _plane(coef_a, x.shape)
    dx += x * _plane(coef_b, x.shape)
    dx += _plane(coef_c, x.shape)
    return dx.astype(x.dtype, copy=False), dgamma, dbeta


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def relu_backward(dout: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(dout, x > 0, out=out)


def avgpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling with stride 2; spatial dims must be even."""
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avgpool2x2 needs even spatial dims, got {h}x{w}")
    # (a + b) + (c + d), the only pairing that rounds exactly as
    # x.reshape(b, c, h/2, 2, w/2, 2).mean(axis=(3, 5)) does. Summing whole
    # column pairs first is faster alone, but its half-size temporary made
    # perfbench's train process give back and re-fault its heap every step.
    out = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
    out += x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]
    out *= x.dtype.type(0.25)
    return out


def avgpool2x2_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    dx = np.empty(x.shape, dtype=x.dtype)
    quarter = dout * x.dtype.type(0.25)
    for i in (0, 1):
        for j in (0, 1):
            dx[:, :, i::2, j::2] = quarter
    return dx


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

