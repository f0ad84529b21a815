"""The train path against the formulations it replaced, bit for bit.

Each oracle below is an earlier, plainer formulation of a train-path kernel.
The kernels in `ops`, `shift` and `pipeline` now move less memory, but they
must round exactly as these do: checkpoints, losses and the acceptance lines
depend on it (criterion 8a's loss ratio moves with the summation order of
the train path). So every train-path comparison here is `array_equal`,
never a tolerance (eval, below, is the one exception). The convolution
cases use the layer shapes the builders train.

One convolution op serves every kernel size. Its forward and `dx` oracles
are the earlier row-major im2col product; its weight gradient adds one
product per image in image order, and the oracle is that loop written out.
The 1x1 oracle is the separate 1x1 op it replaced: a product with the
strided input, a per-image `dw`, and `dx` scattered into zeros.

A shift's backward scatters each group back to its source positions; the
oracle is the backward it replaced, a forward over a second, negated spec.

The CIFAR reader reads each file into the split's one array and the writer
works a chunk of records at a time; the oracles read whole files and
concatenate, and write the whole split with `tobytes`.
The standardization statistics sum exact float32 parts of each plane; the
oracle takes float64 moments of the whole set.

Train batch norm takes its statistics from per-(image, channel) row sums;
the oracle sums each plane on its own and adds the rows up one image at a
time in float64, each row centred on its own mean.

The aliasing tests pin the in-place rule of `blocks`: layers may overwrite
arrays they own, but no block and no network writes to its `x` or `dout`.

A conv-shift-conv block runs its second ReLU after the shift; the oracle is
the same block with the ReLU before the shift, the order it replaced.

Both residual blocks share one `blocks.Residual` pass; the oracles are the
blocks' earlier hand-written passes, one per block class, run over the same
children. In train they must match bit for bit.

Eval is the one exception to bit-identity: it folds each batch norm into the
convolution before it, which rounds differently from the two passes. So an
eval forward is compared with the declared, unfused child walk of a float64
copy of the same block, within `EVAL_RTOL` of the largest output (or of 1),
on every block of the compat builders, on single strided blocks and on the
residual cases, with batch norms that send 0 elsewhere. The positions a
shift vacates must still read exactly +0 in what the second 1x1 reads.
"""

import os

import numpy as np
import pytest

from shiftnet import ops
from shiftnet.blocks import BasicBlock, Composite, CscBlock, CscConfig, SeedStream
from shiftnet.nets import build_resnet, build_shiftresnet, rebuild, reduce_resnet
from shiftnet.ops import BatchNormState, ConvKernel
from shiftnet.pipeline import _standardize_stats, load_cifar10, write_cifar10_batches
from shiftnet.shift import (ShiftSpec, make_shift_spec,
                            shift_backward, shift_forward)
from test_compat import BUILDERS


def avgpool_oracle(x):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avgpool_backward_oracle(dout, x):
    dx = np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) * x.dtype.type(0.25)
    return dx.astype(x.dtype, copy=False)


def im2col_oracle(x, k, stride, padding):
    b, c, h, w = x.shape
    ho = ops.out_size(h, k, stride, padding)
    wo = ops.out_size(w, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = win[:, :, ::stride, ::stride].transpose(0, 2, 3, 4, 5, 1)
    return cols.reshape(b * ho * wo, k * k * c), (ho, wo)


def conv_oracle(x, kernel):
    k, _, m, n = kernel.weights.shape
    cols, (ho, wo) = im2col_oracle(x, k, kernel.stride, kernel.padding)
    y = cols @ kernel.weights.reshape(k * k * m, n)
    return y.reshape(x.shape[0], ho, wo, n).transpose(0, 3, 1, 2).copy()


def conv_backward_oracle(dout, x, kernel):
    k, _, m, n = kernel.weights.shape
    s, p = kernel.stride, kernel.padding
    b, _, h, w = x.shape
    ho, wo = dout.shape[2], dout.shape[3]
    cols, _ = im2col_oracle(x, k, s, p)
    dymat = dout.transpose(0, 2, 3, 1).reshape(b * ho * wo, n)
    # one (k*k*m, positions) @ (positions, n) product per image, added in
    # image order; OpenBLAS rounds a product by its operands' memory layout,
    # so each image's patches are a C-ordered matrix and its dout^T a view
    dw = np.zeros((k * k * m, n), dtype=x.dtype)
    for i in range(b):
        patches = np.ascontiguousarray(cols[i * ho * wo:(i + 1) * ho * wo].T)
        dw = dw + patches @ dout[i].reshape(n, ho * wo).T
    dw = dw.reshape(kernel.weights.shape)
    dcols = dymat @ kernel.weights.reshape(k * k * m, n).T
    dcols = dcols.reshape(b, ho, wo, k, k, m).transpose(0, 5, 1, 2, 3, 4)
    dxp = np.zeros((b, m, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += dcols[:, :, :, :, ki, kj]
    return (dxp[:, :, p:p + h, p:p + w] if p else dxp), dw


def pointwise_oracle(x, kernel):
    w, s = kernel.weights, kernel.stride
    xs = x[:, :, ::s, ::s]
    b, c, ho, wo = xs.shape
    return np.matmul(w.T, xs.reshape(b, c, ho * wo)).reshape(b, w.shape[1], ho, wo)


def pointwise_backward_oracle(dout, x, kernel):
    w, s = kernel.weights, kernel.stride
    xs = x[:, :, ::s, ::s]
    b, c, ho, wo = xs.shape
    xr = xs.reshape(b, c, ho * wo)
    dr = dout.reshape(b, w.shape[1], ho * wo)
    dw = np.zeros(w.shape, dtype=x.dtype)
    for i in range(b):
        dw = dw + xr[i] @ dr[i].T
    dx = np.zeros_like(x)
    dx[:, :, ::s, ::s] = np.matmul(w, dr).reshape(b, c, ho, wo)
    return dx, dw


def batchnorm_train_oracle(x, state):
    b, c, h, w = x.shape
    n = h * w
    s, q = np.zeros((b, c)), np.zeros((b, c))
    for i in range(b):
        for ch in range(c):
            row = x[i, ch].ravel()
            s[i, ch] = np.einsum("j->", row)
            q[i, ch] = np.einsum("j,j->", row, row)
    row_mean = s / n
    total = np.zeros(c)
    for i in range(b):
        total = total + row_mean[i]
    mean = total / b
    within, between = np.zeros(c), np.zeros(c)
    for i in range(b):
        within = within + (q[i] - s[i] * row_mean[i])
        between = between + np.square(row_mean[i] - mean)
    var = (within + n * between) / (n * b)
    inv_std = (1.0 / np.sqrt(var + state.epsilon)).astype(x.dtype)
    mean = mean.astype(x.dtype)
    scale = state.gamma * inv_std
    y = x * scale.reshape(1, -1, 1, 1)
    y += (state.beta - scale * mean).reshape(1, -1, 1, 1)
    m = state.momentum
    running_var = m * state.running_var + (1 - m) * var
    return y, mean, inv_std, running_var


def shift_oracle(x, spec):
    _, _, h, w = x.shape
    out = np.zeros_like(x)
    for (dy, dx), chans in spec.groups:
        r0, r1 = max(0, -dy), min(h, h - dy)
        c0, c1 = max(0, -dx), min(w, w - dx)
        if r0 < r1 and c0 < c1:
            out[:, chans, r0:r1, c0:c1] = x[:, chans, r0 + dy:r1 + dy, c0 + dx:c1 + dx]
    return out


def negated_spec_oracle(spec):
    """The backward's old spec: every displacement negated, rebuilt per call."""
    return ShiftSpec(spec.channels, spec.kernel_size, spec.dilation,
                     spec.permutation_id,
                     tuple((-dy, -dx) for dy, dx in spec.displacements))


def stats_oracle(images_u8):
    scaled = images_u8.astype(np.float64) / 255.0
    std = np.maximum(scaled.std(axis=(0, 2, 3)), 1e-8)
    return scaled.mean(axis=(0, 2, 3)).astype(np.float32), std.astype(np.float32)


def read_records_oracle(path):
    with open(path, "rb") as f:
        raw = f.read()
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3073)
    return buf[:, 1:].reshape(-1, 3, 32, 32), buf[:, 0].astype(np.int64)


def load_cifar10_oracle(directory):
    names = sorted(f for f in os.listdir(directory) if f.startswith("data_batch"))
    parts = [read_records_oracle(os.path.join(directory, f)) for f in names]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    test = read_records_oracle(os.path.join(directory, "test_batch.bin"))
    return (images, labels), test, stats_oracle(images)


def write_cifar10_oracle(directory, images_u8, labels, test_fraction=0.2):
    os.makedirs(directory, exist_ok=True)
    n = len(labels)
    n_test = max(1, int(n * test_fraction))
    for fname, sl in {"data_batch_1.bin": slice(0, n - n_test),
                      "test_batch.bin": slice(n - n_test, n)}.items():
        rec = np.empty((len(labels[sl]), 3073), dtype=np.uint8)
        rec[:, 0] = labels[sl]
        rec[:, 1:] = images_u8[sl].reshape(len(labels[sl]), -1)
        with open(os.path.join(directory, fname), "wb") as f:
            f.write(rec.tobytes())


def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


class TestAgainstOracles:
    @pytest.mark.parametrize("shape", [(32, 16, 32, 32), (32, 64, 8, 8), (3, 6, 4, 4)])
    def test_avgpool(self, shape):
        rng = np.random.default_rng(1)
        x = _f32(rng, *shape)
        y = ops.avgpool2x2(x)
        assert y.dtype == x.dtype and np.array_equal(y, avgpool_oracle(x))
        dout = _f32(rng, *y.shape)
        assert np.array_equal(ops.avgpool2x2_backward(dout, x),
                              avgpool_backward_oracle(dout, x))

    # the stem (3x3/s1), a strided resnet conv (3x3/s2), a shiftnet stem (7x7/s2)
    @pytest.mark.parametrize("m,n,k,stride,side", [(3, 16, 3, 1, 32), (16, 32, 3, 2, 32),
                                                   (3, 32, 7, 2, 32)])
    def test_conv2d_spatial(self, m, n, k, stride, side):
        rng = np.random.default_rng(m * n + k)
        x = _f32(rng, 32, m, side, side)
        kernel = ConvKernel(_f32(rng, k, k, m, n), stride, k // 2)
        y = ops.conv2d(x, kernel)
        assert np.array_equal(y, conv_oracle(x, kernel))
        dout = _f32(rng, *y.shape)
        dx, dw = ops.conv2d_backward(dout, x, kernel)
        want_dx, want_dw = conv_backward_oracle(dout, x, kernel)
        assert np.array_equal(dx, want_dx)
        assert np.array_equal(dw, want_dw)

    # the 1x1s of shiftresnet20-1 and -3, and a strided one
    @pytest.mark.parametrize("m,n,stride,side", [(16, 16, 1, 32), (48, 48, 1, 32),
                                                 (64, 64, 1, 8), (16, 32, 2, 32)])
    def test_conv2d_pointwise(self, m, n, stride, side):
        rng = np.random.default_rng(m * n + stride)
        x = _f32(rng, 32, m, side, side)
        kernel = ConvKernel(_f32(rng, m, n), stride)
        y = ops.conv2d(x, kernel)
        assert np.array_equal(y, pointwise_oracle(x, kernel))
        dout = _f32(rng, *y.shape)
        dx, dw = ops.conv2d_backward(dout, x, kernel)
        want_dx, want_dw = pointwise_backward_oracle(dout, x, kernel)
        assert np.array_equal(dx, want_dx)
        assert np.array_equal(dw, want_dw)

    @pytest.mark.parametrize("shape", [(32, 16, 32, 32), (32, 64, 8, 8)])
    def test_batchnorm_train(self, shape):
        rng = np.random.default_rng(2)
        x = _f32(rng, *shape) * 3 + 1
        state = BatchNormState.create(shape[1])
        state.gamma[:] = rng.uniform(0.5, 2.0, shape[1])
        want_y, want_mean, want_inv_std, want_running_var = \
            batchnorm_train_oracle(x, state)
        y, cache = ops.batchnorm_forward(x, state, "train")
        _, mean, inv_std, _, _ = cache
        assert np.array_equal(y, want_y)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(inv_std, want_inv_std)       # var, through 1/sqrt
        ops.batchnorm_backward(np.ones_like(x), cache)
        assert np.array_equal(state.running_var, want_running_var.astype(np.float32))

    @pytest.mark.parametrize("channels,kernel,dilation,perm,side", [
        (18, 3, 2, 0, 8),      # dilation 2
        (20, 3, 1, 5, 6),      # permuted spec: groups are index arrays
        (25, 5, 2, 3, 3),      # displacements past the plane: whole groups vacate
    ])
    def test_shift_forward(self, channels, kernel, dilation, perm, side):
        rng = np.random.default_rng(channels)
        spec = make_shift_spec(channels, kernel, dilation, perm)
        x = _f32(rng, 4, channels, side, side)
        assert np.array_equal(shift_forward(x, spec), shift_oracle(x, spec))
        dout = _f32(rng, 4, channels, side, side)
        assert np.array_equal(shift_backward(dout, spec),
                              shift_forward(dout, negated_spec_oracle(spec)))

    def test_standardize_stats(self):
        rng = np.random.default_rng(3)
        sets = [rng.integers(0, 256, size=(2500, 3, 8, 8), dtype=np.uint8)]  # 40 blocks
        for _ in range(200):
            n, c, h = rng.integers(1, 40), rng.integers(1, 5), rng.integers(1, 9)
            lo = rng.integers(0, 256)
            hi = rng.integers(lo, 256) + 1
            sets.append(rng.integers(lo, hi, size=(n, c, h, h), dtype=np.uint8))
        full = np.full((70, 3, 32, 32), 255, dtype=np.uint8)  # each part: sum(x^2) = 16,646,400
        near = full.copy()
        near[:, :, 0, 0] = 254     # odd part sums: a 512-value part would round them
        records = rng.integers(0, 256, size=(100, 3073), dtype=np.uint8)
        sets += [full, near, np.full((70, 3, 17, 17), 255, dtype=np.uint8),
                 rng.integers(0, 256, size=(70, 3, 17, 17), dtype=np.uint8),
                 rng.integers(0, 256, size=(130, 3, 1, 1), dtype=np.uint8),
                 records[:, 1:].reshape(-1, 3, 32, 32)]    # the loader's strided view
        for images in sets:
            mean, std = _standardize_stats(images)
            want_mean, want_std = stats_oracle(images)
            assert mean.dtype == std.dtype == np.float32
            assert np.array_equal(mean, want_mean) and np.array_equal(std, want_std)


    # 2,600 records: the train file spans 3 read chunks, the last one partial
    @pytest.mark.parametrize("n,fraction", [(2600, 0.2), (7, 0.3), (30, 0.5)])
    def test_cifar_write_and_load(self, tmp_path, n, fraction):
        rng = np.random.default_rng(n)
        images = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n)
        old, new = str(tmp_path / "old"), str(tmp_path / "new")
        write_cifar10_oracle(old, images, labels, fraction)
        write_cifar10_batches(new, images, labels, fraction)
        for fname in ("data_batch_1.bin", "test_batch.bin"):
            with open(os.path.join(old, fname), "rb") as a, \
                    open(os.path.join(new, fname), "rb") as b:
                assert a.read() == b.read(), fname
        (images, labels), (ti, tl), (mean, std) = load_cifar10_oracle(old)
        train, test = load_cifar10(new)
        for got, want in ((train.images, images), (train.labels, labels),
                          (test.images, ti), (test.labels, tl),
                          (train.mean, mean), (train.std, std),
                          (test.mean, mean), (test.std, std)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


BLOCKS = {
    "csc_s1": lambda: CscBlock(CscConfig(4, 4, 2.0), SeedStream(1)),
    "csc_s2_add": lambda: CscBlock(CscConfig(4, 8, 2.0, stride=2), SeedStream(1)),
    "csc_s2_concat": lambda: CscBlock(CscConfig(4, 8, 2.0, stride=2, downsample="concat"),
                                      SeedStream(1)),
    "csc_s2_main_only": lambda: CscBlock(CscConfig(4, 4, 2.0, stride=2), SeedStream(1)),
    "sc2_s1": lambda: CscBlock(CscConfig(4, 4, 2.0, variant="sc2"), SeedStream(1)),
    "basic_s1": lambda: BasicBlock(4, 4, 1, SeedStream(2)),
    "basic_s2_double": lambda: BasicBlock(4, 8, 2, SeedStream(2)),
    "basic_s2_zero_pad": lambda: BasicBlock(4, 6, 2, SeedStream(2)),
    "basic_s2_zero_pad_odd": lambda: BasicBlock(4, 7, 2, SeedStream(2), mid_channels=3),
    "basic_s2_same_width": lambda: BasicBlock(4, 4, 2, SeedStream(2)),
}
NETS = {
    "shiftresnet20-1": lambda: build_shiftresnet(20, 1, seed=1),
    "resnet20": lambda: build_resnet(20, seed=1),
    "reduced-net-wise": lambda: reduce_resnet(20, 100000, "net_wise", seed=1),
}


def _assert_leaves_inputs_alone(layer, x):
    rng = np.random.default_rng(6)
    x_before = x.copy()
    y = layer.forward(x, "train")
    assert np.array_equal(x, x_before), "forward wrote to its input"
    dout = rng.normal(size=y.shape).astype(np.float32)
    dout_before = dout.copy()
    layer.backward(dout)
    assert np.array_equal(dout, dout_before), "backward wrote to its dout"


def relu_before_shift(block):
    """The block with its children in the old BN-ReLU-shift-1x1 order."""
    names = list(block.child_names)
    i = names.index("shift")
    assert names[i - 1:i + 2] == ["bn2", "shift", "relu2"]
    names[i:i + 2] = ["relu2", "shift"]
    block.child_names = tuple(names)
    return block


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


# every block shifts: 18 intermediate channels give 2 per direction
CSC_ORDER_CASES = {
    "csc_s1": CscConfig(12, 12, 1.5),
    "csc_dilation_2": CscConfig(12, 12, 1.5, dilation=2),
    "csc_permutation_3": CscConfig(12, 12, 1.5, permutation_id=3),
    "sc2_s1": CscConfig(12, 12, 1.5, variant="sc2"),
    "csc_s2_add": CscConfig(12, 24, 0.75, stride=2),
    "csc_s2_concat": CscConfig(12, 24, 1.5, stride=2, downsample="concat"),
    "csc_s2_main_only": CscConfig(12, 12, 1.5, stride=2),
}


class TestReluAfterShift:
    @pytest.mark.parametrize("name", CSC_ORDER_CASES)
    def test_block_matches_relu_before_shift(self, name):
        cfg = CSC_ORDER_CASES[name]
        new = CscBlock(cfg, SeedStream(7))
        old = relu_before_shift(CscBlock(cfg, SeedStream(7)))
        rng = np.random.default_rng(8)
        for step in range(2):               # the second step sees trained BN stats
            x = _f32(rng, 4, 12, 6, 6)
            y = new.forward(x, "train")
            assert _bits(y) == _bits(old.forward(x, "train")), step
            dout = _f32(rng, *y.shape)
            assert _bits(new.backward(dout)) == _bits(old.backward(dout)), step
            for (pname, p), (_, q) in zip(new.params(), old.params()):
                assert _bits(p.grad) == _bits(q.grad), (step, pname)
        x = _f32(rng, 4, 12, 6, 6)
        assert _bits(new.forward(x, "eval")) == _bits(old.forward(x, "eval"))
        for (sname, a), (_, b) in zip(new.state_arrays(), old.state_arrays()):
            assert _bits(a) == _bits(b), sname


def _doubled_pool(x):
    p = ops.avgpool2x2(x)
    return np.concatenate([p, p], axis=1)


def _doubled_pool_backward(dout, x):
    c = x.shape[1]
    return ops.avgpool2x2_backward(dout[:, :c] + dout[:, c:], x)


def _has_shortcut(cfg):
    return cfg.stride == 1 or cfg.out_channels == 2 * cfg.in_channels


def _walk_children(block, x, mode):
    """The declared child walk, each child's own forward in `child_names`
    order; it does not go through `blocks.run_layers`."""
    for name in block.child_names:
        x = getattr(block, name).forward(x, mode)
    return x


def csc_forward_oracle(block, x, mode):
    cfg = block.cfg
    main = _walk_children(block, x, mode)
    if cfg.stride == 1:
        main += x
    elif _has_shortcut(cfg) and cfg.downsample == "add":
        main += _doubled_pool(x)
    elif _has_shortcut(cfg):
        return np.concatenate([ops.avgpool2x2(x), main], axis=1)
    return main


def csc_backward_oracle(block, dout, x):
    cfg, c = block.cfg, block.cfg.in_channels
    concat = cfg.stride == 2 and _has_shortcut(cfg) and cfg.downsample == "concat"
    d = Composite.backward(block, dout[:, c:] if concat else dout)
    if cfg.stride == 1:
        d += dout
    elif concat:
        d += ops.avgpool2x2_backward(dout[:, :c], x)
    elif _has_shortcut(cfg):
        d += _doubled_pool_backward(dout, x)
    return d


def basic_forward_oracle(block, x, mode):
    main = _walk_children(block, x, mode)
    if block.stride == 1:
        main += x
    elif block.out_channels == 2 * block.in_channels:
        main += _doubled_pool(x)
    else:
        p = ops.avgpool2x2(x)
        pad = np.zeros((p.shape[0], block.out_channels - block.in_channels)
                       + p.shape[2:], dtype=p.dtype)
        main += np.concatenate([p, pad], axis=1)
    return main


def basic_backward_oracle(block, dout, x):
    d = Composite.backward(block, dout)
    if block.stride == 1:
        d += dout
    elif block.out_channels == 2 * block.in_channels:
        d += _doubled_pool_backward(dout, x)
    else:
        d += ops.avgpool2x2_backward(dout[:, :block.in_channels], x)
    return d


# every shift holds at least 9 channels, so every direction of its 3x3 window
# moves a channel and the borders vacate; `d` is the dtype
RESIDUAL_CASES = {
    "csc_s1": lambda d=np.float32: CscBlock(CscConfig(9, 9, 2.0), SeedStream(3), d),
    "sc2_s1": lambda d=np.float32: CscBlock(CscConfig(9, 9, 2.0, variant="sc2"),
                                            SeedStream(3), d),
    "csc_s2_add": lambda d=np.float32: CscBlock(CscConfig(9, 18, 2.0, stride=2),
                                                SeedStream(3), d),
    "csc_s2_concat": lambda d=np.float32: CscBlock(
        CscConfig(9, 18, 2.0, stride=2, downsample="concat"), SeedStream(3), d),
    "csc_s2_main_only": lambda d=np.float32: CscBlock(CscConfig(9, 9, 2.0, stride=2),
                                                      SeedStream(3), d),
    "sc2_s2": lambda d=np.float32: CscBlock(CscConfig(9, 18, 1.0, stride=2, variant="sc2"),
                                            SeedStream(3), d),
    "basic_s1": lambda d=np.float32: BasicBlock(9, 9, 1, SeedStream(3), dtype=d),
    "basic_s2_double": lambda d=np.float32: BasicBlock(9, 18, 2, SeedStream(3), dtype=d),
    "basic_s2_zero_pad": lambda d=np.float32: BasicBlock(9, 13, 2, SeedStream(3),
                                                         mid_channels=5, dtype=d),
    "basic_s2_same_width": lambda d=np.float32: BasicBlock(9, 9, 2, SeedStream(3), dtype=d),
}

# float32 against float64 over one stem or block: at most 1.1e-6 in these
# tests, folded or not (the unfused walk's worst was 1.1e-6 too)
EVAL_RTOL = 1e-5


def _random_bn(net_or_block, rng):
    """Batch norms whose eval map sends 0 to a nonzero value in most channels."""
    for name, a in net_or_block.state_arrays():
        if name.endswith("running_var"):
            a[...] = rng.uniform(0.5, 2.0, size=a.shape)
        elif name.endswith(("gamma", "beta", "running_mean")):
            a[...] = rng.normal(size=a.shape)


def _widened(layer, twin):
    """`twin`, a float64 build of `layer`, given `layer`'s state."""
    for (_, a), (_, b) in zip(layer.state_arrays(), twin.state_arrays()):
        b[...] = a
    return twin


def _vacated(block, x):
    """What `block.mix` returns for `x` at the positions its shift vacates."""
    plane = np.ones((1, block.spec.channels) + x.shape[2:], dtype=x.dtype)
    empty = shift_forward(plane, block.spec, block.shift.stride) == 0
    mixed = block.mix(x, "eval")
    return mixed[np.broadcast_to(empty, mixed.shape)]


def _assert_eval_near(layer, twin, x):
    """`layer`'s eval forward of float32 `x` against the declared child walk
    of its float64 `twin`; a shift's vacated positions read exactly +0."""
    oracle = {CscBlock: csc_forward_oracle, BasicBlock: basic_forward_oracle}.get(
        type(layer), _walk_children)
    got = layer.forward(x, "eval")
    want = oracle(twin, x.astype(np.float64), "eval")
    assert got.dtype == x.dtype and got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= EVAL_RTOL * max(1.0, np.max(np.abs(want))), err
    if isinstance(layer, CscBlock):
        vacated = _vacated(layer, x)
        assert not vacated.any() and not np.signbit(vacated).any()


class TestResidualPass:
    @pytest.mark.parametrize("name", RESIDUAL_CASES)
    def test_block_matches_hand_written_pass(self, name):
        new, old = RESIDUAL_CASES[name](), RESIDUAL_CASES[name]()
        fwd, bwd = ((csc_forward_oracle, csc_backward_oracle) if isinstance(old, CscBlock)
                    else (basic_forward_oracle, basic_backward_oracle))
        rng = np.random.default_rng(9)
        for step in range(2):               # the second step sees trained BN stats
            x = _f32(rng, 4, 9, 6, 6)
            y = new.forward(x, "train")
            assert _bits(y) == _bits(fwd(old, x, "train")), step
            dout = _f32(rng, *y.shape)
            assert _bits(new.backward(dout)) == _bits(bwd(old, dout, x)), step
            for (pname, p), (_, q) in zip(new.params(), old.params()):
                assert _bits(p.grad) == _bits(q.grad), (step, pname)
        for (sname, a), (_, b) in zip(new.state_arrays(), old.state_arrays()):
            assert _bits(a) == _bits(b), sname
        _random_bn(new, rng)
        x = _f32(rng, 4, 9, 6, 6)
        _assert_eval_near(new, _widened(new, RESIDUAL_CASES[name](np.float64)), x)
        assert isinstance(new, BasicBlock) or _vacated(new, x).size   # a border vacated

    def test_zero_padding_turns_negative_zero_positive(self):
        """The channels past the shortcut get `+= 0`, which turns -0.0 into +0.0."""
        block = RESIDUAL_CASES["basic_s2_zero_pad"]()
        x = _f32(np.random.default_rng(1), 2, 9, 6, 6)
        block._main = lambda x, mode: np.full((2, 13, 3, 3), -0.0, dtype=np.float32)
        y = block.forward(x, "eval")
        assert np.array_equal(y[:, :9], ops.avgpool2x2(x))
        assert not np.signbit(y[:, 9:]).any()


# single stride-2 blocks: sides 8 and 18 with a shortcut (the pool needs an
# even side), 9 and 17 for the main path alone
STRIDED_EVAL_CASES = {
    "k5_d2_add": (CscConfig(16, 32, 2.0, kernel_size=5, dilation=2, stride=2), (8, 18)),
    "k5_d2_concat": (CscConfig(16, 32, 4.0, kernel_size=5, dilation=2, stride=2,
                               downsample="concat"), (8, 18)),
    "k5_d2_sc2": (CscConfig(16, 32, 2.0, kernel_size=5, dilation=2, stride=2,
                            variant="sc2"), (8, 18)),
    "k5_d2_main_only": (CscConfig(32, 32, 2.0, kernel_size=5, dilation=2, stride=2),
                        (9, 17)),
    "k3_main_only": (CscConfig(12, 12, 1.5, stride=2), (9, 17)),
}


class TestStridedEvalOrder:
    """Eval folds every batch norm that follows a convolution into it; the
    forward must stay near the declared child walk in float64, and a
    strided shift must still leave +0 where it vacates."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_block_of_the_builders(self, name):
        net = BUILDERS[name]()
        rng = np.random.default_rng(12)
        _random_bn(net, rng)
        twin = _widened(net, rebuild(net.config(), np.float64))
        for batch in (1, 16, 17):
            h = _f32(rng, batch, 3, 32, 32)
            for (_, layer), (_, layer64) in zip(net.layers, twin.layers):
                if isinstance(layer, Composite):
                    _assert_eval_near(layer, layer64, h)
                h = layer.forward(h, "eval")

    @pytest.mark.parametrize("name", STRIDED_EVAL_CASES)
    def test_single_strided_block(self, name):
        cfg, sides = STRIDED_EVAL_CASES[name]
        block = CscBlock(cfg, SeedStream(4))
        rng = np.random.default_rng(13)
        _random_bn(block, rng)
        twin = _widened(block, CscBlock(cfg, SeedStream(4), np.float64))
        for side in sides:
            for batch in (1, 16, 17):
                _assert_eval_near(block, twin, _f32(rng, batch, cfg.in_channels, side, side))


class TestNoWritesToInputs:
    @pytest.mark.parametrize("name", BLOCKS)
    def test_block(self, name):
        x = _f32(np.random.default_rng(4), 2, 4, 6, 6)
        _assert_leaves_inputs_alone(BLOCKS[name](), x)

    @pytest.mark.parametrize("name", NETS)
    def test_network(self, name):
        x = _f32(np.random.default_rng(5), 2, 3, 32, 32)
        _assert_leaves_inputs_alone(NETS[name](), x)
