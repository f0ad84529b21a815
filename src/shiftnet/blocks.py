"""Trainable layers and composite blocks.

Every layer speaks one protocol: forward(x, mode), backward(dout), params(),
state_arrays() and cost_entries(name, in_shape).

* Atomic layers (`Conv`, shift, batch norm, ReLU, pools, linear) subclass
  `Layer`. Each declares only its own parameters (`param_names`) and at
  most one cost entry, and caches the last forward inputs for the matching
  backward call, which follows a train-mode forward only (`nets.Network`
  runs eval in slices, after which caches hold just the last slice).
  `Conv` is the one convolution layer: k = 1 is the 1x1. A cost entry
  names only the layer's kind and shape; `accounting` alone turns that
  into parameter and MAC counts.
* Composites (`StemConv`, `CscBlock`, `BasicBlock`, and `nets.Network` over
  its layer list) subclass `Composite` and list their children in order:
  children order is forward order. The generic walk then supplies params,
  state and cost entries (named `<child>.<name>`, in children order) and
  runs forward through the children and backward through them reversed.
  Blocks add only their parameter-free shortcut on top of that path.
  Children are plain attributes, so instrumentation can find and wrap them.
* In-place writes: a ReLU overwrites its input, a batch norm's output that
  nothing else reads (BN's backward uses BN's input), and its dout, fresh
  from the next layer's backward. Blocks add the shortcut into the main
  path's fresh output and gradient. So blocks and `Network` never write to
  their `x` or `dout`; the stem, ending in a ReLU, overwrites its dout.

The composites are the shift-based conv-shift-conv module (optionally with a
leading extra shift for a wider receptive field) and the plain two-conv
residual block used as the baseline it replaces.

Downsampling (stride 2) is parameter-free on the shortcut. Two variants
exist, selected per block:

* "add": the main path emits the full output width (intermediate channels =
  round(expansion * out_channels)) and is summed with the channel-doubling
  pooled shortcut. Used by the CIFAR-style residual family.
* "concat": the main path emits out - in channels (intermediate channels =
  round(expansion * in_channels)) and is concatenated after the pooled
  shortcut. Used by the larger shift-network family.

When a stride-2 block keeps its channel count (out == in), neither shortcut
shape works and the block runs main-path only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .accounting import LayerCost
from .ops import BatchNormState, ConvKernel
from .shift import ShiftSpec, make_shift_spec, shift_backward, shift_forward
from .tensor import REAL, he_normal


def derive_seed(master: int, index: int) -> int:
    """Stable per-parameter seed from a master seed and a construction index."""
    return int(np.random.SeedSequence((master, index)).generate_state(1)[0])


class SeedStream:
    """Hands out derived seeds in construction order."""

    def __init__(self, master: int):
        self.master = int(master)
        self._i = 0

    def next(self) -> int:
        s = derive_seed(self.master, self._i)
        self._i += 1
        return s


class Param:
    """A learnable array and its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)

    @property
    def size(self) -> int:
        return self.value.size


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def downsample_combine(x: np.ndarray) -> np.ndarray:
    """Halve the spatial dims and double the channels, parameter-free.

    Concatenation of two 2x2/stride-2 average poolings of the input (both
    taken at offset (0, 0)), so every output channel pair carries the same
    pooled plane.
    """
    p = ops.avgpool2x2(x)
    return np.concatenate([p, p], axis=1)


def downsample_combine_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    c = x.shape[1]
    return ops.avgpool2x2_backward(dout[:, :c] + dout[:, c:], x)


def run_layers(layers, x, mode):
    """Forward x through (name, layer) pairs in order."""
    for _, layer in layers:
        x = layer.forward(x, mode)
    return x


class Layer:
    """Atomic layer: declares its own parameters and at most one cost entry."""

    param_names: tuple[str, ...] = ()

    def params(self):
        return [(n, getattr(self, n)) for n in self.param_names]

    def state_arrays(self):
        return [(n, p.value) for n, p in self.params()]

    def cost_entries(self, name, in_shape):
        return [], in_shape


class Composite:
    """Layer built from named children that run in `child_names` order.

    The walk below derives parameters, persisted state, cost entries and the
    sequential forward/backward from the children; subclasses add only what
    the path does not cover (residual shortcuts, output shape overrides).
    """

    child_names: tuple[str, ...] = ()

    def children(self):
        return [(c, getattr(self, c)) for c in self.child_names]

    def forward(self, x, mode="train"):
        return run_layers(self.children(), x, mode)

    def backward(self, dout):
        for _, layer in reversed(self.children()):
            dout = layer.backward(dout)
        return dout

    def params(self):
        return [(f"{c}.{n}", p) for c, layer in self.children()
                for n, p in layer.params()]

    def state_arrays(self):
        return [(f"{c}.{n}", a) for c, layer in self.children()
                for n, a in layer.state_arrays()]

    def cost_entries(self, name, in_shape):
        entries, shape = [], in_shape
        for c, layer in self.children():
            es, shape = layer.cost_entries(f"{name}.{c}" if name else c, shape)
            entries.extend(es)
        return entries, shape


class Conv(Layer):
    """k x k convolution without bias, zero-padded for same-size output at stride 1.

    The kernel size picks the op: at k = 1 this is the 1x1 ("pointwise")
    channel mix, its weight the (in, out) matrix and its stride a subsampling
    of output positions; at k > 1 the weight is (k, k, in, out).
    """

    param_names = ("weight",)

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 seed=0, dtype=REAL):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = kernel_size // 2
        if kernel_size == 1:
            self.kind, shape = "pointwise", (in_channels, out_channels)
            self._ops = (ops.conv2d_pointwise, ops.conv2d_pointwise_backward)
        else:
            self.kind = "conv"
            shape = (kernel_size, kernel_size, in_channels, out_channels)
            self._ops = (ops.conv2d_spatial, ops.conv2d_spatial_backward)
        fan_in = kernel_size * kernel_size * in_channels
        self.weight = Param(he_normal(shape, fan_in, seed, dtype))
        self._x = None

    def _kernel(self) -> ConvKernel:
        return ConvKernel(self.weight.value, self.stride, self.padding)

    def forward(self, x, mode="train"):
        self._x = x
        return self._ops[0](x, self._kernel())

    def backward(self, dout):
        dx, dw = self._ops[1](dout, self._x, self._kernel())
        self.weight.grad += dw
        return dx

    def cost_entries(self, name, in_shape):
        _, h, w = in_shape
        ho, wo = (ops.out_size(d, self.kernel_size, self.stride, self.padding)
                  for d in (h, w))
        entry = LayerCost(name, self.kind, self.in_channels, self.out_channels,
                          ho, self.kernel_size)
        return [entry], (self.out_channels, ho, wo)


class Shift(Layer):
    """Parameter-free channel-wise translation layer."""

    kind = "shift"

    def __init__(self, spec: ShiftSpec):
        self.spec = spec

    def forward(self, x, mode="train"):
        return shift_forward(x, self.spec)

    def backward(self, dout):
        return shift_backward(dout, self.spec)

    def cost_entries(self, name, in_shape):
        c, h, w = in_shape
        note = ""
        if c < self.spec.kernel_size ** 2:
            note = "fewer channels than window positions; some shift groups empty"
        entry = LayerCost(name, "shift", c, c, h, self.spec.kernel_size, note)
        return [entry], in_shape


class BatchNorm(Layer):
    """Per-channel batch normalization with learnable affine terms."""

    kind = "bn"
    param_names = ("gamma", "beta")

    def __init__(self, channels, dtype=REAL):
        self.channels = channels
        self.state = BatchNormState.create(channels, dtype)
        self.gamma = Param(self.state.gamma)
        self.beta = Param(self.state.beta)
        self._cache = None

    def forward(self, x, mode="train"):
        y, self._cache = ops.batchnorm_forward(x, self.state, mode)
        return y

    def backward(self, dout):
        dx, dgamma, dbeta = ops.batchnorm_backward(dout, self._cache)
        self.gamma.grad += dgamma
        self.beta.grad += dbeta
        return dx

    def state_arrays(self):
        s = self.state
        return [("gamma", s.gamma), ("beta", s.beta),
                ("running_mean", s.running_mean), ("running_var", s.running_var)]

    def cost_entries(self, name, in_shape):
        c, h, w = in_shape
        entry = LayerCost(name, "bn", c, c, h, 1)
        return [entry], in_shape


class ReLU(Layer):
    """In-place rectifier; `_x` holds the output, positive where the input was."""

    kind = "relu"

    def __init__(self):
        self._x = None

    def forward(self, x, mode="train"):
        self._x = ops.relu(x, out=x)
        return self._x

    def backward(self, dout):
        return ops.relu_backward(dout, self._x, out=dout)


class GlobalAvgPool(Layer):
    """Global spatial mean; flattens (b, c, h, w) to (b, c)."""

    kind = "pool"

    def __init__(self):
        self._x = None

    def forward(self, x, mode="train"):
        self._x = x
        return ops.global_avgpool(x)

    def backward(self, dout):
        return ops.global_avgpool_backward(dout, self._x)

    def cost_entries(self, name, in_shape):
        return [], (in_shape[0],)


class Linear(Layer):
    """Fully-connected head with bias."""

    kind = "fc"
    param_names = ("weight", "bias")

    def __init__(self, in_features, out_features, seed=0, dtype=REAL):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Param(he_normal((in_features, out_features), in_features,
                                      seed, dtype))
        self.bias = Param(np.zeros(out_features, dtype=dtype))
        self._x = None

    def forward(self, x, mode="train"):
        self._x = x
        return ops.fc_forward(x, self.weight.value, self.bias.value)

    def backward(self, dout):
        dx, dw, db = ops.fc_backward(dout, self._x, self.weight.value)
        self.weight.grad += dw
        self.bias.grad += db
        return dx

    def cost_entries(self, name, in_shape):
        entry = LayerCost(name, "fc", self.in_features, self.out_features, 1, 1)
        return [entry], (self.out_features,)


class StemConv(Composite):
    """Network stem: spatial convolution followed by batch norm and ReLU."""

    child_names = ("conv", "bn", "relu")

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 seed=0, dtype=REAL):
        self.conv = Conv(in_channels, out_channels, kernel_size, stride, seed,
                         dtype)
        self.bn = BatchNorm(out_channels, dtype)
        self.relu = ReLU()


@dataclass(frozen=True)
class CscConfig:
    """Shape of one conv-shift-conv block.

    expansion scales the intermediate channel count: round(expansion * C) at
    stride 1 (where in == out == C); at stride 2 the "add" downsample uses
    round(expansion * out_channels) and the "concat" downsample
    round(expansion * in_channels). variant "sc2" prepends one extra shift.
    """

    in_channels: int
    out_channels: int
    expansion: float
    kernel_size: int = 3
    dilation: int = 1
    stride: int = 1
    variant: str = "csc"         # csc | sc2
    downsample: str = "add"      # add | concat
    permutation_id: int = 0

    def __post_init__(self):
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.stride == 1 and self.in_channels != self.out_channels:
            raise ValueError("stride-1 blocks need in_channels == out_channels "
                             "for the residual addition")
        if self.stride == 2 and self.out_channels not in (self.in_channels,
                                                          2 * self.in_channels):
            raise ValueError("stride-2 blocks support out == 2*in (with shortcut) "
                             f"or out == in (main path only); got "
                             f"{self.in_channels} -> {self.out_channels}")
        if self.variant not in ("csc", "sc2"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.downsample not in ("add", "concat"):
            raise ValueError(f"unknown downsample mode {self.downsample!r}")
        if self.expansion <= 0:
            raise ValueError("expansion must be positive")

    @property
    def mid_channels(self) -> int:
        if self.stride == 1 or self.downsample == "add":
            return round_half_up(self.expansion * self.out_channels)
        return round_half_up(self.expansion * self.in_channels)

    @property
    def main_out_channels(self) -> int:
        if self.stride == 2 and self.downsample == "concat" \
                and self.out_channels == 2 * self.in_channels:
            return self.out_channels - self.in_channels
        return self.out_channels

    @property
    def has_shortcut(self) -> bool:
        return self.stride == 1 or self.out_channels == 2 * self.in_channels


class CscBlock(Composite):
    """Conv-shift-conv module: BN-ReLU-1x1, shift, BN-ReLU-1x1(stride), + shortcut.

    Both 1x1 convolutions are preceded by batch norm and ReLU; the second one
    carries the block's stride so spatial information is mixed by the shift
    before downsampling. The residual taps the raw input. The "sc2" variant
    shifts once more at the very start (child `shift0`), widening the
    receptive field. Training runs shift and pw2 unfused on purpose: the fused
    kernel measured slower (see `shift.fused_shift_pointwise`).
    """

    def __init__(self, cfg: CscConfig, seeds: SeedStream, dtype=REAL):
        self.cfg = cfg
        mid = cfg.mid_channels
        self.spec = make_shift_spec(mid, cfg.kernel_size, cfg.dilation,
                                    cfg.permutation_id)
        self.child_names = ("bn1", "relu1", "pw1", "bn2", "relu2", "shift", "pw2")
        if cfg.variant == "sc2":
            self.shift0 = Shift(make_shift_spec(cfg.in_channels, cfg.kernel_size,
                                                cfg.dilation, cfg.permutation_id))
            self.child_names = ("shift0",) + self.child_names
        self.bn1 = BatchNorm(cfg.in_channels, dtype)
        self.relu1 = ReLU()
        self.pw1 = Conv(cfg.in_channels, mid, 1, 1, seeds.next(), dtype)
        self.bn2 = BatchNorm(mid, dtype)
        self.relu2 = ReLU()
        self.shift = Shift(self.spec)
        self.pw2 = Conv(mid, cfg.main_out_channels, 1, cfg.stride,
                        seeds.next(), dtype)
        self._x = None

    def forward(self, x, mode="train"):
        cfg = self.cfg
        self._x = x
        main = super().forward(x, mode)
        if cfg.stride == 1:
            main += x
        elif cfg.has_shortcut and cfg.downsample == "add":
            main += downsample_combine(x)
        elif cfg.has_shortcut:
            return np.concatenate([ops.avgpool2x2(x), main], axis=1)
        return main

    def backward(self, dout):
        cfg, c = self.cfg, self.cfg.in_channels
        concat = cfg.stride == 2 and cfg.has_shortcut and cfg.downsample == "concat"
        d = super().backward(dout[:, c:] if concat else dout)
        if cfg.stride == 1:
            d += dout
        elif concat:
            d += ops.avgpool2x2_backward(dout[:, :c], self._x)
        elif cfg.has_shortcut:
            d += downsample_combine_backward(dout, self._x)
        return d

    def cost_entries(self, name, in_shape):
        # pw2 already strided the feature map; the shortcut costs nothing
        entries, (_, ho, wo) = super().cost_entries(name, in_shape)
        return entries, (self.cfg.out_channels, ho, wo)


class BasicBlock(Composite):
    """Two 3x3 convolutions with batch norm and ReLU, plus a residual connection.

    mid_channels narrows the first convolution for the module-wise reduction
    baseline. The stride-2 shortcut is parameter-free: pooled and channel
    doubled by duplicate concatenation when out == 2*in, otherwise pooled and
    zero-padded up to the output width (reduced nets round widths so exact
    doubling is not guaranteed).
    """

    child_names = ("conv1", "bn1", "relu1", "conv2", "bn2")

    def __init__(self, in_channels, out_channels, stride, seeds: SeedStream,
                 mid_channels=None, dtype=REAL):
        if stride == 1 and in_channels != out_channels:
            raise ValueError("stride-1 basic blocks need in == out channels")
        if stride == 2 and out_channels < in_channels:
            raise ValueError("stride-2 basic blocks cannot shrink channels")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        mid = out_channels if mid_channels is None else mid_channels
        self.mid_channels = mid
        self.conv1 = Conv(in_channels, mid, 3, stride, seeds.next(), dtype)
        self.bn1 = BatchNorm(mid, dtype)
        self.relu1 = ReLU()
        self.conv2 = Conv(mid, out_channels, 3, 1, seeds.next(), dtype)
        self.bn2 = BatchNorm(out_channels, dtype)
        self._x = None

    def _shortcut(self, x):
        if self.stride == 1:
            return x
        if self.out_channels == 2 * self.in_channels:
            return downsample_combine(x)
        p = ops.avgpool2x2(x)
        extra = self.out_channels - self.in_channels
        if extra == 0:
            return p
        pad = np.zeros((p.shape[0], extra, p.shape[2], p.shape[3]), dtype=p.dtype)
        return np.concatenate([p, pad], axis=1)

    def _shortcut_backward(self, dout, x):
        if self.stride == 1:
            return dout
        if self.out_channels == 2 * self.in_channels:
            return downsample_combine_backward(dout, x)
        return ops.avgpool2x2_backward(dout[:, :self.in_channels], x)

    def forward(self, x, mode="train"):
        self._x = x
        main = super().forward(x, mode)
        main += self._shortcut(x)
        return main

    def backward(self, dout):
        d = super().backward(dout)
        d += self._shortcut_backward(dout, self._x)
        return d
