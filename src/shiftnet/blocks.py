"""Trainable layers and composite blocks.

Every layer speaks one protocol: forward(x, mode), backward(dout), params(),
state_arrays() and cost_entries(name, in_shape).

* Atomic layers (`Conv`, shift, batch norm, ReLU, pools, linear) subclass
  `Layer`. Each declares only its own parameters (`param_names`), at most
  one cost entry, and its math: `run(x, mode) -> (y, saved)` and
  `grad(dout, saved) -> dx`. `Layer` owns the only `forward`/`backward`:
  it keeps `saved` in its `_saved` slot after a train-mode forward only,
  and `backward` takes the slot and clears it. An eval forward writes no
  attribute, so an eval activation is freed once the next layer has read
  it, and during backward memory falls as the walk moves toward the stem.
  `Conv` is the one convolution layer: k = 1 is the 1x1. A cost entry
  names only the layer's kind and shape; `accounting` alone turns that
  into parameter and MAC counts.
* Composites (`StemConv`, the blocks, and `nets.Network` over its layer
  list) subclass `Composite` and list their children in order: children
  order is forward order. The generic walk then supplies params, state and
  cost entries (named `<child>.<name>`, in children order) and runs forward
  through the children and backward through them reversed. Children are
  plain attributes, so instrumentation can find and wrap them.
* The residual blocks (`CscBlock`, `BasicBlock`) subclass `Residual`, which
  owns the one residual pass: the children are the main path and a
  parameter-free shortcut joins its output. A block declares its children
  and two fields derived from its shape, `shortcut` and `concat`.
* In-place writes: a ReLU overwrites its input, the fresh output of a batch
  norm, a folded eval convolution or a shift that nothing else reads (BN's
  backward uses BN's input), and its dout, fresh from the next layer's
  backward. Blocks add the shortcut into the main path's fresh output and
  gradient. So blocks and `Network` never write to their `x` or `dout`; the
  stem, ending in a ReLU, overwrites its dout.

The composites are the shift-based conv-shift-conv module (optionally with a
leading extra shift for a wider receptive field) and the plain two-conv
residual block used as the baseline it replaces.

Every shortcut follows the one rule in `Residual`; at stride 1 it is
`main += x`. Stride-2 conv-shift-conv blocks select:

* "add": the main path emits the full output width (intermediate channels =
  round(expansion * out_channels)) and is summed with the pooled shortcut,
  doubled to out = 2 * in. Used by the CIFAR-style residual family.
* "concat": the main path emits out - in channels (intermediate channels =
  round(expansion * in_channels)) and is concatenated after the pooled
  shortcut. Used by the larger shift-network family.

A stride-2 `BasicBlock` whose width does not double pools and zero-pads (or
only pools, at out == in); a stride-2 `CscBlock` that keeps its width runs
the main path alone.
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


def run_layers(layers, x, mode):
    """Forward x through (name, layer) pairs in order; in eval a `Conv` runs
    with the `BatchNorm` right after it folded in (`Conv.forward`'s `bn`)."""
    layers, i = [layer for _, layer in layers] + [None], 0
    while layers[i] is not None:
        layer, bn = layers[i], layers[i + 1]
        fold = mode == "eval" and isinstance(layer, Conv) and isinstance(bn, BatchNorm)
        x = layer.forward(x, mode, bn) if fold else layer.forward(x, mode)
        i += 1 + fold
    return x


class Layer:
    """Atomic layer: its parameters, at most one cost entry, and `run`/`grad`.

    Only a train forward fills `_saved`; `backward` takes it and clears it.
    """

    param_names: tuple[str, ...] = ()
    _saved = None

    def forward(self, x, mode):
        y, saved = self.run(x, mode)
        if mode == "train":
            self._saved = saved
        return y

    def backward(self, dout):
        saved, self._saved = self._saved, None
        return self.grad(dout, saved)

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
    the path does not cover (the residual shortcut, output shape overrides).
    """

    child_names: tuple[str, ...] = ()

    def children(self):
        return [(c, getattr(self, c)) for c in self.child_names]

    def forward(self, x, mode):
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

    Every kernel size runs `ops.conv2d`. At k = 1 this is the 1x1
    ("pointwise") channel mix, its weight the (in, out) matrix and its stride
    a subsampling of output positions; at k > 1 the weight is (k, k, in, out).
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
        else:
            self.kind = "conv"
            shape = (kernel_size, kernel_size, in_channels, out_channels)
        fan_in = kernel_size * kernel_size * in_channels
        self.weight = Param(he_normal(shape, fan_in, seed, dtype))

    def _kernel(self) -> ConvKernel:
        return ConvKernel(self.weight.value, self.stride, self.padding)

    def forward(self, x, mode, bn=None):
        """Eval only, with `bn`: this convolution and that batch norm as one product."""
        if bn is None:
            return super().forward(x, mode)
        return ops.conv2d(x, self._kernel(), ops.batchnorm_affine(bn.state, x.dtype))

    def run(self, x, mode):
        return ops.conv2d(x, self._kernel()), x

    def grad(self, dout, x):
        dx, dw = ops.conv2d_backward(dout, x, self._kernel())
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
    """Parameter-free channel-wise translation; a train forward saves the input plane."""

    kind = "shift"

    def __init__(self, spec: ShiftSpec, stride: int = 1):
        self.spec = spec
        self.stride = stride

    def run(self, x, mode):
        return shift_forward(x, self.spec, self.stride), x.shape[2:]

    def grad(self, dout, plane):
        return shift_backward(dout, self.spec, self.stride, plane)

    def cost_entries(self, name, in_shape):
        c, h, w = in_shape      # the entry is sized at the input plane
        note = ""
        if c < self.spec.kernel_size ** 2:
            note = "fewer channels than window positions; some shift groups empty"
        entry = LayerCost(name, "shift", c, c, h, self.spec.kernel_size, note)
        ho, wo = (ops.out_size(d, 1, self.stride, 0) for d in (h, w))
        return [entry], (c, ho, wo)


class BatchNorm(Layer):
    """Per-channel batch normalization with learnable affine terms."""

    kind = "bn"
    param_names = ("gamma", "beta")

    def __init__(self, channels, dtype=REAL):
        self.channels = channels
        self.state = BatchNormState.create(channels, dtype)
        self.gamma = Param(self.state.gamma)
        self.beta = Param(self.state.beta)

    def run(self, x, mode):
        return ops.batchnorm_forward(x, self.state, mode)

    def grad(self, dout, cache):
        dx, dgamma, dbeta = ops.batchnorm_backward(dout, cache)
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
    """In-place rectifier; a train forward saves its output (> 0 where x was)."""

    kind = "relu"

    def run(self, x, mode):
        y = ops.relu(x, out=x)
        return y, y

    def grad(self, dout, y):
        return ops.relu_backward(dout, y, out=dout)


class GlobalAvgPool(Layer):
    """Global spatial mean; flattens (b, c, h, w) to (b, c)."""

    kind = "pool"

    def run(self, x, mode):
        return ops.global_avgpool(x), x

    def grad(self, dout, x):
        return ops.global_avgpool_backward(dout, x)

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

    def run(self, x, mode):
        return ops.fc_forward(x, self.weight.value, self.bias.value), x

    def grad(self, dout, x):
        dx, dw, db = ops.fc_backward(dout, x, self.weight.value)
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


class Residual(Composite):
    """Children form the main path; a parameter-free shortcut joins its output.

    The shortcut is the input, 2x2-average-pooled when the main path halved
    the plane. `shortcut` is its width: the shortcut is added into each
    input-wide slice of the first `shortcut` output channels (so 2 * in
    doubles it), and the channels past those get `+= 0`, the zero padding,
    which turns -0.0 into +0.0. With `concat` the shortcut is placed in
    front of the main path's channels instead. None runs the main path alone.
    """

    shortcut: int | None = None
    concat = False
    _saved = None
    _main = Composite.forward        # the main path's forward

    def forward(self, x, mode):
        main = self._main(x, mode)
        if self.shortcut is None:
            return main
        if mode == "train":
            self._saved = x
        s = x if main.shape[2:] == x.shape[2:] else ops.avgpool2x2(x)
        if self.concat:
            return np.concatenate([s, main], axis=1)
        c = x.shape[1]
        for i in range(0, self.shortcut, c):
            main[:, i:i + c] += s
        main[:, self.shortcut:] += 0
        return main

    def backward(self, dout):
        if self.shortcut is None:
            return super().backward(dout)
        x, self._saved = self._saved, None
        c = x.shape[1]
        d = super().backward(dout[:, c:] if self.concat else dout)
        ds = dout[:, :c]
        for i in range(c, self.shortcut, c):
            ds = ds + dout[:, i:i + c]
        d += ds if ds.shape[2:] == x.shape[2:] else ops.avgpool2x2_backward(ds, x)
        return d

    def cost_entries(self, name, in_shape):
        # the main path already strided the feature map; the shortcut is free
        entries, (k, ho, wo) = super().cost_entries(name, in_shape)
        if self.concat:
            k += in_shape[0]
        return entries, (k, ho, wo)


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


class CscBlock(Residual):
    """Conv-shift-conv module: BN-ReLU-1x1, BN-shift(stride)-ReLU-1x1, + shortcut.

    Both 1x1 convolutions are preceded by batch norm and ReLU. The shift
    carries the block's stride and writes only the positions the second 1x1
    reads, after mixing them spatially. The residual taps the raw input.

    The second ReLU runs after the shift, not before it. That is exact: the
    shift only moves values and fills vacated positions with +0, and
    relu(+0) = +0, so relu(shift(y)) equals shift(relu(y)) bit for bit; in
    backward both orders mask each gradient value with the sign of the same
    BN output value, and positions the shift pushed off the plane get a zero
    gradient either way. In this order `relu2` overwrites the shift's fresh
    output, so it and `pw2` cache the same array and batch norm's output is
    freed as soon as the shift has read it.

    The main path is `pw2` over `mix`, every child before it. Eval folds `bn2`
    into `pw1`; the shift then writes +0 where it vacates, as in declared order.
    The "sc2" variant shifts once more at the very start (child `shift0`).
    Training runs shift and pw2 unfused on purpose: the fused kernel measured
    slower (see `shift.fused_shift_pointwise`).
    """

    def __init__(self, cfg: CscConfig, seeds: SeedStream, dtype=REAL):
        self.cfg = cfg
        mid = cfg.mid_channels
        self.spec = make_shift_spec(mid, cfg.kernel_size, cfg.dilation,
                                    cfg.permutation_id)
        self.child_names = ("bn1", "relu1", "pw1", "bn2", "shift", "relu2", "pw2")
        if cfg.variant == "sc2":
            self.shift0 = Shift(make_shift_spec(cfg.in_channels, cfg.kernel_size,
                                                cfg.dilation, cfg.permutation_id))
            self.child_names = ("shift0",) + self.child_names
        self.bn1 = BatchNorm(cfg.in_channels, dtype)
        self.relu1 = ReLU()
        self.pw1 = Conv(cfg.in_channels, mid, 1, 1, seeds.next(), dtype)
        self.bn2 = BatchNorm(mid, dtype)
        self.shift = Shift(self.spec, cfg.stride)
        self.relu2 = ReLU()
        doubles = cfg.out_channels == 2 * cfg.in_channels
        self.concat = cfg.stride == 2 and cfg.downsample == "concat" and doubles
        self.pw2 = Conv(mid, cfg.out_channels - self.concat * cfg.in_channels, 1, 1,
                        seeds.next(), dtype)
        if cfg.stride == 1 or doubles:
            self.shortcut = cfg.in_channels if self.concat else cfg.out_channels

    def mix(self, x, mode):
        """Every child before `pw2`, the last: the post-shift tensor `pw2` reads."""
        return run_layers(self.children()[:-1], x, mode)

    def _main(self, x, mode):
        return self.pw2.forward(self.mix(x, mode), mode)


class BasicBlock(Residual):
    """Two 3x3 convolutions with batch norm and ReLU, plus a residual connection.

    mid_channels narrows the first convolution for the module-wise reduction
    baseline. The stride-2 shortcut is pooled, and doubled when out == 2*in,
    otherwise zero-padded up to the output width (reduced nets round widths
    so exact doubling is not guaranteed).
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
        self.shortcut = out_channels if out_channels == 2 * in_channels \
            else in_channels
