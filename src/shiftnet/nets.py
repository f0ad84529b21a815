"""Declarative network builders.

A network is assembled from a list of rows (type / stride / kernel /
expansion / out_channels / repeat), the same schema the plain-text config
format and checkpoints carry, so every built architecture can be dumped,
reloaded and rebuilt exactly.

Families:

* resnet{20,56,110}: CIFAR-style residual nets. A 3x3/16 stem, three groups
  of two-conv basic blocks with widths 16/32/64 (the first block of groups
  2 and 3 downsamples), global average pooling, linear head. Group size is
  (depth - 2) / 6.
* shiftresnet{20,56,110}(expansion): the same skeleton with every basic
  block replaced by a conv-shift-conv block.
* shiftnet{a,b,c}: the larger shift-network family: 7x7/s2 stem of 32
  channels, four conv-shift-conv groups, global average pooling, 1000-way
  head. Variant B halves every group width; C is the shallow 3x3 variant.
* reduce_resnet: module-wise or net-wise parameter-reduction baselines that
  shrink a plain resnet toward a parameter target.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from .accounting import count_params
from .blocks import (BasicBlock, Composite, CscBlock, CscConfig, GlobalAvgPool,
                     Linear, SeedStream, Shift, StemConv, round_half_up,
                     run_layers)
from .shift import make_shift_spec
from .tensor import REAL

VALID_DEPTHS = (20, 56, 110)

# Images per slice of an eval forward: one slice's activations stay in cache
# (sweep of 8-64 in BENCH_eval.json; README "Eval runs in slices").
EVAL_SLICE = 16


def in_slices(run, x):
    """Per-image `run` over EVAL_SLICE-image slices of `x`, concatenated."""
    return np.concatenate([run(x[i:i + EVAL_SLICE]) for i in range(0, len(x), EVAL_SLICE)])


@dataclass(frozen=True)
class ArchRow:
    """One architecture table row; `repeat` expands to that many identical blocks."""

    label: str
    type: str                 # one of ROW_TYPES (the keys of ROW_KEYS)
    out_channels: int = 0
    repeat: int = 1
    stride: int = 1
    kernel: int = 3
    expansion: float = 1.0
    dilation: int = 1
    downsample: str = "add"
    permutation_id: int = 0
    mid_channels: int | None = None

    def __post_init__(self):
        if self.type not in ROW_TYPES:
            raise ValueError(f"type must be one of {', '.join(ROW_TYPES)}; "
                             f"got {self.type!r}")
        widths = ("out_channels",) if "out_channels" in ROW_KEYS[self.type] else ()
        for key in widths + ("repeat", "mid_channels", "stride", "dilation", "permutation_id"):
            value, least = getattr(self, key), 0 if key == "permutation_id" else 1
            if value is not None and value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.downsample not in ("add", "concat"):
            raise ValueError(f"downsample must be add or concat, got {self.downsample!r}")
        if not 0 < self.expansion < float("inf"):
            raise ValueError(f"expansion must be finite and positive, "
                             f"got {self.expansion}")
        read = ROW_KEYS[self.type] + ("label", "type", "repeat")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in read and value != f.default:
                raise ValueError(f"{self.type} rows do not read {f.name}; got {value!r}")


@dataclass(frozen=True)
class NetHeader:
    """A config's `[net]` section: everything about a network but its rows."""

    name: str = "custom"
    num_classes: int = 10
    seed: int = 0
    input_channels: int = 3

    def __post_init__(self):
        for key, least in (("num_classes", 0), ("seed", 0), ("input_channels", 1)):
            value = getattr(self, key)
            if value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")


class Network(Composite):
    """An ordered stack of layers/blocks: the composite walk over `layers`.

    An eval forward runs the body (up to the last global pool) `in_slices`
    of EVAL_SLICE images and the head once; eval is per image, so the logits are
    bit-identical to one pass. Only a train-mode forward fills the caches
    that `backward` reads (an eval forward writes none), and
    `backward` drops them as it reads them. So `backward` raises RuntimeError
    unless a train-mode forward ran since the last forward or backward.
    `discard_step` drops a train forward whose backward will not run.
    """

    def __init__(self, name: str, rows: list[ArchRow], num_classes: int,
                 seed: int = 0, input_channels: int = 3, dtype=REAL):
        self.name = name
        self.rows = list(rows)
        self.num_classes = num_classes
        self.seed = seed
        self.input_channels = input_channels
        self.layers: list[tuple[str, object]] = []
        seeds = SeedStream(seed)
        width = input_channels
        counters: dict[str, int] = {}
        for i, row in enumerate(rows):
            try:       # a layer's rule may involve the previous row's width
                for _ in range(row.repeat):
                    lname, layer, width = _make_layer(row, width, num_classes,
                                                      counters, seeds, dtype)
                    self.layers.append((lname, layer))
            except ValueError as e:
                raise ValueError(f"section [row{i}]: {e}") from None
        # the body (stem, blocks, global pool) is per image; the head is not
        self._body_end = max((i + 1 for i, (_, layer) in enumerate(self.layers)
                              if isinstance(layer, GlobalAvgPool)), default=0)
        self._mode = None            # mode of the last forward; None after backward

    def children(self):
        return self.layers

    def forward(self, x, mode):
        self._mode = mode
        if mode != "eval" or not self._body_end:
            return super().forward(x, mode)
        body, head = self.layers[:self._body_end], self.layers[self._body_end:]
        h = in_slices(lambda s: run_layers(body, s, mode), x)
        return run_layers(head, h, mode)

    def backward(self, dout):
        if self._mode != "train":
            why = ("no train-mode forward is pending" if self._mode is None
                   else f"the last forward was a {self._mode!r} forward")
            raise RuntimeError(f"backward needs a train-mode forward first; {why}")
        self._mode = None            # the layers drop their caches as they go
        return super().backward(dout)

    def discard_step(self):
        """Forget the last forward: reset the mode and clear every cache slot."""
        self._mode = None
        todo = [layer for _, layer in self.layers]
        while todo:
            layer = todo.pop()
            vars(layer).pop("_saved", None)
            if isinstance(layer, Composite):
                todo.extend(child for _, child in layer.children())

    def zero_grads(self):
        for _, p in self.params():
            p.grad[...] = 0

    named_params = Composite.params
    # all persisted arrays: parameters plus batch-norm running statistics
    named_state = Composite.state_arrays

    def named_blocks(self):
        return [(lname, layer) for lname, layer in self.layers
                if isinstance(layer, (CscBlock, BasicBlock))]

    def cost_entries(self, input_size: int = 32):
        if input_size < 1:
            raise ValueError(f"input size must be at least 1, got {input_size}")
        shape = (self.input_channels, input_size, input_size)
        return super().cost_entries("", shape)[0]

    def config(self) -> dict:
        return {
            "name": self.name,
            "num_classes": self.num_classes,
            "seed": self.seed,
            "input_channels": self.input_channels,
            "rows": [_row_to_dict(r) for r in self.rows],
        }


# the keys `_make_layer` reads per row type besides label, type and repeat; ArchRow
# rejects any other key away from its default (dumps write a basic row's kernel and
# expansion, and a conv row's expansion, at their defaults)
_BLOCK_KEYS = ("out_channels", "stride", "kernel", "expansion", "dilation", "downsample",
               "permutation_id")
ROW_KEYS = {"conv": ("out_channels", "stride", "kernel"),
            "csc": _BLOCK_KEYS, "sc2": _BLOCK_KEYS,
            "basic": ("out_channels", "stride", "mid_channels"),
            "shift": ("stride", "kernel", "dilation", "permutation_id"),
            "pool": (), "fc": ()}
ROW_TYPES = tuple(ROW_KEYS)


def _make_layer(row: ArchRow, width: int, num_classes: int,
                counters: dict, seeds: SeedStream, dtype):
    if row.type == "conv":
        layer = StemConv(width, row.out_channels, row.kernel, row.stride,
                         seeds.next(), dtype)
        return row.label, layer, row.out_channels
    if row.type in ("csc", "sc2", "basic"):
        idx = counters.get(row.label, 0)
        counters[row.label] = idx + 1
        if row.type == "basic":
            layer = BasicBlock(width, row.out_channels, row.stride, seeds,
                               mid_channels=row.mid_channels, dtype=dtype)
        else:
            cfg = CscConfig(width, row.out_channels, row.expansion, row.kernel,
                            row.dilation, row.stride, variant=row.type,
                            downsample=row.downsample,
                            permutation_id=row.permutation_id)
            layer = CscBlock(cfg, seeds, dtype)
        return f"{row.label}.block{idx}", layer, row.out_channels
    if row.type == "shift":
        spec = make_shift_spec(width, row.kernel, row.dilation, row.permutation_id)
        return row.label, Shift(spec, row.stride), width
    if row.type == "pool":
        return row.label, GlobalAvgPool(), width
    if num_classes < 1:    # fc
        raise ValueError(f"an fc row needs num_classes of at least 1, got {num_classes}")
    return row.label, Linear(width, num_classes, seeds.next(), dtype), num_classes


def _group_size(depth: int) -> int:
    if depth not in VALID_DEPTHS:
        raise ValueError(f"depth must be one of {VALID_DEPTHS}, got {depth}")
    return (depth - 2) // 6


def _cifar_skeleton(depth: int, block, widths=(16, 32, 64)) -> list[ArchRow]:
    """Stem + three groups; groups 2 and 3 open with a stride-2 block.

    `block(label, width, stride, repeat)` makes one row of the group's blocks.
    """
    n = _group_size(depth)
    rows = [ArchRow("stem", "conv", widths[0], kernel=3, stride=1)]
    for g, w in enumerate(widths, start=1):
        label = f"group{g}"
        if g > 1:
            rows.append(block(label, w, 2, 1))
        rows.append(block(label, w, 1, n if g == 1 else n - 1))
    rows.append(ArchRow("pool", "pool"))
    rows.append(ArchRow("fc", "fc"))
    return rows


def _basic(label, w, stride, repeat):
    return ArchRow(label, "basic", w, repeat=repeat, stride=stride)


def build_resnet(depth: int, num_classes: int = 10, seed: int = 0,
                 dtype=REAL) -> Network:
    """Plain CIFAR residual network of the given depth."""
    return Network(f"resnet{depth}", _cifar_skeleton(depth, _basic),
                   num_classes, seed, dtype=dtype)


def build_shiftresnet(depth: int, expansion: float, num_classes: int = 10,
                      seed: int = 0, dtype=REAL) -> Network:
    """Resnet with every basic block replaced by a conv-shift-conv block (3x3 shift)."""

    def csc(label, w, stride, repeat):
        return ArchRow(label, "csc", w, repeat=repeat, stride=stride,
                       expansion=expansion)

    name = f"shiftresnet{depth}-{expansion:g}"
    return Network(name, _cifar_skeleton(depth, csc), num_classes, seed,
                   dtype=dtype)


# (kernel, ds expansion, s1 expansion, out_channels, s1 repeat) per group
_SHIFTNET_A_GROUPS = [
    (5, 4, 4, 64, 4),
    (5, 4, 3, 128, 5),
    (3, 3, 2, 256, 6),
    (3, 2, 1, 512, 2),
]


def _shiftnet_rows(groups, stem_out: int, downsample: str) -> list[ArchRow]:
    rows = [ArchRow("stem", "conv", stem_out, kernel=7, stride=2)]
    for g, (k, ds_exp, s1_exp, out, rep) in enumerate(groups, start=1):
        label = f"group{g}"
        rows.append(ArchRow(label, "csc", out, stride=2, kernel=k,
                            expansion=ds_exp, downsample=downsample))
        if rep:
            rows.append(ArchRow(label, "csc", out, repeat=rep, kernel=k,
                                expansion=s1_exp, downsample=downsample))
    rows.append(ArchRow("pool", "pool"))
    rows.append(ArchRow("fc", "fc"))
    return rows


def build_shiftnet(variant: str, num_classes: int = 1000, seed: int = 0,
                   dtype=REAL) -> Network:
    """Shift-network variants A (tabulated), B (half width) and C (shallow).

    A and B downsample concat-style (pooled shortcut prepended to a narrower
    main path); the shallow C keeps the additive pooled shortcut.
    """
    v = variant.lower()
    if v == "a":
        rows = _shiftnet_rows(_SHIFTNET_A_GROUPS, 32, "concat")
    elif v == "b":
        halved = [(k, de, se, out // 2, rep)
                  for k, de, se, out, rep in _SHIFTNET_A_GROUPS]
        rows = _shiftnet_rows(halved, 32, "concat")
    elif v == "c":
        groups = [(3, 1, 1, 32, 0), (3, 1, 1, 64, 3),
                  (3, 1, 1, 128, 3), (3, 1, 1, 256, 2)]
        rows = _shiftnet_rows(groups, 32, "add")
    else:
        raise ValueError(f"unknown shiftnet variant {variant!r}")
    return Network(f"shiftnet-{v}", rows, num_classes, seed, dtype=dtype)


def scaled_resnet(depth: int, scale: float, mode: str, num_classes: int = 10,
                  seed: int = 0, dtype=REAL) -> Network:
    """Plain resnet shrunk by `scale` in one of the two reduction styles.

    module_wise narrows each block's first convolution; net_wise scales every
    block's input/output width (stride-2 shortcuts zero-pad the channel gap
    when rounding breaks exact doubling).
    """
    if mode not in ("module_wise", "net_wise"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")

    def scaled(w):
        return max(1, round_half_up(scale * w))

    if mode == "net_wise":
        rows = _cifar_skeleton(depth, _basic, tuple(scaled(w) for w in (16, 32, 64)))
    else:
        def narrowed(label, w, stride, repeat):
            return ArchRow(label, "basic", w, repeat=repeat, stride=stride,
                           mid_channels=scaled(w))
        rows = _cifar_skeleton(depth, narrowed)
    name = f"resnet{depth}-{mode}-{scale:.4f}"
    return Network(name, rows, num_classes, seed, dtype=dtype)


def reduce_resnet(depth: int, target_params: int, mode: str,
                  num_classes: int = 10, seed: int = 0, dtype=REAL) -> Network:
    """Largest scaled resnet whose parameter count is <= 1.02 * target_params."""
    full = count_params(build_resnet(depth, num_classes, seed, dtype))
    if target_params >= full:
        raise ValueError(f"target {target_params} not below the full model's {full}")
    limit = 1.02 * target_params

    def params_at(s: float) -> int:
        return count_params(scaled_resnet(depth, s, mode, num_classes, seed, dtype))

    lo, hi = 1e-3, 1.0
    if params_at(lo) > limit:
        raise ValueError(f"target {target_params} unreachable even at minimum width")
    for _ in range(40):
        midpoint = 0.5 * (lo + hi)
        if params_at(midpoint) <= limit:
            lo = midpoint
        else:
            hi = midpoint
    return scaled_resnet(depth, lo, mode, num_classes, seed, dtype)


def name_depth(name: str, family: str) -> int:
    """Depth of a `<family><digits>` name such as resnet20; else unknown architecture."""
    digits = name.lower()[len(family):]
    if not (name.lower().startswith(family) and digits.isdecimal()):
        raise ValueError(f"unknown architecture {name!r}")
    return int(digits)


def build_by_name(name: str, expansion: float = 1.0, num_classes: int | None = None,
                  seed: int = 0, dtype=REAL) -> Network:
    """CLI-facing dispatch: resnet{depth}, shiftresnet{depth}, shiftnet{a,b,c}."""
    key = name.lower()
    if key.startswith("shiftresnet"):
        return build_shiftresnet(name_depth(name, "shiftresnet"), expansion,
                                 num_classes or 10, seed, dtype=dtype)
    if key.startswith("resnet"):
        return build_resnet(name_depth(name, "resnet"), num_classes or 10, seed,
                            dtype=dtype)
    if key.startswith("shiftnet") and len(key) == len("shiftnet") + 1:
        return build_shiftnet(key[-1], num_classes or 1000, seed, dtype=dtype)
    raise ValueError(f"unknown architecture {name!r}")


# --- plain-text architecture configs -------------------------------------

_ROW_DEFAULTS = {f.name: f.default for f in fields(ArchRow)}


def _row_to_dict(row: ArchRow) -> dict:
    d = {"label": row.label, "type": row.type}
    core = ("stride", "kernel", "expansion", "out_channels", "repeat")
    for key in core + ("dilation", "downsample", "permutation_id", "mid_channels"):
        val = getattr(row, key)
        if val != _ROW_DEFAULTS[key] or \
                (key in core and "out_channels" in ROW_KEYS[row.type]):
            d[key] = val
    return d


def read_fields(cls, section: str, body: dict):
    """Build dataclass `cls` from `body`, reading each value's text as its field's type.

    An unknown or missing key, a value that does not read (8.5 is no int)
    or one `cls` rejects raises ValueError naming `[section]`.
    """
    types = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in body and f.default is MISSING:
            raise ValueError(f"section [{section}] has no {f.name}")
    kwargs = {}
    for key, value in body.items():
        if key not in types:
            raise ValueError(f"section [{section}] has unknown key {key!r}")
        kinds = get_args(types[key]) or (types[key],)   # `int | None` takes None
        try:
            kwargs[key] = None if value is None and type(None) in kinds \
                else kinds[0](str(value))
        except ValueError:
            raise ValueError(f"section [{section}]: {key} = {value!r} does not "
                             f"read as {kinds[0].__name__}") from None
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"section [{section}]: {e}") from None


def dump_config(net: Network) -> str:
    """Architecture as key=value sections: `[net]`, then one per table row."""
    config = net.config()
    rows = config.pop("rows")
    if config["input_channels"] == NetHeader.input_channels:
        del config["input_channels"]
    sections = [("net", config)] + [(f"row{i}", row) for i, row in enumerate(rows)]
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for name, body in sections)


def parse_sections(text: str) -> list[tuple[str, dict]]:
    """Split `[header]` sections of `key = value` lines; `#` lines are comments."""
    sections: list[tuple[str, dict]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1], {}))
        elif sections and "=" in line:
            key, val = (part.strip() for part in line.split("=", 1))
            sections[-1][1][key] = val
        else:
            raise ValueError(f"line outside a key=value section: {raw!r}")
    return sections


def _read_config(head: dict, rows: list) -> tuple[NetHeader, list[ArchRow]]:
    if not rows:
        raise ValueError("config defines no rows")
    return read_fields(NetHeader, "net", head), [read_fields(ArchRow, *r) for r in rows]


def parse_config(text: str) -> dict:
    """Read dump_config output into the config dict rebuild() takes: `[net]`
    as a NetHeader, every other section as an ArchRow."""
    sections = parse_sections(text)
    head = {k: v for name, body in sections if name == "net" for k, v in body.items()}
    header, rows = _read_config(head, [s for s in sections if s[0] != "net"])
    return {**asdict(header), "rows": [_row_to_dict(r) for r in rows]}


def rebuild(config: dict, dtype=REAL) -> Network:
    """Reconstruct a network from a config dict (as produced by Network.config),
    read like a text config: `rows[i]` as section `[row<i>]`, the rest as `[net]`."""
    rows = config.get("rows")
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise ValueError(f"section [net]: rows must list row objects, got {rows!r}")
    head = {k: v for k, v in config.items() if k != "rows"}
    header, rows = _read_config(head, [(f"row{i}", r) for i, r in enumerate(rows)])
    return Network(rows=rows, dtype=dtype, **asdict(header))
