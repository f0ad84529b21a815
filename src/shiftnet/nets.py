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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ArchRow:
    """One architecture table row; `repeat` expands to that many identical blocks."""

    label: str
    type: str                 # conv | csc | sc2 | basic | pool | fc
    out_channels: int = 0
    repeat: int = 1
    stride: int = 1
    kernel: int = 3
    expansion: float = 1.0
    dilation: int = 1
    downsample: str = "add"
    permutation_id: int = 0
    mid_channels: int | None = None


class Network(Composite):
    """An ordered stack of layers/blocks: the composite walk over `layers`.

    An eval forward runs the body (up to the last global pool) EVAL_SLICE
    images at a time and the head once; eval is per image, so the logits are
    bit-identical to one pass. `backward` follows a train-mode forward only:
    after an eval forward, layer caches hold just the last slice.
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
        for row in rows:
            for _ in range(row.repeat):
                lname, layer, width = _make_layer(row, width, num_classes,
                                                  counters, seeds, dtype)
                self.layers.append((lname, layer))
        # the body (stem, blocks, global pool) is per image; the head is not
        self._body_end = max((i + 1 for i, (_, layer) in enumerate(self.layers)
                              if isinstance(layer, GlobalAvgPool)), default=0)

    def children(self):
        return self.layers

    def forward(self, x, mode="train"):
        if mode != "eval" or len(x) <= EVAL_SLICE or not self._body_end:
            return super().forward(x, mode)
        body, head = self.layers[:self._body_end], self.layers[self._body_end:]
        h = np.concatenate([run_layers(body, x[i:i + EVAL_SLICE], mode)
                            for i in range(0, len(x), EVAL_SLICE)])
        return run_layers(head, h, mode)

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


def _make_layer(row: ArchRow, width: int, num_classes: int,
                counters: dict, seeds: SeedStream, dtype):
    if row.type == "conv":
        layer = StemConv(width, row.out_channels, row.kernel, row.stride,
                         seeds.next(), dtype)
        return row.label, layer, row.out_channels
    if row.type in ("csc", "sc2"):
        cfg = CscConfig(width, row.out_channels, row.expansion, row.kernel,
                        row.dilation, row.stride, variant=row.type,
                        downsample=row.downsample,
                        permutation_id=row.permutation_id)
        idx = counters.get(row.label, 0)
        counters[row.label] = idx + 1
        return f"{row.label}.block{idx}", CscBlock(cfg, seeds, dtype), row.out_channels
    if row.type == "basic":
        idx = counters.get(row.label, 0)
        counters[row.label] = idx + 1
        layer = BasicBlock(width, row.out_channels, row.stride, seeds,
                           mid_channels=row.mid_channels, dtype=dtype)
        return f"{row.label}.block{idx}", layer, row.out_channels
    if row.type == "shift":
        spec = make_shift_spec(width, row.kernel, row.dilation)
        return row.label, Shift(spec), width
    if row.type == "pool":
        return row.label, GlobalAvgPool(), width
    if row.type == "fc":
        return row.label, Linear(width, num_classes, seeds.next(), dtype), num_classes
    raise ValueError(f"unknown row type {row.type!r}")


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
                      seed: int = 0, kernel_size: int = 3, dilation: int = 1,
                      dtype=REAL) -> Network:
    """Residual network with every basic block replaced by a conv-shift-conv block."""
    if expansion <= 0:
        raise ValueError("expansion must be positive")

    def csc(label, w, stride, repeat):
        return ArchRow(label, "csc", w, repeat=repeat, stride=stride,
                       kernel=kernel_size, expansion=expansion, dilation=dilation)

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


def build_by_name(name: str, expansion: float = 1.0, num_classes: int | None = None,
                  seed: int = 0, dtype=REAL) -> Network:
    """CLI-facing dispatch: resnet{depth}, shiftresnet{depth}, shiftnet{a,b,c}."""
    key = name.lower()
    if key.startswith("shiftresnet"):
        depth = int(key[len("shiftresnet"):])
        return build_shiftresnet(depth, expansion, num_classes or 10, seed, dtype=dtype)
    if key.startswith("resnet"):
        depth = int(key[len("resnet"):])
        return build_resnet(depth, num_classes or 10, seed, dtype=dtype)
    if key.startswith("shiftnet") and len(key) == len("shiftnet") + 1:
        return build_shiftnet(key[-1], num_classes or 1000, seed, dtype=dtype)
    raise ValueError(f"unknown architecture {name!r}")


# --- plain-text architecture configs -------------------------------------

_ROW_DEFAULTS = ArchRow("", "")


def _row_to_dict(row: ArchRow) -> dict:
    d = {"label": row.label, "type": row.type}
    core = ("stride", "kernel", "expansion", "out_channels", "repeat")
    for key in core + ("dilation", "downsample", "permutation_id", "mid_channels"):
        val = getattr(row, key)
        if val != getattr(_ROW_DEFAULTS, key) or \
                (key in core and row.type in ("conv", "csc", "sc2", "basic")):
            d[key] = val
    return d


def _row_from_dict(d: dict) -> ArchRow:
    kwargs = dict(d)
    if "expansion" in kwargs:
        kwargs["expansion"] = float(kwargs["expansion"])
    for key in ("out_channels", "repeat", "stride", "kernel", "dilation",
                "permutation_id", "mid_channels"):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = int(kwargs[key])
    return ArchRow(**kwargs)


def dump_config(net: Network) -> str:
    """Architecture as key=value sections, one per table row."""
    lines = ["[net]", f"name = {net.name}", f"num_classes = {net.num_classes}",
             f"seed = {net.seed}", ""]
    for i, row in enumerate(net.rows):
        lines.append(f"[row{i}]")
        for key, val in _row_to_dict(row).items():
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


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


def parse_config(text: str) -> dict:
    """Parse dump_config output back into a config dict for rebuild()."""
    meta = {"name": "custom", "num_classes": 10, "seed": 0, "input_channels": 3}
    rows = []
    for header, body in parse_sections(text):
        if header == "net":
            meta["name"] = body.get("name", meta["name"])
            for key in ("num_classes", "seed", "input_channels"):
                if key in body:
                    meta[key] = int(body[key])
        else:
            rows.append(_row_from_dict(body))
    if not rows:
        raise ValueError("config defines no rows")
    meta["rows"] = [_row_to_dict(r) for r in rows]
    return meta


def rebuild(config: dict, dtype=REAL) -> Network:
    """Reconstruct a network from a config dict (as produced by Network.config)."""
    rows = [_row_from_dict(d) for d in config["rows"]]
    return Network(config["name"], rows, int(config["num_classes"]),
                   int(config.get("seed", 0)),
                   int(config.get("input_channels", 3)), dtype=dtype)
