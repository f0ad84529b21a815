"""Parameter and FLOP accounting, arithmetic-intensity ratios, reduction rates.

This module is the one owner of the counting convention. Layers report only
their kind and shape (`LayerCost`: in/out channels M/N, output side Df,
kernel side Dk); building the entry reads the per-kind table `COUNTS` once
and keeps the parameters, multiply-accumulates and modeled memory traffic
on it, so reports sum entries and never recount. The convention, applied
uniformly and reported explicitly:

* params: conv k^2*M*N (the 1x1 "pointwise" kind is conv at k = 1),
  depthwise k^2*M, batch norm 2 per channel (affine terms only; running
  statistics are not learned), linear in*out + out bias, shift 0.
* macs: one multiply-accumulate per kernel tap per output position
  (k^2*M*N*Df^2 for conv, analogous elsewhere). Elementwise work (batch
  norm, ReLU, residual adds, pooling) is excluded. Shift layers contribute
  exactly zero.
* flops_2x: 2 * macs, for comparison against sources that count a
  multiply-accumulate as two floating point operations.
* words: input and output activations plus weights, each moved once.
* arithmetic intensity: macs / words (`LayerCost.ai`), 0 without MACs.

Reports are pure functions of the architecture and input shape; weights
never enter. Thread-safe.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

CONVENTIONS = ("macs", "flops_2x")


def _conv(m, n, k):
    return k * k * m * n, k * k * m * n, m + n


# kind -> (params, taps, activation words per output position) from
# (M, N, Dk); a tap is one weight, used in one MAC per output position
COUNTS = {
    "conv": _conv,
    "pointwise": _conv,  # the conv at Dk = 1
    "depthwise": lambda m, n, k: (k * k * m, k * k * m, 2 * m),
    "fc": lambda m, n, k: (m * n + n, m * n, m + n),
    "bn": lambda m, n, k: (2 * m, 0, None),
    "shift": lambda m, n, k: (0, 0, 2 * m),
    "pool": lambda m, n, k: (0, 0, None),
    "relu": lambda m, n, k: (0, 0, None),
}


@dataclass
class LayerCost:
    """Architecture-only cost of one layer: its shape, and the params, macs and
    words (None where traffic is not modeled) that `COUNTS` gives it once, when
    built. An unknown kind raises ValueError."""

    name: str
    kind: str          # conv | depthwise | pointwise | shift | bn | fc
    in_channels: int
    out_channels: int
    feature_size: int  # output spatial side
    kernel_size: int
    note: str = ""
    params: int = field(init=False)
    macs: int = field(init=False)
    words: int | None = field(init=False)

    def __post_init__(self):
        if self.kind not in COUNTS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        params, taps, words = COUNTS[self.kind](self.in_channels, self.out_channels,
                                                self.kernel_size)
        df2 = self.feature_size * self.feature_size
        self.params, self.macs = params, taps * df2
        self.words = None if words is None else words * df2 + taps

    @property
    def ai(self) -> float:
        """Arithmetic intensity: MACs over words moved, 0 without arithmetic."""
        return self.macs / self.words if self.macs else 0.0


@dataclass
class CostReport:
    """Aggregated per-layer costs for one network at one input size."""

    name: str
    input_size: int
    params: int
    macs: int
    per_layer: list[tuple[str, int, int, float]]  # (layer, params, macs, ai)
    notes: tuple[str, ...] = ()

    @property
    def flops_2x(self) -> int:
        return 2 * self.macs


def arithmetic_intensity(kind: str, m: int, n: int, feature_size: int,
                         kernel_size: int) -> float:
    """Compute-to-memory-access ratio of one layer: MACs over words moved.

    Conv gives M*N*Df^2*Dk^2 / (Df^2*(M+N) + Dk^2*M*N). A layer without
    arithmetic (a shift, batch norm) has ratio 0, though a shift's traffic
    is still modeled.
    """
    return LayerCost(kind, kind, m, n, feature_size, kernel_size).ai


def memory_access_words(kind: str, m: int, n: int, feature_size: int,
                        kernel_size: int) -> int:
    """Modeled words moved by one layer: Df^2*(M+N) + Dk^2*M*N for conv,
    Df^2*2M + Dk^2*M for depthwise and Df^2*2M for a shift."""
    words = LayerCost(kind, kind, m, n, feature_size, kernel_size).words
    if words is None:
        raise ValueError(f"no memory model for layer kind {kind!r}")
    return words


def cost_report(net, input_size: int = 32) -> CostReport:
    """Total a network's layer costs; rows, totals and notes read its entries."""
    entries: list[LayerCost] = net.cost_entries(input_size)
    return CostReport(net.name, input_size, sum(e.params for e in entries),
                      sum(e.macs for e in entries),
                      [(e.name, e.params, e.macs, e.ai) for e in entries],
                      tuple(f"{e.name}: {e.note}" for e in entries if e.note))


def count_params(net) -> int:
    """Exact learnable-parameter count of a built network."""
    # Parameter counts are independent of the input size; 32 is always valid.
    return sum(e.params for e in net.cost_entries(32))


def count_flops(net, input_size: int = 32, convention: str = "flops_2x") -> int:
    """Total network cost at the given input size under the named convention."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    macs = cost_report(net, input_size).macs
    return macs if convention == "macs" else 2 * macs


def reduction_report(base: CostReport, other: CostReport) -> tuple[float, float]:
    """(param rate, flop rate): the base network's costs over the other's."""
    if other.params == 0:
        raise ZeroDivisionError("cannot form a reduction rate against 0 parameters")
    if other.macs == 0:
        raise ZeroDivisionError("cannot form a reduction rate against 0 FLOPs")
    return base.params / other.params, base.macs / other.macs


def format_table(report: CostReport) -> str:
    """Aligned per-layer text table with totals."""
    out = io.StringIO()
    width = max([len("layer")] + [len(n) for n, *_ in report.per_layer])
    print(f"{'layer':<{width}}  {'params':>12}  {'macs':>14}  {'ai':>10}", file=out)
    for name, params, macs, ai in report.per_layer:
        print(f"{name:<{width}}  {params:>12}  {macs:>14}  {ai:>10.2f}", file=out)
    print(f"{'total':<{width}}  {report.params:>12}  {report.macs:>14}", file=out)
    print(f"flops_2x = {report.flops_2x}  (input {report.input_size})", file=out)
    for note in report.notes:
        print(f"note: {note}", file=out)
    return out.getvalue()


def report_to_csv(report: CostReport) -> str:
    """Per-layer CSV: layer,params,macs,ai plus a trailing total row."""
    lines = ["layer,params,macs,ai"]
    for name, params, macs, ai in report.per_layer:
        lines.append(f"{name},{params},{macs},{ai:.6g}")
    lines.append(f"total,{report.params},{report.macs},")
    return "\n".join(lines) + "\n"

