"""Parameter and FLOP accounting, arithmetic-intensity ratios, reduction rates.

Counting conventions, applied uniformly and reported explicitly:

* params: spatial conv k^2*M*N, depthwise k^2*M, pointwise M*N, batch norm
  2 per channel (affine terms only; running statistics are not learned),
  linear in*out + out bias, shift 0.
* macs: one multiply-accumulate per kernel tap per output position
  (k^2*M*N*out_positions for spatial, analogous elsewhere). Elementwise work
  (batch norm, ReLU, residual adds, pooling) is excluded. Shift layers
  contribute exactly zero.
* flops_2x: 2 * macs, for comparison against sources that count a
  multiply-accumulate as two floating point operations.

Reports are pure functions of the architecture and input shape; weights
never enter. Thread-safe.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

CONVENTIONS = ("macs", "flops_2x")


@dataclass
class LayerCost:
    """Architecture-only cost of one layer: parameter and multiply-accumulate counts."""

    name: str
    kind: str          # conv | depthwise | pointwise | shift | bn | fc
    params: int
    macs: int
    in_channels: int
    out_channels: int
    feature_size: int  # output spatial side
    kernel_size: int
    note: str = ""


@dataclass
class CostReport:
    """Aggregated per-layer costs for one network at one input size."""

    name: str
    input_size: int
    params: int
    macs: int
    per_layer: list[tuple[str, int, int, float]]  # (layer, params, macs, ai)
    convention: str = "flops_2x"
    notes: tuple[str, ...] = ()

    @property
    def flops_2x(self) -> int:
        return 2 * self.macs

    def flops(self, convention: str | None = None) -> int:
        conv = convention or self.convention
        if conv == "macs":
            return self.macs
        if conv == "flops_2x":
            return self.flops_2x
        raise ValueError(f"unknown convention {conv!r}")


def arithmetic_intensity(kind: str, m: int, n: int, feature_size: int,
                         kernel_size: int) -> float:
    """Compute-to-memory-access ratio of one layer.

    Spatial convolution: M*N*Df^2*Dk^2 / (Df^2*(M+N) + Dk^2*M*N).
    Depthwise: M*Df^2*Dk^2 / (Df^2*2M + Dk^2*M). Pointwise is the spatial
    ratio at Dk=1. A shift performs no arithmetic, so its ratio is 0; its
    traffic is still modeled (see memory_access_words).
    """
    df2 = feature_size * feature_size
    k2 = kernel_size * kernel_size
    if kind in ("conv", "pointwise", "fc"):
        comp = m * n * df2 * k2
        mem = df2 * (m + n) + k2 * m * n
        return comp / mem
    if kind == "depthwise":
        comp = m * df2 * k2
        mem = df2 * 2 * m + k2 * m
        return comp / mem
    if kind in ("shift", "bn", "pool", "relu"):
        return 0.0
    raise ValueError(f"unknown layer kind {kind!r}")


def memory_access_words(kind: str, m: int, n: int, feature_size: int,
                        kernel_size: int) -> int:
    """Modeled words moved by one layer (the intensity ratio's denominator)."""
    df2 = feature_size * feature_size
    k2 = kernel_size * kernel_size
    if kind in ("conv", "pointwise", "fc"):
        return df2 * (m + n) + k2 * m * n
    if kind == "depthwise":
        return df2 * 2 * m + k2 * m
    if kind == "shift":
        return df2 * 2 * m
    raise ValueError(f"unknown layer kind {kind!r}")


def cost_report(net, input_size: int = 32, convention: str = "flops_2x") -> CostReport:
    """Walk a network's layers and total their parameter and MAC costs."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    entries: list[LayerCost] = net.cost_entries(input_size)
    per_layer = []
    notes = []
    total_params = 0
    total_macs = 0
    for e in entries:
        ai = arithmetic_intensity(e.kind, e.in_channels, e.out_channels,
                                  e.feature_size, e.kernel_size)
        per_layer.append((e.name, e.params, e.macs, ai))
        total_params += e.params
        total_macs += e.macs
        if e.note:
            notes.append(f"{e.name}: {e.note}")
    return CostReport(net.name, input_size, total_params, total_macs,
                      per_layer, convention, tuple(notes))


def count_params(net) -> int:
    """Exact learnable-parameter count of a built network."""
    # Parameter counts are independent of the input size; 32 is always valid.
    return sum(e.params for e in net.cost_entries(32))


def count_flops(net, input_size: int = 32, convention: str = "flops_2x") -> int:
    """Total network cost at the given input size under the named convention."""
    report = cost_report(net, input_size, convention)
    return report.flops(convention)


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


def comparison_table(rows: list[tuple[str, float, CostReport, CostReport]],
                     csv: bool = False) -> str:
    """Side-by-side table (model, expansion, params, flops, reduction rates).

    Each input row is (model name, expansion, base report, model report);
    rates are base-over-model, mirroring the published layout.
    """
    header = ("model", "expansion", "params", "flops_2x",
              "param_rate", "flop_rate")
    cells = []
    for name, expansion, base, rep in rows:
        prate, frate = reduction_report(base, rep)
        cells.append((name, f"{expansion:g}", str(rep.params),
                      str(rep.flops_2x), f"{prate:.2f}", f"{frate:.2f}"))
    if csv:
        lines = [",".join(header)] + [",".join(c) for c in cells]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for c in cells:
        lines.append("  ".join(c[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"
