"""Microbenchmarks for the memory-movement argument.

Times spatial convolution, depthwise+1x1, naive shift-then-1x1 and the fused
shift+1x1 kernel on configurable layer sizes, next to a modeled cost: the
multiply-accumulate count and the memory words each kernel moves (the
numerator and denominator of the arithmetic-intensity ratios). A shift moves
2*M*Df^2 words and computes nothing; the fused kernel additionally skips the
intermediate tensor's write+read round trip. Measured, the fused kernel is
still the slower one at every block shape tried (see its docstring). A
`shift` case runs at its `stride` and, like `Shift.cost_entries`, models its
words at the input plane. `timeit.Timer` takes every sample.

Correctness gates timing: fused and unfused shift+1x1 outputs must agree to
1e-6 relative before a single measurement is taken. Wall-clock results are
reported, never asserted; speedups are hardware-dependent expectations.
Modeled numbers are deterministic for a fixed seed; timings are not.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass, field

import numpy as np

from .accounting import LayerCost
from .nets import parse_sections, read_fields
from .ops import ConvKernel, conv2d, conv2d_depthwise, out_size
from .shift import (fused_shift_pointwise, make_shift_spec, shift_forward,
                    unfused_shift_pointwise)

KINDS = ("spatial", "depthwise_pointwise", "shift_pointwise", "shift")


@dataclass
class BenchCase:
    """One timed layer; a `shift` case reads no `out_channels`, which only labels dims."""

    kind: str
    channels: int = 64
    out_channels: int = 64
    feature: int = 32
    kernel: int = 3
    stride: int = 1
    batch: int = 1
    reps: int = 20
    warmup: int = 3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("channels", "out_channels", "feature", "kernel", "stride",
                     "batch", "reps", "warmup"):
            value, least = getattr(self, name), 0 if name == "warmup" else 1
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd, got {self.kernel}")

    @property
    def dims(self) -> str:
        return (f"m{self.channels}_n{self.out_channels}_f{self.feature}"
                f"_k{self.kernel}_s{self.stride}")


@dataclass
class BenchRow:
    kind: str
    dims: str
    variant: str
    median_ns: float
    p10_ns: float
    p90_ns: float
    model_words: int
    model_macs: int


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["kind,dims,variant,median_ns,p10_ns,p90_ns,model_bytes,model_macs"]
        for r in self.rows:
            lines.append(f"{r.kind},{r.dims},{r.variant},{r.median_ns:.0f},"
                         f"{r.p10_ns:.0f},{r.p90_ns:.0f},{4 * r.model_words},"
                         f"{r.model_macs}")
        return "\n".join(lines) + "\n"


def default_suite() -> list[BenchCase]:
    return [
        BenchCase("spatial", 32, 32, 32, 3),
        BenchCase("depthwise_pointwise", 32, 32, 32, 3),
        BenchCase("shift_pointwise", 32, 32, 32, 3),
        BenchCase("shift_pointwise", 64, 64, 32, 3, stride=2),
        BenchCase("shift_pointwise", 48, 48, 16, 5),
        BenchCase("shift", 64, 64, 32, 3),
    ]


def parse_suite(text: str) -> list[BenchCase]:
    """Parse a key=value sectioned suite file, one BenchCase per section."""
    out = [read_fields(BenchCase, *section) for section in parse_sections(text)]
    if not out:
        raise ValueError("suite defines no cases")
    return out


def _time_callable(fn, reps: int, warmup: int) -> tuple[float, float, float]:
    """Median/p10/p90 nanoseconds per call over `reps` samples of `inner`
    calls, `inner` growing 4x until one sample takes at least 0.2 ms (well
    above the timer's resolution); `timeit` turns GC off during a sample."""
    for _ in range(warmup):
        fn()
    timer, inner = timeit.Timer(fn), 1
    while timer.timeit(inner) < 2e-4:
        inner *= 4
    samples = [1e9 * t / inner for t in timer.repeat(reps, inner)]
    return (float(np.median(samples)),
            float(np.percentile(samples, 10)),
            float(np.percentile(samples, 90)))


class BenchError(RuntimeError):
    pass


def run_case(case: BenchCase, seed: int = 0) -> list[BenchRow]:
    rng = np.random.default_rng(seed)
    m, n, f, k = case.channels, case.out_channels, case.feature, case.kernel
    x = rng.normal(size=(case.batch, m, f, f)).astype(np.float32)
    rows = []
    # stages are (layer kind, side, kernel): convolutions are sized at their
    # output side, the depthwise and shift stages before a strided 1x1 at f
    pointwise = ("pointwise", out_size(f, 1, case.stride, 0), 1)

    def add(variant, stages, fn):
        med, p10, p90 = _time_callable(fn, case.reps, case.warmup)
        costs = [LayerCost(kind, kind, m, n, side, kk) for kind, side, kk in stages]
        rows.append(BenchRow(case.kind, case.dims, variant, med, p10, p90,
                             sum(c.words for c in costs), sum(c.macs for c in costs)))

    if case.kind == "spatial":
        kern = ConvKernel(rng.normal(size=(k, k, m, n)).astype(np.float32),
                          case.stride, k // 2)
        add("spatial", [("conv", out_size(f, k, case.stride, k // 2), k)],
            lambda: conv2d(x, kern))
    elif case.kind == "depthwise_pointwise":
        dw = ConvKernel(rng.normal(size=(k, k, m)).astype(np.float32), 1, k // 2)
        pw = ConvKernel(rng.normal(size=(m, n)).astype(np.float32), case.stride)
        add("depthwise_pointwise", [("depthwise", f, k), pointwise],
            lambda: conv2d(conv2d_depthwise(x, dw), pw))
    elif case.kind == "shift_pointwise":
        spec = make_shift_spec(m, k)
        pw = ConvKernel(rng.normal(size=(m, n)).astype(np.float32), case.stride)
        fused = fused_shift_pointwise(x, spec, pw)
        unfused = unfused_shift_pointwise(x, spec, pw)
        scale = max(np.max(np.abs(unfused)), 1e-12)
        rel = np.max(np.abs(fused - unfused)) / scale
        if rel > 1e-6:
            raise BenchError(f"fused/unfused divergence {rel:.3g} on {case.dims}; "
                             "refusing to time incorrect code")
        add("unfused", [("shift", f, k), pointwise],
            lambda: unfused_shift_pointwise(x, spec, pw))
        # the shifted intermediate never exists; only the 1x1's traffic remains
        add("fused", [pointwise], lambda: fused_shift_pointwise(x, spec, pw))
    elif case.kind == "shift":
        spec = make_shift_spec(m, k)
        add("shift", [("shift", f, k)], lambda: shift_forward(x, spec, case.stride))
    return rows


def run_bench(cases: list[BenchCase], seed: int = 0) -> BenchReport:
    """Run the suite; correctness gates precede any timing."""
    report = BenchReport()
    for case in cases:
        report.rows.extend(run_case(case, seed))
    return report
