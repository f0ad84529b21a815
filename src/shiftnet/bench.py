"""Microbenchmarks for the memory-movement argument.

Times spatial convolution, depthwise+1x1, naive shift-then-1x1 and the fused
shift+1x1 kernel on configurable layer sizes, next to a modeled cost: the
multiply-accumulate count and the memory words each kernel moves (the
numerator and denominator of the arithmetic-intensity ratios). A shift moves
2*M*Df^2 words and computes nothing; the fused kernel additionally skips the
intermediate tensor's write+read round trip.

Correctness gates timing: fused and unfused shift+1x1 outputs must agree to
1e-6 relative before a single measurement is taken. Wall-clock results are
reported, never asserted; speedups are hardware-dependent expectations.
Modeled numbers are deterministic for a fixed seed; timings are not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .accounting import memory_access_words
from .nets import parse_sections
from .ops import ConvKernel, conv2d_depthwise, conv2d_pointwise, conv2d_spatial
from .shift import (fused_shift_pointwise, make_shift_spec, shift_forward,
                    unfused_shift_pointwise)

KINDS = ("spatial", "depthwise_pointwise", "shift_pointwise", "shift")


@dataclass
class BenchCase:
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
    model_flops: int


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["kind,dims,variant,median_ns,p10_ns,p90_ns,model_bytes,model_flops"]
        for r in self.rows:
            lines.append(f"{r.kind},{r.dims},{r.variant},{r.median_ns:.0f},"
                         f"{r.p10_ns:.0f},{r.p90_ns:.0f},{4 * r.model_words},"
                         f"{r.model_flops}")
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
    """Parse a key=value sectioned suite file into benchmark cases."""
    out = []
    for _, body in parse_sections(text):
        kind = body.pop("kind")
        kwargs = {k: int(v) for k, v in body.items()}
        out.append(BenchCase(kind, **kwargs))
    if not out:
        raise ValueError("suite defines no cases")
    return out


def _time_callable(fn, reps: int, warmup: int) -> tuple[float, float, float]:
    """Median/p10/p90 nanoseconds per call, auto-scaling the inner loop until
    one sample exceeds the timer's useful resolution."""
    for _ in range(warmup):
        fn()
    inner = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        elapsed = time.perf_counter_ns() - t0
        if elapsed >= 200_000:  # 0.2 ms per sample is comfortably resolvable
            break
        inner *= 4
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter_ns() - t0) / inner)
    return (float(np.median(samples)),
            float(np.percentile(samples, 10)),
            float(np.percentile(samples, 90)))


def _model(kind_key: str, m: int, n: int, f: int, k: int, s: int):
    """(words moved, multiply-accumulates) for one variant.

    Convolutions are sized at their output side ceil(f / s); the depthwise
    and shift stages before a strided 1x1 run at the input side f.
    """
    fo = (f + s - 1) // s
    pointwise = memory_access_words("pointwise", m, n, fo, 1), m * n * fo * fo
    if kind_key == "spatial":
        return memory_access_words("conv", m, n, fo, k), m * n * fo * fo * k * k
    if kind_key == "depthwise_pointwise":
        return (memory_access_words("depthwise", m, n, f, k) + pointwise[0],
                m * f * f * k * k + pointwise[1])
    if kind_key == "shift_pointwise_unfused":
        return memory_access_words("shift", m, n, f, k) + pointwise[0], pointwise[1]
    if kind_key == "shift_pointwise_fused":
        # the shifted intermediate never exists; only the 1x1's traffic remains
        return pointwise
    if kind_key == "shift":
        return memory_access_words("shift", m, n, f, k), 0
    raise ValueError(kind_key)


class BenchError(RuntimeError):
    pass


def run_case(case: BenchCase, seed: int = 0) -> list[BenchRow]:
    rng = np.random.default_rng(seed)
    m, n, f, k = case.channels, case.out_channels, case.feature, case.kernel
    x = rng.normal(size=(case.batch, m, f, f)).astype(np.float32)
    rows = []

    def add(variant_key, variant_name, fn):
        med, p10, p90 = _time_callable(fn, case.reps, case.warmup)
        words, flops = _model(variant_key, m, n, f, k, case.stride)
        rows.append(BenchRow(case.kind, case.dims, variant_name,
                             med, p10, p90, words, flops))

    if case.kind == "spatial":
        kern = ConvKernel(rng.normal(size=(k, k, m, n)).astype(np.float32),
                          case.stride, k // 2)
        add("spatial", "spatial", lambda: conv2d_spatial(x, kern))
    elif case.kind == "depthwise_pointwise":
        dw = ConvKernel(rng.normal(size=(k, k, m)).astype(np.float32), 1, k // 2)
        pw = ConvKernel(rng.normal(size=(m, n)).astype(np.float32), case.stride)
        add("depthwise_pointwise", "depthwise_pointwise",
            lambda: conv2d_pointwise(conv2d_depthwise(x, dw), pw))
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
        add("shift_pointwise_unfused", "unfused",
            lambda: unfused_shift_pointwise(x, spec, pw))
        add("shift_pointwise_fused", "fused",
            lambda: fused_shift_pointwise(x, spec, pw))
    elif case.kind == "shift":
        spec = make_shift_spec(m, k)
        add("shift", "shift", lambda: shift_forward(x, spec))
    return rows


def run_bench(cases: list[BenchCase] | None = None, seed: int = 0) -> BenchReport:
    """Run the suite; correctness gates precede any timing."""
    report = BenchReport()
    for case in cases or default_suite():
        report.rows.extend(run_case(case, seed))
    return report
