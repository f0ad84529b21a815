"""The benchmark's workloads and the closed loop that drives them.

Every workload goes through the public path of `shiftnet train` and
`shiftnet eval`: `pipeline.load_cifar10`, then `nets.build_by_name` (train)
or `pipeline.load_checkpoint` (eval), then `pipeline.train` or
`pipeline.evaluate`. The load model is a closed loop with one client: the
next step or batch starts when the previous one has finished.

An untraced run (`run_e2e`) hooks only the dataset's `batch` call, to mark
step boundaries. A traced run (`run_traced`) also wraps every layer object,
alternates untraced and traced chunks to measure the tracing overhead, and
reports per-layer self times joined with the modeled work of each layer.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from shiftnet import nets, pipeline
from shiftnet.blocks import CscBlock
from shiftnet.ops import ConvKernel
from shiftnet.shift import fused_shift_pointwise, unfused_shift_pointwise

from . import datagen, join
from .trace import Patches, Phases, Tracer, around, by_step, durations, self_times

_now = time.perf_counter_ns

# The SGD of criteria 8a/8b (momentum, weight decay, batch 32, augmentation)
# at a fifth of their learning rate: at 0.05 the first few dozen steps of
# both nets spike often enough that the loss gate below would fail on some
# seeds, while at 0.01 the loss falls steadily on the stand-in data.
BASE_LR = 0.01
LOSS_WINDOW = 5
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4

# Eval gate: float32 logits against a float64 rebuild of the same checkpoint.
EVAL_GATE_IMAGES = 32
EVAL_GATE_RTOL = 1e-4      # of max(1, max |logit|); float32 error is ~1e-7 of it
# Traced gate, as in shiftnet.bench.run_case: refuse to time diverging kernels.
FUSED_GATE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # train | eval
    arch: str
    expansion: float
    batch: int


# Why each exists is recorded in BENCHMARK.json. train-resnet20, the control
# that has no shift layers, runs on request but is not listed there: on a
# shared 2-core host its run-to-run spread (IQR/median of images/s and p50
# near 0.2, of p90 up to 0.5) reaches the largest bound a listed workload may
# have (0.25), while the two shift workloads measured 0.06-0.14.
WORKLOADS = {w.name: w for w in (
    Workload("train-shiftresnet20-1", "train", "shiftresnet20", 1.0, 32),
    Workload("train-resnet20", "train", "resnet20", 1.0, 32),
    Workload("eval-shiftresnet20-3", "eval", "shiftresnet20", 3.0, 256),
)}


# Stand-in dataset records: CIFAR-10's 50,000 train and 10,000 test.
RECORDS = (50000, 10000)
SETUP_REPS = 5
WARMUP = 3              # steps (train) or batches (eval) before timing
MIN_STEPS = 10          # measured steps when --seconds is tiny: two loss windows


@dataclass
class Tally:
    """Operations attempted and failed, plus the correctness gates' verdicts."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def gate(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class Chunk:
    step_ns: list
    images: int
    elapsed_ns: int


class Runner:
    """Built objects of one workload plus the closed loop over them."""

    def __init__(self, w: Workload, net, train_ds, test_ds, seed: int):
        self.w = w
        self.batch = min(w.batch, len(test_ds if w.kind == "eval" else train_ds))
        self.net = net
        self.train_ds = train_ds
        self.test_ds = test_ds
        self.seed = seed
        self.chunks = 0
        self.tally = Tally()
        self.losses: list = []

    def run(self, n: int, tracer: Tracer | None = None) -> Chunk:
        """n closed-loop steps (train) or batches (eval), optionally traced."""
        self.chunks += 1
        if self.w.kind == "train":
            return self._train(n, tracer)
        return self._eval(n, tracer)

    def _chunk(self, ds, tracer, call) -> tuple[Chunk, object]:
        """Time call(ds), one stamp per `batch` call marking a step start."""
        stamps: list = []
        patches = Patches()
        patches.wrap(ds, "batch", around(lambda: stamps.append(_now())))
        phases = None
        if tracer is not None:
            phases = _install_trace(tracer, patches, self.net, ds, self.w.kind)
        t0 = _now()
        try:
            result = call(ds)
        finally:
            t1 = _now()
            if phases is not None:
                phases.finish()
            patches.restore()
        steps = [b - a for a, b in zip(stamps, stamps[1:] + [t1])]
        return Chunk(steps, len(steps) * self.batch, t1 - t0), result

    def _train(self, n, tracer) -> Chunk:
        schedule = pipeline.TrainSchedule(
            max_iters=n, base_lr=BASE_LR, batch_size=self.batch,
            lr_decay_points=(), momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            seed=self.seed * 1000 + self.chunks, augment=True, log_every=1)
        try:
            chunk, log = self._chunk(
                self.train_ds, tracer,
                lambda ds: pipeline.train(self.net, ds, schedule))
        except pipeline.TrainingDiverged as exc:
            self.tally.attempted += n
            self.tally.failed += 1
            self.tally.notes.append(str(exc))
            self.losses.append(math.nan)
            return Chunk([], 0, 1)
        losses = [float(v) for v in log.losses()]
        self.tally.attempted += len(chunk.step_ns)
        self.losses.extend(losses)
        return chunk

    def _eval(self, n, tracer) -> Chunk:
        test, b = self.test_ds, self.batch
        per_pass = max(1, len(test) // b)
        total = Chunk([], 0, 0)
        while n > 0:
            k = min(n, per_pass)
            sub = pipeline.Dataset(test.images[:k * b], test.labels[:k * b],
                                   test.split, test.num_classes, test.mean,
                                   test.std)
            chunk, (_, loss) = self._chunk(
                sub, tracer, lambda ds: pipeline.evaluate(self.net, ds, b))
            self.tally.attempted += len(chunk.step_ns)
            self.tally.failed += 0 if math.isfinite(loss) else len(chunk.step_ns)
            total.step_ns += chunk.step_ns
            total.images += chunk.images
            total.elapsed_ns += chunk.elapsed_ns
            n -= k
        return total

    def loss_gate(self):
        """Train: finite losses, and the last window's mean below the first's.

        The first window is the run's first LOSS_WINDOW steps, from the
        untrained network. The last is the final quarter of the run (at least
        LOSS_WINDOW steps), long enough to average over the loss spikes that
        SGD with augmentation shows after the first dozen steps.
        """
        losses = self.losses
        if self.w.kind != "train" or not losses:
            return
        finite = all(math.isfinite(v) for v in losses)
        first = float(np.mean(losses[:LOSS_WINDOW]))
        last = float(np.mean(losses[-max(LOSS_WINDOW, len(losses) // 4):]))
        self.tally.gate(finite and last < first,
                        f"loss did not fall: first-window mean {first:.4g}, "
                        f"last-window mean {last:.4g}")


def steps_for(seconds: float, step_ns: list, min_steps: int) -> int:
    """Steps that fill `seconds` at the median step time seen so far."""
    est = statistics.median(step_ns) / 1e9 if step_ns else 1.0
    return max(min_steps, int(round(seconds / est)))


def _install_trace(tracer: Tracer, patches: Patches, net, ds, kind: str) -> Phases:
    phases = Phases(tracer)
    patches.wrap(ds, "batch", around(lambda: phases.enter("pipeline.data")))
    for lname, layer in net.layers:
        _wrap_layer(tracer, patches, lname, layer)
    patches.wrap(net, "forward", tracer.spanning("nets.fwd"))
    patches.wrap(net, "backward", tracer.spanning("nets.bwd"))
    patches.wrap(net, "forward", around(lambda: phases.enter("pipeline.forward")))
    if kind == "train":
        patches.wrap(net, "backward",
                     around(lambda: phases.enter("pipeline.backward"),
                            lambda: phases.enter("pipeline.update")))
    return phases


def span_stem(layer) -> str:
    """Metric stem of a layer object: ops.<kind>, shift, or blocks (composite)."""
    kind = getattr(layer, "kind", None)
    if kind is None:
        return "blocks"
    return "shift" if kind == "shift" else f"ops.{kind}"


def sublayers(layer) -> list:
    """(attribute, object) pairs of a composite layer's own layer objects."""
    return [(attr, sub) for attr, sub in list(vars(layer).items())
            if callable(getattr(sub, "forward", None))
            and callable(getattr(sub, "backward", None))]


def _wrap_layer(tracer, patches, path, layer):
    for attr, sub in sublayers(layer):
        _wrap_layer(tracer, patches, f"{path}.{attr}", sub)
    stem = span_stem(layer)
    patches.wrap(layer, "forward", tracer.spanning(f"{stem}.fwd", path))
    patches.wrap(layer, "backward", tracer.spanning(f"{stem}.bwd", path))


# --- set-up -----------------------------------------------------------------

def _timed(tracer, name, fn, *args, **kwargs):
    i = tracer.open(name) if tracer is not None else None
    try:
        return fn(*args, **kwargs)
    finally:
        if i is not None:
            tracer.close(i)


def prepare(w: Workload, records: tuple[int, int], seed: int,
            workdir: str) -> tuple[str, str]:
    """Write the seeded inputs; returns (data directory, eval checkpoint path)."""
    data_dir = datagen.write_dataset(os.path.join(workdir, "data"), seed, *records)
    ckpt = ""
    if w.kind == "eval":
        ckpt = datagen.write_checkpoint(os.path.join(workdir, "eval.ckpt.json"),
                                        data_dir, w.arch, w.expansion, seed)
    return data_dir, ckpt


def setup(w: Workload, data_dir: str, ckpt: str, seed: int,
          tracer: Tracer | None = None):
    """Data load plus network build (train) or checkpoint restore (eval)."""
    train_ds, test_ds = _timed(tracer, "pipeline.load", pipeline.load_cifar10, data_dir)
    if w.kind == "train":
        net = _timed(tracer, "nets.build", nets.build_by_name, w.arch,
                     expansion=w.expansion, seed=seed)
    else:
        net, _ = _timed(tracer, "pipeline.ckpt_load", pipeline.load_checkpoint, ckpt)
    return net, train_ds, test_ds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- untraced run: end-to-end metrics ----------------------------------------

def run_e2e(w: Workload, records: tuple[int, int], seed: int, seconds: float,
            workdir: str) -> tuple[dict, Tally, dict]:
    data_dir, ckpt = prepare(w, records, seed, workdir)
    setup_s = []
    for _ in range(SETUP_REPS):
        built = None
        gc.collect()
        t0 = _now()
        built = setup(w, data_dir, ckpt, seed)
        setup_s.append((_now() - t0) / 1e9)
    runner = Runner(w, *built, seed)
    warm = runner.run(WARMUP)
    n = steps_for(seconds, warm.step_ns, MIN_STEPS)
    chunk = runner.run(n)
    runner.loss_gate()
    if w.kind == "eval":
        _eval_precision_gate(runner, ckpt)
    steps_ms = np.array(chunk.step_ns) / 1e6
    metrics = {
        "images_per_s": (chunk.images / (chunk.elapsed_ns / 1e9), "1/s"),
        "batch_ms_p50": (float(np.percentile(steps_ms, 50)), "ms"),
        "batch_ms_p90": (float(np.percentile(steps_ms, 90)), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"batch": runner.batch, "samples": len(steps_ms),
              "setup_reps": len(setup_s)}
    return metrics, runner.tally, detail


def _eval_precision_gate(runner: Runner, ckpt: str):
    net64, _ = pipeline.load_checkpoint(ckpt, dtype=np.float64)
    x, _ = runner.test_ds.batch(np.arange(EVAL_GATE_IMAGES))
    got = runner.net.forward(x, "eval")
    want = net64.forward(x.astype(np.float64), "eval")
    err = float(np.max(np.abs(got - want)))
    tol = EVAL_GATE_RTOL * max(1.0, float(np.max(np.abs(want))))
    runner.tally.gate(err <= tol, f"float32 logits off the float64 rebuild by "
                                  f"{err:.3g} > {tol:.3g}")


# --- traced run: per-layer metrics --------------------------------------------

OP_STEMS = ("ops.bn", "ops.relu", "ops.pointwise", "ops.conv", "shift")
HEAD_STEMS = ("ops.pool", "ops.fc")


def run_traced(w: Workload, records: tuple[int, int], seed: int, seconds: float,
               workdir: str) -> tuple[dict, Tally, dict]:
    data_dir, ckpt = prepare(w, records, seed, workdir)
    tracer = Tracer()            # set-up spans carry step -1
    built = setup(w, data_dir, ckpt, seed, tracer)
    if w.kind == "eval":         # the build inside load_checkpoint, on its own
        _timed(tracer, "nets.build", nets.build_by_name, w.arch,
               expansion=w.expansion, seed=seed)
    setup_ns = {n: e - s for n, s, e in zip(tracer.names, tracer.starts, tracer.ends)}
    runner = Runner(w, *built, seed)

    warm = runner.run(WARMUP)
    plain_n = steps_for(0.15 * seconds, warm.step_ns, 2)
    traced_n = steps_for(0.25 * seconds, warm.step_ns, 2)
    plain = [0, 0]
    traced = [0, 0]
    for _ in range(2):
        c = runner.run(plain_n)
        plain[0] += c.images
        plain[1] += c.elapsed_ns
        c = runner.run(traced_n, tracer)
        traced[0] += c.images
        traced[1] += c.elapsed_ns
    runner.loss_gate()

    step_peak = _step_peak_bytes(runner)
    fused_ms, unfused_ms, worst_rel = _fused_vs_unfused(runner, 0.2 * seconds)
    save_ms, load_ms, blob_bytes = _checkpoint_round_trip(runner, workdir)

    models = join.layer_models(runner.net)
    metrics = layer_metrics(tracer, runner.batch, models)
    macs, words = join.per_image(models)
    metrics.update({
        "shift.fused_ms": (fused_ms, "ms"),
        "shift.unfused_ms": (unfused_ms, "ms"),
        "pipeline.load_s": (setup_ns["pipeline.load"] / 1e9, "s"),
        "nets.build_ms": (setup_ns["nets.build"] / 1e6, "ms"),
        "pipeline.ckpt_load_ms": (load_ms, "ms"),
        "pipeline.ckpt_save_ms": (save_ms, "ms"),
        "tensor.blob_mb": (blob_bytes / 1e6, "MB"),
        "pipeline.step_peak_mb": (step_peak / 1e6, "MB"),
        "accounting.macs_per_image": (macs, "MAC"),
        "accounting.words_per_image": (words, "word"),
        "trace.overhead_pct": (100.0 * (_rate(plain) / _rate(traced) - 1.0), "%"),
    })
    detail = {"batch": runner.batch,
              "traced_steps": len({s for s in tracer.steps if s >= 0}),
              "fused_gate_worst_rel": worst_rel,
              "layers": layer_table(tracer, runner.batch, models),
              "spans": tracer.columns()}
    return metrics, runner.tally, detail


def _elapsed(fn, *args, **kwargs) -> int:
    t0 = _now()
    fn(*args, **kwargs)
    return _now() - t0


def _rate(images_ns) -> float:
    images, ns = images_ns
    return images / (ns / 1e9) if ns else 0.0


def _median_sum(table: dict, steps, names) -> float:
    return float(np.median([sum(table[s].get(n, 0) for n in names) for s in steps]))


def layer_metrics(tracer: Tracer, batch: int, models) -> dict:
    """Per-step medians of layer self times and phase times, and achieved rates."""
    own = by_step(tracer, self_times(tracer))
    dur = by_step(tracer, durations(tracer))
    nbytes = by_step(tracer, tracer.nbytes)
    steps = sorted(own)

    def ms(table, *names):
        return _median_sum(table, steps, names) / 1e6

    out = {}
    for stem in OP_STEMS:
        out[f"{stem}.fwd_ms"] = (ms(own, f"{stem}.fwd"), "ms")
        out[f"{stem}.bwd_ms"] = (ms(own, f"{stem}.bwd"), "ms")
    out["ops.head_ms"] = (ms(own, *(f"{s}.{d}" for s in HEAD_STEMS
                                    for d in ("fwd", "bwd"))), "ms")
    out["blocks.self_ms"] = (ms(own, "blocks.fwd", "blocks.bwd"), "ms")
    out["nets.self_ms"] = (ms(own, "nets.fwd", "nets.bwd"), "ms")
    out["pipeline.data_ms"] = (ms(dur, "pipeline.data"), "ms")
    out["pipeline.forward_ms"] = (ms(dur, "pipeline.forward"), "ms")
    out["pipeline.backward_ms"] = (ms(dur, "pipeline.backward"), "ms")
    out["pipeline.update_ms"] = (ms(dur, "pipeline.update"), "ms")
    out["pipeline.loss_ms"] = (ms(own, "pipeline.forward", "pipeline.backward"), "ms")
    out["pipeline.step_ms"] = (ms(dur, "step"), "ms")
    out["trace.coverage_pct"] = (coverage_pct(own), "%")

    kinds = join.kind_totals(models)

    def fb(stem):
        return out[f"{stem}.fwd_ms"][0], out[f"{stem}.bwd_ms"][0]

    out["ops.pointwise.gmac_s"] = (join.mac_rate(kinds.get("pointwise", (0, 0))[0],
                                                 batch, *fb("ops.pointwise")), "GMAC/s")
    out["ops.conv.gmac_s"] = (join.mac_rate(kinds.get("conv", (0, 0))[0],
                                            batch, *fb("ops.conv")), "GMAC/s")
    out["shift.gb_s"] = (join.word_rate(kinds.get("shift", (0, 0))[1],
                                        batch, *fb("shift")), "GB/s")
    bn_fwd_ms, bn_bwd_ms = fb("ops.bn")
    out["ops.bn.gb_s"] = (join.bn_rate(_median_sum(nbytes, steps, ["ops.bn.fwd"]),
                                       bn_fwd_ms,
                                       _median_sum(nbytes, steps, ["ops.bn.bwd"]),
                                       bn_bwd_ms), "GB/s")
    calls = [sum(1 for n, s in zip(tracer.names, tracer.steps)
                 if s == step and n.startswith(("ops.", "shift.")))
             for step in steps[:1]]
    out["blocks.layer_calls"] = (calls[0] if calls else 0, "count")
    return out


# Self-time names that the per-layer metrics above account for.
COVERED = (tuple(f"{s}.{d}" for s in OP_STEMS + HEAD_STEMS for d in ("fwd", "bwd"))
           + ("blocks.fwd", "blocks.bwd", "nets.fwd", "nets.bwd", "pipeline.data",
              "pipeline.forward", "pipeline.backward", "pipeline.update", "step"))


def coverage_pct(own: dict) -> float:
    """Share of all step time that the reported self times account for.

    Over all steps, the self times of the covered span names summed, against
    the summed self times of every span; below 100 means some layer kind has
    no metric of its own.
    """
    covered = sum(v for step in own.values() for n, v in step.items() if n in COVERED)
    total = sum(v for step in own.values() for v in step.values())
    return 100.0 * covered / total if total else 0.0


def layer_table(tracer: Tracer, batch: int, models) -> list[dict]:
    """One row per layer object: median fwd/bwd self ms joined with its model."""
    own = self_times(tracer)
    per: dict = {}
    for name, label, step, ns, nb in zip(tracer.names, tracer.labels, tracer.steps,
                                         own, tracer.nbytes):
        if step < 0 or not label or name.startswith(("blocks.", "nets.")):
            continue
        row = per.setdefault(label, {"stem": name.rsplit(".", 1)[0],
                                     "fwd": {}, "bwd": {}, "nbytes": nb})
        side = row["fwd" if name.endswith(".fwd") else "bwd"]
        side[step] = side.get(step, 0) + ns
    rows = []
    for label, row in per.items():
        fwd = float(np.median(list(row["fwd"].values()))) / 1e6 if row["fwd"] else 0.0
        bwd = float(np.median(list(row["bwd"].values()))) / 1e6 if row["bwd"] else 0.0
        model = models.get(label)
        macs = model.macs if model else 0
        words = model.words if model else 0
        rows.append({"layer": label, "stem": row["stem"], "fwd_ms": fwd,
                     "bwd_ms": bwd, "macs_per_image": macs,
                     "words_per_image": words,
                     "gmac_s": join.mac_rate(macs, batch, fwd, bwd),
                     "modeled_gb_s": join.word_rate(words, batch, fwd, bwd)
                     if words and row["stem"] == "shift" else None,
                     "input_bytes": row["nbytes"]})
    return rows


def _step_peak_bytes(runner: Runner) -> int:
    """tracemalloc peak over one step or batch."""
    gc.collect()
    tracemalloc.start()
    try:
        runner.run(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _fused_vs_unfused(runner: Runner, budget_s: float) -> tuple[float, float, float]:
    """fused_shift_pointwise against shift + 1x1 on each CscBlock's real input.

    One more step captures every CscBlock's shift input. Both kernels must
    agree to FUSED_GATE_RTOL on every block before either is timed. Returns
    the per-block median times summed over blocks (ms per step) and the
    worst relative difference seen.
    """
    blocks = [(name, b) for name, b in runner.net.named_blocks()
              if isinstance(b, CscBlock)]
    if not blocks:
        return 0.0, 0.0, 0.0
    captured: dict = {}
    patches = Patches()

    def capture(name):
        def make(inner):
            def hooked(x, *args, **kwargs):
                captured[name] = x
                return inner(x, *args, **kwargs)
            return hooked
        return make

    for name, b in blocks:
        patches.wrap(b.shift, "forward", capture(name))
    try:
        runner.run(1)
    finally:
        patches.restore()
    cases = []
    worst = 0.0
    for name, b in blocks:
        x = captured[name]
        kernel = ConvKernel(b.pw2.weight.value, b.cfg.stride)
        fused = fused_shift_pointwise(x, b.spec, kernel)
        unfused = unfused_shift_pointwise(x, b.spec, kernel)
        rel = float(np.max(np.abs(fused - unfused))
                    / max(float(np.max(np.abs(unfused))), 1e-12))
        runner.tally.gate(rel <= FUSED_GATE_RTOL,
                          f"{name}: fused/unfused divergence {rel:.3g}")
        worst = max(worst, rel)
        cases.append((x, b.spec, kernel))
    if worst > FUSED_GATE_RTOL:
        return 0.0, 0.0, worst
    times = [([], []) for _ in cases]
    deadline = _now() + budget_s * 1e9
    for rep in range(5):
        if rep and _now() > deadline:
            break
        for (x, spec, kernel), (fs, us) in zip(cases, times):
            us.append(_elapsed(unfused_shift_pointwise, x, spec, kernel))
            fs.append(_elapsed(fused_shift_pointwise, x, spec, kernel))
    fused_ms = sum(statistics.median(fs) for fs, _ in times) / 1e6
    unfused_ms = sum(statistics.median(us) for _, us in times) / 1e6
    return fused_ms, unfused_ms, worst


def _checkpoint_round_trip(runner: Runner, workdir: str) -> tuple[float, float, int]:
    """Save and reload the network; the reload must restore every array exactly."""
    path = os.path.join(workdir, "roundtrip.ckpt.json")
    save_ns = _elapsed(pipeline.save_checkpoint, runner.net, path)
    t0 = _now()
    loaded, _ = pipeline.load_checkpoint(path)
    load_ns = _now() - t0
    want = runner.net.named_state()
    got = dict(loaded.named_state())
    same = all(np.array_equal(a, got.get(n)) for n, a in want)
    runner.tally.gate(same, "checkpoint round trip changed an array")
    return save_ns / 1e6, load_ns / 1e6, os.path.getsize(path + ".blob")
