"""Span bookkeeping: self-time arithmetic, phases, wrapper install/removal."""

import pytest

from perfbench import trace, workloads
from perfbench.trace import Patches, Phases, Tracer


def _tree(spans):
    """Tracer holding hand-built spans: (name, start, end, parent, step)."""
    t = Tracer()
    for name, start, end, parent, step in spans:
        t.names.append(name)
        t.labels.append("")
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.steps.append(step)
        t.nbytes.append(0)
    return t


# One train step of 100 ns: data 10, forward 50 (loss 4 of it), backward 35,
# update 5. Inside: a network, one block, three layers forward, two backward.
STEP = [
    ("step", 0, 100, -1, 0),                 # 0
    ("pipeline.data", 0, 10, 0, 0),          # 1
    ("pipeline.forward", 10, 60, 0, 0),      # 2
    ("nets.fwd", 12, 58, 2, 0),              # 3
    ("blocks.fwd", 13, 50, 3, 0),            # 4
    ("ops.bn.fwd", 14, 20, 4, 0),            # 5
    ("shift.fwd", 20, 30, 4, 0),             # 6
    ("ops.pointwise.fwd", 31, 45, 4, 0),     # 7
    ("pipeline.backward", 60, 95, 0, 0),     # 8
    ("nets.bwd", 61, 94, 8, 0),              # 9
    ("blocks.bwd", 62, 90, 9, 0),            # 10
    ("ops.pointwise.bwd", 62, 80, 10, 0),    # 11
    ("shift.bwd", 80, 88, 10, 0),            # 12
    ("pipeline.update", 95, 100, 0, 0),      # 13
]


def test_self_times_of_hand_built_tree():
    own = trace.self_times(_tree(STEP))
    assert own == [0, 10, 4, 9, 7, 6, 10, 14, 2, 5, 2, 18, 8, 5]


def test_self_times_add_up_to_the_step():
    t = _tree(STEP)
    own = trace.self_times(t)
    assert sum(own) == 100
    per_step = trace.by_step(t, own)
    assert per_step[0]["blocks.fwd"] == 7
    assert per_step[0]["nets.fwd"] + per_step[0]["nets.bwd"] == 9 + 5
    assert workloads.coverage_pct(per_step) == 100.0


def test_coverage_flags_a_layer_kind_without_a_metric():
    spans = STEP[:8] + [("ops.depthwise.fwd", 46, 50, 4, 0)] + STEP[8:]
    spans = [(n, s, e, p + (p >= 8), st) for n, s, e, p, st in spans]
    own = trace.by_step(_tree(spans), trace.self_times(_tree(spans)))
    assert workloads.coverage_pct(own) == pytest.approx(96.0)


def test_layer_metrics_from_hand_built_tree():
    t = _tree(STEP + [(n, s + 100, e + 100, p + len(STEP) if p >= 0 else -1, 1)
                      for n, s, e, p, _ in STEP])
    m = workloads.layer_metrics(t, batch=1, models={})
    assert m["ops.bn.fwd_ms"][0] == 6e-6
    assert m["shift.fwd_ms"][0] == 10e-6
    assert m["shift.bwd_ms"][0] == 8e-6
    assert m["ops.pointwise.bwd_ms"][0] == 18e-6
    assert m["blocks.self_ms"][0] == 9e-6
    assert m["nets.self_ms"][0] == 14e-6
    assert m["pipeline.forward_ms"][0] == 50e-6
    assert m["pipeline.loss_ms"][0] == 6e-6
    assert m["pipeline.step_ms"][0] == 100e-6
    assert m["blocks.layer_calls"][0] == 5
    assert m["trace.coverage_pct"][0] == 100.0


class _Layer:
    kind = "relu"

    def forward(self, x, mode="train"):
        return x + 1

    def backward(self, d):
        return d * 2


class _Block:
    def __init__(self):
        self.a = _Layer()
        self.b = _Layer()

    def forward(self, x, mode="train"):
        return self.b.forward(self.a.forward(x, mode), mode)

    def backward(self, d):
        return self.a.backward(self.b.backward(d))


def test_wrappers_nest_spans_and_restore_the_class_methods():
    block = _Block()
    t = Tracer()
    patches = Patches()
    workloads._wrap_layer(t, patches, "blk", block)
    assert block.forward(1) == 3
    assert block.backward(1) == 4
    assert t.names == ["blocks.fwd", "ops.relu.fwd", "ops.relu.fwd",
                       "blocks.bwd", "ops.relu.bwd", "ops.relu.bwd"]
    assert t.labels == ["blk", "blk.a", "blk.b", "blk", "blk.b", "blk.a"]
    assert t.parents == [-1, 0, 0, -1, 3, 3]
    patches.restore()
    assert "forward" not in vars(block) and "forward" not in vars(block.a)
    block.forward(1)
    assert len(t.names) == 6


def test_phases_split_a_loop_into_steps():
    t = Tracer()
    phases = Phases(t)
    for _ in range(2):
        phases.enter("pipeline.data")
        phases.enter("pipeline.forward")
        i = t.open("nets.fwd")
        t.close(i)
        phases.enter("pipeline.backward")
        phases.enter("pipeline.update")
    phases.finish()
    assert t.names.count("step") == 2
    assert t.steps == [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    steps = [i for i, n in enumerate(t.names) if n == "step"]
    assert all(t.parents[i] == -1 for i in steps)
    own = trace.self_times(t)
    dur = trace.durations(t)
    for s in steps:
        assert sum(o for o, st in zip(own, t.steps) if st == t.steps[s]) == dur[s]


def test_close_out_of_order_is_an_error():
    t = Tracer()
    outer = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(outer)
