import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftnet import ops
from shiftnet.accounting import count_params
from shiftnet.blocks import BasicBlock, Composite, CscBlock, ReLU, Shift
from shiftnet.nets import (_ROW_DEFAULTS, ROW_KEYS, ROW_TYPES, ArchRow, NetHeader, Network,
                           build_by_name, build_resnet, build_shiftnet, build_shiftresnet,
                           dump_config, parse_config, rebuild, reduce_resnet,
                           scaled_resnet)
from shiftnet.pipeline import TrainSchedule, synth_dataset, train
from shiftnet.shift import make_shift_spec


class TestSkeletons:
    def test_block_counts(self):
        assert len(build_shiftresnet(20, 1).named_blocks()) == 9
        assert len(build_shiftresnet(56, 1).named_blocks()) == 27
        assert len(build_resnet(110).named_blocks()) == 54

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            build_resnet(34)
        with pytest.raises(ValueError):
            build_shiftresnet(18, 1)

    def test_invalid_expansion_and_variant(self):
        with pytest.raises(ValueError):
            build_shiftresnet(20, 0)
        with pytest.raises(ValueError):
            build_shiftnet("d")

    def test_group_widths_and_strides(self):
        net = build_shiftresnet(20, 1)
        blocks = dict(net.named_blocks())
        assert blocks["group1.block0"].cfg.in_channels == 16
        assert blocks["group2.block0"].cfg.stride == 2
        assert blocks["group2.block0"].cfg.out_channels == 32
        assert blocks["group3.block0"].cfg.out_channels == 64
        assert blocks["group3.block2"].cfg.stride == 1

    def test_shiftresnet_and_resnet_share_skeleton(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        shapes = {}
        for name, net in (("shift", build_shiftresnet(20, 3)), ("plain", build_resnet(20))):
            h = x
            out = []
            for lname, layer in net.layers:
                h = layer.forward(h, "eval")
                if isinstance(layer, (CscBlock, BasicBlock)):
                    out.append(h.shape)
            shapes[name] = out
        assert shapes["shift"] == shapes["plain"]

    def test_batch_split_consistency(self):
        # eval-mode results are per-sample; batching must only reassociate floats
        rng = np.random.default_rng(17)
        net = build_shiftresnet(20, 1)
        x = rng.normal(size=(6, 3, 32, 32)).astype(np.float32)
        net.forward(x, "train")  # give running stats non-default values
        whole = net.forward(x, "eval")
        parts = np.concatenate([net.forward(x[:2], "eval"),
                                net.forward(x[2:], "eval")])
        np.testing.assert_allclose(whole, parts, rtol=1e-6, atol=1e-6)

    def test_forward_yields_logits(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        nets = [build_resnet(20), build_shiftresnet(20, 1),
                build_shiftnet("a"), build_shiftnet("b"), build_shiftnet("c"),
                scaled_resnet(20, 0.4, "net_wise")]
        for net in nets:
            y = net.forward(x, "eval")
            assert y.shape == (2, net.num_classes)
            assert np.all(np.isfinite(y))

    def test_shiftnet_structure(self):
        a = build_shiftnet("a")
        assert len(a.named_blocks()) == 21  # 4 groups: 1+4, 1+5, 1+6, 1+2
        kernels = {name: b.cfg.kernel_size for name, b in a.named_blocks()}
        assert kernels["group1.block0"] == 5 and kernels["group4.block0"] == 3
        c = build_shiftnet("c")
        assert len(c.named_blocks()) == 12  # 1, 4, 4, 3
        assert all(b.cfg.expansion == 1.0 for _, b in c.named_blocks())

    def test_builder_determinism(self):
        a = build_shiftresnet(20, 3, seed=5)
        b = build_shiftresnet(20, 3, seed=5)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb and np.array_equal(pa.value, pb.value)
        c = build_shiftresnet(20, 3, seed=6)
        assert any(not np.array_equal(pa.value, pc.value)
                   for (_, pa), (_, pc) in zip(a.named_params(), c.named_params()))

    def test_build_by_name(self):
        assert build_by_name("shiftresnet56", 3).name == "shiftresnet56-3"
        assert build_by_name("resnet20").name == "resnet20"
        assert build_by_name("shiftnetb").num_classes == 1000
        with pytest.raises(ValueError):
            build_by_name("vgg16")

    @pytest.mark.parametrize("name", ["resnet", "shiftresnet", "resnetx",
                                      "resnet20x", "shiftresnet-20"])
    def test_build_by_name_rejects_malformed_depth(self, name):
        with pytest.raises(ValueError, match=f"^unknown architecture '{name}'$"):
            build_by_name(name)


class TestParamHeadlines:
    def test_table_values(self):
        assert abs(count_params(build_shiftresnet(56, 3)) - 0.29e6) <= 0.05 * 0.29e6
        assert abs(count_params(build_resnet(56)) - 0.87e6) <= 0.05 * 0.87e6


class TestReduction:
    def test_target_at_or_above_full_rejected(self):
        full = count_params(build_resnet(20))
        with pytest.raises(ValueError):
            reduce_resnet(20, full, "net_wise")

    def test_net_wise_hits_published_window(self):
        net = reduce_resnet(110, 203_000, "net_wise")
        p = count_params(net)
        assert 0.95 * 211_000 <= p <= 1.05 * 211_000

    def test_module_wise_is_maximal_under_limit(self):
        target = 203_000
        net = reduce_resnet(110, target, "module_wise")
        p = count_params(net)
        assert p <= 1.02 * target
        # the next achievable width step on the tied-scale lattice overshoots
        mid = dict(net.named_blocks())["group1.block0"].mid_channels
        probe = scaled_resnet(110, (mid + 1) / 16 + 1e-9, "module_wise")
        assert count_params(probe) > 1.02 * target

    def test_resnet56_to_shiftresnet56_6_target(self):
        target = count_params(build_shiftresnet(56, 6))
        net = reduce_resnet(56, target, "net_wise")
        p = count_params(net)
        assert 0.95 * target <= p <= 1.05 * target
        assert abs(p - 0.58e6) <= 0.05 * 0.58e6

    def test_scale_one_matches_full_build(self):
        for mode in ("module_wise", "net_wise"):
            a = scaled_resnet(20, 1.0, mode)
            b = build_resnet(20)
            assert count_params(a) == count_params(b)
            for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
                assert na == nb
                assert np.array_equal(pa.value, pb.value)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            scaled_resnet(20, 0.5, "layer_wise")


class TestConfigRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: build_shiftresnet(20, 3),
        lambda: build_resnet(56),
        lambda: build_shiftnet("a"),
        lambda: build_shiftnet("c"),
        lambda: scaled_resnet(20, 0.4, "module_wise"),
    ])
    def test_dump_parse_rebuild(self, make):
        net = make()
        text = dump_config(net)
        cfg = parse_config(text)
        clone = rebuild(cfg)
        assert clone.name == net.name
        assert clone.rows == net.rows
        assert count_params(clone) == count_params(net)
        for (na, pa), (nb, pb) in zip(net.named_params(), clone.named_params()):
            assert na == nb and np.array_equal(pa.value, pb.value)

    def test_dump_keeps_input_channels(self):
        net = Network("shift_layer", [ArchRow("shift", "shift")], num_classes=0,
                      input_channels=64)
        clone = rebuild(parse_config(dump_config(net)))
        assert clone.config() == net.config()
        shift = clone.layers[0][1]
        assert isinstance(shift, Shift) and shift.spec.channels == 64

    _SHIFT_ROW = ("[net]\nnum_classes = 0\ninput_channels = 16\n\n[row0]\n"
                  "label = shift\ntype = shift\n")

    def test_shift_row_builds_its_stride(self):
        text = self._SHIFT_ROW + "stride = 2\n"
        net = rebuild(parse_config(text))
        assert net.layers[0][1].stride == 2
        x = np.random.default_rng(0).normal(size=(2, 16, 8, 8)).astype(np.float32)
        assert net.forward(x, "eval").shape == (2, 16, 4, 4)
        assert dump_config(net).endswith("stride = 2\n")

    def test_shift_row_builds_its_permutation(self):
        text = self._SHIFT_ROW + "permutation_id = 3\n"
        net = rebuild(parse_config(text))
        assert net.layers[0][1].spec == make_shift_spec(16, 3, 1, permutation_id=3)
        assert dump_config(net).endswith("permutation_id = 3\n")

    def test_dump_carries_table_columns(self):
        text = dump_config(build_shiftnet("a"))
        for key in ("type", "stride", "kernel", "expansion", "out_channels", "repeat"):
            assert f"{key} = " in text

    _TEXT = ("[net]\nname = tiny\nnum_classes = 10\n\n[row0]\nlabel = stem\n"
             "type = conv\nout_channels = 8\n\n[row1]\nlabel = pool\ntype = pool\n")

    @pytest.mark.parametrize("old,new,section,key", [
        ("num_classes = 10", "num_classes = ten", "net", "num_classes"),
        ("num_classes = 10", "num_clases = 100", "net", "num_clases"),
        ("out_channels = 8", "out_channel = 8", "row0", "out_channel"),
        ("out_channels = 8", "out_channels = 0", "row0", "out_channels"),
        ("type = pool", "type = pool\nrepeat = 0", "row1", "repeat"),
        ("type = pool", "type = cnv", "row1", "type"),
        ("out_channels = 8", "out_channels = 8\nstride = 0", "row0", "stride"),
        ("num_classes = 10", "num_classes = -3", "net", "num_classes"),
        ("num_classes = 10", "num_classes = 10\nseed = -1", "net", "seed"),
        ("type = pool", "type = shift\npermutation_id = -2", "row1", "permutation_id"),
    ])
    def test_bad_key_or_value_named(self, old, new, section, key):
        assert rebuild(parse_config(self._TEXT)).num_classes == 10
        with pytest.raises(ValueError, match=rf"section \[{section}\].*\b{key}\b"):
            parse_config(self._TEXT.replace(old, new))

    # rules that involve the previous row's width belong to the layer; the
    # build names the row whose layer raised
    @pytest.mark.parametrize("row1,message", [
        ("type = csc\nout_channels = 16\nstride = 3\n", "stride must be 1 or 2, got 3"),
        ("type = csc\nout_channels = 16\n",
         "stride-1 blocks need in_channels == out_channels"),
        ("type = basic\nout_channels = 16\n", "stride-1 basic blocks need in == out channels"),
    ], ids=["csc-stride-3", "csc-wider", "basic-wider"])
    def test_layer_rule_names_row(self, row1, message):
        text = "[row0]\nlabel = stem\ntype = conv\nout_channels = 8\n[row1]\nlabel = g\n"
        with pytest.raises(ValueError, match=rf"^section \[row1\]: {message}"):
            rebuild(parse_config(text + row1))

    def test_fc_row_needs_a_class(self):
        text = self._TEXT.replace("num_classes = 10", "num_classes = 0")
        assert rebuild(parse_config(text)).num_classes == 0     # no head, no classes
        with pytest.raises(ValueError, match=r"^section \[row2\]: an fc row needs "
                                             r"num_classes of at least 1, got 0$"):
            rebuild(parse_config(text + "[row2]\nlabel = fc\ntype = fc\n"))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config("type = csc\n")  # key before any section
        with pytest.raises(ValueError):
            parse_config("[net]\nname = x\n")  # no rows


# valid values, and at most one bad value per case, so that many cases reach
# the build (widths up to 64, repeat up to 3); a row draws only the keys its
# type reads, since any other key away from its default is a bad value
_FUZZ_KEYS = {
    "out_channels": st.sampled_from((8, 16, 32, 64)),
    "stride": st.sampled_from((1, 2, 3)),
    "kernel": st.sampled_from((1, 3, 5)),
    "expansion": st.sampled_from(("1", "3", "0.5", "0.01")),
    "dilation": st.sampled_from((1, 2)),
    "downsample": st.sampled_from(("add", "concat")),
    "permutation_id": st.sampled_from((0, 3)),
    "mid_channels": st.sampled_from((8, 16)),
}


def _fuzz_row(kind):
    keys = ROW_KEYS[kind]
    width = {"out_channels": _FUZZ_KEYS["out_channels"]} if "out_channels" in keys else {}
    return st.fixed_dictionaries({"type": st.just(kind), **width}, optional={
        "repeat": st.sampled_from((1, 2, 3)),
        **{key: _FUZZ_KEYS[key] for key in keys if key != "out_channels"}})


_FUZZ_ROW = st.one_of(*map(_fuzz_row, ROW_TYPES))
_FUZZ_NET = st.fixed_dictionaries({}, optional={
    "num_classes": st.sampled_from((10, 3, 0)),
    "input_channels": st.sampled_from((3, 8, 16)),
    "seed": st.sampled_from((0, 7)),
})
_FUZZ_BAD = (("net", "num_classes", -1), ("net", "input_channels", 0), ("net", "seed", "x"),
             ("row", "type", "cnv"), ("row", "out_channels", 0), ("row", "repeat", 0),
             ("row", "stride", 0), ("row", "kernel", 4), ("row", "expansion", "nan"),
             ("row", "expansion", "x"), ("row", "dilation", 0), ("row", "downsample", "cat"),
             ("row", "permutation_id", -1), ("row", "mid_channels", 0), ("row", "widht", 8),
             ("row", "mid_channels", 99))       # read by basic rows only


class TestConfigFuzz:
    """Every small text config builds and round-trips, or names its section."""

    @given(_FUZZ_NET, st.lists(_FUZZ_ROW, min_size=1, max_size=4),
           st.none() | st.tuples(st.integers(0, 3), st.sampled_from(_FUZZ_BAD)))
    @settings(max_examples=300, deadline=None)
    def test_builds_or_names_section(self, head, rows, bad):
        if bad:
            i, (where, key, value) = bad
            (head if where == "net" else rows[i % len(rows)])[key] = value
        sections = [("net", head)] + [(f"row{i}", {"label": f"r{i}", **row})
                                      for i, row in enumerate(rows)]
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                       for name, body in sections)
        try:
            net = rebuild(parse_config(text))
        except ValueError as e:
            assert re.match(r"section \[(net|row\d+)\]", str(e)), str(e)
            return
        assert parse_config(dump_config(net)) == net.config()


# JSON values with small numbers, so that one in any slot allocates little
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-4, 4)
    | st.sampled_from((float("nan"), float("inf"))) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
_CONFIG_KEYS = tuple(f.name for f in fields(ArchRow)) + tuple(f.name for f in fields(NetHeader)) \
    + ("rows", "widht")


class TestCheckpointConfigFuzz:
    """A checkpoint's config object with any JSON value in any slot builds and
    round-trips, or names its section."""

    @given(_FUZZ_NET, st.lists(_FUZZ_ROW, min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(-1, 3), st.sampled_from(_CONFIG_KEYS), _JSON),
                    max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_builds_or_names_section(self, head, rows, edits):
        rows = [{"label": f"r{i}", **row} for i, row in enumerate(rows)]
        config = {"name": "fuzz", **head}
        for where, key, value in edits:
            (config if where < 0 else rows[where % len(rows)])[key] = value
        config.setdefault("rows", rows)      # a [net] edit may replace the row list
        try:
            net = rebuild(config)
        except ValueError as e:
            assert re.match(r"section \[(net|row\d+)\]", str(e)), str(e)
            return
        assert rebuild(net.config()).config() == net.config()


class TestArchRowBounds:
    @pytest.mark.parametrize("row,message", [
        (lambda: ArchRow("stem", "conv", 0), "out_channels must be at least 1, got 0"),
        (lambda: ArchRow("g", "csc", 16, repeat=0), "repeat must be at least 1, got 0"),
        (lambda: ArchRow("pool", "pool", repeat=-1), "repeat must be at least 1, got -1"),
        (lambda: ArchRow("g", "basic", 16, mid_channels=0),
         "mid_channels must be at least 1, got 0"),
        (lambda: ArchRow("stem", "cnv", 8),
         "type must be one of conv, csc, sc2, basic, shift, pool, fc; got 'cnv'"),
        (lambda: ArchRow("stem", "conv", 8, kernel=0), "kernel must be odd and positive, got 0"),
        (lambda: ArchRow("stem", "conv", 8, kernel=4), "kernel must be odd and positive, got 4"),
        (lambda: ArchRow("g", "csc", 16, stride=0), "stride must be at least 1, got 0"),
        (lambda: ArchRow("s", "shift", dilation=0), "dilation must be at least 1, got 0"),
        (lambda: ArchRow("g", "csc", 16, downsample="cat"),
         "downsample must be add or concat, got 'cat'"),
        (lambda: ArchRow("g", "csc", 16, expansion=float("nan")),
         "expansion must be finite and positive, got nan"),
        (lambda: ArchRow("g", "csc", 16, expansion=float("inf")),
         "expansion must be finite and positive, got inf"),
        (lambda: ArchRow("g", "csc", 16, expansion=0.0),
         "expansion must be finite and positive, got 0.0"),
        (lambda: ArchRow("s", "shift", permutation_id=-2),
         "permutation_id must be at least 0, got -2"),
        (lambda: ArchRow("g", "csc", 16, permutation_id=-1),
         "permutation_id must be at least 0, got -1"),
        (lambda: ArchRow("g", "basic", 16, kernel=5), "basic rows do not read kernel; got 5"),
        (lambda: ArchRow("stem", "conv", 8, dilation=3), "conv rows do not read dilation; got 3"),
        (lambda: ArchRow("g", "sc2", 16, mid_channels=8),
         "sc2 rows do not read mid_channels; got 8"),
        (lambda: ArchRow("pool", "pool", out_channels=77),
         "pool rows do not read out_channels; got 77"),
        (lambda: ArchRow("s", "shift", expansion=3.0),
         "shift rows do not read expansion; got 3.0"),
        (lambda: ArchRow("fc", "fc", downsample="concat"),
         "fc rows do not read downsample; got 'concat'"),
    ], ids=["conv-width-0", "repeat-0", "pool-repeat-negative", "mid-width-0",
            "type-unknown", "kernel-0", "kernel-even", "stride-0", "dilation-0",
            "downsample-unknown", "expansion-nan", "expansion-inf", "expansion-0",
            "shift-permutation-negative", "csc-permutation-negative", "basic-kernel",
            "conv-dilation", "sc2-mid-width", "pool-width", "shift-expansion", "fc-downsample"])
    def test_rejected(self, row, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            row()

    def test_rows_without_width_accepted(self):
        assert _ROW_DEFAULTS["out_channels"] == 0
        assert ArchRow("pool", "pool").out_channels == 0


def _leaves(layer):
    if not isinstance(layer, Composite):
        return [layer]
    return [leaf for _, child in layer.children() for leaf in _leaves(child)]


class TestRowKeys:
    # one value away from the default per key, and the keys both builds share
    # so that the value applies (a stride-1 block keeps its width; concat
    # needs stride 2 at doubled width)
    _AWAY = {"out_channels": (64, {"stride": 2}), "stride": (2, {}), "kernel": (5, {}),
             "expansion": (2.0, {}), "dilation": (2, {}),
             "downsample": ("concat", {"stride": 2, "out_channels": 64}),
             "permutation_id": (3, {}), "mid_channels": (8, {})}

    @staticmethod
    def _built(row):
        """Cost entries, shift specs and each layer's output shape of stem + row."""
        net = Network("n", [ArchRow("stem", "conv", 32), row], num_classes=0)
        specs = [layer.spec for layer in _leaves(net) if isinstance(layer, Shift)]
        h, shapes = np.zeros((1, 3, 16, 16), np.float32), []
        for _, layer in net.layers:
            h = layer.forward(h, "eval")
            shapes.append(h.shape)
        return net.cost_entries(16), specs, shapes

    @pytest.mark.parametrize("kind,key", [(kind, key) for kind, keys in ROW_KEYS.items()
                                          for key in keys])
    def test_every_listed_key_changes_the_build(self, kind, key):
        value, shared = self._AWAY[key]
        base = {"out_channels": 32} if "out_channels" in ROW_KEYS[kind] else {}
        base.update(shared)
        assert value != _ROW_DEFAULTS[key] and base.get(key) != value
        default = self._built(ArchRow("r", kind, **base))
        assert self._built(ArchRow("r", kind, **{**base, key: value})) != default


class TestNetHeaderBounds:
    @pytest.mark.parametrize("key,value,least", [
        ("num_classes", -3, 0), ("seed", -1, 0), ("input_channels", 0, 1)])
    def test_rejected(self, key, value, least):
        with pytest.raises(ValueError, match=f"^{key} must be at least {least}, got {value}$"):
            NetHeader(**{key: value})


class TestEvalKeepsNoCaches:
    def test_eval_forward_leaves_nothing_allocated(self):
        # 64 images at batch width 48: one held 16-image slice is megabytes
        net = build_shiftresnet(20, 3, seed=2)
        x = np.random.default_rng(2).normal(size=(64, 3, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits = net.forward(x, "eval")
            held = tracemalloc.get_traced_memory()[0] - before - logits.nbytes
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20, f"{held} bytes held after an eval forward"

    def test_backward_after_eval_forward_raises(self):
        net = build_shiftresnet(20, 1, seed=3)
        x = np.random.default_rng(3).normal(size=(2, 3, 32, 32)).astype(np.float32)
        dout = np.ones((2, net.num_classes), dtype=np.float32)
        with pytest.raises(RuntimeError, match="train-mode forward"):
            net.backward(dout)                   # no forward yet
        net.forward(x, "train")
        net.forward(x, "eval")
        with pytest.raises(RuntimeError, match="train-mode forward"):
            net.backward(dout)
        net.forward(x, "train")
        assert net.backward(dout).shape == x.shape
        with pytest.raises(RuntimeError, match="train-mode forward"):
            net.backward(dout)                   # the caches went with the first
        net.forward(x, "train")
        assert net.backward(dout).shape == x.shape


class TestTrainKeepsNoCaches:
    def test_train_step_leaves_nothing_allocated(self):
        # at batch 8 one 16-channel activation is 512 KB; all caches ~19 MB
        net = build_shiftresnet(20, 1, seed=2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        dout = rng.normal(size=(8, net.num_classes)).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.forward(x, "train")
            dx = net.backward(dout)
            held = tracemalloc.get_traced_memory()[0] - before - dx.nbytes
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20, f"{held} bytes held after forward and backward"


def _relus(layer):
    if isinstance(layer, ReLU):
        return [layer]
    if isinstance(layer, Composite):
        return [r for _, child in layer.children() for r in _relus(child)]
    return []


def _step_grads(net, x, y):
    """Parameter gradients of one train step, and each ReLU's kept-value mask."""
    net.zero_grads()
    logits = net.forward(x, "train")
    masks = [relu._saved > 0 for relu in _relus(net)]
    _, probs = ops.softmax_xent(logits, y)
    net.backward(ops.softmax_xent_backward(probs, y))
    return {name: p.grad.copy() for name, p in net.named_params()}, masks


class TestFloat64GradientOracle:
    """One float32 train step of shiftresnet20-1 against the same step in float64.

    The float64 copy takes the float32 net's ReLU masks: a pre-activation
    within rounding of zero may fall on the other side of the kink in float64
    (one of 524,288 did after 3 steps at seed 0, moving three group1.block2
    gradients by 1e-4), and that is a branch, not rounding. Measured with
    these masks (one BLAS thread), the worst per-parameter relative error was
    7.0e-7 at init and 2.2e-6 after 3 steps (medians 2.8e-7, 7.3e-7; 9.5e-7
    and 1.3e-6 before batch norm took its sums from per-image row sums). The 3
    steps reach other weights since the stem's weight gradient sums per-image
    products. On the weights 3 steps of its earlier one-GEMM sum reach, both
    sums give 7.6e-7, and on today's both give 2.2e-6, so the rise belongs to
    the state, not to the step's arithmetic; the stem weight's own error fell
    (3.3e-7 to 2.3e-7 at init). The bound leaves headroom.
    """

    BOUND = 1e-5

    def _errors(self, net32, x, y):
        net64 = build_shiftresnet(20, 1, dtype=np.float64)
        live = dict(net64.named_state())
        for name, a in net32.named_state():
            live[name][...] = a
        g32, masks = _step_grads(net32, x, y)
        for relu, keep in zip(_relus(net64), masks, strict=True):
            relu.run = lambda h, mode, keep=keep: (np.multiply(h, keep, out=h), keep)
        g64, _ = _step_grads(net64, x.astype(np.float64), y)
        return {name: np.linalg.norm(g32[name] - g64[name]) / np.linalg.norm(g64[name])
                for name in g64}

    @pytest.mark.parametrize("steps", [0, 3])
    def test_float32_step_matches_float64(self, steps):
        ds = synth_dataset(32, 10, seed=0)
        x, y = ds.batch(np.arange(32))
        net = build_shiftresnet(20, 1, seed=0)
        if steps:
            train(net, ds, TrainSchedule(max_iters=steps, batch_size=32, seed=0))
        errors = self._errors(net, x, y)
        worst = max(errors, key=errors.get)
        assert errors[worst] < self.BOUND, (worst, errors[worst])
