import tracemalloc

import numpy as np
import pytest

from shiftnet.accounting import count_params
from shiftnet.blocks import BasicBlock, CscBlock, Shift
from shiftnet.nets import (ArchRow, Network, build_by_name, build_resnet,
                           build_shiftnet, build_shiftresnet, dump_config,
                           parse_config, rebuild, reduce_resnet, scaled_resnet)


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

    def test_dump_carries_table_columns(self):
        text = dump_config(build_shiftnet("a"))
        for key in ("type", "stride", "kernel", "expansion", "out_channels", "repeat"):
            assert f"{key} = " in text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config("type = csc\n")  # key before any section
        with pytest.raises(ValueError):
            parse_config("[net]\nname = x\n")  # no rows


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
