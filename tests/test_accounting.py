import pytest

from shiftnet.accounting import (arithmetic_intensity, cost_report,
                                 count_flops, count_params, format_table,
                                 memory_access_words, reduction_report,
                                 report_to_csv)
from shiftnet.blocks import Conv, Shift
from shiftnet.nets import build_resnet, build_shiftresnet, build_shiftnet
from shiftnet.shift import make_shift_spec


class TestMacCounting:
    def test_single_spatial_conv_hand_value(self):
        conv = Conv(16, 16, 3)
        entries, out_shape = conv.cost_entries("conv", (16, 32, 32))
        assert out_shape == (16, 32, 32)
        assert entries[0].macs == 2_359_296  # 16*16*9*32*32
        assert entries[0].params == 2_304

    def test_strided_conv_uses_output_positions(self):
        conv = Conv(16, 16, 3, stride=2)
        entries, out_shape = conv.cost_entries("conv", (16, 32, 32))
        assert out_shape == (16, 16, 16)
        assert entries[0].macs == 16 * 16 * 9 * 16 * 16

    def test_shift_layer_is_free(self):
        layer = Shift(make_shift_spec(64, 3))
        entries, out_shape = layer.cost_entries("s", (64, 32, 32))
        assert entries[0].params == 0 and entries[0].macs == 0
        assert out_shape == (64, 32, 32)

    def test_every_shift_row_is_zero_in_full_report(self):
        report = cost_report(build_shiftresnet(56, 3), 32)
        shift_rows = [r for r in report.per_layer if ".shift" in r[0]]
        assert len(shift_rows) == 27
        assert all(p == 0 and m == 0 for _, p, m, _ in shift_rows)

    def test_flops_conventions(self):
        net = build_shiftresnet(20, 3)
        macs = count_flops(net, 32, "macs")
        assert count_flops(net, 32, "flops_2x") == 2 * macs
        with pytest.raises(ValueError):
            count_flops(net, 32, "gflops")

    def test_report_independent_of_weights(self):
        a = cost_report(build_shiftresnet(20, 3, seed=0), 32)
        b = cost_report(build_shiftresnet(20, 3, seed=99), 32)
        assert a.params == b.params and a.macs == b.macs
        assert a.per_layer == b.per_layer

    def test_params_equal_optimizer_updated_scalars(self):
        for net in (build_resnet(20), build_shiftresnet(20, 3), build_shiftnet("c")):
            updated = sum(p.size for _, p in net.named_params())
            assert updated == count_params(net)

    def test_depthwise_to_shift_substitution_delta(self):
        m, k, f = 32, 3, 16
        depthwise_macs = m * k * k * f * f
        depthwise_params = m * k * k
        layer = Shift(make_shift_spec(m, k))
        entries, _ = layer.cost_entries("s", (m, f, f))
        assert depthwise_macs - entries[0].macs == m * k * k * f * f
        assert depthwise_params - entries[0].params == m * k * k

    def test_small_channel_shift_flagged(self):
        report_net = build_shiftresnet(20, 0.25)  # mid = 4 < 9 window positions
        report = cost_report(report_net, 32)
        assert any("shift groups empty" in n for n in report.notes)


class TestArithmeticIntensity:
    def test_spatial_hand_value(self):
        ai = arithmetic_intensity("conv", 64, 64, 32, 3)
        assert ai == 37_748_736 / 167_936
        assert abs(ai - 224.8) < 0.1

    def test_depthwise_hand_value(self):
        ai = arithmetic_intensity("depthwise", 64, 64, 32, 3)
        assert ai == 589_824 / 131_648
        assert abs(ai - 4.48) < 0.01

    def test_depthwise_below_spatial_on_grid(self):
        for m in (2, 4, 16, 64, 256):
            for k in (2, 3, 5, 7):
                for f in (8, 32, 128):
                    assert (arithmetic_intensity("depthwise", m, m, f, k)
                            < arithmetic_intensity("conv", m, m, f, k))

    def test_equal_at_single_channel(self):
        assert arithmetic_intensity("depthwise", 1, 1, 16, 3) == \
            arithmetic_intensity("conv", 1, 1, 16, 3)

    def test_shift_reports_zero_compute(self):
        assert arithmetic_intensity("shift", 64, 64, 32, 3) == 0.0
        assert memory_access_words("shift", 64, 64, 32, 3) == 2 * 64 * 32 * 32

    def test_depthwise_words_hand_value(self):
        assert memory_access_words("depthwise", 64, 64, 32, 3) == 131_648

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            arithmetic_intensity("winograd", 1, 1, 1, 1)


class TestReductionReport:
    def test_identical_reports(self):
        rep = cost_report(build_resnet(20), 32)
        assert reduction_report(rep, rep) == (1.0, 1.0)

    def test_published_rate_56_3(self):
        base = cost_report(build_resnet(56), 32)
        other = cost_report(build_shiftresnet(56, 3), 32)
        prate, frate = reduction_report(base, other)
        assert abs(prate - 2.9) <= 0.10 * 2.9
        assert frate > 1.0

    def test_published_rate_20_1(self):
        base = cost_report(build_resnet(20), 32)
        other = cost_report(build_shiftresnet(20, 1), 32)
        prate, _ = reduction_report(base, other)
        assert abs(prate - 7.8) <= 0.15 * 7.8

    def test_zero_denominator(self):
        rep = cost_report(build_resnet(20), 32)
        zero = cost_report(build_resnet(20), 32)
        zero.params = 0
        with pytest.raises(ZeroDivisionError):
            reduction_report(rep, zero)


class TestEmission:
    def test_csv_layout(self):
        rep = cost_report(build_shiftresnet(20, 1), 32)
        lines = report_to_csv(rep).strip().splitlines()
        assert lines[0] == "layer,params,macs,ai"
        assert lines[-1].startswith("total,")
        total = int(lines[-1].split(",")[1])
        assert total == rep.params
        assert len(lines) == len(rep.per_layer) + 2

    def test_text_table_totals(self):
        rep = cost_report(build_shiftresnet(20, 1), 32)
        text = format_table(rep)
        assert str(rep.params) in text and "flops_2x" in text
