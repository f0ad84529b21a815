from dataclasses import replace

import pytest

from shiftnet.bench import (BenchCase, default_suite, parse_suite, run_bench,
                            run_case)


def _quick(kind, **kw):
    base = dict(channels=8, out_channels=8, feature=8, kernel=3, reps=3, warmup=1)
    base.update(kw)
    return BenchCase(kind, **base)


class TestModels:
    def test_depthwise_words_hand_value(self):
        rows = run_case(_quick("depthwise_pointwise", channels=64, out_channels=64,
                               feature=32, reps=2), seed=0)
        # depthwise words (131,648) + pointwise words
        pointwise_words = 32 * 32 * (64 + 64) + 64 * 64
        assert rows[0].model_words == 131_648 + pointwise_words

    def test_shift_only_zero_flops(self):
        rows = run_case(_quick("shift"), seed=0)
        assert rows[0].model_flops == 0
        assert rows[0].model_words == 2 * 8 * 8 * 8

    def test_fused_moves_fewer_words(self):
        rows = run_case(_quick("shift_pointwise"), seed=0)
        by_variant = {r.variant: r for r in rows}
        assert by_variant["fused"].model_words < by_variant["unfused"].model_words
        assert by_variant["fused"].model_flops == by_variant["unfused"].model_flops

    def test_strided_shift_pointwise_hand_values(self):
        # the default suite's s2 case: 64 -> 64 channels, 32x32 in, 16x16 out
        case = next(c for c in default_suite() if c.dims == "m64_n64_f32_k3_s2")
        rows = run_case(replace(case, reps=2, warmup=1), seed=0)
        by_variant = {r.variant: r for r in rows}
        pointwise_words = 16 * 16 * (64 + 64) + 64 * 64    # at the strided output
        for variant in ("fused", "unfused"):
            assert by_variant[variant].model_flops == 64 * 64 * 16 * 16 == 1_048_576
        assert by_variant["fused"].model_words == pointwise_words
        # the shift still moves the whole 32x32 input
        assert by_variant["unfused"].model_words == 2 * 64 * 32 * 32 + pointwise_words

    def test_spatial_flops(self):
        rows = run_case(_quick("spatial", channels=4, out_channels=6, feature=8),
                        seed=0)
        assert rows[0].model_flops == 4 * 6 * 8 * 8 * 9


class TestRunner:
    def test_correctness_gate_runs_before_timing(self):
        rows = run_case(_quick("shift_pointwise"), seed=1)
        assert {r.variant for r in rows} == {"fused", "unfused"}
        assert all(r.median_ns > 0 for r in rows)

    def test_reproducible_model_columns(self):
        a = run_bench([_quick("shift_pointwise")], seed=3)
        b = run_bench([_quick("shift_pointwise")], seed=3)
        fixed_a = [(r.kind, r.dims, r.variant, r.model_words, r.model_flops)
                   for r in a.rows]
        fixed_b = [(r.kind, r.dims, r.variant, r.model_words, r.model_flops)
                   for r in b.rows]
        assert fixed_a == fixed_b

    def test_default_suite_runs(self):
        cases = [BenchCase(c.kind, channels=min(c.channels, 16),
                           out_channels=min(c.out_channels, 16), feature=8,
                           kernel=c.kernel, stride=c.stride, reps=2, warmup=1)
                 for c in default_suite()]
        report = run_bench(cases, seed=0)
        assert len(report.rows) >= len(cases)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            BenchCase("conv_transpose")


class TestSuiteFile:
    def test_parse_round_trip(self):
        text = """
        [case]
        kind = shift_pointwise
        channels = 12
        out_channels = 6
        feature = 8
        kernel = 3
        reps = 2
        warmup = 1

        [case]
        kind = shift
        channels = 9
        """
        cases = parse_suite(text)
        assert len(cases) == 2
        assert cases[0].out_channels == 6
        assert cases[1].kind == "shift"

    def test_csv_columns(self):
        report = run_bench([_quick("shift")], seed=0)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "kind,dims,variant,median_ns,p10_ns,p90_ns,model_bytes,model_flops"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "shift"
        assert int(cells[6]) == 4 * 2 * 8 * 8 * 8  # bytes = 4 * words

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            parse_suite("# nothing here\n")
