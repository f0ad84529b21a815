import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftnet import bench
from shiftnet.bench import (KINDS, BenchCase, default_suite, parse_suite, run_bench,
                            run_case)
from shiftnet.shift import shift_forward


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
        assert rows[0].model_macs == 0
        assert rows[0].model_words == 2 * 8 * 8 * 8

    def test_fused_moves_fewer_words(self):
        rows = run_case(_quick("shift_pointwise"), seed=0)
        by_variant = {r.variant: r for r in rows}
        assert by_variant["fused"].model_words < by_variant["unfused"].model_words
        assert by_variant["fused"].model_macs == by_variant["unfused"].model_macs

    def test_strided_shift_pointwise_hand_values(self):
        # the default suite's s2 case: 64 -> 64 channels, 32x32 in, 16x16 out
        case = next(c for c in default_suite() if c.dims == "m64_n64_f32_k3_s2")
        rows = run_case(replace(case, reps=2, warmup=1), seed=0)
        by_variant = {r.variant: r for r in rows}
        pointwise_words = 16 * 16 * (64 + 64) + 64 * 64    # at the strided output
        for variant in ("fused", "unfused"):
            assert by_variant[variant].model_macs == 64 * 64 * 16 * 16 == 1_048_576
        assert by_variant["fused"].model_words == pointwise_words
        # the shift still moves the whole 32x32 input
        assert by_variant["unfused"].model_words == 2 * 64 * 32 * 32 + pointwise_words

    def test_shift_case_runs_at_its_stride(self, monkeypatch):
        strides = []

        def spy(x, spec, stride=1):
            strides.append(stride)
            return shift_forward(x, spec, stride)

        monkeypatch.setattr(bench, "shift_forward", spy)
        rows = run_case(_quick("shift", stride=2), seed=0)
        assert strides and set(strides) == {2}
        assert rows[0].dims.endswith("_s2")
        assert rows[0].model_words == 2 * 8 * 8 * 8     # at the input plane

    def test_spatial_flops(self):
        rows = run_case(_quick("spatial", channels=4, out_channels=6, feature=8),
                        seed=0)
        assert rows[0].model_macs == 4 * 6 * 8 * 8 * 9


class TestRunner:
    def test_correctness_gate_runs_before_timing(self):
        rows = run_case(_quick("shift_pointwise"), seed=1)
        assert {r.variant for r in rows} == {"fused", "unfused"}
        assert all(r.median_ns > 0 for r in rows)

    def test_reproducible_model_columns(self):
        a = run_bench([_quick("shift_pointwise")], seed=3)
        b = run_bench([_quick("shift_pointwise")], seed=3)
        fixed_a = [(r.kind, r.dims, r.variant, r.model_words, r.model_macs)
                   for r in a.rows]
        fixed_b = [(r.kind, r.dims, r.variant, r.model_words, r.model_macs)
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

    @pytest.mark.parametrize("field,value", [
        ("channels", 0), ("out_channels", 0), ("feature", 0), ("kernel", 0),
        ("stride", 0), ("batch", 0), ("reps", 0), ("warmup", -1)])
    def test_sizes_below_their_least_rejected(self, field, value):
        least = value + 1
        with pytest.raises(ValueError,
                           match=f"^{field} must be at least {least}, got {value}$"):
            BenchCase("shift", **{field: value})

    @pytest.mark.parametrize("kind,kernel", [("spatial", 2), ("shift", 4),
                                             ("depthwise_pointwise", 2)])
    def test_even_kernel_rejected(self, kind, kernel):
        with pytest.raises(ValueError, match=f"^section \\[case\\]: kernel must be odd, "
                                             f"got {kernel}$"):
            parse_suite(f"[case]\nkind = {kind}\nkernel = {kernel}\n")

    def test_zero_warmup_allowed(self):
        assert BenchCase("shift", warmup=0).warmup == 0


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
        assert lines[0] == "kind,dims,variant,median_ns,p10_ns,p90_ns,model_bytes,model_macs"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "shift"
        assert int(cells[6]) == 4 * 2 * 8 * 8 * 8  # bytes = 4 * words

    def test_section_without_kind_named(self):
        with pytest.raises(ValueError, match=r"section \[second\] has no kind"):
            parse_suite("[first]\nkind = shift\n[second]\nchannels = 9\n")

    @pytest.mark.parametrize("line,key", [("chanels = 8", "chanels"),
                                          ("channels = 8.5", "channels")])
    def test_bad_key_or_value_named(self, line, key):
        with pytest.raises(ValueError, match=rf"section \[case\].*\b{key}\b"):
            parse_suite(f"[case]\nkind = shift\n{line}\n")

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            parse_suite("# nothing here\n")


# valid values (channels and feature up to 8) and at most one bad value per
# case, so that many cases reach the run
_FUZZ_CASE = st.fixed_dictionaries({"kind": st.sampled_from(KINDS)}, optional={
    "channels": st.sampled_from((1, 4, 8)),
    "out_channels": st.sampled_from((1, 3, 8)),
    "feature": st.sampled_from((1, 2, 5, 8)),
    "kernel": st.sampled_from((1, 3, 5, 7)),
    "stride": st.sampled_from((1, 2, 3)),
    "batch": st.sampled_from((1, 2)),
    "reps": st.sampled_from((1, 5)),
    "warmup": st.sampled_from((0, 2)),
})
_FUZZ_BAD = (("kernel", 2), ("kernel", 4), ("kind", "conv"), ("channels", 0),
             ("channels", "8.5"), ("feature", -1), ("stride", 0), ("batch", "x"),
             ("reps", 0), ("warmup", -1), ("chanels", 8), ("kind", ""))


class TestSuiteFuzz:
    """Every small suite runs, or names the section it could not read."""

    @given(st.lists(_FUZZ_CASE, min_size=1, max_size=3),
           st.none() | st.tuples(st.integers(0, 2), st.sampled_from(_FUZZ_BAD)))
    @settings(max_examples=100, deadline=None)
    def test_runs_or_names_section(self, cases, bad):
        if bad:
            i, (key, value) = bad
            cases[i % len(cases)][key] = value
        text = "".join(f"[case{i}]\n" + "".join(f"{k} = {v}\n" for k, v in case.items())
                       for i, case in enumerate(cases))
        try:
            parsed = parse_suite(text)
        except ValueError as e:
            assert re.match(r"section \[case\d\]", str(e)), str(e)
            return
        for case in parsed:
            assert run_case(replace(case, reps=1, warmup=0), seed=0)
