import zlib
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import check_block_gradients
from shiftnet import ops
from shiftnet.blocks import (BasicBlock, CscBlock, CscConfig, SeedStream,
                             StemConv, downsample_combine,
                             downsample_combine_backward, round_half_up)
from shiftnet.ops import ConvKernel


class TestCscConfig:
    def test_expansion_example(self):
        cfg = CscConfig(16, 16, 9.0)
        assert cfg.mid_channels == 144

    def test_fractional_expansion_rounds_half_up(self):
        assert CscConfig(5, 5, 1.5).mid_channels == 8  # round(7.5) up
        assert round_half_up(2.5) == 3
        assert round_half_up(2.49) == 2

    def test_stride1_needs_equal_channels(self):
        with pytest.raises(ValueError):
            CscConfig(16, 32, 1.0, stride=1)

    def test_stride2_channel_rules(self):
        CscConfig(16, 32, 1.0, stride=2)          # doubling: shortcut exists
        CscConfig(16, 16, 1.0, stride=2)          # equal: main path only
        with pytest.raises(ValueError):
            CscConfig(16, 48, 1.0, stride=2)

    def test_downsample_mid_channels(self):
        assert CscConfig(16, 32, 3.0, stride=2, downsample="add").mid_channels == 96
        assert CscConfig(16, 32, 3.0, stride=2, downsample="concat").mid_channels == 48

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            CscConfig(4, 4, 0.0)
        with pytest.raises(ValueError):
            CscConfig(4, 4, 1.0, variant="csc3")
        with pytest.raises(ValueError):
            CscConfig(4, 4, 1.0, downsample="pad")
        with pytest.raises(ValueError):
            CscConfig(4, 4, 1.0, stride=3)


class TestDownsampleCombine:
    def test_constant_passthrough(self):
        x = np.full((1, 3, 4, 4), 2.5, dtype=np.float32)
        y = downsample_combine(x)
        assert y.shape == (1, 6, 2, 2)
        assert np.all(y == 2.5)

    def test_window_mean(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        y = downsample_combine(x)
        assert y.shape == (1, 2, 1, 1)
        assert y[0, 0, 0, 0] == 2.5 and y[0, 1, 0, 0] == 2.5

    def test_shape_arithmetic(self):
        y = downsample_combine(np.zeros((1, 16, 32, 32), dtype=np.float32))
        assert y.shape == (1, 32, 16, 16)

    def test_odd_spatial_rejected(self):
        with pytest.raises(ValueError, match="even"):
            downsample_combine(np.zeros((1, 1, 3, 4)))

    def test_backward_is_adjoint(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4, 4))
        d = rng.normal(size=(2, 6, 2, 2))
        lhs = np.sum(downsample_combine(x) * d)
        rhs = np.sum(x * downsample_combine_backward(d, x))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestCscForward:
    def test_zero_pointwise_is_residual_passthrough(self):
        rng = np.random.default_rng(1)
        block = CscBlock(CscConfig(6, 6, 2.0), SeedStream(0))
        block.pw1.weight.value[...] = 0
        block.pw2.weight.value[...] = 0
        x = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        assert np.array_equal(block.forward(x, "train"), x)

    def test_stride2_shape(self):
        for mode in ("add", "concat"):
            block = CscBlock(CscConfig(16, 32, 1.0, stride=2, downsample=mode),
                             SeedStream(0))
            y = block.forward(np.zeros((1, 16, 32, 32), dtype=np.float32), "eval")
            assert y.shape == (1, 32, 16, 16)

    def test_mid_channels_realized(self):
        block = CscBlock(CscConfig(16, 16, 9.0), SeedStream(0))
        assert block.pw1.weight.value.shape == (16, 144)
        assert block.spec.channels == 144

    def test_sc2_has_leading_shift(self):
        block = CscBlock(CscConfig(9, 9, 1.0, variant="sc2"), SeedStream(0))
        assert block.child_names[0] == "shift0" and block.shift0.spec.channels == 9

    def test_param_count_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            c = int(rng.integers(2, 24))
            eps = float(rng.choice([1, 2, 3, 6, 9]))
            block = CscBlock(CscConfig(c, c, eps), SeedStream(0))
            mid = round_half_up(eps * c)
            expect = 2 * mid * c + 2 * c + 2 * mid  # two kernels + affine terms
            assert sum(p.size for _, p in block.params()) == expect


def _bypass_bn(bn):
    bn.state.gamma[:] = 1
    bn.state.beta[:] = 0
    bn.state.running_mean[:] = 0
    bn.state.running_var[:] = 1 - bn.state.epsilon


class TestBasicBlock:
    def test_zero_convs_identity(self):
        rng = np.random.default_rng(3)
        block = BasicBlock(5, 5, 1, SeedStream(0))
        block.conv1.weight.value[...] = 0
        block.conv2.weight.value[...] = 0
        x = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        assert np.array_equal(block.forward(x, "train"), x)

    def test_identity_kernels_double_positive_input(self):
        rng = np.random.default_rng(4)
        block = BasicBlock(3, 3, 1, SeedStream(0))
        for conv in (block.conv1, block.conv2):
            conv.weight.value[...] = 0
            for m in range(3):
                conv.weight.value[1, 1, m, m] = 1.0
        _bypass_bn(block.bn1)
        _bypass_bn(block.bn2)
        x = (np.abs(rng.normal(size=(2, 3, 5, 5))) + 0.1).astype(np.float32)
        np.testing.assert_allclose(block.forward(x, "eval"), 2 * x, rtol=1e-5)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(5)
        block = BasicBlock(4, 4, 1, SeedStream(7), dtype=np.float64)
        x = rng.normal(size=(2, 4, 6, 6))
        got = block.forward(x, "eval")
        h = ops.conv2d_spatial(x, ConvKernel(block.conv1.weight.value, 1, 1))
        h, _ = ops.batchnorm_forward(h, block.bn1.state, "eval")
        h = ops.relu(h)
        h = ops.conv2d_spatial(h, ConvKernel(block.conv2.weight.value, 1, 1))
        h, _ = ops.batchnorm_forward(h, block.bn2.state, "eval")
        np.testing.assert_allclose(got, h + x, rtol=1e-12)

    def test_stride2_shapes_and_zero_pad_shortcut(self):
        block = BasicBlock(4, 8, 2, SeedStream(0))
        assert block.forward(np.zeros((1, 4, 8, 8), dtype=np.float32), "eval").shape \
            == (1, 8, 4, 4)
        block = BasicBlock(4, 7, 2, SeedStream(0), mid_channels=3)
        y = block.forward(np.zeros((1, 4, 8, 8), dtype=np.float32), "eval")
        assert y.shape == (1, 7, 4, 4)

    def test_invalid_channel_combos(self):
        with pytest.raises(ValueError):
            BasicBlock(4, 5, 1, SeedStream(0))
        with pytest.raises(ValueError):
            BasicBlock(8, 4, 2, SeedStream(0))


class TestStemConv:
    def test_forward_composition(self):
        rng = np.random.default_rng(6)
        stem = StemConv(3, 8, 3, 1, seed=1, dtype=np.float64)
        x = rng.normal(size=(2, 3, 8, 8))
        got = stem.forward(x, "eval")
        h = ops.conv2d_spatial(x, ConvKernel(stem.conv.weight.value, 1, 1))
        h, _ = ops.batchnorm_forward(h, stem.bn.state, "eval")
        np.testing.assert_allclose(got, ops.relu(h), rtol=1e-12)


class TestReceptiveField:
    """Impulse support in eval mode: CSC covers 3x3, the extra-shift variant 5x5."""

    @staticmethod
    def _support(block, channels, size=9):
        for bn in (block.bn1, block.bn2):
            _bypass_bn(bn)
        block.pw1.weight.value[...] = np.abs(block.pw1.weight.value) + 0.05
        block.pw2.weight.value[...] = np.abs(block.pw2.weight.value) + 0.05
        x = np.zeros((1, channels, size, size), dtype=np.float32)
        x[0, :, size // 2, size // 2] = 1.0
        y = block.forward(x, "eval")
        hit = np.nonzero(np.abs(y).sum(axis=(0, 1)))
        return set(zip(*hit))

    def test_csc_3x3(self):
        block = CscBlock(CscConfig(16, 16, 1.0), SeedStream(3))
        c = 4
        expected = {(c + dy, c + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
        assert self._support(block, 16) == expected

    def test_sc2_5x5(self):
        block = CscBlock(CscConfig(16, 16, 1.0, variant="sc2"), SeedStream(3))
        c = 4
        expected = {(c + dy, c + dx) for dy in range(-2, 3) for dx in range(-2, 3)}
        assert self._support(block, 16) == expected

    def test_dilated_csc_spread(self):
        block = CscBlock(CscConfig(16, 16, 1.0, dilation=2), SeedStream(3))
        c = 4
        expected = {(c + 2 * dy, c + 2 * dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
        assert self._support(block, 16) == expected


class TestPermutationEquivalence:
    @pytest.mark.parametrize("mode,stride", [("add", 1), ("add", 2), ("concat", 2)])
    def test_block_level(self, mode, stride):
        rng = np.random.default_rng(11)
        cin = 6
        cout = 6 if stride == 1 else 12
        cfg = CscConfig(cin, cout, 2.0, stride=stride, downsample=mode)
        block = CscBlock(cfg, SeedStream(5))
        mid = cfg.mid_channels
        block.bn2.state.running_mean[:] = rng.normal(size=mid)
        block.bn2.state.running_var[:] = rng.uniform(0.5, 2.0, size=mid)
        block.bn2.state.gamma[:] = rng.normal(size=mid)
        block.bn2.state.beta[:] = rng.normal(size=mid)
        x = rng.normal(size=(2, cin, 8, 8)).astype(np.float32)
        base = block.forward(x, "eval")

        perm = rng.permutation(mid)
        other = CscBlock(cfg, SeedStream(5))
        other.bn1.state = block.bn1.state
        other.pw1.weight.value[...] = block.pw1.weight.value[:, perm]
        for field in ("gamma", "beta", "running_mean", "running_var"):
            getattr(other.bn2.state, field)[...] = getattr(block.bn2.state, field)[perm]
        other.spec = replace(block.spec,
                             displacements=tuple(block.spec.displacements[j]
                                                 for j in perm))
        other.shift.spec = other.spec
        other.pw2.weight.value[...] = block.pw2.weight.value[perm, :]
        permuted = other.forward(x, "eval")
        scale = max(np.max(np.abs(base)), 1e-12)
        assert np.max(np.abs(base - permuted)) / scale <= 1e-6


class TestBlockGradients:
    """Whole-block finite-difference checks (64-bit, h=1e-4, rel err < 1e-4)."""

    CASES = [
        ("csc_s1", CscConfig(4, 4, 2.0), (2, 4, 6, 6)),
        ("csc_s2_add", CscConfig(4, 8, 2.0, stride=2), (2, 4, 6, 6)),
        ("csc_s2_concat", CscConfig(4, 8, 2.0, stride=2, downsample="concat"),
         (2, 4, 6, 6)),
        ("csc_s2_main_only", CscConfig(4, 4, 2.0, stride=2), (2, 4, 6, 6)),
        ("sc2_s1", CscConfig(4, 4, 2.0, variant="sc2"), (2, 4, 6, 6)),
        ("csc_dilated", CscConfig(5, 5, 3.0, dilation=2), (2, 5, 8, 8)),
    ]

    @pytest.mark.parametrize("tag,cfg,shape", CASES, ids=[c[0] for c in CASES])
    def test_csc_variants(self, tag, cfg, shape):
        rng = np.random.default_rng(zlib.crc32(tag.encode()))
        block = CscBlock(cfg, SeedStream(1), dtype=np.float64)
        x = rng.normal(size=shape)
        check_block_gradients(block, x, rng, relus=[block.relu1, block.relu2])

    @pytest.mark.parametrize("stride,cout", [(1, 4), (2, 8)])
    def test_basic_block(self, stride, cout):
        rng = np.random.default_rng(31 + stride)
        block = BasicBlock(4, cout, stride, SeedStream(2), dtype=np.float64)
        x = rng.normal(size=(2, 4, 6, 6))
        check_block_gradients(block, x, rng, relus=[block.relu1])

    def test_shortcut_taps_pre_activation_input(self):
        # residual branch must carry x itself, not a normalized copy
        block = CscBlock(CscConfig(4, 4, 1.0), SeedStream(9))
        block.pw1.weight.value[...] = 0
        block.pw2.weight.value[...] = 0
        block.bn1.state.running_mean[:] = 5.0  # would distort x if BN touched it
        x = np.full((1, 4, 4, 4), 3.0, dtype=np.float32)
        assert np.array_equal(block.forward(x, "eval"), x)
