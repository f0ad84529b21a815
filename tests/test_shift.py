import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftnet.ops import ConvKernel, conv2d_depthwise
from shiftnet.shift import (ShiftSpec, fused_shift_pointwise,
                            make_shift_spec, one_hot_depthwise_kernel,
                            shift_backward, shift_forward,
                            unfused_shift_pointwise, window_directions)


class TestSpecConstruction:
    def test_even_split_144(self):
        spec = make_shift_spec(144, 3)
        counts = Counter(spec.group_ids.tolist())
        assert counts == {g: 16 for g in range(9)}

    def test_remainder_goes_to_center_16(self):
        spec = make_shift_spec(16, 3)
        counts = Counter(spec.group_ids.tolist())
        assert all(counts[g] == 1 for g in range(8))
        assert counts[8] == 8  # center group: 1 even-split + 7 remainder

    def test_kernel_one_all_center(self):
        spec = make_shift_spec(7, 1)
        assert all(d == (0, 0) for d in spec.displacements)

    def test_center_group_is_last_direction(self):
        assert window_directions(3)[-1] == (0, 0)
        assert len(window_directions(5)) == 25

    @pytest.mark.parametrize("bad", [0, 2, 4, -3])
    def test_even_or_nonpositive_kernel_rejected(self, bad):
        with pytest.raises(ValueError):
            make_shift_spec(8, bad)

    def test_bad_channels_and_dilation(self):
        with pytest.raises(ValueError):
            make_shift_spec(0, 3)
        with pytest.raises(ValueError):
            make_shift_spec(8, 3, dilation=0)

    def test_table_shorter_than_channels_rejected(self):
        # shift_forward would leave channels 1-3 uninitialized
        with pytest.raises(ValueError, match="1 displacements for 4 channels"):
            ShiftSpec(4, 3, 1, 0, ((0, 1),))

    def test_displacement_off_the_window_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 5\) is not a position"):
            ShiftSpec(2, 3, 1, 0, ((0, 5), (0, 0)))
        with pytest.raises(ValueError, match="at dilation 2"):
            ShiftSpec(1, 3, 2, 0, ((0, 1),))       # not a multiple of the dilation

    @given(st.integers(1, 64), st.sampled_from([1, 3, 5]), st.integers(1, 3),
           st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, m, k, d, pid):
        spec = make_shift_spec(m, k, d, pid)
        reach = (k // 2) * d
        assert len(spec.displacements) == m
        assert all(abs(dy) <= reach and abs(dx) <= reach
                   for dy, dx in spec.displacements)
        counts = Counter(spec.group_ids.tolist())
        gsize = m // (k * k)
        for g in range(k * k - 1):
            assert counts.get(g, 0) == gsize
        assert counts.get(k * k - 1, 0) == m - (k * k - 1) * gsize

    def test_pure_function_of_arguments(self):
        assert make_shift_spec(24, 3, 2, 5) == make_shift_spec(24, 3, 2, 5)
        assert make_shift_spec(24, 3, 1, 1) != make_shift_spec(24, 3, 1, 2)

    def test_fewer_channels_than_window(self):
        spec = make_shift_spec(5, 3)  # group size 0: everything lands center
        assert all(d == (0, 0) for d in spec.displacements)


class TestShiftForward:
    def test_all_center_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        spec = make_shift_spec(4, 1)
        assert np.array_equal(shift_forward(x, spec), x)

    def test_right_neighbor_example(self):
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
        spec = ShiftSpec(1, 3, 1, 0, ((0, 1),))
        expected = np.array([[2, 3, 0], [5, 6, 0], [8, 9, 0]], dtype=np.float32)
        assert np.array_equal(shift_forward(x, spec)[0, 0], expected)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            shift_forward(np.zeros((1, 3, 4, 4)), make_shift_spec(4, 3))

    def test_spatial_one_hot_diagonal_kernel_reproduces_shift(self):
        # cross-module oracle: a spatial kernel that is zero except
        # W[i_m, j_m, m, m] = 1 is the same map as the shift
        rng = np.random.default_rng(40)
        spec = make_shift_spec(12, 3)
        x = rng.normal(size=(2, 12, 6, 6)).astype(np.float32)
        w = np.zeros((3, 3, 12, 12), dtype=np.float32)
        for m, (dy, dx) in enumerate(spec.displacements):
            w[1 + dy, 1 + dx, m, m] = 1.0
        from shiftnet.ops import conv2d
        got = conv2d(x, ConvKernel(w, 1, 1))
        assert np.array_equal(got, shift_forward(x, spec))

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_one_hot_depthwise(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        k = int(rng.choice([1, 3, 5]))
        d = int(rng.integers(1, 3))
        spec = make_shift_spec(m, k, d, permutation_id=int(rng.integers(0, 4)))
        x = rng.normal(size=(2, m, 8, 9)).astype(np.float32)
        reference = conv2d_depthwise(x, one_hot_depthwise_kernel(spec))
        assert np.array_equal(shift_forward(x, spec), reference)

    def test_receptive_field_dilated(self):
        for dilation in (1, 2, 3):
            spec = make_shift_spec(9, 3, dilation)
            h = w = 4 * dilation + 1
            c = h // 2
            x = np.zeros((1, 9, h, w), dtype=np.float32)
            x[0, :, c, c] = 1.0
            y = shift_forward(x, spec)
            hit = set(zip(*np.nonzero(y.sum(axis=(0, 1)))))
            expected = {(c - dy * dilation, c - dx * dilation)
                        for dy, dx in window_directions(3)}
            assert hit == expected
            assert len(hit) == 9


class TestShiftBackward:
    def test_all_center(self):
        rng = np.random.default_rng(1)
        d = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        assert np.array_equal(shift_backward(d, make_shift_spec(3, 1)), d)

    def test_negated_displacement(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
        fwd = ShiftSpec(1, 3, 1, 0, ((0, 1),))
        neg = ShiftSpec(1, 3, 1, 0, ((0, -1),))
        assert np.array_equal(shift_backward(d, fwd), shift_forward(d, neg))

    def test_matches_scatter_adjoint_exactly(self):
        rng = np.random.default_rng(3)
        spec = make_shift_spec(18, 3, permutation_id=2)
        d = rng.normal(size=(2, 18, 6, 7)).astype(np.float32)
        # direct adjoint: scatter each output cell back to its source cell
        expected = np.zeros_like(d)
        h, w = d.shape[2:]
        for m, (dy, dx) in enumerate(spec.displacements):
            for k in range(h):
                for l in range(w):
                    if 0 <= k + dy < h and 0 <= l + dx < w:
                        expected[:, m, k + dy, l + dx] += d[:, m, k, l]
        assert np.array_equal(shift_backward(d, spec), expected)

    @given(st.integers(1, 24), st.sampled_from([1, 3, 5]), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_adjointness(self, m, k, seed):
        rng = np.random.default_rng(seed)
        spec = make_shift_spec(m, k)
        x = rng.normal(size=(1, m, 6, 6)).astype(np.float32)
        y = rng.normal(size=(1, m, 6, 6)).astype(np.float32)
        # products are exact in float64; fsum makes each side's total exact too
        lhs = math.fsum((shift_forward(x, spec).astype(np.float64) * y).ravel())
        rhs = math.fsum((x.astype(np.float64) * shift_backward(y, spec)).ravel())
        assert lhs == rhs

    def test_finite_difference_of_linear_map(self):
        rng = np.random.default_rng(4)
        spec = make_shift_spec(6, 3)
        x = rng.normal(size=(1, 6, 5, 5))
        dout = rng.normal(size=x.shape)
        analytic = shift_backward(dout, spec)
        h = 1e-4
        numeric = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = x[i]
            x[i] = orig + h
            fp = np.sum(shift_forward(x, spec) * dout)
            x[i] = orig - h
            fm = np.sum(shift_forward(x, spec) * dout)
            x[i] = orig
            numeric[i] = (fp - fm) / (2 * h)
            it.iternext()
        np.testing.assert_allclose(analytic, numeric, atol=1e-9)


STRIDED_CASES = [(k, d, side) for k in (3, 5) for d in (1, 2) for side in (1, 2, 8, 9)]


class TestStridedShift:
    """At stride 2 the shift writes only the positions a stride-2 1x1 reads."""

    @pytest.mark.parametrize("k,dilation,side", STRIDED_CASES)
    def test_forward_is_the_strided_one_hot_depthwise(self, k, dilation, side):
        rng = np.random.default_rng(k * 100 + dilation * 10 + side)
        spec = make_shift_spec(2 * k * k + 1, k, dilation)
        x = rng.normal(size=(2, spec.channels, side, side)).astype(np.float32)
        kernel = replace(one_hot_depthwise_kernel(spec), stride=2)
        got = shift_forward(x, spec, 2)
        assert got.shape[2:] == ((side + 1) // 2,) * 2
        assert np.array_equal(got, conv2d_depthwise(x, kernel))

    @pytest.mark.parametrize("k,dilation,side", STRIDED_CASES)
    def test_backward_is_the_adjoint(self, k, dilation, side):
        rng = np.random.default_rng(k * 100 + dilation * 10 + side + 1)
        spec = make_shift_spec(2 * k * k + 1, k, dilation)
        x = rng.normal(size=(2, spec.channels, side, side))
        d = rng.normal(size=(2, spec.channels) + ((side + 1) // 2,) * 2)
        dx = shift_backward(d, spec, 2, (side, side))
        assert dx.shape == x.shape
        lhs = np.vdot(shift_forward(x, spec, 2), d)
        assert lhs == pytest.approx(np.vdot(x, dx), rel=1e-12, abs=1e-12)

    def test_backward_needs_a_matching_plane(self):
        spec = make_shift_spec(9, 3)
        d = np.zeros((1, 9, 4, 4))
        with pytest.raises(ValueError, match="input plane"):
            shift_backward(d, spec, 2)
        with pytest.raises(ValueError, match="input plane"):
            shift_backward(d, spec, 2, (9, 8))
        with pytest.raises(ValueError, match="input plane"):
            shift_backward(d, spec, 2, (6, 8))
        assert shift_backward(d, spec, 2, (7, 8)).shape == (1, 9, 7, 8)


def shift_by_definition(x, spec):
    """out[b, m, k, l] = x[b, m, k + dy_m, l + dx_m] where that lies on the
    plane, else +0, taken one channel at a time over every position."""
    _, _, h, w = x.shape
    out = np.zeros_like(x)
    k, l = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for m, (dy, dx) in enumerate(spec.displacements):
        sk, sl = k + dy, l + dx
        on = (sk >= 0) & (sk < h) & (sl >= 0) & (sl < w)
        out[:, m][:, on] = x[:, m][:, sk[on], sl[on]]
    return out


FLAT_PLANES = [(side, side) for side in range(1, 10)] + [(1, 5), (9, 7)]


class TestFlatMover:
    """At stride 1 each group is one copy over the flattened plane, then +0
    over the flat end and the column strip where rows wrapped. It must write
    what the per-position definition writes, bit for bit, on every plane a
    window can cover or overrun: dilated displacements at least as long as a
    side vacate the whole group."""

    @pytest.mark.parametrize("plane", FLAT_PLANES)
    @pytest.mark.parametrize("k", (1, 3, 5, 7))
    def test_matches_the_definition(self, plane, k):
        rng = np.random.default_rng(k * 100 + plane[0] * 10 + plane[1])
        for dilation in (1, 2, 3):
            for perm in (0, 3):
                spec = make_shift_spec(2 * k * k + 3, k, dilation, perm)
                x = rng.normal(size=(2, spec.channels) + plane).astype(np.float32)
                # values a copy must move unchanged: signed zeros, infinities, nan
                x.flat[rng.choice(x.size, 8, replace=False)] = \
                    [-0.0, np.inf, -np.inf, np.nan, -0.0, np.nan, np.inf, -0.0]
                got = shift_forward(x, spec)
                want = shift_by_definition(x, spec)
                assert got.shape == want.shape
                assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes(), \
                    (dilation, perm)


class TestFusedKernel:
    def test_identity_noop(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        spec = make_shift_spec(4, 1)
        p = ConvKernel(np.eye(4, dtype=np.float32), 1)
        assert np.array_equal(fused_shift_pointwise(x, spec, p), x)

    @pytest.mark.parametrize("m,n,f,k,stride", [
        (16, 8, 8, 3, 1), (18, 7, 9, 3, 2), (25, 12, 7, 5, 2),
        (9, 4, 5, 3, 2), (32, 32, 11, 3, 1),
        # windows that reach past the plane: kernel 7 on a side-3 plane
        # vacates every group that moves
        (98, 32, 3, 7, 1), (98, 32, 9, 7, 1), (50, 32, 3, 5, 1), (50, 32, 7, 5, 1),
    ])
    def test_matches_two_step_composition(self, m, n, f, k, stride):
        rng = np.random.default_rng(m * 100 + n)
        spec = make_shift_spec(m, k, permutation_id=int(rng.integers(0, 3)))
        x = rng.normal(size=(2, m, f, f)).astype(np.float32)
        p = ConvKernel(rng.normal(size=(m, n)).astype(np.float32), stride)
        fused = fused_shift_pointwise(x, spec, p)
        two_step = unfused_shift_pointwise(x, spec, p)
        assert fused.shape == two_step.shape
        scale = max(np.max(np.abs(two_step)), 1e-12)
        assert np.max(np.abs(fused - two_step)) / scale <= 1e-6

    def test_dilated(self):
        rng = np.random.default_rng(6)
        spec = make_shift_spec(18, 3, dilation=2)
        x = rng.normal(size=(1, 18, 9, 9)).astype(np.float32)
        p = ConvKernel(rng.normal(size=(18, 5)).astype(np.float32), 1)
        fused = fused_shift_pointwise(x, spec, p)
        two_step = unfused_shift_pointwise(x, spec, p)
        scale = max(np.max(np.abs(two_step)), 1e-12)
        assert np.max(np.abs(fused - two_step)) / scale <= 1e-6

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            fused_shift_pointwise(np.zeros((1, 3, 4, 4)), make_shift_spec(4, 3),
                                  ConvKernel(np.zeros((4, 2)), 1))


class TestPermutationEquivalence:
    """Permuting mid channels (spec + surrounding kernels together) is a no-op."""

    def test_shift_then_pointwise(self):
        rng = np.random.default_rng(7)
        m, n = 12, 5
        spec = make_shift_spec(m, 3)
        x = rng.normal(size=(2, m, 6, 6)).astype(np.float32)
        p1 = rng.normal(size=(4, m)).astype(np.float32)   # produces mid channels
        p2 = rng.normal(size=(m, n)).astype(np.float32)   # consumes mid channels
        xin = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)

        def run(p1_, spec_, p2_):
            mid = np.einsum("cm,bchw->bmhw", p1_, xin)
            return unfused_shift_pointwise(mid.astype(np.float32), spec_,
                                           ConvKernel(p2_, 1))

        base = run(p1, spec, p2)
        perm = rng.permutation(m)
        spec_p = replace(spec, displacements=tuple(spec.displacements[j] for j in perm))
        p1_p = p1[:, perm]
        p2_p = p2[perm, :]
        permuted = run(p1_p, spec_p, p2_p)
        scale = max(np.max(np.abs(base)), 1e-12)
        assert np.max(np.abs(base - permuted)) / scale <= 1e-6
