import numpy as np
import pytest

from shiftnet.analysis import (ActivationTrace, contribution_norms,
                               contributions_to_csv, correlation_matrix,
                               correlations_to_csv, group_contribution_norms,
                               record_activations)
from shiftnet.blocks import Composite
from shiftnet.nets import EVAL_SLICE, Network, build_shiftresnet
from shiftnet.pipeline import TrainSchedule, synth_dataset, train
from shiftnet.shift import group_index, make_shift_spec


def _trace_from(samples, spec):
    return ActivationTrace("m", samples, group_index(spec), spec)


def _correlation_oracle(x):
    """Two-pass covariance at 64-bit, per definition, coded independently."""
    x = x.astype(np.float64)
    n, c = x.shape
    mean = [sum(x[:, j]) / n for j in range(c)]
    cov = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            cov[i, j] = sum((x[:, i] - mean[i]) * (x[:, j] - mean[j])) / (n - 1)
    corr = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            corr[i, j] = cov[i, j] / np.sqrt(cov[i, i] * cov[j, j])
    return corr


class TestCorrelationMatrix:
    def test_unit_diagonal_and_bounds(self):
        rng = np.random.default_rng(0)
        spec = make_shift_spec(18, 3)
        trace = _trace_from(rng.normal(size=(50, 18)), spec)
        for g in range(9):
            corr = correlation_matrix(trace, g)
            assert np.all(np.diag(corr) == 1.0)
            assert np.all(corr <= 1.0) and np.all(corr >= -1.0)
            assert np.array_equal(corr, corr.T)

    def test_duplicated_channels_fully_correlated(self):
        rng = np.random.default_rng(1)
        spec = make_shift_spec(18, 3)
        x = rng.normal(size=(40, 18))
        chans = np.nonzero(group_index(spec) == 8)[0]  # center group, 2 channels
        x[:, chans[1]] = x[:, chans[0]]
        corr = correlation_matrix(_trace_from(x, spec), 8)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        spec = make_shift_spec(27, 3)  # groups of 3
        x = rng.normal(size=(60, 27))
        trace = _trace_from(x, spec)
        for g in (0, 4, 8):
            chans = np.nonzero(group_index(spec) == g)[0]
            expected = _correlation_oracle(x[:, chans])
            np.testing.assert_allclose(correlation_matrix(trace, g), expected,
                                       atol=1e-10)

    def test_zero_variance_rejected(self):
        rng = np.random.default_rng(3)
        spec = make_shift_spec(9, 3)
        x = rng.normal(size=(30, 9))
        x[:, 0] = 4.2
        with pytest.raises(ValueError, match="zero-variance"):
            correlation_matrix(_trace_from(x, spec), 0)

    def test_empty_group_rejected(self):
        spec = make_shift_spec(5, 3)  # all channels land in the center group
        trace = _trace_from(np.random.default_rng(4).normal(size=(10, 5)), spec)
        with pytest.raises(ValueError, match="no channels"):
            correlation_matrix(trace, 0)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        spec = make_shift_spec(18, 3)
        x = rng.normal(size=(40, 18))
        scale = rng.uniform(0.5, 4.0, size=18)
        shifted = x * scale + rng.normal(size=18)
        a = correlation_matrix(_trace_from(x, spec), 8)
        b = correlation_matrix(_trace_from(shifted, spec), 8)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_needs_two_observations(self):
        spec = make_shift_spec(9, 3)
        with pytest.raises(ValueError):
            _trace_from(np.zeros((1, 9)), spec)


class TestContributionNorms:
    def test_max_is_one(self):
        rng = np.random.default_rng(6)
        v = contribution_norms(rng.normal(size=(144, 16)))
        assert v.shape == (144,)
        assert v.max() == 1.0

    def test_equal_one_hot_rows(self):
        v = contribution_norms(np.eye(8) * 2.0)
        assert np.all(v == 1.0)

    def test_hand_computed(self):
        w = np.array([[3.0, 4.0], [0.0, 1.0]])
        v = contribution_norms(w)
        np.testing.assert_allclose(v, [1.0, 0.2])

    def test_scalar_invariance(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(12, 5))
        np.testing.assert_allclose(contribution_norms(w),
                                   contribution_norms(2.5 * w), atol=1e-12)

    def test_zero_kernel_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            contribution_norms(np.zeros((4, 4)))

    def test_rank_check(self):
        with pytest.raises(ValueError):
            contribution_norms(np.zeros((2, 2, 2)))


class TestGroupAggregation:
    def test_partition_covers_all_channels(self):
        spec = make_shift_spec(144, 3)
        gidx = group_index(spec)
        counts = [int(np.sum(gidx == g)) for g in range(9)]
        assert sum(counts) == 144

    def test_group_sums(self):
        rng = np.random.default_rng(8)
        spec = make_shift_spec(18, 3)
        w = rng.normal(size=(18, 7))
        sums = group_contribution_norms(w, spec)
        assert sums.shape == (9,)
        assert sums.max() == pytest.approx(1.0)
        v = contribution_norms(w)
        gidx = group_index(spec)
        raw = np.array([v[gidx == g].sum() for g in range(9)])
        np.testing.assert_allclose(sums, raw / raw.max(), atol=1e-12)


@pytest.fixture(scope="module")
def trained():
    net = build_shiftresnet(20, 1, seed=0)
    ds = synth_dataset(32, 10, seed=2)
    sched = TrainSchedule(max_iters=3, base_lr=0.01, batch_size=8,
                          lr_decay_points=(), seed=0)
    train(net, ds, sched)
    return net, ds


class TestRecording:

    def test_trace_shape_and_groups(self, trained):
        net, ds = trained
        block = dict(net.named_blocks())["group1.block0"]
        forward = block.shift.forward
        trace = record_activations(net, ds, "group1.block0", max_images=16,
                                   batch_size=8)
        assert trace.samples.shape == (16 * 32 * 32, 16)
        assert len(trace.groups) == 16
        # block.shift.forward is restored after recording
        assert block.shift.forward == forward
        assert "forward" not in vars(block.shift)

    def test_sliced_eval_records_as_one_pass(self, trained, monkeypatch):
        net, ds = trained
        n = 2 * EVAL_SLICE + 1
        big = synth_dataset(n, 10, seed=3)
        sliced = record_activations(net, big, "group2.block1", max_images=n,
                                    batch_size=n)
        monkeypatch.setattr(Network, "forward", Composite.forward)
        whole = record_activations(net, big, "group2.block1", max_images=n,
                                   batch_size=n)
        assert np.array_equal(sliced.samples, whole.samples)

    def test_unknown_module(self, trained):
        net, ds = trained
        with pytest.raises(KeyError):
            record_activations(net, ds, "group9.block9")

    def test_csv_emission(self, trained):
        net, ds = trained
        trace = record_activations(net, ds, "group1.block0", max_images=8)
        lines = correlations_to_csv(trace).strip().splitlines()
        assert lines[0] == "group,row,col,value"
        block = dict(net.named_blocks())["group1.block0"]
        csv2 = contributions_to_csv(block.pw2.weight.value, block.spec)
        lines2 = csv2.strip().splitlines()
        assert lines2[0] == "channel,group,dy,dx,value"
        assert len(lines2) == 1 + block.spec.channels
