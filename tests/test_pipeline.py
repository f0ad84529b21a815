import json
import os

import numpy as np
import pytest

from shiftnet.blocks import Composite
from shiftnet.nets import EVAL_SLICE, Network, build_shiftresnet
from shiftnet.pipeline import (Dataset, TrainingDiverged, TrainLog,
                               TrainSchedule, _diagnose_nonfinite, evaluate,
                               load_checkpoint, load_cifar10, lr_at,
                               save_checkpoint, synth_dataset, train,
                               write_cifar10_batches)


def _toy_cifar_dir(tmp_path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    labels = (np.arange(n) % 10).astype(np.uint8)
    d = str(tmp_path / "cifar")
    write_cifar10_batches(d, images, labels)
    return d, images, labels


class TestCifarLoader:
    def test_record_counts(self, tmp_path):
        d, images, labels = _toy_cifar_dir(tmp_path, n=40)
        train_ds, test_ds = load_cifar10(d)
        assert len(train_ds) + len(test_ds) == 40
        assert len(test_ds) == 8
        assert train_ds.images.dtype == np.uint8

    def test_labels_preserved(self, tmp_path):
        d, images, labels = _toy_cifar_dir(tmp_path)
        train_ds, test_ds = load_cifar10(d)
        recon = np.concatenate([train_ds.labels, test_ds.labels])
        assert np.array_equal(recon, labels)

    def test_truncated_file_rejected(self, tmp_path):
        d, *_ = _toy_cifar_dir(tmp_path)
        path = os.path.join(d, "data_batch_1.bin")
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(raw[:-100])
        with pytest.raises(ValueError, match="record"):
            load_cifar10(d)

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10(str(tmp_path))

    def test_pixel_255_scales_to_one(self, tmp_path):
        images = np.full((10, 3, 32, 32), 255, dtype=np.uint8)
        images[5:] = 0  # two-level data so the train std is nonzero
        labels = np.zeros(10, dtype=np.uint8)
        d = str(tmp_path / "flat")
        write_cifar10_batches(d, images, labels)
        train_ds, _ = load_cifar10(d)
        x, _ = train_ds.batch(np.array([0]))
        recovered = x[0] * train_ds.std.reshape(-1, 1, 1) + train_ds.mean.reshape(-1, 1, 1)
        np.testing.assert_allclose(recovered, 1.0, atol=1e-6)

    def test_standardized_train_stats(self, tmp_path):
        d, *_ = _toy_cifar_dir(tmp_path, n=100)
        train_ds, _ = load_cifar10(d)
        x, _ = train_ds.batch(np.arange(len(train_ds)))
        assert np.max(np.abs(x.mean(axis=(0, 2, 3)))) < 1e-4
        np.testing.assert_allclose(x.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


class TestSynthDataset:
    def test_one_example_per_class(self):
        ds = synth_dataset(10, 10, seed=0)
        assert sorted(ds.labels.tolist()) == list(range(10))

    def test_balanced(self):
        ds = synth_dataset(25, 5, seed=1)
        assert all(np.sum(ds.labels == c) == 5 for c in range(5))

    def test_deterministic(self):
        a = synth_dataset(32, 4, seed=9)
        b = synth_dataset(32, 4, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            synth_dataset(5, 10)


class TestSchedule:
    def test_lr_decay_points(self):
        s = TrainSchedule(max_iters=64000, base_lr=0.1,
                          lr_decay_points=(32000, 48000))
        assert lr_at(s, 31_999) == pytest.approx(0.1)
        assert lr_at(s, 32_000) == pytest.approx(0.01)
        assert lr_at(s, 48_000) == pytest.approx(0.001)
        assert lr_at(s, 63_999) == pytest.approx(0.001)

    def test_decay_points_must_increase(self):
        with pytest.raises(ValueError):
            TrainSchedule(max_iters=100, lr_decay_points=(50, 50))

    def test_points_beyond_horizon_dropped(self):
        s = TrainSchedule(max_iters=100, lr_decay_points=(200, 300))
        assert s.lr_decay_points == ()

    def test_log_csv(self):
        log = TrainLog()
        log.add(1, 0.1, 2.5, 0.1)
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "iter,lr,loss,acc"
        assert lines[1].startswith("1,0.1,")


def _tiny_net(seed=0):
    return build_shiftresnet(20, 0.25, seed=seed)


def _tiny_sched(iters=2, **kw):
    base = dict(max_iters=iters, base_lr=0.01, batch_size=8,
                lr_decay_points=(), seed=0, log_every=1)
    base.update(kw)
    return TrainSchedule(**base)


class TestTraining:
    def test_zero_lr_is_fixpoint(self):
        net = _tiny_net()
        before = [p.value.copy() for _, p in net.named_params()]
        stats_before = [a.copy() for _, a in net.named_state()]
        ds = synth_dataset(16, 4, seed=0)
        train(net, ds, _tiny_sched(3, base_lr=0.0, weight_decay=0.0))
        for (_, p), old in zip(net.named_params(), before):
            assert np.array_equal(p.value, old)
        # running stats still move: only learnable parameters are frozen
        changed = any(not np.array_equal(a, old)
                      for (_, a), old in zip(net.named_state(), stats_before))
        assert changed

    def test_single_step_determinism(self):
        deltas = []
        for _ in range(2):
            net = _tiny_net(seed=4)
            before = [p.value.copy() for _, p in net.named_params()]
            ds = synth_dataset(8, 4, seed=2)
            train(net, ds, _tiny_sched(1, batch_size=1))
            deltas.append([p.value - b for (_, p), b in zip(net.named_params(), before)])
        for da, db in zip(*deltas):
            assert np.array_equal(da, db)

    def test_full_run_determinism(self):
        logs = []
        finals = []
        for _ in range(2):
            net = _tiny_net(seed=1)
            ds = synth_dataset(16, 4, seed=1)
            logs.append(train(net, ds, _tiny_sched(4)).records)
            finals.append([p.value.copy() for _, p in net.named_params()])
        assert logs[0] == logs[1]
        for a, b in zip(*finals):
            assert np.array_equal(a, b)

    def test_nan_abort_names_tensor(self):
        net = _tiny_net()
        net.named_params()[0][1].value[0] = np.inf
        ds = synth_dataset(8, 4, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDiverged, match="first non-finite tensor"):
            train(net, ds, _tiny_sched(1))

    def test_diagnosis_leaves_state_untouched(self):
        net = build_shiftresnet(20, 1, seed=1)
        x, _ = synth_dataset(8, 4, seed=1).batch(np.arange(8))
        dict(net.named_params())["group1.block0.bn1.gamma"].value[:] = 1e38
        before = [a.copy() for _, a in net.named_state()]
        with np.errstate(over="ignore", invalid="ignore"):
            culprit = _diagnose_nonfinite(net, x)
        assert culprit == "activation group1.block0"
        for (name, a), old in zip(net.named_state(), before):
            assert np.array_equal(a, old), name

    def test_empty_dataset(self):
        ds = synth_dataset(8, 4, seed=0)
        empty = Dataset(ds.images[:0], ds.labels[:0], "train", 4)
        with pytest.raises(ValueError, match="empty"):
            train(_tiny_net(), empty, _tiny_sched(1))

    def test_augment_deterministic(self):
        outs = []
        for _ in range(2):
            net = _tiny_net(seed=2)
            ds = synth_dataset(16, 4, seed=3)
            log = train(net, ds, _tiny_sched(2, augment=True))
            outs.append(log.records)
        assert outs[0] == outs[1]


class _StubNet:
    """Duck-typed network emitting fixed logits for metric-loop tests."""

    def __init__(self, mode):
        self.mode = mode

    def forward(self, x, mode="eval"):
        n = x.shape[0]
        if self.mode == "uniform":
            return np.zeros((n, 10), dtype=np.float32)
        logits = np.full((n, 10), -10.0, dtype=np.float32)
        logits[np.arange(n), self._labels] = 10.0
        return logits


class TestEvaluate:
    def test_perfect_logits(self):
        ds = synth_dataset(20, 10, seed=0)
        stub = _StubNet("perfect")
        stub._labels = ds.labels
        top1, loss = evaluate(stub, ds, batch_size=64)
        assert top1 == 1.0
        assert loss < 1e-6

    def test_uniform_logits_balanced_ties_break_low(self):
        ds = synth_dataset(50, 10, seed=0)
        top1, loss = evaluate(_StubNet("uniform"), ds, batch_size=16)
        assert top1 == pytest.approx(0.1)
        assert loss == pytest.approx(np.log(10), rel=1e-5)

    def test_empty_dataset(self):
        ds = synth_dataset(8, 4, seed=0)
        empty = Dataset(ds.images[:0], ds.labels[:0], "test", 4)
        with pytest.raises(ValueError):
            evaluate(_StubNet("uniform"), empty)

    def test_eval_leaves_running_stats_untouched(self):
        net = _tiny_net()
        ds = synth_dataset(16, 4, seed=5)
        train(net, ds, _tiny_sched(2))
        stats = {n: a.copy() for n, a in net.named_state() if "running" in n}
        evaluate(net, ds)
        for n, a in net.named_state():
            if "running" in n:
                assert np.array_equal(a, stats[n]), n

    def test_sliced_eval_scores_as_one_pass(self, monkeypatch):
        net = _tiny_net(seed=6)
        ds = synth_dataset(2 * EVAL_SLICE + 1, 4, seed=6)
        train(net, ds, _tiny_sched(2))
        sliced = evaluate(net, ds)
        monkeypatch.setattr(Network, "forward", Composite.forward)
        assert sliced == evaluate(net, ds)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        net = _tiny_net(seed=3)
        ds = synth_dataset(16, 4, seed=4)
        sched = _tiny_sched(3)
        train(net, ds, sched, out_checkpoint=str(tmp_path / "ck.json"))
        x, _ = ds.batch(np.arange(8))
        before = net.forward(x, "eval")
        clone, manifest = load_checkpoint(str(tmp_path / "ck.json"))
        after = clone.forward(x, "eval")
        assert np.array_equal(before, after)
        assert manifest["iteration"] == 3
        assert manifest["schedule"]["batch_size"] == 8

    def test_manifest_lists_every_state_entry(self, tmp_path):
        net = build_shiftresnet(20, 1)
        save_checkpoint(net, str(tmp_path / "ck.json"))
        with open(tmp_path / "ck.json") as f:
            manifest = json.load(f)
        assert len(manifest["entries"]) == len(net.named_state())

    def test_corrupt_blob_rejected(self, tmp_path):
        net = _tiny_net()
        path = str(tmp_path / "ck.json")
        save_checkpoint(net, path)
        with open(path + ".blob", "rb") as f:
            raw = f.read()
        with open(path + ".blob", "wb") as f:
            f.write(raw[:-10])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_manifest_entry_mismatch_rejected(self, tmp_path):
        net = _tiny_net()
        path = str(tmp_path / "ck.json")
        save_checkpoint(net, path)
        with open(path) as f:
            manifest = json.load(f)
        manifest["entries"] = manifest["entries"][:-1]
        with open(path, "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ValueError, match="mismatch"):
            load_checkpoint(path)

    @staticmethod
    def _tamper(tmp_path, edit_entries=None, extra_blob=b"", edit_manifest=None):
        path = str(tmp_path / "ck.json")
        save_checkpoint(_tiny_net(), path)
        with open(path) as f:
            manifest = json.load(f)
        if edit_entries:
            edit_entries({e["name"]: e for e in manifest["entries"]},
                         manifest["entries"])
        if edit_manifest:
            edit_manifest(manifest)
        with open(path, "w") as f:
            json.dump(manifest, f)
        with open(path + ".blob", "ab") as f:
            f.write(extra_blob)
        return path

    def test_unknown_format_rejected(self, tmp_path):
        def bump_format(manifest):
            manifest["format"] = 2
        with pytest.raises(ValueError, match="format 2"):
            load_checkpoint(self._tamper(tmp_path, edit_manifest=bump_format))

    def test_duplicated_offset_rejected(self, tmp_path):
        def alias(by_name, _):
            # same shape, so only the offsets can tell the two apart
            by_name["group1.block1.pw2.weight"]["offset"] = \
                by_name["group1.block0.pw2.weight"]["offset"]
        with pytest.raises(ValueError, match="offset"):
            load_checkpoint(self._tamper(tmp_path, alias))

    def test_offset_past_end_rejected(self, tmp_path):
        def past_end(_, entries):
            entries[-1]["offset"] = 10**9
        with pytest.raises(ValueError, match="offset"):
            load_checkpoint(self._tamper(tmp_path, past_end))

    def test_trailing_blob_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="after the last entry"):
            load_checkpoint(self._tamper(tmp_path, extra_blob=b"\0" * 40))

    def test_duplicate_name_rejected(self, tmp_path):
        def duplicate(_, entries):
            entries.append(dict(entries[-1]))
        with pytest.raises(ValueError, match="1 duplicate names"):
            load_checkpoint(self._tamper(tmp_path, duplicate))

    def test_evaluate_identical_after_round_trip(self, tmp_path):
        net = _tiny_net(seed=8)
        ds = synth_dataset(24, 4, seed=8)
        train(net, ds, _tiny_sched(2))
        path = str(tmp_path / "ck.json")
        save_checkpoint(net, path)
        a = evaluate(net, ds)
        clone, _ = load_checkpoint(path)
        b = evaluate(clone, ds)
        assert a == b
