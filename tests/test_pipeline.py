import gc
import json
import os
import shutil
import tracemalloc
import weakref

import numpy as np
import pytest

from shiftnet import ops, pipeline
from shiftnet.blocks import Composite
from shiftnet.nets import EVAL_SLICE, Network, build_shiftresnet
from shiftnet.pipeline import (Dataset, Trainer, TrainingDiverged, TrainLog,
                               TrainSchedule, _augment_batch,
                               _diagnose_nonfinite, evaluate, load_checkpoint,
                               load_cifar10, lr_at, save_checkpoint,
                               synth_dataset, train, write_cifar10_batches)

CIFAR_RECORD = 1 + 3 * 32 * 32


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

    def test_truncated_later_train_file_rejected(self, tmp_path):
        d, *_ = _toy_cifar_dir(tmp_path)
        with open(os.path.join(d, "data_batch_2.bin"), "wb") as f:
            f.write(b"\0" * (CIFAR_RECORD + 1))
        with pytest.raises(ValueError, match="data_batch_2.bin: size"):
            load_cifar10(d)

    def test_missing_test_batch_rejected(self, tmp_path):
        d, *_ = _toy_cifar_dir(tmp_path)
        os.remove(os.path.join(d, "test_batch.bin"))
        with pytest.raises(FileNotFoundError, match="missing test_batch.bin"):
            load_cifar10(d)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # a file that shrinks between sizing and reading comes back short
        d, *_ = _toy_cifar_dir(tmp_path)
        getsize = os.path.getsize
        monkeypatch.setattr(pipeline.os.path, "getsize",
                            lambda p: getsize(p) + CIFAR_RECORD)
        with pytest.raises(ValueError, match="short read"):
            load_cifar10(d)

    @pytest.mark.parametrize("chunk", [7, 1024])
    def test_split_train_files_load_as_one(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(pipeline, "_CHUNK_RECORDS", chunk)
        d, *_ = _toy_cifar_dir(tmp_path, n=50)
        with open(os.path.join(d, "data_batch_1.bin"), "rb") as f:
            raw = f.read()
        split = str(tmp_path / "split")
        os.makedirs(split)
        for i, (lo, hi) in enumerate([(0, 11), (11, 12), (12, 40)], start=1):
            with open(os.path.join(split, f"data_batch_{i}.bin"), "wb") as f:
                f.write(raw[lo * CIFAR_RECORD:hi * CIFAR_RECORD])
        shutil.copy(os.path.join(d, "test_batch.bin"), split)
        for one, many in zip(load_cifar10(d), load_cifar10(split)):
            assert np.array_equal(one.images, many.images)
            assert np.array_equal(one.labels, many.labels)
            assert np.array_equal(one.mean, many.mean)
            assert np.array_equal(one.std, many.std)

    def test_load_peak_is_arrays_plus_one_chunk(self, tmp_path):
        n = 2 * pipeline._CHUNK_RECORDS + 100
        d, *_ = _toy_cifar_dir(tmp_path, n=n)
        tracemalloc.start()
        try:
            train_ds, test_ds = load_cifar10(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for ds in (train_ds, test_ds)
                     for a in (ds.images, ds.labels))
        chunk = pipeline._CHUNK_RECORDS * CIFAR_RECORD
        assert peak <= arrays + chunk + 2 ** 18, (peak, arrays, chunk)

    def test_write_peak_is_one_chunk(self, tmp_path):
        n = 2 * pipeline._CHUNK_RECORDS + 100
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
        labels = (np.arange(n) % 10).astype(np.uint8)
        tracemalloc.start()
        try:
            write_cifar10_batches(str(tmp_path / "w"), images, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = pipeline._CHUNK_RECORDS * CIFAR_RECORD
        assert peak <= chunk + 2 ** 18, (peak, chunk)

    @pytest.mark.parametrize("n,fraction", [(1, 0.2), (5, 1.0), (5, 1.5), (0, 0.2)])
    def test_write_rejects_an_empty_train_split(self, tmp_path, n, fraction):
        images = np.zeros((n, 3, 32, 32), dtype=np.uint8)
        labels = np.zeros(n, dtype=np.uint8)
        d = tmp_path / "w"
        with pytest.raises(ValueError, match="train split empty"):
            write_cifar10_batches(str(d), images, labels, fraction)
        assert not d.exists()

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

    def test_uint8_images_without_stats_rejected(self, tmp_path):
        d, *_ = _toy_cifar_dir(tmp_path)
        train_ds, _ = load_cifar10(d)
        with pytest.raises(ValueError, match="mean and std"):
            Dataset(train_ds.images, train_ds.labels, "train", 10)
        with pytest.raises(ValueError, match="mean and std"):
            Dataset(train_ds.images, train_ds.labels, "train", 10, train_ds.mean)
        assert len(train_ds.subset(slice(0, 4))) == 4

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

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError, match="classes must be at least 1, got 0"):
            synth_dataset(16, 0)


class TestDataset:
    def test_length_mismatch_rejected(self):
        images = np.zeros((4, 3, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="disagree in length"):
            Dataset(images, np.zeros(3, dtype=np.int64), "train", 2)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_label_out_of_range_rejected(self, bad):
        images = np.zeros((3, 3, 2, 2), dtype=np.float32)
        labels = np.array([0, 1, bad], dtype=np.int64)
        with pytest.raises(ValueError, match="labels out of range"):
            Dataset(images, labels, "train", 2)


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

    @pytest.mark.parametrize("points", [(0,), (-3, 1)])
    def test_decay_points_below_one_rejected(self, points):
        TrainSchedule(max_iters=10, lr_decay_points=(1,))
        with pytest.raises(ValueError, match=f"decay point {points[0]} is below iteration 1"):
            TrainSchedule(max_iters=10, lr_decay_points=points)

    @pytest.mark.parametrize("field", ["max_iters", "batch_size", "log_every"])
    def test_sizes_below_one_rejected(self, field):
        TrainSchedule(**{"max_iters": 5, field: 1})
        for value in (0, -5):
            with pytest.raises(ValueError, match=f"{field} must be at least 1, got {value}"):
                TrainSchedule(**{"max_iters": 5, field: value})

    def test_log_csv(self):
        log = TrainLog([(1, 0.1, 2.5, 0.1)])
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

    def test_divergence_leaves_no_step_in_flight(self):
        net = build_shiftresnet(20, 1, seed=1)
        dict(net.named_params())["group1.block0.bn1.gamma"].value[:] = 1e38
        ds = synth_dataset(8, 4, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingDiverged, match="activation group1.block0"):
            train(net, ds, _tiny_sched(1))
        todo, held = [net], []
        while todo:
            layer = todo.pop()
            if getattr(layer, "_saved", None) is not None:
                held.append(layer)
            if isinstance(layer, Composite):
                todo.extend(child for _, child in layer.children())
        assert held == []
        with pytest.raises(RuntimeError, match="no train-mode forward is pending"):
            net.backward(np.ones((8, net.num_classes), dtype=np.float32))

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


def _reference_train(net, dataset, schedule):
    """The SGD loop `train` ran before `Trainer` owned the step, kept as its oracle.

    Returns the logged (iteration, lr, loss, acc) rows; no checkpoint.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(schedule.seed)
    velocity = {name: np.zeros_like(p.value) for name, p in net.named_params()}
    records = []
    for it in range(1, schedule.max_iters + 1):
        idx = rng.integers(0, len(dataset), size=schedule.batch_size)
        x, y = dataset.batch(idx)
        if schedule.augment:
            x = _augment_batch(x, rng)
        logits = net.forward(x, "train")
        loss, probs = ops.softmax_xent(logits, y)
        if not np.isfinite(loss):
            culprit = _diagnose_nonfinite(net, x)
            net.discard_step()
            raise TrainingDiverged(
                f"non-finite loss at iteration {it}; first non-finite tensor: {culprit}")
        acc = float(np.mean(np.argmax(logits, axis=1) == y))
        net.zero_grads()
        net.backward(ops.softmax_xent_backward(probs, y))
        lr = lr_at(schedule, it)
        for name, p in net.named_params():
            v = velocity[name]
            v *= schedule.momentum
            v += p.grad + schedule.weight_decay * p.value
            p.value -= (lr * v).astype(p.value.dtype, copy=False)
        if it % schedule.log_every == 0 or it == schedule.max_iters:
            records.append((it, lr, loss, acc))
    return records


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTrainer:
    @pytest.mark.parametrize("log_every", [1, 3])
    @pytest.mark.parametrize("augment", [False, True])
    def test_steps_match_the_reference_loop(self, augment, log_every):
        ds = synth_dataset(16, 4, seed=5)
        sched = _tiny_sched(5, augment=augment, log_every=log_every,
                            lr_decay_points=(3,))
        ref = _tiny_net(seed=3)
        want = _reference_train(ref, ds, sched)
        net = _tiny_net(seed=3)
        trainer = Trainer(net, ds, sched)
        rows = [trainer.step() for _ in range(sched.max_iters)]
        assert [r[0] for r in rows] == list(range(1, 6))
        assert trainer.iteration == 5
        logged = [r for r in rows if r[0] % log_every == 0 or r[0] == 5]
        assert [tuple(map(repr, r)) for r in logged] == \
            [tuple(map(repr, r)) for r in want]
        for (name, a), (_, b) in zip(net.named_state(), ref.named_state()):
            assert _same_bits(a, b), name
        looped = _tiny_net(seed=3)
        assert train(looped, ds, sched).records == want
        for (name, a), (_, b) in zip(looped.named_state(), ref.named_state()):
            assert _same_bits(a, b), name

    def test_diverged_step_keeps_the_last_good_state(self):
        net = _tiny_net(seed=1)
        ds = synth_dataset(16, 4, seed=1)
        trainer = Trainer(net, ds, _tiny_sched(4))
        trainer.step()
        trainer.step()
        velocity = {k: v.copy() for k, v in trainer.velocity.items()}
        params = [p.value.copy() for _, p in net.named_params()]
        trainer.dataset = Dataset(np.full_like(ds.images, np.inf), ds.labels,
                                  "train", ds.num_classes)
        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDiverged, match="iteration 3; first non-finite tensor: input batch"):
            trainer.step()
        assert trainer.iteration == 2
        assert velocity.keys() == trainer.velocity.keys()
        for name, v in trainer.velocity.items():
            assert _same_bits(v, velocity[name]), name
        for (name, p), old in zip(net.named_params(), params):
            assert _same_bits(p.value, old), name
        with pytest.raises(StopIteration):
            trainer.step()

    def test_diverged_step_keeps_the_running_statistics(self):
        net = _tiny_net(seed=1)
        ds = synth_dataset(16, 4, seed=1)
        trainer = Trainer(net, ds, _tiny_sched(4))
        trainer.step()
        running = [(n, a.copy()) for n, a in net.named_state()
                   if n.endswith(("running_mean", "running_var"))]
        assert len(running) == 38
        trainer.dataset = Dataset(np.full_like(ds.images, np.inf), ds.labels,
                                  "train", ds.num_classes)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
            trainer.step()
        state = dict(net.named_state())
        for name, old in running:
            assert _same_bits(state[name], old), name
        _, loss = evaluate(net, ds)
        assert np.isfinite(loss)

    def test_finished_trainer_is_freed_without_the_cycle_collector(self):
        ds = synth_dataset(16, 4, seed=2)
        trainer = Trainer(_tiny_net(seed=2), ds, _tiny_sched(2))
        gc.disable()
        try:
            trainer.step()
            trainer.step()
            ref = weakref.ref(trainer)
            del trainer
            assert ref() is None
        finally:
            gc.enable()

    def test_step_looks_up_batch_forward_backward_per_call(self):
        net = _tiny_net()
        ds = synth_dataset(16, 4, seed=0)
        trainer = Trainer(net, ds, _tiny_sched(2))
        trainer.step()
        calls = []
        for obj, attr in ((ds, "batch"), (net, "forward"), (net, "backward")):
            def spy(*args, _fn=getattr(obj, attr), _attr=attr):
                calls.append(_attr)
                return _fn(*args)
            setattr(obj, attr, spy)
        trainer.step()
        assert calls == ["batch", "forward", "backward"]


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

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_below_one_rejected(self, batch_size):
        ds = synth_dataset(8, 4, seed=0)
        with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
            evaluate(_StubNet("uniform"), ds, batch_size)

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
            # an edit edits in place or returns a replacement manifest
            edited = edit_manifest(manifest)
            manifest = manifest if edited is None else edited
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

    def test_manifest_not_an_object_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a JSON object"):
            load_checkpoint(self._tamper(tmp_path, edit_manifest=lambda m: [m]))

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("config"),
        lambda m: m.pop("entries"),
        lambda m: m.update(config=[]),
        lambda m: m.update(entries={}),
        lambda m: m["entries"].append(7),
        lambda m: m["entries"][0].pop("name"),
        lambda m: m["entries"][0].pop("shape"),
        lambda m: m["entries"][0].pop("offset"),
        lambda m: m["entries"][0].update(shape=3),
        lambda m: m["entries"][0].update(name=["stem"]),
    ], ids=["no-config", "no-entries", "config-list", "entries-dict", "entry-int",
            "no-name", "no-shape", "no-offset", "shape-int", "name-list"])
    def test_malformed_manifest_rejected(self, tmp_path, edit):
        def in_place(manifest):
            edit(manifest)
        with pytest.raises(ValueError, match="manifest"):
            load_checkpoint(self._tamper(tmp_path, edit_manifest=in_place))

    @pytest.mark.parametrize("edit,section,key", [
        (lambda c: c.pop("rows"), "net", "rows"),
        (lambda c: c.update(rows=5), "net", "rows"),
        (lambda c: c.update(rows=[5]), "net", "rows"),
        (lambda c: c["rows"][0].update(colour=1), "row0", "colour"),
        (lambda c: c["rows"][0].update(out_channels=16.7), "row0", "out_channels"),
    ], ids=["no-rows", "rows-int", "row-int", "unknown-row-key", "width-float"])
    def test_malformed_config_named(self, tmp_path, edit, section, key):
        def in_config(manifest):
            edit(manifest["config"])
        with pytest.raises(ValueError, match=rf"section \[{section}\].*\b{key}\b"):
            load_checkpoint(self._tamper(tmp_path, edit_manifest=in_config))

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

    def test_reshaped_entry_rejected(self, tmp_path):
        def flatten(_, entries):
            # the same element count, so only the shape check can catch it
            entries[0]["shape"] = [int(np.prod(entries[0]["shape"]))]
        with pytest.raises(ValueError, match="shape mismatch"):
            load_checkpoint(self._tamper(tmp_path, flatten))

    def test_failed_manifest_write_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        net = _tiny_net(seed=9)
        path = str(tmp_path / "ck.json")
        save_checkpoint(net, path)
        saved = [a.copy() for _, a in net.named_state()]
        train(net, synth_dataset(16, 4, seed=9), _tiny_sched(2))

        def crash(obj, f, **kw):
            f.write("{")                         # a half-written manifest
            raise OSError("disk full")
        monkeypatch.setattr(pipeline.json, "dump", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(net, path, iteration=2)
        monkeypatch.undo()
        clone, manifest = load_checkpoint(path)
        assert manifest["iteration"] == 0
        for (name, a), want in zip(clone.named_state(), saved):
            assert np.array_equal(a, want), name
        assert sorted(os.listdir(tmp_path)) == ["ck.json", "ck.json.blob"]

    def test_save_over_a_checkpoint_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(_tiny_net(seed=1), path)
        save_checkpoint(_tiny_net(seed=2), path, iteration=5)
        assert sorted(os.listdir(tmp_path)) == ["ck.json", "ck.json.blob"]
        assert load_checkpoint(path)[1]["iteration"] == 5

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
