"""Data ingestion, SGD training with a step schedule, evaluation, checkpoints.

CIFAR-style binary batches (1 label byte + 3072 pixel bytes per record, RGB
planes, 32x32 row-major) load into one uint8 record array per split, pixels a
view of it. Per-channel standardization statistics are exact sums over the
train split only; pixels scale to [0, 1] before standardizing. Deterministic
synthetic Gaussian-blob images support desk-scale runs without external data.

Training is plain SGD with momentum and L2 weight decay, the learning rate
decaying by a fixed factor at the scheduled marks. A `Trainer` owns the
step's state and `train` is a loop over its `step`. Runs are deterministic
under a fixed seed (single-threaded execution assumed for bit-exactness).

Checkpoints are a JSON manifest (network name, architecture rows, iteration,
schedule, named array entries) plus one blob file holding every parameter
and batch-norm running statistic in the raw tensor format; a round trip
restores bit-identical eval-mode outputs.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ops
from .nets import Network, rebuild
from .tensor import REAL, blob_dump, blob_load

_CIFAR10_RECORD = 3073
# Records written per chunk, so no whole-split byte buffer is made.
_CHUNK_RECORDS = 1024


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class Dataset:
    """Images with integer class labels.

    uint8 images standardize lazily per batch using the attached per-channel
    mean/std (computed on [0, 1]-scaled values); float images pass through.
    """

    images: np.ndarray
    labels: np.ndarray
    split: str
    num_classes: int
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels disagree in length")
        if len(self.labels) and not (0 <= self.labels.min()
                                     and self.labels.max() < self.num_classes):
            raise ValueError("labels out of range")
        if self.images.dtype == np.uint8 and (self.mean is None or self.std is None):
            raise ValueError("uint8 images need the per-channel mean and std")

    def __len__(self):
        return len(self.labels)

    def subset(self, index, split: str | None = None) -> "Dataset":
        """The records at `index` (a slice), sharing the standardization stats."""
        return Dataset(self.images[index], self.labels[index], split or self.split,
                       self.num_classes, self.mean, self.std)

    def batch(self, idx) -> tuple[np.ndarray, np.ndarray]:
        x = self.images[idx]
        if x.dtype == np.uint8:
            x = x.astype(np.float32) / 255.0
            x = (x - self.mean.reshape(1, -1, 1, 1)) / self.std.reshape(1, -1, 1, 1)
        else:
            x = x.astype(np.float32, copy=True)
        return x, self.labels[idx].astype(np.int64)


def _read_cifar_records(paths: list[str]):
    """uint8 pixels, a view of one array the records are read into, and int64 labels."""
    record = _CIFAR10_RECORD
    counts = []
    for path in paths:
        size = os.path.getsize(path)
        if size == 0 or size % record != 0:
            raise ValueError(f"{path}: size {size} is not a multiple of the "
                             f"{record}-byte record")
        counts.append(size // record)
    raw = np.empty((sum(counts), record), dtype=np.uint8)
    at = 0
    for path, count in zip(paths, counts):
        with open(path, "rb") as f:
            got = f.readinto(raw[at:at + count])
        if got != count * record:
            raise ValueError(f"{path}: short read, {got} of {count * record} bytes")
        at += count
    return raw[:, 1:].reshape(-1, 3, 32, 32), raw[:, 0].astype(np.int64)


# Values per float32 part of an image plane. A pixel x is at most 255, so
# x^2 <= 65,025 and every partial sum of x or x^2 over one part is an integer
# at most 256 * 65,025 = 16,646,400 < 2^24: float32 holds each exactly, in
# any summation order. 512 would not (33,292,800 > 2^24).
_STAT_PART = 256
_STAT_IMAGES = 64


def _standardize_stats(images_u8: np.ndarray):
    """Per-channel float32 mean and std of the [0, 1]-scaled images, from exact sums.

    Each (image, channel) plane, as float32 zero-padded to whole parts, gives
    exact per-part sum(x) and sum(x^2) (`ops.row_sums`; see `_STAT_PART`);
    the parts add up in int64, then in Python ints, because n * sum(x^2)
    overflows int64 at CIFAR size.
    """
    b, c = images_u8.shape[:2]
    plane = images_u8[0, 0].size
    parts = -(-plane // _STAT_PART)
    buf = np.zeros((min(_STAT_IMAGES, b), c, parts * _STAT_PART), dtype=np.float32)
    sums = np.zeros((2, c), dtype=np.int64)
    for i in range(0, b, _STAT_IMAGES):
        block = images_u8[i:i + _STAT_IMAGES]
        x = buf[:len(block)]
        x[:, :, :plane] = block.reshape(len(block), c, plane)
        rows = x.reshape(-1, _STAT_PART)
        per_part = np.stack(ops.row_sums(rows, rows))
        sums += per_part.reshape(2, len(block), c, parts).sum(axis=(1, 3), dtype=np.int64)
    n = images_u8.size // c
    mean = [int(a) / (255 * n) for a in sums[0]]
    var = [(n * int(q) - int(a) ** 2) / (255 * n) ** 2 for a, q in sums.T]
    return np.array(mean, dtype=np.float32), np.maximum(np.sqrt(var), 1e-8).astype(np.float32)


def load_cifar10(directory: str) -> tuple[Dataset, Dataset]:
    """Load the CIFAR-10 binary batches from `directory`.

    Expects data_batch_*.bin plus test_batch.bin. Standardization statistics
    come from the train split and are shared with the test split. Records go
    straight into one array per split, so the peak is those plus the
    statistics' float32 block of `_STAT_IMAGES` images.
    """
    train_files = sorted(f for f in os.listdir(directory)
                         if f.startswith("data_batch") and f.endswith(".bin"))
    if not train_files:
        raise FileNotFoundError(f"no data_batch_*.bin files in {directory}")
    test_path = os.path.join(directory, "test_batch.bin")
    if not os.path.exists(test_path):
        raise FileNotFoundError(f"missing test_batch.bin in {directory}")
    images, labels = _read_cifar_records([os.path.join(directory, f)
                                          for f in train_files])
    mean, std = _standardize_stats(images)
    train = Dataset(images, labels, "train", 10, mean, std)
    ti, tl = _read_cifar_records([test_path])
    test = Dataset(ti, tl, "test", 10, mean, std)
    return train, test


def write_cifar10_batches(directory: str, images_u8: np.ndarray,
                          labels: np.ndarray, test_fraction: float = 0.2):
    """Write images into the CIFAR-10 binary batch layout, a chunk of records at a time.

    The last max(1, int(n * test_fraction)) records form the test split; a
    split that leaves no train record raises ValueError before any file is
    written.
    """
    n = len(labels)
    n_test = max(1, int(n * test_fraction))
    if n_test >= n:
        raise ValueError(f"{n} record(s) at test_fraction {test_fraction} "
                         f"leave the train split empty")
    os.makedirs(directory, exist_ok=True)
    order = {"data_batch_1.bin": range(0, n - n_test),
             "test_batch.bin": range(n - n_test, n)}
    rec = np.empty((min(_CHUNK_RECORDS, n), _CIFAR10_RECORD), dtype=np.uint8)
    for fname, rows in order.items():
        with open(os.path.join(directory, fname), "wb") as f:
            for start in rows[::_CHUNK_RECORDS]:
                stop = min(start + _CHUNK_RECORDS, rows.stop)
                chunk = rec[:stop - start]
                chunk[:, 0] = labels[start:stop]
                chunk[:, 1:] = images_u8[start:stop].reshape(stop - start, -1)
                f.write(chunk)


def synth_dataset(n: int, classes: int, seed: int = 0) -> Dataset:
    """Deterministic class-conditional Gaussian-blob 3x32x32 images with balanced labels.

    Each class owns a fixed blob center and color; images are that blob plus
    mild noise, which makes the set linearly separable and quick to overfit.
    """
    _require_positive("classes", classes)
    if n < classes:
        raise ValueError(f"need at least one example per class ({n} < {classes})")
    c, h, w = 3, 32, 32
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    templates = np.empty((classes, c, h, w), dtype=np.float32)
    for k in range(classes):
        cy, cx = rng.uniform(0.2, 0.8) * h, rng.uniform(0.2, 0.8) * w
        sigma = 0.12 * (h + w) / 2
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
        color = rng.uniform(-1.0, 1.0, size=(c, 1, 1))
        templates[k] = (bump[None] * color * 2.0).astype(np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    noise = rng.normal(0.0, 0.1, size=(n, c, h, w)).astype(np.float32)
    images = templates[labels] + noise
    return Dataset(images, labels, "train", classes)


def _require_positive(name: str, value: int):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class TrainSchedule:
    """SGD hyperparameters: step learning-rate decay, momentum, weight decay."""

    max_iters: int
    base_lr: float = 0.1
    batch_size: int = 128
    lr_decay_points: tuple[int, ...] = (32000, 48000)
    decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    augment: bool = False
    log_every: int = 1

    def __post_init__(self):
        for name in ("max_iters", "batch_size", "log_every"):
            _require_positive(name, getattr(self, name))
        pts = tuple(self.lr_decay_points)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("decay points must be strictly increasing")
        if pts and pts[0] < 1:
            raise ValueError(f"decay point {pts[0]} is below iteration 1")
        # points at/after the horizon never fire; drop them
        self.lr_decay_points = tuple(p for p in pts if p < self.max_iters)


def lr_at(schedule: TrainSchedule, iteration: int) -> float:
    """Learning rate in effect at a 1-based iteration number."""
    decays = sum(1 for p in schedule.lr_decay_points if p <= iteration)
    return schedule.base_lr * schedule.decay_factor ** decays


@dataclass
class TrainLog:
    """Per-iteration training records: (iteration, lr, loss, accuracy)."""

    records: list = field(default_factory=list)

    def losses(self):
        return np.array([r[2] for r in self.records])

    def to_csv(self) -> str:
        lines = ["iter,lr,loss,acc"]
        lines += [f"{i},{lr:.6g},{loss:.6g},{acc:.6g}" for i, lr, loss, acc in self.records]
        return "\n".join(lines) + "\n"


def _augment_batch(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-pad by 4, random crop back, random horizontal flip."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (4, 4), (4, 4)))
    out = np.empty_like(x)
    offs = rng.integers(0, 9, size=(b, 2))
    flips = rng.integers(0, 2, size=b)
    for i in range(b):
        oy, ox = offs[i]
        crop = xp[i, :, oy:oy + h, ox:ox + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def _diagnose_nonfinite(net: Network, x: np.ndarray) -> str:
    """Name of the first tensor (input, parameter or activation) that is non-finite.

    Its train-mode re-run writes only caches, which `Network.discard_step` drops."""
    for name, p in net.named_params():
        if not np.all(np.isfinite(p.value)):
            return f"param {name}"
    if not np.all(np.isfinite(x)):
        return "input batch"
    h = x
    for lname, layer in net.layers:
        h = layer.forward(h, "train")
        if not np.all(np.isfinite(h)):
            return f"activation {lname}"
    return "loss"


class Trainer:
    """SGD one step at a time; deterministic under (schedule.seed, single thread).

    State: `rng` (batches, augmentation), `velocity` (momentum buffers by
    parameter name), `iteration` (completed updates). Every step looks up
    `dataset.batch`, `net.forward` and `net.backward` anew. The net's arrays
    change only in backward and the update, after the loss is checked."""

    def __init__(self, net: Network, dataset: Dataset, schedule: TrainSchedule):
        if len(dataset) == 0:
            raise ValueError("empty dataset")
        self.net, self.dataset, self.schedule = net, dataset, schedule
        self.rng = np.random.default_rng(schedule.seed)
        self.velocity = {name: np.zeros_like(p.value) for name, p in net.named_params()}
        self.iteration = 0
        # A generator keeps a step's arrays until the next step rebinds them, as
        # a plain loop does; freed at return, glibc trims the heap every step.
        # It holds the trainer weakly: no reference cycle keeps a spent trainer.
        self._steps = Trainer._loop(weakref.proxy(self))

    def step(self) -> tuple:
        """One update; returns its (iteration, lr, loss, acc) row.

        A non-finite loss raises TrainingDiverged naming the first non-finite
        tensor; `Network.discard_step` drops the step's caches, which leaves
        the last good step's iteration, velocity, parameters and batch-norm
        running statistics. The trainer is then spent (StopIteration)."""
        return next(self._steps)

    def _loop(self):
        while True:
            net, schedule, it = self.net, self.schedule, self.iteration + 1
            idx = self.rng.integers(0, len(self.dataset), size=schedule.batch_size)
            x, y = self.dataset.batch(idx)
            if schedule.augment:
                x = _augment_batch(x, self.rng)
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
                v = self.velocity[name]
                v *= schedule.momentum
                v += p.grad + schedule.weight_decay * p.value
                p.value -= (lr * v).astype(p.value.dtype, copy=False)
            self.iteration = it
            yield it, lr, loss, acc


def train(net: Network, dataset: Dataset, schedule: TrainSchedule,
          out_checkpoint: str | None = None) -> TrainLog:
    """`schedule.max_iters` `Trainer` steps, logging every `log_every`-th row
    and the last; writes a final checkpoint when a path is given."""
    trainer = Trainer(net, dataset, schedule)
    log = TrainLog()
    for _ in range(schedule.max_iters):
        row = trainer.step()
        if row[0] % schedule.log_every == 0 or row[0] == schedule.max_iters:
            log.records.append(row)
    if out_checkpoint:
        save_checkpoint(net, out_checkpoint, iteration=schedule.max_iters,
                        schedule=schedule)
    return log


def evaluate(net: Network, dataset: Dataset, batch_size: int = 256):
    """Eval-mode top-1 accuracy and mean loss over a dataset.

    Batches run in slices (`nets.Network`) and the eval forward writes no
    layer cache, so `net.backward` raises until a train-mode forward.
    """
    _require_positive("batch_size", batch_size)
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    hits = 0
    loss_sum = 0.0
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        x, y = dataset.batch(idx)
        logits = net.forward(x, "eval")
        loss, _ = ops.softmax_xent(logits, y)
        loss_sum += loss * len(idx)
        hits += int(np.sum(np.argmax(logits, axis=1) == y))
    return hits / n, loss_sum / n


def _blob_path(manifest_path: str) -> str:
    return manifest_path + ".blob"


def save_checkpoint(net: Network, path: str, iteration: int = 0,
                    schedule: TrainSchedule | None = None):
    """Write `path` (JSON manifest) and `path`.blob (raw tensors).

    Both are written to temp files, then moved into place blob first with
    `os.replace`; a failed write leaves the old checkpoint and no temp file.
    """
    entries = []
    blob = bytearray()
    for name, arr in net.named_state():
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": len(blob)})
        blob += blob_dump(arr)
    manifest = {
        "format": 1,
        "name": net.name,
        "config": net.config(),
        "iteration": iteration,
        "schedule": asdict(schedule) if schedule else None,
        "entries": entries,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    blob_tmp, manifest_tmp = _blob_path(path) + ".tmp", path + ".tmp"
    try:
        with open(blob_tmp, "wb") as f:
            f.write(blob)
        with open(manifest_tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(blob_tmp, _blob_path(path))
        os.replace(manifest_tmp, path)
    finally:
        for temp in (blob_tmp, manifest_tmp):
            if os.path.exists(temp):
                os.remove(temp)


def load_checkpoint(path: str, dtype=REAL) -> tuple[Network, dict]:
    """Rebuild the network named by the manifest and restore every array bit-exactly.

    The manifest must hold a `config` object that `nets.rebuild` reads and
    a list of entries (str `name`, list `shape`, int `offset`) that name each
    live array once and tile the blob in order; anything else raises ValueError.
    """
    with open(path) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise ValueError("checkpoint manifest is not a JSON object")
    if manifest.get("format") != 1:
        raise ValueError(f"unsupported checkpoint format {manifest.get('format')!r}")
    entries = manifest.get("entries")
    if not (isinstance(manifest.get("config"), dict) and isinstance(entries, list)
            and all(isinstance(e, dict) and all(isinstance(e.get(k), t) for k, t in
                    (("name", str), ("shape", list), ("offset", int))) for e in entries)):
        raise ValueError("malformed checkpoint manifest: config or entries")
    with open(_blob_path(path), "rb") as f:
        blob = f.read()
    net = rebuild(manifest["config"], dtype=dtype)
    live = dict(net.named_state())
    names = [e["name"] for e in entries]
    listed = set(names)
    if listed != set(live) or len(names) != len(listed):
        missing = sorted(set(live) - listed)[:3]
        extra = sorted(listed - set(live))[:3]
        raise ValueError(f"manifest/blob mismatch: missing {missing}, unexpected "
                         f"{extra}, {len(names) - len(listed)} duplicate names")
    end = 0
    for entry in entries:
        if entry["offset"] != end:
            raise ValueError(f"entry {entry['name']} at offset {entry['offset']}, "
                             f"expected {end}")
        arr, end = blob_load(blob, end)
        target = live[entry["name"]]
        shape = tuple(entry["shape"])
        if int(np.prod(shape)) != arr.size or shape != target.shape:
            raise ValueError(f"shape mismatch for {entry['name']}: "
                             f"manifest {shape}, live {target.shape}")
        target[...] = arr.reshape(shape).astype(target.dtype)
    if end != len(blob):
        raise ValueError(f"{len(blob) - end} blob bytes after the last entry")
    return net, manifest
