"""Data ingestion, SGD training with a step schedule, evaluation, checkpoints.

CIFAR-style binary batches (1 label byte + 3072 pixel bytes per record, RGB
planes, 32x32 row-major) load into uint8 storage with per-channel
standardization statistics computed from the train split only; pixels scale
to [0, 1] before standardizing. A deterministic synthetic Gaussian-blob
dataset supports desk-scale overfit runs without external data.

Training is plain SGD with momentum and L2 weight decay; the learning rate
decays by a fixed factor at the scheduled iteration marks. Runs are
deterministic under a fixed seed (single-threaded execution assumed for
bitwise reproducibility).

Checkpoints are a JSON manifest (network name, architecture rows, iteration,
schedule, named array entries) plus one blob file holding every parameter
and batch-norm running statistic in the raw tensor format; a round trip
restores bit-identical eval-mode outputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ops
from .nets import Network, rebuild
from .tensor import REAL, blob_dump, blob_load

_CIFAR10_RECORD = 3073


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


def _read_cifar_records(path: str):
    record = _CIFAR10_RECORD
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) == 0 or len(raw) % record != 0:
        raise ValueError(f"{path}: size {len(raw)} is not a multiple of the "
                         f"{record}-byte record")
    n = len(raw) // record
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(n, record)
    labels = buf[:, 0].astype(np.int64)
    pixels = buf[:, 1:].reshape(n, 3, 32, 32)
    return pixels, labels


def _standardize_stats(images_u8: np.ndarray):
    """Per-channel float32 mean and std of the [0, 1]-scaled images, from exact sums.

    x and x^2 (x^2 fits uint16) are summed in int64 a chunk of records at a
    time, so no float copy of the split is made, then combined in Python ints,
    because n * sum(x^2) overflows int64 at CIFAR size.
    """
    s1, s2 = np.zeros((2, images_u8.shape[1]), dtype=np.int64)
    for i in range(0, len(images_u8), 1024):
        x = images_u8[i:i + 1024].astype(np.uint16)
        s1 += x.sum(axis=(0, 2, 3), dtype=np.int64)
        x *= x
        s2 += x.sum(axis=(0, 2, 3), dtype=np.int64)
    n = images_u8.size // images_u8.shape[1]
    mean = [int(a) / (255 * n) for a in s1]
    var = [(n * int(q) - int(a) ** 2) / (255 * n) ** 2 for a, q in zip(s1, s2)]
    return np.array(mean, dtype=np.float32), np.maximum(np.sqrt(var), 1e-8).astype(np.float32)


def load_cifar10(directory: str) -> tuple[Dataset, Dataset]:
    """Load the CIFAR-10 binary batches from `directory`.

    Expects data_batch_*.bin plus test_batch.bin. Standardization statistics
    come from the train split and are shared with the test split.
    """
    train_files = sorted(f for f in os.listdir(directory)
                         if f.startswith("data_batch") and f.endswith(".bin"))
    if not train_files:
        raise FileNotFoundError(f"no data_batch_*.bin files in {directory}")
    test_path = os.path.join(directory, "test_batch.bin")
    if not os.path.exists(test_path):
        raise FileNotFoundError(f"missing test_batch.bin in {directory}")
    parts = [_read_cifar_records(os.path.join(directory, f)) for f in train_files]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    mean, std = _standardize_stats(images)
    train = Dataset(images, labels, "train", 10, mean, std)
    ti, tl = _read_cifar_records(test_path)
    test = Dataset(ti, tl, "test", 10, mean, std)
    return train, test


def write_cifar10_batches(directory: str, images_u8: np.ndarray,
                          labels: np.ndarray, test_fraction: float = 0.2):
    """Write images into the CIFAR-10 binary batch layout (for stand-in data)."""
    os.makedirs(directory, exist_ok=True)
    n = len(labels)
    n_test = max(1, int(n * test_fraction))
    order = {"data_batch_1.bin": slice(0, n - n_test),
             "test_batch.bin": slice(n - n_test, n)}
    for fname, sl in order.items():
        img, lab = images_u8[sl], labels[sl]
        rec = np.empty((len(lab), _CIFAR10_RECORD), dtype=np.uint8)
        rec[:, 0] = lab
        rec[:, 1:] = img.reshape(len(lab), -1)
        with open(os.path.join(directory, fname), "wb") as f:
            f.write(rec.tobytes())


def synth_dataset(n: int, classes: int, image_shape=(3, 32, 32),
                  seed: int = 0) -> Dataset:
    """Deterministic class-conditional Gaussian-blob images with balanced labels.

    Each class owns a fixed blob center and color; images are that blob plus
    mild noise, which makes the set linearly separable and quick to overfit.
    """
    if n < classes:
        raise ValueError(f"need at least one example per class ({n} < {classes})")
    c, h, w = image_shape
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
        pts = tuple(self.lr_decay_points)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("decay points must be strictly increasing")
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

    def add(self, iteration, lr, loss, acc):
        self.records.append((iteration, lr, loss, acc))

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

    Batch-norm running stats moved by the train-mode re-run are put back.
    """
    for name, p in net.named_params():
        if not np.all(np.isfinite(p.value)):
            return f"param {name}"
    if not np.all(np.isfinite(x)):
        return "input batch"
    saved = [a.copy() for _, a in net.named_state()]
    try:
        h = x
        for lname, layer in net.layers:
            h = layer.forward(h, "train")
            if not np.all(np.isfinite(h)):
                return f"activation {lname}"
        return "loss"
    finally:
        for (_, a), old in zip(net.named_state(), saved):
            a[...] = old


def train(net: Network, dataset: Dataset, schedule: TrainSchedule,
          out_checkpoint: str | None = None) -> TrainLog:
    """SGD training loop; deterministic under (schedule.seed, single thread).

    Raises TrainingDiverged with the first non-finite tensor's name if the
    loss leaves the reals. Writes a final checkpoint when a path is given.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(schedule.seed)
    velocity = {name: np.zeros_like(p.value) for name, p in net.named_params()}
    log = TrainLog()
    for it in range(1, schedule.max_iters + 1):
        idx = rng.integers(0, len(dataset), size=schedule.batch_size)
        x, y = dataset.batch(idx)
        if schedule.augment:
            x = _augment_batch(x, rng)
        logits = net.forward(x, "train")
        loss, probs = ops.softmax_xent(logits, y)
        if not np.isfinite(loss):
            culprit = _diagnose_nonfinite(net, x)
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
            log.add(it, lr, loss, acc)
    if out_checkpoint:
        save_checkpoint(net, out_checkpoint, iteration=schedule.max_iters,
                        schedule=schedule)
    return log


def evaluate(net: Network, dataset: Dataset, batch_size: int = 256):
    """Eval-mode top-1 accuracy and mean loss over a dataset.

    Batches run in slices (`nets.Network`), after which layer caches hold only
    the last slice: `backward` follows a train-mode forward only.
    """
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
    """Write `path` (JSON manifest) and `path`.blob (raw tensors)."""
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
    with open(path, "w") as f:
        json.dump(manifest, f, indent=1)
    with open(_blob_path(path), "wb") as f:
        f.write(bytes(blob))


def load_checkpoint(path: str, dtype=REAL) -> tuple[Network, dict]:
    """Rebuild the network named by the manifest and restore every array bit-exactly.

    The entries must name each live array once and tile the blob in order;
    anything else raises ValueError.
    """
    with open(path) as f:
        manifest = json.load(f)
    if manifest.get("format") != 1:
        raise ValueError(f"unsupported checkpoint format {manifest.get('format')!r}")
    with open(_blob_path(path), "rb") as f:
        blob = f.read()
    net = rebuild(manifest["config"], dtype=dtype)
    live = dict(net.named_state())
    names = [e["name"] for e in manifest["entries"]]
    listed = set(names)
    if listed != set(live) or len(names) != len(listed):
        missing = sorted(set(live) - listed)[:3]
        extra = sorted(listed - set(live))[:3]
        raise ValueError(f"manifest/blob mismatch: missing {missing}, unexpected "
                         f"{extra}, {len(names) - len(listed)} duplicate names")
    end = 0
    for entry in manifest["entries"]:
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
