"""Seeded stand-in inputs: a CIFAR-10 binary dataset and an eval checkpoint.

The program under test only ever sees the files written here. The dataset is
class-conditional so training makes progress within a few dozen steps: each
class owns a base colour and a coloured blob at its own position, and every
image adds uniform pixel noise. `pipeline.write_cifar10_batches` writes the
records in the CIFAR-10 binary layout, as `data_batch_1.bin` and
`test_batch.bin`.
"""

from __future__ import annotations

import os

import numpy as np

from shiftnet import nets, pipeline

CLASSES = 10
SIDE = 32
RECORD = 1 + 3 * SIDE * SIDE
_CHUNK = 2000          # images generated at a time, to keep the peak small
_NOISE = 32            # uniform noise in [-_NOISE, _NOISE] per pixel


def _templates(rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    out = np.empty((CLASSES, 3, SIDE, SIDE), dtype=np.int16)
    for k in range(CLASSES):
        base = rng.integers(64, 192, size=3)
        cy, cx = rng.uniform(8, SIDE - 8, size=2)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 6.0 ** 2))
        amp = rng.uniform(-60, 60, size=3)
        out[k] = np.rint(base[:, None, None] + amp[:, None, None] * bump)
    return out


def write_dataset(directory: str, seed: int, train: int = 50000,
                  test: int = 10000) -> str:
    """Write `train` + `test` stand-in CIFAR-10 records for `seed`."""
    rng = np.random.default_rng([seed, 0x5EED])
    templates = _templates(rng)
    n = train + test
    labels = rng.integers(0, CLASSES, size=n)
    images = np.empty((n, 3, SIDE, SIDE), dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        part = slice(start, min(start + _CHUNK, n))
        noise = rng.integers(-_NOISE, _NOISE + 1, size=images[part].shape,
                             dtype=np.int16)
        images[part] = np.clip(templates[labels[part]] + noise, 0, 255)
    pipeline.write_cifar10_batches(directory, images, labels,
                                   test_fraction=test / n)
    return directory


def write_checkpoint(path: str, data_dir: str, arch: str, expansion: float,
                     seed: int, iters: int = 6, batch: int = 16) -> str:
    """Briefly train `arch` on the head of the train file and save it.

    A few SGD steps give the eval workload non-trivial weights and batch-norm
    running statistics without loading the whole dataset.
    """
    with open(os.path.join(data_dir, "data_batch_1.bin"), "rb") as f:
        raw = f.read(256 * RECORD)
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD)
    images = buf[:, 1:].reshape(-1, 3, SIDE, SIDE)
    scaled = images.astype(np.float32) / 255.0
    mean = scaled.mean(axis=(0, 2, 3))
    std = np.maximum(scaled.std(axis=(0, 2, 3)), 1e-8)
    ds = pipeline.Dataset(images, buf[:, 0].astype(np.int64), "train", CLASSES,
                          mean, std)
    net = nets.build_by_name(arch, expansion=expansion, seed=seed)
    schedule = pipeline.TrainSchedule(max_iters=iters, base_lr=0.02,
                                      batch_size=batch, lr_decay_points=(),
                                      seed=seed)
    pipeline.train(net, ds, schedule, out_checkpoint=path)
    return path
