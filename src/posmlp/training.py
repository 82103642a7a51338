"""Desk-scale training: AdamW, a cosine schedule, synthetic data, and a
binary-image-dataset reader.

Everything is deterministic under a fixed seed: batch order is drawn up
front from the seed, and the optimizer touches parameters in their stable
path order.
"""

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, backward

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# channel statistics used to normalize ingested image bytes
CIFAR_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR_STD = (0.2470, 0.2435, 0.2616)

_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr_init: float = 3e-3
    lr_min: float = 1e-5
    weight_decay: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("lr_init", "lr_min", "weight_decay"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real) \
                    or not math.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be a finite nonnegative number, got {val!r}")
        if self.lr_init < self.lr_min:
            raise ValueError("initial learning rate must be >= the minimum")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")


def cosine_lr(cfg, epoch):
    """Per-epoch cosine decay from lr_init (epoch 0) to lr_min (last epoch)."""
    if cfg.epochs == 1:
        return cfg.lr_init
    t = epoch / (cfg.epochs - 1)
    return cfg.lr_min + 0.5 * (cfg.lr_init - cfg.lr_min) * (1.0 + math.cos(math.pi * t))


def excluded_from_decay(path):
    """Positional, normalization and bias parameters carry no weight decay."""
    if path.endswith(".bias") or path == "ape":
        return True
    leaf = path.rsplit(".", 1)[-1]
    return leaf in ("gain", "shift", "delta", "gamma", "alpha_raw", "values") \
        or path.endswith("unit.bias")


class AdamW:
    """Decoupled weight decay Adam with bias-corrected moments."""

    def __init__(self, params, config):
        self.params = dict(params)
        self.config = config
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        wd = self.config.weight_decay
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise T.ShapeError(f"gradient shape {g.shape} != parameter {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if wd and not excluded_from_decay(name):
                update = update + wd * p.data
            p.data -= lr * update


# -- datasets -----------------------------------------------------------------------


class ArrayDataset:
    def __init__(self, images, labels, n_classes):
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels disagree in length")
        self.images = images
        self.labels = labels
        self.n_classes = n_classes

    def __len__(self):
        return self.images.shape[0]


class SyntheticDataset(ArrayDataset):
    """Quadrant-blob classification images.

    Every class shares the same blob shape and intensity statistics; only
    the quadrant the blob lands in differs, so spatial mixing is the only
    discriminating signal.  Deterministic given the seed.
    """

    def __init__(self, n_classes=4, image_side=32, per_class=64, seed=0, noise=0.1):
        if n_classes != 4:
            raise ValueError("the quadrant layout defines four classes")
        rng = np.random.default_rng(seed)
        n = n_classes * per_class
        side = image_side
        half = side // 2
        images = rng.normal(0.0, noise, size=(n, side, side, 3)).astype(np.float32)
        labels = np.repeat(np.arange(n_classes), per_class).astype(np.int64)
        yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        sigma = side / 12.0
        for i in range(n):
            c = labels[i]
            qy, qx = divmod(int(c), 2)
            cy = qy * half + half / 2 + rng.uniform(-side / 10, side / 10)
            cx = qx * half + half / 2 + rng.uniform(-side / 10, side / 10)
            bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
            images[i] += 1.5 * bump[..., None].astype(np.float32)
        order = rng.permutation(n)
        super().__init__(images[order], labels[order], n_classes)
        self.image_side = image_side
        self.seed = seed


def ingest_cifar_binary(paths):
    """Read the standard 3073-bytes-per-record binary image layout.

    Each record is one label byte (must be < 10) followed by 3072 pixel
    bytes in channel-plane order; pixels are scaled to [0, 1] and
    standardized with the documented per-channel constants.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    blobs = []
    for path in paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) % _RECORD_BYTES != 0:
            raise ValueError(
                f"{path}: size {len(blob)} is not a multiple of {_RECORD_BYTES}")
        blobs.append(np.frombuffer(blob, dtype=np.uint8).reshape(-1, _RECORD_BYTES))
    records = np.concatenate(blobs, axis=0)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() >= 10:
        raise ValueError(f"label {int(labels.max())} out of range (must be < 10)")
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    images = pixels.astype(np.float32) / 255.0
    images -= np.asarray(CIFAR_MEAN, dtype=np.float32)
    images /= np.asarray(CIFAR_STD, dtype=np.float32)
    return ArrayDataset(np.ascontiguousarray(images), labels, 10)


def write_cifar_binary(path, images_u8, labels):
    """Inverse of the reader, for fixtures: raw uint8 pixels, plane order."""
    n = images_u8.shape[0]
    rec = np.zeros((n, _RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = images_u8.transpose(0, 3, 1, 2).reshape(n, -1)
    with open(path, "wb") as fh:
        fh.write(rec.tobytes())


# -- the loop -----------------------------------------------------------------------


def _batch_plan(n, batch_size, epochs, seed):
    """Seed-deterministic sample order for every epoch, drawn up front."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(epochs):
        order = rng.permutation(n)
        plan.append([order[i:i + batch_size] for i in range(0, n, batch_size)])
    return plan


def train_loop(model, dataset, config, out_dir=None):
    """Cross-entropy training; returns per-epoch metric rows.

    Metrics are also rendered as CSV text (``epoch,split,loss,accuracy``)
    and written to ``out_dir/metrics.csv`` when a directory is given.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    params = model.parameters()
    sample = dataset.images[0:1]
    if sample.shape[1] != model.config.image_side:
        raise T.ShapeError(
            f"dataset images are {sample.shape[1]} wide, model expects "
            f"{model.config.image_side}")
    opt = AdamW(params, config)
    plan = _batch_plan(len(dataset), config.batch_size, config.epochs, config.seed)
    history = []
    for epoch in range(config.epochs):
        lr = cosine_lr(config, epoch)
        losses = []
        hits = 0
        seen = 0
        for idx in plan[epoch]:
            images, labels = dataset.images[idx], dataset.labels[idx]
            x = Tensor(images.astype(model.dtype, copy=False))
            logits = model.forward(x)
            loss = T.cross_entropy_mean(logits, labels)
            model.zero_grad()
            backward(loss)
            opt.step(lr)
            losses.append(float(loss.data))
            hits += int((logits.data.argmax(axis=1) == labels).sum())
            seen += labels.shape[0]
        history.append({"epoch": epoch, "split": "train",
                        "loss": sum(losses) / len(losses),
                        "accuracy": hits / seen})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
            fh.write(metrics_csv(history))
    return history


def metrics_csv(history):
    lines = ["epoch,split,loss,accuracy"]
    for row in history:
        lines.append(f"{row['epoch']},{row['split']},{row['loss']:.6f},{row['accuracy']:.6f}")
    return "\n".join(lines) + "\n"


def evaluate(model, dataset, batch_size=64):
    """Mean loss and top-1 accuracy without parameter updates."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    losses = []
    hits = 0
    for i in range(0, len(dataset), batch_size):
        images = dataset.images[i:i + batch_size]
        labels = dataset.labels[i:i + batch_size]
        logits = model.forward(Tensor(images.astype(model.dtype, copy=False)))
        losses.append(float(T.cross_entropy_mean(logits, labels).data) * labels.shape[0])
        hits += int((logits.data.argmax(axis=1) == labels).sum())
    n = len(dataset)
    return {"loss": sum(losses) / n, "accuracy": hits / n}
