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
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            setattr(self, name, T.check_int(name, getattr(self, name), least))
        for name in ("lr_init", "lr_min", "weight_decay"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real) \
                    or not math.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be a finite nonnegative number, got {val!r}")
        if self.lr_init < self.lr_min:
            raise ValueError("initial learning rate must be >= the minimum")


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
    return leaf in ("gain", "shift", "delta", "gamma", "alpha_raw", "values")


class AdamW:
    """Decoupled weight decay Adam with bias-corrected moments.

    Each step updates every tensor in place, one cache-sized chunk at a
    time, through two chunk-sized scratch buffers per dtype; no full-size
    temporary is made.  Per element the operations and their order are
    those of the textbook form: ``m/bc1 / (sqrt(v/bc2) + eps)``, plus
    ``wd * p`` where decay applies, then ``p -= lr * update``.

    A step consumes the gradients it applies: each parameter's ``grad`` is
    None after its update, so the memory is free before the next forward
    and a second step with no new backward moves nothing; it does not count
    as a step either, so the later bias corrections are unchanged.  Read
    gradients between ``backward`` and ``step``.

    A parameter's moments ``m[name]`` and ``v[name]`` appear, zero-filled,
    at the first step that applies a gradient to it, as PyTorch's Adam
    creates its state: a fresh optimizer holds none, and the updates are
    those of moments allocated up front.
    """

    def __init__(self, params, config):
        self.params = dict(params)
        self.config = config
        self.step_count = 0
        self.m = {}
        self.v = {}
        self.decays = {k: not excluded_from_decay(k) for k in self.params}

    def step(self, lr):
        if all(p.grad is None for p in self.params.values()):
            return
        # Every gradient is checked before anything changes, so a refused
        # step leaves the count, the moments and every parameter as they were.
        for p in self.params.values():
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise T.ShapeError(f"gradient shape {p.grad.shape} != parameter {p.data.shape}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        wd = self.config.weight_decay
        scratch = {}
        # New moments are allocated before any gradient is freed.  Allocated
        # between the updates, they fill the freed gradients' holes; the
        # heap's top is then given back after every step and faulted in
        # again by the next forward (12K faults per T forward against 1K).
        for name, p in self.params.items():
            if p.grad is not None and name not in self.m:
                self.m[name] = np.zeros(p.data.shape, p.data.dtype)
                self.v[name] = np.zeros(p.data.shape, p.data.dtype)
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            data = p.data
            if data.dtype not in scratch:
                scratch[data.dtype] = np.empty((2, T._CHUNK), data.dtype)
            a, b = scratch[data.dtype]
            mf, vf, gf = self.m[name].reshape(-1), self.v[name].reshape(-1), g.reshape(-1)
            pf = data.reshape(-1)
            decay = wd if self.decays[name] else 0.0
            for sl in T._chunks(pf.size):
                n = sl.stop - sl.start
                _adamw_chunk(pf[sl], mf[sl], vf[sl], gf[sl], a[:n], b[:n],
                             lr, bc1, bc2, decay)
            if not data.flags.c_contiguous:
                data[...] = pf.reshape(data.shape)
            p.grad = None


def _adamw_chunk(p, m, v, g, a, b, lr, bc1, bc2, decay):
    """One AdamW update of a chunk in place; ``a`` and ``b`` are scratch."""
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(g, g, out=a)
    a *= 1.0 - ADAM_BETA2
    v += a
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, bc1, out=b)
    b /= a
    if decay:
        np.multiply(p, decay, out=a)
        b += a
    b *= lr
    p -= b


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
    """Quadrant-blob classification images: four classes, one per quadrant.

    Every class shares the same blob shape and intensity statistics; only
    the quadrant the blob lands in differs, so spatial mixing is the only
    discriminating signal.  Deterministic given the seed.
    """

    def __init__(self, image_side=32, per_class=64, seed=0, noise=0.1):
        side = T.check_int("image_side", image_side)
        n = 4 * T.check_int("per_class", per_class)
        rng = np.random.default_rng(seed)
        half = side // 2
        images = rng.normal(0.0, noise, size=(n, side, side, 3)).astype(np.float32)
        labels = np.repeat(np.arange(4), per_class).astype(np.int64)
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
        super().__init__(images[order], labels[order], 4)
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
    and written to ``out_dir/metrics.csv`` when a directory is given.  A
    non-finite loss stops the run with ``FloatingPointError`` naming its
    epoch and step, before that step's backward and update and before
    anything is written.
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
        for step, idx in enumerate(plan[epoch]):
            images, labels = dataset.images[idx], dataset.labels[idx]
            x = Tensor(images.astype(model.dtype, copy=False))
            logits = model.forward(x)
            loss = T.cross_entropy_mean(logits, labels)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"training diverged: loss {float(loss.data)} at "
                                         f"epoch {epoch}, step {step}")
            model.zero_grad()
            backward(loss)
            opt.step(lr)
            losses.append(float(loss.data))
            hits += int((logits.data.argmax(axis=1) == labels).sum())
            seen += labels.shape[0]
            # Nothing of this step may be alive during the next forward.
            del logits, loss
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
    T.check_int("batch_size", batch_size)
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
