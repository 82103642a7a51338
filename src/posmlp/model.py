"""Model assembly.

A four-stage hierarchical backbone: a three-convolution embedding stem
(spatial /4), stages of gated token-mixing blocks operating on
non-overlapping square windows, stride-2 depthwise merges that halve the
grid and double the channels between stages, and an average-pool linear
classifier.  The tiny/small/base variants share everything except the base
channel width; MICRO is a desk-scale shrink for tests and smoke training
(its constants are fixed here and are not published values).
"""

import json
import math
import os
import struct
import sys
from collections.abc import Sequence
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .gating import Combine, GatingConfig, GatingKind, GatingUnit
from .positional import CovarianceForm, ZeroDraws, trunc_normal

CHECKPOINT_MAGIC = b"PMLP"
CHECKPOINT_VERSION = 1
_DTYPE_TAGS = {0: np.float32, 1: np.float64, 2: np.uint8}
_TAG_OF = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}


class CheckpointError(RuntimeError):
    pass


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class StageConfig:
    depth: int
    dim: int
    window_side: int
    groups: int
    expansion: int

    def __post_init__(self):
        for name in ("depth", "dim", "window_side", "groups", "expansion"):
            object.__setattr__(self, name, T.check_int(name, getattr(self, name)))


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    stages: tuple
    num_classes: int
    image_side: int
    use_ape: bool = False
    gating_kind: GatingKind = GatingKind.GGQPE
    combine: Combine = Combine.GATE
    covariance_form: CovarianceForm = CovarianceForm.GAMMA_GRAMIAN
    delta_frozen: bool = False
    use_bias: bool = None
    pre_norm_on_x1: bool = None
    split_channels: bool = True

    def __post_init__(self):
        if not isinstance(self.variant, str):
            raise ValueError(f"variant must be a string, got {self.variant!r}")
        if not isinstance(self.use_ape, bool):
            raise ValueError(f"use_ape must be true or false, got {self.use_ape!r}")
        object.__setattr__(self, "gating_kind", GatingKind(self.gating_kind))
        object.__setattr__(self, "combine", Combine(self.combine))
        object.__setattr__(self, "covariance_form", CovarianceForm(self.covariance_form))
        object.__setattr__(self, "stages", tuple(
            s if isinstance(s, StageConfig) else StageConfig(**s) for s in self.stages))
        if len(self.stages) != 4:
            raise ValueError("the backbone is four stages")
        for name in ("image_side", "num_classes"):
            object.__setattr__(self, name, T.check_int(name, getattr(self, name)))
        if self.image_side % 4 != 0:
            raise ValueError(f"image side {self.image_side} must be divisible by 4")
        side = self.image_side // 4
        prev_dim = None
        for i, st in enumerate(self.stages):
            if st.dim % 2 != 0:
                raise ValueError(f"stage {i}: dim {st.dim} must be even")
            if side % st.window_side != 0:
                raise ValueError(
                    f"stage {i}: feature side {side} not divisible by window {st.window_side}")
            if i < 3 and side % 2 != 0:
                raise ValueError(f"stage {i}: feature side {side} is odd; the merge halves it")
            if prev_dim is not None and st.dim != 2 * prev_dim:
                raise ValueError(f"stage {i}: dim {st.dim} must double the previous stage")
            self.stage_gating_config(i).mixed_width(st.dim * st.expansion)
            prev_dim = st.dim
            side //= 2

    def stage_gating_config(self, stage):
        st = self.stages[stage]
        groups = st.groups if self.gating_kind.grouped else 1
        return GatingConfig(kind=self.gating_kind, window_side=st.window_side,
                            groups=groups, combine=self.combine,
                            pre_norm_on_x1=self.pre_norm_on_x1,
                            split_channels=self.split_channels,
                            use_bias=self.use_bias,
                            covariance_form=self.covariance_form,
                            delta_frozen=self.delta_frozen)

    def feature_sides(self):
        side = self.image_side // 4
        return tuple(side // (2 ** i) for i in range(4))

    def to_json_dict(self):
        d = asdict(self)
        d["gating_kind"] = self.gating_kind.value
        d["combine"] = self.combine.value
        d["covariance_form"] = self.covariance_form.value
        d["stages"] = [asdict(s) for s in self.stages]
        return d

    @staticmethod
    def from_json_dict(d):
        d = dict(d)
        d["stages"] = tuple(StageConfig(**s) for s in d["stages"])
        return ModelConfig(**d)


_VARIANTS = {
    "T": dict(base_dim=96, depths=(2, 2, 18, 2)),
    "S": dict(base_dim=128, depths=(2, 2, 18, 2)),
    "B": dict(base_dim=192, depths=(2, 2, 18, 2)),
    "MICRO": dict(base_dim=16, depths=(1, 1, 2, 1)),
}
_GROUPS = (8, 16, 32, 64)
_EXPANSIONS = (4, 4, 4, 2)

# Window sides per stage.  The reference windows are those of the published
# training resolution, 224 (MICRO: the largest windows its 8x8 post-stem
# grid admits); other resolutions take the largest divisor of each feature
# side up to them.  The 384 preset reproduces the published fine-tune
# compute budget instead (the first two stages scale up with the feature
# map, the deep third stage keeps four windows to bound its quadratic
# mixing cost).
_WINDOW_PRESETS = {
    ("T", 384): (24, 24, 12, 12), ("S", 384): (24, 24, 12, 12), ("B", 384): (24, 24, 12, 12),
}
_REFERENCE_WINDOWS = {"T": (14, 14, 14, 7), "S": (14, 14, 14, 7), "B": (14, 14, 14, 7),
                      "MICRO": (8, 4, 2, 1)}


def default_windows(variant, image_side):
    """Per-stage window sides for a variant at a given input resolution."""
    preset = _WINDOW_PRESETS.get((variant, image_side))
    if preset is not None:
        return preset
    ref = _REFERENCE_WINDOWS[variant]
    side = image_side // 4
    windows = []
    for i in range(4):
        cap = min(ref[i], side)
        # A side the merges have halved to 0 takes window 1, so that
        # ModelConfig reports the side that no merge can halve.
        windows.append(max((d for d in range(1, cap + 1) if side % d == 0), default=1))
        side //= 2
    return tuple(windows)


def variant_config(variant, image_side=None, num_classes=None, windows=None, **overrides):
    """Build a ModelConfig for one of the named variants."""
    if not isinstance(variant, str) or variant.upper() not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; valid: {sorted(_VARIANTS)}")
    variant = variant.upper()
    spec = _VARIANTS[variant]
    if image_side is None:
        image_side = 32 if variant == "MICRO" else 224
    T.check_int("image_side", image_side)
    if num_classes is None:
        num_classes = 4 if variant == "MICRO" else 1000
    if windows is None:
        windows = default_windows(variant, image_side)
    if isinstance(windows, str) or not isinstance(windows, Sequence) or len(windows) != 4:
        raise ValueError(f"windows must be a sequence of four integers, one window side "
                         f"per stage, got {windows!r}")
    c = spec["base_dim"]
    stages = tuple(
        StageConfig(depth=spec["depths"][i], dim=c * 2 ** i, window_side=windows[i],
                    groups=_GROUPS[i], expansion=_EXPANSIONS[i])
        for i in range(4))
    return ModelConfig(variant=variant, stages=stages, num_classes=num_classes,
                       image_side=image_side, **overrides)


# -- window partitioning -------------------------------------------------------

def _check_window_side(k, h, w):
    if not 1 <= k <= min(h, w) or h % k or w % k:
        raise T.ShapeError(f"window side {k} does not divide feature map {h}x{w}")


def window_partition(x, k):
    """(B, h, w, d) -> (B * h*w/k^2, k^2, d) in raster order per window."""
    b, h, w, d = x.shape
    _check_window_side(k, h, w)
    return T.permute_flat(x, (b, h // k, k, w // k, k, d), (0, 1, 3, 2, 4, 5),
                          (b * (h // k) * (w // k), k * k, d))


def window_reverse(x, k, h, w):
    """Inverse of window_partition back to (B, h, w, d)."""
    _check_window_side(k, h, w)
    nw = (h // k) * (w // k)
    b = x.shape[0] // nw
    if b * nw != x.shape[0] or x.shape[1] != k * k:
        raise T.ShapeError(f"cannot reverse windows {x.shape} into {h}x{w} with k={k}")
    d = x.shape[2]
    return T.permute_flat(x, (b, h // k, w // k, k, k, d), (0, 1, 3, 2, 4, 5), (b, h, w, d))


# -- building blocks -------------------------------------------------------------

class ConvPatchEmbed:
    """Three 3x3 convolutions (strides 2, 1, 2) mapping an image to a /4 map."""

    def __init__(self, out_dim, rng, dtype):
        mid = out_dim // 2
        self.w1 = Tensor(trunc_normal(rng, (3, 3, 3, mid), 0.02, dtype), requires_grad=True)
        self.b1 = Tensor(np.zeros(mid, dtype=dtype), requires_grad=True)
        self.w2 = Tensor(trunc_normal(rng, (3, 3, mid, mid), 0.02, dtype), requires_grad=True)
        self.b2 = Tensor(np.zeros(mid, dtype=dtype), requires_grad=True)
        self.w3 = Tensor(trunc_normal(rng, (3, 3, mid, out_dim), 0.02, dtype), requires_grad=True)
        self.b3 = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def parameters(self):
        return {"conv1.weight": self.w1, "conv1.bias": self.b1,
                "conv2.weight": self.w2, "conv2.bias": self.b2,
                "conv3.weight": self.w3, "conv3.bias": self.b3}

    def forward(self, x):
        if x.ndim != 4 or x.shape[3] != 3:
            raise T.ShapeError(f"stem expects (B, H, W, 3) images, got {x.shape}")
        if x.shape[1] % 4 or x.shape[2] % 4:
            raise T.ShapeError(f"image sides {x.shape[1]}x{x.shape[2]} must divide by 4")
        h = T.conv2d(x, self.w1, self.b1, stride=2)
        h = T.gelu(h)
        h = T.conv2d(h, self.w2, self.b2, stride=1)
        h = T.gelu(h)
        return T.conv2d(h, self.w3, self.b3, stride=2)


class ConvPatchMerge:
    """Stride-2 depthwise 3x3 with channel multiplier 2: halves the grid,
    doubles the width."""

    def __init__(self, dim, rng, dtype):
        self.weight = Tensor(trunc_normal(rng, (3, 3, dim, 2), 0.02, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(2 * dim, dtype=dtype), requires_grad=True)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x):
        if x.shape[1] % 2 or x.shape[2] % 2:
            raise T.ShapeError(f"patch merge needs even sides, got {x.shape}")
        return T.conv2d_depthwise(x, self.weight, self.bias, stride=2)


class PosMlpBlock:
    """Pre-norm channel MLP whose hidden activation is refined by a gating unit.

    in-projection d -> gd, gating unit, out-projection back to d, residual.
    """

    def __init__(self, dim, gating_config, expansion, rng, dtype):
        hidden = dim * expansion
        self.dim = dim
        self.norm_gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.norm_shift = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.w_in = Tensor(trunc_normal(rng, (dim, hidden), 0.02, dtype), requires_grad=True)
        self.b_in = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.unit = GatingUnit(gating_config, hidden, rng=rng, dtype=dtype)
        out_width = gating_config.output_width(hidden)
        self.w_out = Tensor(trunc_normal(rng, (out_width, dim), 0.02, dtype), requires_grad=True)
        self.b_out = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def parameters(self):
        out = {"norm.gain": self.norm_gain, "norm.shift": self.norm_shift,
               "proj_in.weight": self.w_in, "proj_in.bias": self.b_in}
        for name, p in self.unit.parameters().items():
            out[f"unit.{name}"] = p
        out["proj_out.weight"] = self.w_out
        out["proj_out.bias"] = self.b_out
        return out

    def forward(self, x):
        h = T.layer_norm(x, self.norm_gain, self.norm_shift)
        h = T.linear(h, self.w_in, self.b_in)
        h = T.gelu(h)
        h = self.unit.forward(h)
        h = T.linear(h, self.w_out, self.b_out)
        return T.add(x, h)


class PosMlpModel:
    """The assembled four-stage model.

    Parameters live in an ordered path -> Tensor mapping; forward is a pure
    function of them, so concurrent inference on a built model is safe.
    """

    def __init__(self, config, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.dtype = np.dtype(dtype)
        c = config.stages[0].dim
        self.stem = ConvPatchEmbed(c, rng, dtype)
        self.ape = None
        if config.use_ape:
            side = config.image_side // 4
            self.ape = Tensor(trunc_normal(rng, (side * side, c), 0.02, dtype),
                              requires_grad=True)
        self.stages = []
        self.merges = []
        for i, st in enumerate(config.stages):
            blocks = [PosMlpBlock(st.dim, config.stage_gating_config(i), st.expansion,
                                  rng, dtype) for _ in range(st.depth)]
            self.stages.append(blocks)
            if i < 3:
                self.merges.append(ConvPatchMerge(st.dim, rng, dtype))
        last = config.stages[3].dim
        self.final_gain = Tensor(np.ones(last, dtype=dtype), requires_grad=True)
        self.final_shift = Tensor(np.zeros(last, dtype=dtype), requires_grad=True)
        self.head_w = Tensor(trunc_normal(rng, (last, config.num_classes), 0.02, dtype),
                             requires_grad=True)
        self.head_b = Tensor(np.zeros(config.num_classes, dtype=dtype), requires_grad=True)

    def parameters(self):
        out = {}
        for name, p in self.stem.parameters().items():
            out[f"stem.{name}"] = p
        if self.ape is not None:
            out["ape"] = self.ape
        for i, blocks in enumerate(self.stages):
            for j, blk in enumerate(blocks):
                for name, p in blk.parameters().items():
                    out[f"stages.{i}.blocks.{j}.{name}"] = p
            if i < 3:
                for name, p in self.merges[i].parameters().items():
                    out[f"merges.{i}.{name}"] = p
        out["final_norm.gain"] = self.final_gain
        out["final_norm.shift"] = self.final_shift
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    def forward(self, images):
        cfg = self.config
        if images.ndim != 4 or images.shape[3] != 3:
            raise T.ShapeError(f"expected (B, H, W, 3) images, got {images.shape}")
        if images.shape[1] != cfg.image_side or images.shape[2] != cfg.image_side:
            raise T.ShapeError(
                f"model built for {cfg.image_side}^2 input, got {images.shape[1]}x{images.shape[2]}")
        x = self.stem.forward(images)
        if self.ape is not None:
            b, h, w, c = x.shape
            flat = T.reshape(x, (b, h * w, c))
            flat = T.add_map(flat, self.ape)
            x = T.reshape(flat, (b, h, w, c))
        for i, blocks in enumerate(self.stages):
            k = cfg.stages[i].window_side
            b, h, w, d = x.shape
            tokens = window_partition(x, k)
            for blk in blocks:
                tokens = blk.forward(tokens)
            x = window_reverse(tokens, k, h, w)
            if i < 3:
                x = self.merges[i].forward(x)
        b, h, w, d = x.shape
        tokens = T.reshape(x, (b, h * w, d))
        tokens = T.layer_norm(tokens, self.final_gain, self.final_shift)
        pooled = T.mean_tokens(tokens)
        return T.linear(pooled, self.head_w, self.head_b)


def build_model(config, rng=None, dtype=np.float32):
    return PosMlpModel(config, rng=rng, dtype=dtype)


# -- checkpoint io ----------------------------------------------------------------

def _write_record(fh, path, arr):
    enc = path.encode("utf-8")
    fh.write(struct.pack("<I", len(enc)))
    fh.write(enc)
    tag = _TAG_OF.get(arr.dtype)
    if tag is None:
        raise CheckpointError(f"unsupported dtype {arr.dtype} for {path}")
    fh.write(struct.pack("<BB", tag, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def _read_exact(fh, n, what):
    # A corrupt extent may ask for far more than the file holds; refuse it
    # before the read allocates a buffer of that size.
    buf = b"" if n > os.fstat(fh.fileno()).st_size - fh.tell() else fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def _read_header(fh):
    """``(path, dtype, shape, nbytes)`` of the next record, its buffer unread; None at the end.

    The buffer, ``nbytes`` long, holds ``dtype`` little-endian.  A buffer
    longer than the rest of the file is refused here, before anything is
    allocated for it.
    """
    head = fh.read(4)
    if not head:
        return None
    if len(head) != 4:
        raise CheckpointError("truncated checkpoint while reading record header")
    (plen,) = struct.unpack("<I", head)
    try:
        path = _read_exact(fh, plen, "parameter path").decode("utf-8")
    except UnicodeDecodeError as err:
        raise CheckpointError(f"parameter path is not utf-8: {err}") from None
    tag, rank = struct.unpack("<BB", _read_exact(fh, 2, f"dtype tag of {path}"))
    if tag not in _DTYPE_TAGS:
        raise CheckpointError(f"unknown dtype tag {tag} for {path}")
    shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"extents of {path}"))
    if 0 in shape:
        raise CheckpointError(f"zero extent in {shape} for {path}")
    dtype = np.dtype(_DTYPE_TAGS[tag])
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint while reading buffer of {path}")
    return path, dtype, shape, nbytes


def _read_into(fh, out, path):
    """Read a record's buffer straight into ``out``, a C-contiguous array of its dtype and shape."""
    if fh.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise CheckpointError(f"truncated checkpoint while reading buffer of {path}")
    if sys.byteorder != "little":
        out.byteswap(inplace=True)


_GQPE_KINDS = ("delta", "gamma", "alpha_raw")


def _records(params):
    """Checkpoint record path -> ``(parameter, row)``, in file order.

    A quadratic unit's parameter blocks are written one record per group
    and kind, ``<unit>.gqpe.{i}.delta|gamma|alpha_raw``, group after group;
    such a record holds row i of its block.  Every other parameter is one
    record of its own, with row None.
    """
    out = {}
    for name, p in params.items():
        unit, sep, kind = name.rpartition(".gqpe.")
        if not sep:
            out[name] = (p, None)
        elif f"{unit}.gqpe.0.{kind}" not in out:
            blocks = [(k, params[f"{unit}.gqpe.{k}"]) for k in _GQPE_KINDS
                      if f"{unit}.gqpe.{k}" in params]
            for i in range(p.shape[0]):
                for k, block in blocks:
                    out[f"{unit}.gqpe.{i}.{k}"] = (block, i)
    return out


def save_checkpoint(model, path):
    """Write magic, version, config record, then every parameter buffer."""
    cfg_bytes = json.dumps(model.config.to_json_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        _write_record(fh, "__config__", np.frombuffer(cfg_bytes, dtype=np.uint8))
        for name, (p, row) in _records(model.parameters()).items():
            _write_record(fh, name, p.data if row is None else p.data[row])


def _decode_config(arr):
    """The model configuration held by the ``__config__`` record's bytes."""
    if arr.dtype != np.uint8:
        raise CheckpointError(f"__config__ record has dtype {arr.dtype}, expected uint8")
    try:
        return ModelConfig.from_json_dict(json.loads(arr.tobytes().decode("utf-8")))
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        raise CheckpointError(f"corrupt __config__ record: {err!r}") from None


def load_checkpoint(path):
    """Rebuild a model from a checkpoint file; buffers round-trip bit-exactly.

    The model is built with ``ZeroDraws``, so no random initialisation runs,
    as soon as the first parameter record gives its dtype; every parameter
    record must share that float dtype, which becomes the model's.  Each
    record's bytes are then read straight into its parameter, or into its
    row of a quadratic unit's block, so a load holds one copy of the
    parameters.  No path may appear twice, every parameter must be read,
    and every value must be finite: a NaN or inf record is refused as soon
    as it is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a model checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})")
        head = _read_header(fh)
        if head is None or head[0] != "__config__":
            raise CheckpointError("checkpoint missing leading __config__ record")
        _, dtype, shape, nbytes = head
        raw = _read_exact(fh, nbytes, "buffer of __config__")
        config = _decode_config(np.frombuffer(raw, dtype.newbyteorder("<")).reshape(shape))
        model = first = None
        seen = set()
        while (head := _read_header(fh)) is not None:
            name, dtype, shape, _ = head
            if dtype.kind != "f":
                raise CheckpointError(f"parameter {name!r} has non-float dtype {dtype}")
            if model is None:
                first = name, dtype
                model = PosMlpModel(config, rng=ZeroDraws(), dtype=dtype)
                targets = _records(model.parameters())
            elif dtype != first[1]:
                raise CheckpointError(
                    f"parameter {name!r} has dtype {dtype}, but {first[0]!r} has {first[1]}")
            if name in seen:
                raise CheckpointError(f"duplicate parameter path {name!r} in checkpoint")
            if name not in targets:
                raise CheckpointError(f"unknown parameter path {name!r} in checkpoint")
            p, row = targets[name]
            want = p.shape if row is None else p.shape[1:]
            if tuple(shape) != tuple(want):
                raise CheckpointError(
                    f"shape mismatch for {name!r}: file has {tuple(shape)}, model needs {tuple(want)}")
            out = p.data if row is None else p.data[row]
            _read_into(fh, out, name)
            if not np.isfinite(out).all():
                raise CheckpointError(f"parameter {name!r} holds a non-finite value")
            seen.add(name)
    if model is None:
        model = PosMlpModel(config, rng=ZeroDraws(), dtype=np.float32)
        targets = _records(model.parameters())
    missing = set(targets) - seen
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {sorted(missing)[:3]} ...")
    return model
