"""Analysis utilities: the non-locality score and map exports.

The non-locality of a quadratic-prior layer summarizes how concentrated its
groups' attention is: the mean geometric-mean eigenvalue of the group
precisions.  Near-singular groups (smallest eigenvalue below a threshold)
are left out of the mean; a layer with no usable group reports no value
rather than zero.

Exports write per-query attention rows and per-layer bias vectors as k x k
maps, as CSV for analysis and binary PGM for eyeballing.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .gating import GatingKind
from .positional import GqpeParams

DEFAULT_EXCLUSION = 1e-3


def symmetric_eigvals_2x2(mat):
    """Closed-form eigenvalues of symmetric 2x2 matrices ``(..., 2, 2)``, ascending."""
    mat = np.asarray(mat, dtype=np.float64)
    a, b, c = mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 1]
    half_tr = (a + c) / 2.0
    disc = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return half_tr - disc, half_tr + disc


@dataclass
class NonLocalityEntry:
    layer: str
    value: float          # None when every group was excluded
    included_groups: int
    excluded_groups: int


def non_locality(params, layer="layer"):
    """Mean sqrt(lambda1 * lambda2) of the group precisions of one layer.

    ``params`` is the layer's ``GqpeParams``.  Groups whose smallest
    eigenvalue falls below ``DEFAULT_EXCLUSION`` are skipped and counted.
    Smaller values mean flatter attention, i.e. more non-local mixing;
    scaling every precision by c scales the score by c.
    """
    if not isinstance(params, GqpeParams):
        raise TypeError("non_locality expects quadratic-prior parameters (GqpeParams)")
    lo, hi = symmetric_eigvals_2x2(params.effective_precision_numpy())
    kept = ~(lo < DEFAULT_EXCLUSION)
    vals = np.sqrt(lo[kept] * hi[kept]).tolist()
    value = None if not vals else sum(vals) / len(vals)
    return NonLocalityEntry(layer, value, len(vals), int(lo.size - len(vals)))


def model_non_locality(model):
    """Per-layer non-locality entries over all quadratic-prior blocks."""
    if model.config.gating_kind is not GatingKind.GGQPE:
        raise ValueError("non-locality is defined for the quadratic gating kind")
    out = []
    for i, blocks in enumerate(model.stages):
        for j, blk in enumerate(blocks):
            out.append(non_locality(blk.unit.gqpe, f"stage{i}_block{j}"))
    return out


# -- map files ---------------------------------------------------------------------

def write_map_csv(path, grid_map):
    """k x k map as ``x,y,value`` rows (x = column, y = row, raster order)."""
    k = grid_map.shape[0]
    lines = ["x,y,value"]
    for y in range(k):
        for x in range(k):
            lines.append(f"{x},{y},{grid_map[y, x]:.9g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_map_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,y,value":
            raise ValueError(f"unexpected CSV header {header!r} in {path}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    k = int(math.isqrt(len(rows)))
    if k * k != len(rows):
        raise ValueError(f"{path} does not hold a square map")
    out = np.zeros((k, k))
    for x, y, v in rows:
        out[int(y), int(x)] = float(v)
    return out


def write_map_pgm(path, grid_map):
    """Binary P5, maxval 255, min-max normalized; flat maps render mid-gray."""
    k = grid_map.shape[0]
    lo = float(grid_map.min())
    hi = float(grid_map.max())
    if hi - lo < 1e-30:
        pixels = np.full((k, k), 128, dtype=np.uint8)
    else:
        pixels = np.round((grid_map - lo) / (hi - lo) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{k} {k}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_map_pgm(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path} is not a binary PGM")
        w, h = (int(v) for v in fh.readline().split())
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError("expected maxval 255")
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    return data.reshape(h, w)


# -- attention and bias exports -------------------------------------------------------

def _check_selection(unit, query_index, groups):
    n, s = unit.config.n_tokens, unit.config.groups
    if not 0 <= query_index < n:
        raise IndexError(f"query index {query_index} out of range for {n} tokens")
    bad = [g for g in groups or () if not 0 <= g < s]
    if bad:
        raise IndexError(f"group indices {bad} out of range for {s} groups")


def export_unit_attention_maps(unit, query_index, out_dir, layer="unit", groups=None):
    """Write one query row of each group's mixing matrix as CSV + PGM.

    The rows are those of ``unit.mixing_stack()``, the matrices the unit
    mixes with: dense plus lookup for LRPE_M, the dense matrix for SGU.
    """
    k = unit.config.window_side
    _check_selection(unit, query_index, groups)
    stack = unit.mixing_stack()
    groups = range(len(stack)) if groups is None else groups
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for g in groups:
        row = stack.matrix(g)[query_index].reshape(k, k)
        base = os.path.join(out_dir, f"{layer}_{g}_{query_index}")
        write_map_csv(base + ".csv", row)
        write_map_pgm(base + ".pgm", row)
        written.extend([base + ".csv", base + ".pgm"])
    return written


def export_attention_maps(model, query_index, out_dir, layers=None, groups=None):
    """Export mixing-matrix rows for selected blocks of a model.

    ``layers`` selects flat block indices (stage-major); the default is all
    blocks.  Every selection is checked before the first map is written.
    """
    flat = [(f"stage{i}_block{j}", blk.unit)
            for i, blocks in enumerate(model.stages)
            for j, blk in enumerate(blocks)]
    if layers is not None:
        bad = [i for i in layers if not 0 <= i < len(flat)]
        if bad:
            raise IndexError(f"layer indices {bad} out of range for {len(flat)} blocks")
        flat = [flat[i] for i in layers]
    for _, unit in flat:
        _check_selection(unit, query_index, groups)
    written = []
    for label, unit in flat:
        written.extend(export_unit_attention_maps(unit, query_index, out_dir,
                                                  layer=label, groups=groups))
    return written


def export_bias_maps(model, out_dir):
    """Per-layer k x k maps of the position bias; empty report when unused."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for i, blocks in enumerate(model.stages):
        k = model.config.stages[i].window_side
        for j, blk in enumerate(blocks):
            bias = blk.unit.bias
            if bias is None:
                continue
            grid_map = bias.data.astype(np.float64).reshape(k, k)
            base = os.path.join(out_dir, f"stage{i}_block{j}_bias")
            write_map_csv(base + ".csv", grid_map)
            write_map_pgm(base + ".pgm", grid_map)
            written.extend([base + ".csv", base + ".pgm"])
    return written
