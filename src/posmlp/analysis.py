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
from .positional import GqpeGroupParams, group_weight_stack, lrpe_weight_stack

DEFAULT_EXCLUSION = 1e-3


def symmetric_eigvals_2x2(mat):
    """Closed-form eigenvalues of a symmetric 2x2 matrix, ascending."""
    a, b, c = float(mat[0, 0]), float(mat[0, 1]), float(mat[1, 1])
    half_tr = (a + c) / 2.0
    disc = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return half_tr - disc, half_tr + disc


@dataclass
class NonLocalityEntry:
    layer: str
    value: float          # None when every group was excluded
    included_groups: int
    excluded_groups: int


def non_locality(gqpe_groups, layer="layer", exclusion=DEFAULT_EXCLUSION):
    """Mean sqrt(lambda1 * lambda2) of the group precisions of one layer.

    Groups whose smallest eigenvalue falls below ``exclusion`` are skipped
    and counted.  Smaller values mean flatter attention, i.e. more
    non-local mixing; scaling every precision by c scales the score by c.
    """
    for g in gqpe_groups:
        if not isinstance(g, GqpeGroupParams):
            raise TypeError("non_locality expects quadratic-prior group parameters")
    if not gqpe_groups:
        raise ValueError("non_locality needs at least one group")
    vals = []
    excluded = 0
    for g in gqpe_groups:
        lo, hi = symmetric_eigvals_2x2(g.effective_precision_numpy())
        if lo < exclusion:
            excluded += 1
            continue
        vals.append(math.sqrt(lo * hi))
    value = None if not vals else sum(vals) / len(vals)
    return NonLocalityEntry(layer, value, len(vals), excluded)


def model_non_locality(model, exclusion=DEFAULT_EXCLUSION):
    """Per-layer non-locality entries over all quadratic-prior blocks."""
    if model.config.gating_kind is not GatingKind.GGQPE:
        raise ValueError("non-locality is defined for the quadratic gating kind")
    out = []
    for i, blocks in enumerate(model.stages):
        for j, blk in enumerate(blocks):
            out.append(non_locality(blk.unit.gqpe, f"stage{i}_block{j}", exclusion))
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

def _positional_matrix(unit):
    kind = unit.config.kind
    if kind is GatingKind.GGQPE:
        stack = group_weight_stack(unit.gqpe, unit.emb)
    elif kind in (GatingKind.LRPE, GatingKind.GLRPE, GatingKind.LRPE_M):
        stack = lrpe_weight_stack(unit.lrpe, unit.grid)
    else:
        raise ValueError(f"{kind.name} has no positional matrix to export")
    return [stack.matrix(g) for g in range(len(stack))]


def _check_selection(unit, query_index, groups):
    n, s = unit.config.n_tokens, unit.config.groups
    if not 0 <= query_index < n:
        raise IndexError(f"query index {query_index} out of range for {n} tokens")
    bad = [g for g in groups or () if not 0 <= g < s]
    if bad:
        raise IndexError(f"group indices {bad} out of range for {s} groups")


def export_unit_attention_maps(unit, query_index, out_dir, layer="unit", groups=None):
    """Write one query row of each group's positional matrix as CSV + PGM."""
    k = unit.config.window_side
    _check_selection(unit, query_index, groups)
    mats = _positional_matrix(unit)
    groups = range(len(mats)) if groups is None else groups
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for g in groups:
        row = mats[g][query_index].reshape(k, k)
        base = os.path.join(out_dir, f"{layer}_{g}_{query_index}")
        write_map_csv(base + ".csv", row)
        write_map_pgm(base + ".pgm", row)
        written.extend([base + ".csv", base + ".pgm"])
    return written


def export_attention_maps(model, query_index, out_dir, layers=None, groups=None):
    """Export positional-matrix rows for selected blocks of a model.

    ``layers`` selects flat block indices (stage-major); the default is all
    blocks that carry positional matrices.  Every selection is checked
    before the first map is written.
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
