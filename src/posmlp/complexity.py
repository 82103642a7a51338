"""Parameter and compute accounting.

Closed-form per-block formulas, empirical counters over built models, and
the reconciliation between the two.

Conventions, chosen to compare against the published budgets:

* one multiply-accumulate counts as one FLOP unit (matmul, linear, conv);
* positional-matrix generation is charged per window forward (5s N^2 for
  the quadratic form, s N^2 for lookup assignment, 2 N^2 for the merged
  lookup), which keeps the estimate exactly linear in batch size;
* elementwise work (activations, norms, softmax, gating products,
  residuals, pooling) is excluded, matching the closed-form block costs.
"""

import math
from dataclasses import dataclass, field

from .gating import GatingKind
from .tensor import check_int


@dataclass
class BlockCost:
    """One measured quantity (params or flops) with labeled sub-costs."""

    total: int
    breakdown: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.breakdown and sum(self.breakdown.values()) != self.total:
            raise ValueError("breakdown does not sum to the total")


def _sqrt_tokens(n):
    k = math.isqrt(n)
    if k * k != n:
        raise ValueError(f"token count {n} is not a square window")
    return k


def _fc_params(d, gamma):
    num = 3 * gamma * d * d
    if num % 2:
        raise ValueError("fc parameter formula is not integral for these settings")
    return num // 2 + (gamma + 1) * d


def analytic_params(kind, d, gamma, n, s=1):
    """Closed-form learnable-parameter count of one block (single window).

    Covers the channel projections plus the token-mixing machinery; the
    normalization affines are excluded, as in the closed forms.
    """
    kind = GatingKind(kind)
    for name, value in (("d", d), ("gamma", gamma), ("n", n), ("s", s)):
        check_int(name, value)
    fc = _fc_params(d, gamma)
    root = _sqrt_tokens(n)
    table_term = 4 * n - 4 * root + 4  # appendix lookup-table term at one group
    if kind is GatingKind.SGU:
        token, positional = n * n + n, 0
    elif kind is GatingKind.LRPE_M:
        token, positional = n * n + n, table_term
    elif kind in (GatingKind.LRPE, GatingKind.GLRPE):
        s_eff = 1 if kind is GatingKind.LRPE else s
        token, positional = n, 4 * s_eff * n - 4 * s_eff * root + 4 * s_eff
    else:  # GGQPE
        token, positional = n, 6 * s
    return BlockCost(fc + token + positional,
                     {"channel_fc": fc, "token_mixing": token, "positional": positional})


def analytic_flops(kind, d, gamma, n, s=1):
    """Closed-form MAC count of one block applied to a single window."""
    kind = GatingKind(kind)
    for name, value in (("d", d), ("gamma", gamma), ("n", n), ("s", s)):
        check_int(name, value)
    fc = 3 * gamma * d * d * n // 2
    mixing = gamma * d * n * n // 2
    if kind is GatingKind.SGU:
        positional = 0
    elif kind is GatingKind.LRPE:
        positional = n * n
    elif kind is GatingKind.LRPE_M:
        positional = 2 * n * n  # table assignment plus the merge into the dense weight
    elif kind is GatingKind.GLRPE:
        positional = s * n * n
    else:
        positional = 5 * s * n * n
    return BlockCost(fc + mixing + positional,
                     {"channel_fc": fc, "token_mixing": mixing, "positional": positional})


# -- empirical counters ---------------------------------------------------------

def count_params(model):
    """Per-path and total learnable parameter counts of a built model."""
    per_path = {name: int(p.size) for name, p in model.parameters().items()}
    return per_path, sum(per_path.values())


def count_block_gating_fc(model, stage, block):
    """Projection + token-mixing parameters of one block (norm affines excluded)."""
    prefix = f"stages.{stage}.blocks.{block}."
    total = 0
    for name, p in model.parameters().items():
        if not name.startswith(prefix):
            continue
        rest = name[len(prefix):]
        if rest.startswith("norm.") or rest.startswith("unit.norm."):
            continue
        total += int(p.size)
    return total


def reconcile_blocks(model):
    """Compare counted block parameters against the closed forms.

    Returns one entry per block with the counted value, the formula value,
    and their residual (formula minus counted).  The dense and quadratic
    kinds agree exactly; the lookup-table forms carry a formula surplus of
    3 per group, constant in the token count.
    """
    cfg = model.config
    out = []
    for i, st in enumerate(cfg.stages):
        n = st.window_side ** 2
        gating = cfg.stage_gating_config(i)
        hidden = st.dim * st.expansion
        s = gating.groups
        for j in range(st.depth):
            counted = count_block_gating_fc(model, i, j)
            formula = analytic_params(cfg.gating_kind, st.dim, st.expansion, n, s).total
            out.append({"stage": i, "block": j, "tokens": n, "groups": s,
                        "hidden": hidden, "counted": counted, "analytic": formula,
                        "residual": formula - counted})
    return out


# -- flop estimation --------------------------------------------------------------

def estimate_flops(cfg, batch=1):
    """MAC-based compute estimate for a full forward pass of a ``ModelConfig``.

    Walks the configured architecture (the estimate is a pure function of
    shapes); returns a report with per-stage and per-component terms.  The
    total is exactly ``batch`` times the single-image figure.
    """
    c = cfg.stages[0].dim
    half = cfg.image_side // 2
    sides = cfg.feature_sides()
    stem = (9 * 3 * (c // 2) * half * half
            + 9 * (c // 2) * (c // 2) * half * half
            + 9 * (c // 2) * c * sides[0] * sides[0])
    stages = []
    for i, (st, fside) in enumerate(zip(cfg.stages, sides)):
        n = st.window_side ** 2
        tokens = fside * fside
        windows = tokens // n
        gating = cfg.stage_gating_config(i)
        per_window = analytic_flops(cfg.gating_kind, st.dim, st.expansion, n, gating.groups)
        stage_total = st.depth * windows * per_window.total
        stages.append({
            "stage": i, "tokens": tokens, "windows": windows, "depth": st.depth,
            "flops": stage_total,
            "breakdown": {k: st.depth * windows * v for k, v in per_window.breakdown.items()},
        })
    merges = [9 * (2 * st.dim) * out_side * out_side
              for st, out_side in zip(cfg.stages, sides[1:])]
    head = cfg.stages[3].dim * cfg.num_classes
    per_image = stem + sum(s["flops"] for s in stages) + sum(merges) + head
    return {
        "image_side": cfg.image_side,
        "batch": batch,
        "stem": batch * stem,
        "stages": [{**s, "flops": batch * s["flops"],
                    "breakdown": {k: batch * v for k, v in s["breakdown"].items()}}
                   for s in stages],
        "merges": [batch * m for m in merges],
        "head": batch * head,
        "total": batch * per_image,
    }
