"""Assembling the full models and checking their size/compute budgets.

The tiny/small/base variants differ only in base channel width.  Swapping
the quadratic positional generator for the dense baseline shows how much of
the budget token mixing used to cost.
"""

import numpy as np

from posmlp.complexity import analytic_params, count_params, estimate_flops
from posmlp.gating import GatingKind
from posmlp.model import build_model, variant_config
from posmlp.positional import ZeroDraws
from posmlp.tensor import Tensor

# Counting parameters needs the structure only, so ZeroDraws skips the
# random initialisation.
for variant in ("T", "S", "B"):
    model = build_model(variant_config(variant), rng=ZeroDraws())
    _, total = count_params(model)
    flops = estimate_flops(model.config)
    print(f"PosMLP-{variant}: {total / 1e6:6.2f}M params, "
          f"{flops['total'] / 1e9:5.2f}G MACs at 224^2")
    del model

print("\nfine-tune resolution scales the compute:")
print(f"T at 384^2: {estimate_flops(variant_config('T', image_side=384))['total'] / 1e9:.2f}G MACs")

print("\nper-block token-mixing budgets at stage-1 settings (d=96, g=4, N=196, s=8):")
for kind in (GatingKind.SGU, GatingKind.LRPE_M, GatingKind.GLRPE, GatingKind.GGQPE):
    cost = analytic_params(kind, 96, 4, 196, 8)
    mix = cost.breakdown["token_mixing"] + cost.breakdown["positional"]
    print(f"  {kind.value:8s}: {mix:6d} mixing parameters (block total {cost.total})")

micro = build_model(variant_config("MICRO"), rng=np.random.default_rng(0))
_, total = count_params(micro)
logits = micro.forward(Tensor(np.zeros((1, 32, 32, 3), dtype=np.float32)))
print(f"\nMICRO desk-scale model: {total} params, logits shape {logits.shape}")
