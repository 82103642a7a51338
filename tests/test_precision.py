"""The float32 runtime checked against the same model in float64, for every gating kind.

A MICRO model and its float64 twin start from identical values.  For
each parameter category (``gradcheck.category_groups``) the largest
gradient difference, over the category's largest float64 gradient entry,
must stay under a bound.  It is measured at initialisation and again after
three AdamW steps.  For ``ggqpe`` the steps start from precisions made
sharp, where the float32 cut of ``softmax_rows`` zeroes weights that
float64 keeps; the lookup kinds (``sgu``, ``lrpe``, ``lrpe_m``,
``glrpe``) step from their initialisation.

The loss is a fixed random weighting of the logits.  A balanced batch's
cross-entropy makes the bias gradients cancel at initialisation to about
1e-7 of their terms, and there any float32 computation reads 0.04 to 0.13
relative; that measures the loss's conditioning, not the kernels.

The bounds are five times the largest ratio over seeds 0-9 (batch 8),
rounded up; the largest measured are given with each bound below, and
for the lookup kinds here (at initialisation, then after the steps):

- ``sgu``: 2.4e-6 (stages.blocks.unit.bias), then 3.5e-6 (the same);
- ``lrpe``: 1.1e-6 (stem.conv2.bias), then 2.2e-6 (unit.lrpe.values);
- ``lrpe_m``: 1.0e-6 (stem.conv1.bias), then 1.5e-6 (the same);
- ``glrpe``: 1.1e-6 (stem.conv1.bias), then 8.3e-6 (blocks.proj_in.bias).
"""

import numpy as np
import pytest

from posmlp import model as M
from posmlp import positional as P
from posmlp import tensor as T
from posmlp import training as TR
from posmlp.gradcheck import category_groups

CFG = M.variant_config("MICRO")

# At initialisation every category; worst measured 2.1e-6 (stem.conv2.bias).
INIT_BOUND = 1e-5
# After sharp precisions; worst measured 2.0e-6 (stem.conv2.bias), except
# the ggqpe categories: unit.bias 3.7e-6, gqpe.delta 7.7e-5 and gqpe.gamma
# 7.1e-5.  The sharp precisions put logits near -400, whose float32
# rounding, about 400 eps or 2.4e-5 absolute, is of the order of these.
SHARP_BOUND = 1e-5
SHARP_BOUNDS = {"stages.blocks.unit.bias": 2e-5,
                "stages.blocks.unit.gqpe.delta": 4e-4,
                "stages.blocks.unit.gqpe.gamma": 4e-4}
# Per lookup kind, every category: (at initialisation, after three steps).
LOOKUP_BOUNDS = {"sgu": (2e-5, 2e-5), "lrpe": (6e-6, 2e-5),
                 "lrpe_m": (6e-6, 8e-6), "glrpe": (6e-6, 5e-5)}


def _gradients(model, images, weights):
    loss = T.weighted_sum(model.forward(T.Tensor(images)), weights)
    model.zero_grad()
    T.backward(loss)
    return {name: p.grad for name, p in model.parameters().items()}


def _twin(model):
    """A float64 model holding the float32 model's values."""
    twin = M.build_model(model.config, rng=P.ZeroDraws(), dtype=np.float64)
    for p, q in zip(model.parameters().values(), twin.parameters().values()):
        q.data[...] = p.data
    return twin


def _ratios(model, images, weights):
    """Per category: largest float32-float64 gradient difference over the largest float64 entry."""
    g32 = _gradients(model, images.astype(np.float32), weights.astype(np.float32))
    twin = _twin(model)
    g64 = _gradients(twin, images, weights)
    ratios = {}
    for category, names in category_groups(g64).items():
        diff = max(np.max(np.abs(g32[n] - g64[n])) for n in names)
        ratios[category] = diff / max(np.max(np.abs(g64[n])) for n in names)
    return ratios, twin


def _batch(cfg, seed):
    """Seeded float64 images, labels and loss weights for a batch of 8."""
    rng = np.random.default_rng([seed, 9])
    images = rng.standard_normal((8, cfg.image_side, cfg.image_side, 3))
    labels = rng.integers(0, cfg.num_classes, size=8)
    return images, labels, rng.standard_normal((8, cfg.num_classes))


def _train(model, images, labels, seed):
    """Three float32 AdamW steps of the cross-entropy on the batch."""
    opt = TR.AdamW(model.parameters(), TR.TrainConfig(seed=seed))
    x = T.Tensor(images.astype(np.float32))
    for _ in range(3):
        model.zero_grad()
        T.backward(T.cross_entropy_mean(model.forward(x), labels))
        opt.step(1e-3)


@pytest.mark.parametrize("seed", range(5))
def test_float32_ggqpe_gradients_track_float64(seed):
    model = M.build_model(CFG, rng=np.random.default_rng(seed))
    images, labels, weights = _batch(CFG, seed)
    ratios, _ = _ratios(model, images, weights)
    over = {c: r for c, r in ratios.items() if not r <= INIT_BOUND}
    assert not over, over

    units = [blk.unit for blocks in model.stages for blk in blocks]
    for u in units:
        u.gqpe.gamma.data *= 3.0
    _train(model, images, labels, seed)
    ratios, twin = _ratios(model, images, weights)
    over = {c: r for c, r in ratios.items() if not r <= SHARP_BOUNDS.get(c, SHARP_BOUND)}
    assert not over, over
    # The cut bites: the first unit's float32 stack zeroes weights float64 keeps.
    w32 = units[0].mixing_stack().weights.data
    w64 = twin.stages[0][0].unit.mixing_stack().weights.data
    assert np.mean((w32 == 0) & (w64 > 0)) > 0.1


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", sorted(LOOKUP_BOUNDS))
def test_float32_lookup_kind_gradients_track_float64(kind, seed):
    cfg = M.variant_config("MICRO", gating_kind=kind)
    model = M.build_model(cfg, rng=np.random.default_rng(seed))
    images, labels, weights = _batch(cfg, seed)
    at_init, after_steps = LOOKUP_BOUNDS[kind]
    ratios, _ = _ratios(model, images, weights)
    over = {c: r for c, r in ratios.items() if not r <= at_init}
    assert not over, over
    _train(model, images, labels, seed)
    ratios, _ = _ratios(model, images, weights)
    over = {c: r for c, r in ratios.items() if not r <= after_steps}
    assert not over, over
