"""Known-answer learning: a positional gating unit learns planted offsets.

One grouped unit on an 8x8 window (4 groups of 4 channels, float64, no
channel split, ``add`` combine, no bias, no pre-norm) is trained with
AdamW (lr 0.05, no decay) for 300 steps at batch 8 of fresh normal inputs.
The target copies group g's channels from the token at planted offset o_g,
in the grid's ``(dx, dy)`` = (row, column) order, onto every query whose
source lies inside the window; queries without one are left out of the
squared-error loss.  The unit's output is its mixing plus its input, so a
mixing matrix that copies from o_g fits the target exactly.

Over seeds 0-9 every group of ``ggqpe`` and ``glrpe`` peaked on its planted
source for every such query, and ``ggqpe``'s centres came within 0.145
tokens of o_g (largest at seed 1, group 2), so the bound below is 0.3.
Under ``alpha_i`` the centre is frozen at (0, 0), and no group reaches a
non-zero offset: every query peaks on itself.

The single-group kinds ``sgu``, ``lrpe`` and ``lrpe_m`` learn one planted
offset, (1, -2), on the same task with one group of 4 channels.  They
always normalize the mixed half, so the target is not fitted exactly (the
loss falls from about 1.0 to 0.33-0.40) and only the peaks are asserted.
Over seeds 0-9 every query with a source peaked on it, and its weight led
the row's next largest by at least 2.11 (``sgu``), 1.33 (``lrpe``) and
3.02 (``lrpe_m``).
"""

import numpy as np
import pytest

from posmlp import gating as G
from posmlp import positional as P
from posmlp import tensor as T
from posmlp import training as TR
from posmlp.tensor import Tensor, backward

K, GROUPS, CHANNELS, BATCH, STEPS, LR = 8, 4, 4, 8, 300, 0.05
OFFSETS = np.array([(0, 0), (1, 0), (0, -2), (2, 2)])
SINGLE_OFFSET = np.array([(1, -2)])
DELTA_BOUND = 0.3


def _sources(offsets=OFFSETS):
    """(s, N) source token of each group's query under its offset, or -1 outside the window."""
    grid = P.displacement_grid(K)
    src = np.full((len(offsets), K * K), -1)
    for g, (dx, dy) in enumerate(offsets):
        match = (grid.dx == dx) & (grid.dy == dy)
        src[g] = np.where(match.any(axis=1), match.argmax(axis=1), -1)
    return src


def _train(kind, seed=0, offsets=OFFSETS, **cfg):
    """Train one unit on the planted task; returns it and the first and last losses.

    The unit has one group per offset.  The single-group kinds always
    normalize the mixed half, so only they get the pre-norm.
    """
    groups = len(offsets)
    config = G.GatingConfig(kind=kind, window_side=K, groups=groups, combine="add",
                            split_channels=False, use_bias=False,
                            pre_norm_on_x1=not G.GatingKind(kind).grouped, **cfg)
    unit = G.GatingUnit(config, groups * CHANNELS, rng=np.random.default_rng(seed),
                        dtype=np.float64)
    opt = TR.AdamW(unit.parameters(), TR.TrainConfig(lr_init=LR, weight_decay=0.0))
    src = _sources(offsets)
    n, width = K * K, groups * CHANNELS
    valid = np.repeat((src >= 0).T, CHANNELS, axis=1)
    weights = np.broadcast_to(valid / (BATCH * valid.sum()), (BATCH, n, width))
    rng = np.random.default_rng(100 + seed)
    losses = []
    for _ in range(STEPS):
        x = rng.standard_normal((BATCH, n, width))
        target = x.copy()
        for g in range(groups):
            ch = slice(g * CHANNELS, (g + 1) * CHANNELS)
            ok = src[g] >= 0
            target[:, ok, ch] += x[:, src[g, ok], ch]
        diff = T.sub(unit.forward(Tensor(x)), Tensor(target))
        loss = T.weighted_sum(T.mul(diff, diff), weights)
        losses.append(float(loss.data))
        backward(loss)
        opt.step(LR)
    return unit, losses[0], losses[-1]


def _peaks(unit):
    """(s, N) token on which each group's row of the mixing stack peaks."""
    return unit.mixing_stack().weights.data.argmax(axis=2).T


@pytest.mark.parametrize("kind", ["ggqpe", "glrpe"])
def test_each_group_peaks_on_its_planted_source(kind):
    unit, first, last = _train(kind)
    src, peaks = _sources(), _peaks(unit)
    for g in range(GROUPS):
        ok = src[g] >= 0
        np.testing.assert_array_equal(peaks[g, ok], src[g, ok], err_msg=f"group {g}")
    assert last < 1e-3 < first
    if unit.gqpe is not None:
        dist = np.linalg.norm(unit.gqpe.delta.data - OFFSETS, axis=1)
        assert dist.max() < DELTA_BOUND, dist


@pytest.mark.parametrize("kind", ["sgu", "lrpe", "lrpe_m"])
def test_a_single_group_peaks_on_its_planted_source(kind):
    unit, _, _ = _train(kind, offsets=SINGLE_OFFSET)
    src, peaks = _sources(SINGLE_OFFSET), _peaks(unit)
    ok = src[0] >= 0
    np.testing.assert_array_equal(peaks[0, ok], src[0, ok])


def test_a_frozen_centre_reaches_no_offset():
    unit, first, last = _train("ggqpe", covariance_form="alpha_i", delta_frozen=True)
    src, peaks = _sources(), _peaks(unit)
    np.testing.assert_array_equal(peaks, np.broadcast_to(np.arange(K * K), peaks.shape))
    moved = np.any(OFFSETS != 0, axis=1)
    assert not np.any(peaks[moved] == src[moved])
    assert last > 0.5
