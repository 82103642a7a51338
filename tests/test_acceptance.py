"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from posmlp import analysis as A
from posmlp import complexity as C
from posmlp import gating as G
from posmlp import model as M
from posmlp import positional as P
from posmlp import tensor as T
from posmlp import training as TR
from posmlp.gradcheck import category_groups, gradcheck, gradcheck_directional
from posmlp.tensor import Tensor

PARAM_RANGES = {"T": (20.5e6, 21.5e6), "S": (36.5e6, 37.5e6), "B": (81.5e6, 82.5e6)}
FLOP_TARGETS = {224: 5.2e9, 384: 17.7e9}


def verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def fresh(variant="MICRO", dtype=np.float32, seed=0, **overrides):
    cfg = M.variant_config(variant, **overrides)
    return M.build_model(cfg, rng=np.random.default_rng(seed), dtype=dtype)


def structure(variant, **overrides):
    """A model with every parameter zero, for tests that only count parameters."""
    return M.build_model(M.variant_config(variant, **overrides), rng=P.ZeroDraws())


def gaussian_oracle_weights(grid, delta, prec):
    """Vectorized reference: softmax of the explicit quadratic logits."""
    d = np.stack([grid.dx, grid.dy], axis=-1).astype(np.float64) - delta
    logits = -0.5 * np.einsum("ijk,kl,ijl->ij", d, prec, d)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def test_criterion_01_parameter_reproduction():
    totals = {}
    for variant, (lo, hi) in PARAM_RANGES.items():
        model = structure(variant)
        _, total = C.count_params(model)
        totals[variant] = total
        assert lo <= total <= hi, f"{variant}: {total} outside [{lo}, {hi}]"
        del model
    verdict(1, True, f"built parameter totals {totals} inside the published ranges")


def test_criterion_02_flop_reproduction():
    ratios = {}
    for side, target in FLOP_TARGETS.items():
        total = C.estimate_flops(M.variant_config("T", image_side=side))["total"]
        ratios[side] = total / target
        assert abs(total / target - 1.0) < 0.10, f"{side}: {total} vs {target}"
    verdict(2, True,
            "T forward compute within 10% of the published budget "
            + ", ".join(f"{s}^2: {r:.3f}x" for s, r in ratios.items()))


def test_criterion_03_closed_form_reconciliation():
    checked = 0
    residual_rows = []
    for variant in ("T", "S", "B", "MICRO"):
        for kind in (G.GatingKind.SGU, G.GatingKind.GGQPE):
            model = structure(variant, gating_kind=kind)
            for entry in C.reconcile_blocks(model):
                assert entry["residual"] == 0, (variant, kind, entry)
                checked += 1
            del model
        # lookup form: formula surplus must be exactly 3 per group at every
        # stage (bias built in to mirror the closed form's accounting)
        model = structure(variant, gating_kind=G.GatingKind.GLRPE, use_bias=True)
        for entry in C.reconcile_blocks(model):
            assert entry["residual"] == 3 * entry["groups"], (variant, entry)
            residual_rows.append((variant, entry["stage"], entry["groups"],
                                  entry["residual"]))
        del model
    print("  lookup-form residuals (variant, stage, groups, residual):")
    for row in residual_rows:
        print("   ", row)
    verdict(3, True,
            f"{checked} dense/quadratic blocks reconcile exactly; lookup residual "
            "== 3 per group at every stage")


def test_criterion_04_quadratic_oracle_equivalence():
    rng = np.random.default_rng(42)
    draws = 0
    worst = 0.0
    for k in (3, 7, 14):
        grid = P.displacement_grid(k)
        for _ in range(40):
            g = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, rng=rng, dtype=np.float64)
            got = P.group_weight_stack(g, grid).matrix(0)
            want = gaussian_oracle_weights(grid, g.delta.data[0],
                                           g.effective_precision_numpy()[0])
            worst = max(worst, float(np.max(np.abs(got - want))))
            draws += 1
    assert worst < 1e-9
    verdict(4, True, f"{draws} random draws at k=3/7/14; max |softmax diff| = {worst:.2e}")


def test_criterion_05_degeneracy_lattice():
    rng = np.random.default_rng(7)
    worst = 0.0

    def max_diff(a, b):
        return float(np.max(np.abs(a - b)))

    for trial in range(20):
        x6 = Tensor(rng.standard_normal((2, 9, 6)))
        x8 = Tensor(rng.standard_normal((2, 9, 8)))

        um = G.GatingUnit(G.GatingConfig(G.GatingKind.LRPE_M, 3, use_bias=True),
                          6, rng=np.random.default_rng(trial), dtype=np.float64)
        us = G.GatingUnit(G.GatingConfig(G.GatingKind.SGU, 3, use_bias=True),
                          6, rng=np.random.default_rng(trial + 1), dtype=np.float64)
        um.lrpe.values.data[:] = 0.0
        for tgt, src in ((us.token_fc_weight, um.token_fc_weight), (us.bias, um.bias),
                         (us.norm_gain, um.norm_gain), (us.norm_shift, um.norm_shift)):
            tgt.data[:] = src.data
        worst = max(worst, max_diff(um.forward(x6).data, us.forward(x6).data))

        um2 = G.GatingUnit(G.GatingConfig(G.GatingKind.LRPE_M, 3, use_bias=False),
                           6, rng=np.random.default_rng(trial), dtype=np.float64)
        ul = G.GatingUnit(G.GatingConfig(G.GatingKind.LRPE, 3, use_bias=False),
                          6, rng=np.random.default_rng(trial + 2), dtype=np.float64)
        um2.token_fc_weight.data[:] = 0.0
        ul.lrpe.values.data[:] = um2.lrpe.values.data
        ul.norm_gain.data[:] = um2.norm_gain.data
        ul.norm_shift.data[:] = um2.norm_shift.data
        worst = max(worst, max_diff(um2.forward(x6).data, ul.forward(x6).data))

        ug = G.GatingUnit(G.GatingConfig(G.GatingKind.GLRPE, 3, groups=1, use_bias=False),
                          6, rng=np.random.default_rng(trial), dtype=np.float64)
        ul2 = G.GatingUnit(G.GatingConfig(G.GatingKind.LRPE, 3, use_bias=False),
                           6, rng=np.random.default_rng(trial + 3), dtype=np.float64)
        ul2.lrpe.values.data[:] = ug.lrpe.values.data
        ul2.norm_gain.data[:] = ug.norm_gain.data
        ul2.norm_shift.data[:] = ug.norm_shift.data
        worst = max(worst, max_diff(ug.forward(x6).data, ul2.forward(x6).data))

        # grouped quadratic unit at one group == plain quadratic weight matrix
        ugq = G.GatingUnit(G.GatingConfig(G.GatingKind.GGQPE, 3, groups=1),
                           8, rng=np.random.default_rng(trial), dtype=np.float64)
        w = P.group_weight_stack(ugq.gqpe, ugq.grid).matrix(0)
        x1, x2 = x8.data[..., :4], x8.data[..., 4:]
        want = np.stack([(w @ x1[b] + ugq.bias.data[:, None]) * x2[b] for b in range(2)])
        worst = max(worst, max_diff(ugq.forward(x8).data, want))

    assert worst < 1e-12
    verdict(5, True, f"20 random inputs per identity; max deviation {worst:.2e}")


def test_criterion_06_gradient_battery():
    rng = np.random.default_rng(11)
    lines = []

    def run_unit(kind, form, frozen, groups):
        cfg = G.GatingConfig(kind=kind, window_side=3, groups=groups,
                             covariance_form=form, delta_frozen=frozen, use_bias=True)
        unit = G.GatingUnit(cfg, 8, rng=np.random.default_rng(3), dtype=np.float64)
        x = Tensor(np.random.default_rng(4).standard_normal((2, 9, 8)))
        w = np.random.default_rng(5).standard_normal((2, 9, 4))
        res = gradcheck(lambda: T.weighted_sum(unit.forward(x), w), unit.parameters())
        lines.append((f"unit {kind.value}/{form.value}/frozen={frozen}", res.max_rel_err))
        assert res.ok and res.max_rel_err < 1e-4, (kind, form, frozen, res.failures[:3])

    for kind in (G.GatingKind.SGU, G.GatingKind.LRPE_M, G.GatingKind.LRPE):
        run_unit(kind, P.CovarianceForm.GAMMA_GRAMIAN, False, 1)
    run_unit(G.GatingKind.GLRPE, P.CovarianceForm.GAMMA_GRAMIAN, False, 2)
    for form, frozen in [(P.CovarianceForm.GAMMA_GRAMIAN, False),
                         (P.CovarianceForm.GAMMA_GRAMIAN, True),
                         (P.CovarianceForm.GAMMA_RAW, False),
                         (P.CovarianceForm.GAMMA_RAW, True),
                         (P.CovarianceForm.ALPHA_I, True)]:
        run_unit(G.GatingKind.GGQPE, form, frozen, 2)

    model_cases = [(kind, P.CovarianceForm.GAMMA_GRAMIAN, False) for kind in G.GatingKind]
    model_cases += [(G.GatingKind.GGQPE, P.CovarianceForm.GAMMA_RAW, False),
                    (G.GatingKind.GGQPE, P.CovarianceForm.GAMMA_GRAMIAN, True),
                    (G.GatingKind.GGQPE, P.CovarianceForm.ALPHA_I, True)]
    for kind, form, frozen in model_cases:
        model = fresh(dtype=np.float64, gating_kind=kind, covariance_form=form,
                      delta_frozen=frozen)
        x = Tensor(rng.standard_normal((1, 32, 32, 3)))
        w = rng.standard_normal((1, 4))
        params = model.parameters()
        res = gradcheck_directional(lambda: T.weighted_sum(model.forward(x), w),
                                    params, groups=category_groups(params), rng=rng)
        lines.append((f"model MICRO {kind.value}/{form.value}/frozen={frozen}",
                      res.max_rel_err))
        assert res.ok and res.max_rel_err < 1e-4, (kind, form, frozen, res.failures[:3])

    worst = max(err for _, err in lines)
    for label, err in lines:
        print(f"  gradcheck {label}: max_rel_err {err:.2e}")
    verdict(6, True, f"{len(lines)} configurations, worst relative error {worst:.2e}")


def test_criterion_07_structural_invariants():
    rng = np.random.default_rng(23)
    # displacement-equality classes share values exactly, pre-softmax
    k = 7
    grid = P.displacement_grid(k)
    g = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, rng=rng, dtype=np.float64)
    logits = P.gqpe_logits(g, grid).data[0].reshape(49, 49)
    tab = P.LrpeTable(k, 1, rng=rng, dtype=np.float64)
    lrpe = P.lrpe_weight_matrix(tab).data
    key = grid.dx * (2 * k) + grid.dy
    for mat in (logits, lrpe):
        for val in np.unique(key):
            sel = mat[key == val]
            assert np.all(sel == sel.flat[0])

    # quadratic-prior rows are stochastic
    groups = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, groups=8, rng=rng, dtype=np.float64)
    stack = P.group_weight_stack(groups, P.displacement_grid(14))
    for g in range(len(stack)):
        np.testing.assert_allclose(stack.matrix(g).sum(axis=1), np.ones(196), atol=1e-6)

    # window partition/reverse identity
    for b, h, w_, d, kk in [(2, 28, 28, 8, 14), (1, 8, 8, 4, 2), (3, 12, 12, 2, 4)]:
        x = rng.standard_normal((b, h, w_, d))
        back = M.window_reverse(M.window_partition(Tensor(x), kk), kk, h, w_)
        np.testing.assert_array_equal(back.data, x)

    # attention peaks at the learned center when it is on-grid
    hits = 0
    for dx, dy in [(0, 0), (1, 0), (0, -1), (2, 1), (-1, -2)]:
        gg = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, rng=rng, dtype=np.float64)
        gg.delta.data[:] = [dx, dy]
        wmat = P.group_weight_stack(gg, grid).matrix(0)
        for i in range(49):
            xi, yi = divmod(i, k)
            if 0 <= xi + dx < k and 0 <= yi + dy < k:
                assert wmat[i].argmax() == (xi + dx) * k + (yi + dy)
                hits += 1
    verdict(7, True, f"displacement classes exact, rows stochastic, windows invert, "
                     f"{hits} on-grid argmax checks")


def test_criterion_08_non_locality_metric():
    eps = P.PRECISION_EPS
    ident = P.GqpeParams(P.CovarianceForm.GAMMA_RAW, delta_frozen=True, groups=4,
                         dtype=np.float64)
    ident.gamma.data[:] = np.eye(2)
    entry = A.non_locality(ident)
    assert entry.value == 1.0 and entry.excluded_groups == 0

    rng = np.random.default_rng(3)
    rand_groups = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, delta_frozen=True, groups=16,
                               rng=rng, dtype=np.float64)
    got = A.non_locality(rand_groups)
    dets = [np.sqrt(np.linalg.det(p)) for p in rand_groups.effective_precision_numpy()
            if A.symmetric_eigvals_2x2(p)[0] >= A.DEFAULT_EXCLUSION]
    want = sum(dets) / len(dets)
    assert abs(got.value - want) < 1e-10

    p = rand_groups.effective_precision_numpy()[:6]
    base, scaled = (P.GqpeParams(P.CovarianceForm.GAMMA_RAW, delta_frozen=True, groups=6,
                                 dtype=np.float64) for _ in range(2))
    base.gamma.data[:] = p
    scaled.gamma.data[:] = 2.0 * p
    assert A.non_locality(scaled).value == 2.0 * A.non_locality(base).value
    verdict(8, True, f"identity -> 1 exactly, det-oracle gap < 1e-10, g(2P) == 2 g(P) "
                     f"exactly (value {got.value:.4f} on random groups)")


def test_criterion_09_training_smoke():
    model = fresh(seed=0)
    ds = TR.SyntheticDataset(seed=7)
    cfg = TR.TrainConfig(epochs=30, batch_size=32, lr_init=3e-3, lr_min=1e-5,
                         weight_decay=0.05, seed=1)
    history = TR.train_loop(model, ds, cfg)
    best = max(row["accuracy"] for row in history)
    reached = next(row["epoch"] for row in history if row["accuracy"] > 0.9)
    assert best > 0.9, f"best train accuracy {best}"

    short = TR.TrainConfig(epochs=3, batch_size=32, seed=5)
    h1 = TR.train_loop(fresh(seed=2), TR.SyntheticDataset(seed=7, per_class=16), short)
    h2 = TR.train_loop(fresh(seed=2), TR.SyntheticDataset(seed=7, per_class=16), short)
    assert TR.metrics_csv(h1) == TR.metrics_csv(h2)

    frozen_model = fresh(seed=3)
    before = {k: p.data.copy() for k, p in frozen_model.parameters().items()}
    zero_lr = TR.TrainConfig(epochs=2, batch_size=32, lr_init=0.0, lr_min=0.0, seed=5)
    TR.train_loop(frozen_model, TR.SyntheticDataset(seed=7, per_class=16), zero_lr)
    for k, p in frozen_model.parameters().items():
        np.testing.assert_array_equal(p.data, before[k])
    verdict(9, True, f"quadrant task: accuracy {best:.3f} (>0.9 first reached at epoch "
                     f"{reached}); reruns byte-identical; lr=0 leaves weights bit-identical")


def test_criterion_10_export_roundtrips(tmp_path):
    model = fresh(seed=4)
    attn_files = A.export_attention_maps(model, 5, tmp_path / "attn", layers=[0])
    for f in attn_files:
        if f.endswith(".csv"):
            grid = A.read_map_csv(f)
            k = model.config.stages[0].window_side
            assert grid.shape == (k, k)
    w0 = model.stages[0][0].unit
    stack = w0.mixing_stack()
    back = A.read_map_csv([f for f in attn_files if f.endswith("_0_5.csv")][0])
    assert np.max(np.abs(back.reshape(-1) - stack.matrix(0)[5])) < 1e-6

    bias_files = A.export_bias_maps(model, tmp_path / "bias")
    csvs = [f for f in bias_files if f.endswith(".csv")]
    assert csvs
    b = model.stages[0][0].unit.bias.data
    back = A.read_map_csv([f for f in csvs if "stage0_block0" in f][0])
    assert np.max(np.abs(back.reshape(-1) - b)) < 1e-6

    p1, p2 = tmp_path / "m1.pmlp", tmp_path / "m2.pmlp"
    M.save_checkpoint(model, p1)
    reloaded = M.load_checkpoint(p1)
    M.save_checkpoint(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    x = Tensor(np.random.default_rng(0).standard_normal((1, 32, 32, 3)).astype(np.float32))
    np.testing.assert_array_equal(model.forward(x).data, reloaded.forward(x).data)
    verdict(10, True, "attention/bias CSV parse back within 1e-6; checkpoint "
                      "save/load/save byte-identical and forward-equivalent")
