import numpy as np
import pytest

from posmlp import complexity as C
from posmlp import model as M
from posmlp.gating import GatingKind


def test_block_cost_breakdown_must_sum():
    with pytest.raises(ValueError):
        C.BlockCost(10, {"a": 3, "b": 3})


# -- closed-form parameter counts -------------------------------------------------

def test_params_dense_baseline_stage1():
    got = C.analytic_params(GatingKind.SGU, 96, 4, 196)
    assert got.breakdown["channel_fc"] == 55296 + 480
    assert got.breakdown["token_mixing"] == 38416 + 196
    assert got.total == 94388


def test_params_quadratic_stage1():
    got = C.analytic_params(GatingKind.GGQPE, 96, 4, 196, 8)
    assert got.total == 56020
    assert got.breakdown["positional"] == 48


def test_params_delta_dense_vs_quadratic():
    sgu = C.analytic_params(GatingKind.SGU, 96, 4, 196).total
    gg = C.analytic_params(GatingKind.GGQPE, 96, 4, 196, 8).total
    assert sgu - gg == 38368  # ~= N^2 parameters saved


def test_params_merged_lookup_is_dense_plus_table():
    n = 196
    merged = C.analytic_params(GatingKind.LRPE_M, 96, 4, n).total
    dense = C.analytic_params(GatingKind.SGU, 96, 4, n).total
    table_term = 4 * n - 4 * 14 + 4
    assert merged == dense + table_term


def test_params_lookup_formula_values():
    # grouped lookup: (4s+1)N - 4s sqrt(N) + 4s on top of the projections
    got = C.analytic_params(GatingKind.GLRPE, 96, 4, 196, 8)
    assert got.breakdown["token_mixing"] == 196
    assert got.breakdown["positional"] == 4 * 8 * 196 - 4 * 8 * 14 + 4 * 8
    single = C.analytic_params(GatingKind.LRPE, 96, 4, 196)
    grouped_s1 = C.analytic_params(GatingKind.GLRPE, 96, 4, 196, 1)
    assert single.total == grouped_s1.total


@pytest.mark.parametrize("fn", [C.analytic_params, C.analytic_flops])
@pytest.mark.parametrize("args, field", [((96.0, 4, 196, 8), "d"), ((96, 4, 196, 0), "s"),
                                         ((96, True, 196, 8), "gamma")])
def test_block_costs_refuse_a_setting_that_is_no_positive_integer(fn, args, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 1"):
        fn(GatingKind.GGQPE, *args)


def test_params_rejects_non_square_tokens():
    with pytest.raises(ValueError):
        C.analytic_params(GatingKind.GGQPE, 8, 2, 12, 2)


@pytest.mark.parametrize("n,s", [(196, 8), (49, 4), (196, 32), (64, 2)])
def test_params_monotonicity_in_valid_regime(n, s):
    # quadratic < grouped lookup always (N >= 4); grouped lookup < merged
    # lookup needs (s-1)(4N - 4 sqrt(N) + 4) < N^2
    d, gamma = 64, 4
    gg = C.analytic_params(GatingKind.GGQPE, d, gamma, n, s).total
    gl = C.analytic_params(GatingKind.GLRPE, d, gamma, n, s).total
    lm = C.analytic_params(GatingKind.LRPE_M, d, gamma, n, s).total
    assert gg < gl
    root = int(np.sqrt(n))
    if (s - 1) * (4 * n - 4 * root + 4) < n * n:
        assert gl < lm


# -- closed-form flops --------------------------------------------------------------

def test_flops_quadratic_extra_term():
    got = C.analytic_flops(GatingKind.GGQPE, 96, 4, 196, 8)
    assert got.breakdown["positional"] == 5 * 8 * 196 ** 2 == 1_536_640


def test_flops_lookup_extra_term():
    got = C.analytic_flops(GatingKind.GLRPE, 96, 4, 196, 8)
    assert got.breakdown["positional"] == 8 * 196 ** 2 == 307_328


def test_flops_shared_fc_terms_equal_across_kinds():
    kinds = [GatingKind.SGU, GatingKind.LRPE_M, GatingKind.LRPE,
             GatingKind.GLRPE, GatingKind.GGQPE]
    costs = [C.analytic_flops(k, 96, 4, 196, 8) for k in kinds]
    fc = {c.breakdown["channel_fc"] for c in costs}
    mixing = {c.breakdown["token_mixing"] for c in costs}
    assert fc == {3 * 4 * 96 * 96 * 196 // 2}
    assert mixing == {4 * 96 * 196 * 196 // 2}


# -- reconciliation against built models ----------------------------------------------

def test_reconcile_micro_quadratic_exact():
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    for entry in C.reconcile_blocks(m):
        assert entry["residual"] == 0, entry
        assert entry["counted"] == entry["analytic"]


def test_reconcile_micro_dense_exact():
    m = M.build_model(M.variant_config("MICRO", gating_kind=GatingKind.SGU),
                      rng=np.random.default_rng(0))
    for entry in C.reconcile_blocks(m):
        assert entry["residual"] == 0, entry


def test_reconcile_grouped_lookup_residual_is_three_per_group():
    # the published closed form carries a +3s surplus over the constructed
    # parameters (bias included), constant in the token count
    m = M.build_model(M.variant_config("MICRO", gating_kind=GatingKind.GLRPE,
                                       use_bias=True),
                      rng=np.random.default_rng(0))
    for entry in C.reconcile_blocks(m):
        assert entry["residual"] == 3 * entry["groups"], entry


def test_reconcile_merged_lookup_residual():
    m = M.build_model(M.variant_config("MICRO", gating_kind=GatingKind.LRPE_M,
                                       use_bias=True),
                      rng=np.random.default_rng(0))
    for entry in C.reconcile_blocks(m):
        assert entry["residual"] == 3, entry


# -- model-level estimates ---------------------------------------------------------------

def test_estimate_matches_instrumented_forward(monkeypatch):
    # count the multiply-accumulates actually issued by a forward pass and
    # reconcile them with the closed-form estimate; MICRO has one window per
    # stage, so the per-window generation charge coincides with reality
    from posmlp import tensor as T
    from posmlp.tensor import Tensor

    counted = {"macs": 0}
    real = {name: getattr(T, name)
            for name in ("matmul", "linear", "mix_tokens", "conv2d", "conv2d_depthwise")}

    def wrap_matmul(a, b):
        # a 2-D product or a stack of them: each output entry contracts a's last axis
        out = real["matmul"](a, b)
        counted["macs"] += out.size * a.shape[-1]
        return out

    def wrap_linear(x, w, b=None):
        rows = x.size // x.shape[-1]
        counted["macs"] += rows * w.shape[0] * w.shape[1]
        return real["linear"](x, w, b)

    def wrap_mix(w, x):
        # w is an (N, s, N) stack: each output entry contracts N tokens
        out = real["mix_tokens"](w, x)
        counted["macs"] += out.size * w.shape[0]
        return out

    def wrap_conv(x, w, b, stride):
        out = real["conv2d"](x, w, b, stride)
        k2cin = w.shape[0] * w.shape[1] * w.shape[2]
        counted["macs"] += out.size * k2cin
        return out

    def wrap_dw(x, w, b, stride):
        out = real["conv2d_depthwise"](x, w, b, stride)
        counted["macs"] += out.size * w.shape[0] * w.shape[1]
        return out

    for name, fn in [("matmul", wrap_matmul), ("linear", wrap_linear),
                     ("mix_tokens", wrap_mix), ("conv2d", wrap_conv),
                     ("conv2d_depthwise", wrap_dw)]:
        monkeypatch.setattr(T, name, fn)
    # the model modules bind these through the namespace, so patching the
    # tensor module is enough
    cfg = M.variant_config("MICRO")
    model = M.build_model(cfg, rng=np.random.default_rng(0))
    x = Tensor(np.zeros((1, 32, 32, 3), dtype=np.float32))
    model.forward(x)

    estimate = C.estimate_flops(cfg)["total"]
    # the estimate folds the tiny 2x2 precision/center products into the
    # 5 s N^2 generation term; the instrumented count sees them explicitly
    vector_assembly = sum(st.depth * st.groups * (8 + 4) for st in cfg.stages)
    assert counted["macs"] == estimate + vector_assembly


def test_estimate_flops_linear_in_batch():
    cfg = M.variant_config("T")
    one = C.estimate_flops(cfg, batch=1)
    five = C.estimate_flops(cfg, batch=5)
    assert five["total"] == 5 * one["total"]
    assert five["stem"] == 5 * one["stem"]


def test_estimate_flops_tiny_224_within_published_envelope():
    total = C.estimate_flops(M.variant_config("T"))["total"]
    assert abs(total / 5.2e9 - 1.0) < 0.10


def test_estimate_flops_tiny_384_within_published_envelope():
    total = C.estimate_flops(M.variant_config("T", image_side=384))["total"]
    assert abs(total / 17.7e9 - 1.0) < 0.10


def test_count_params_micro_matches_manual_sum():
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    per_path, total = C.count_params(m)
    assert total == sum(per_path.values())
    assert per_path["head.weight"] == 128 * 4


def test_dense_vs_quadratic_total_delta_follows_formula():
    # swapping the gating kind changes the projection+token-mixing budget by
    # (N^2 + N) - (N + 6s) per block; the full totals additionally differ by
    # the dense unit's norm affine (2 * gd/2 per block), which the closed
    # forms exclude
    md = M.build_model(M.variant_config("MICRO", gating_kind=GatingKind.SGU),
                       rng=np.random.default_rng(0))
    mq = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    cfg = M.variant_config("MICRO")
    want_core = 0
    norm_extra = 0
    for i, st in enumerate(cfg.stages):
        n = st.window_side ** 2
        want_core += st.depth * (n * n - 6 * st.groups)
        norm_extra += st.depth * st.dim * st.expansion
        for j in range(st.depth):
            got = (C.count_block_gating_fc(md, i, j) - C.count_block_gating_fc(mq, i, j))
            assert got == n * n - 6 * st.groups
    _, dense = C.count_params(md)
    _, quad = C.count_params(mq)
    assert dense - quad == want_core + norm_extra
