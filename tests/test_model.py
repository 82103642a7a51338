import gc
import json
import struct
import sys
import threading
import types
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from posmlp import model as M
from posmlp import tensor as T
from posmlp.complexity import analytic_params, count_block_gating_fc, count_params
from posmlp import gating as G
from posmlp.gating import Combine, GatingConfig, GatingKind
from posmlp.gradcheck import category_groups, gradcheck, gradcheck_directional
from posmlp.positional import CovarianceForm, ZeroDraws
from posmlp.positional import GqpeParams as RealGqpeParams
from posmlp.tensor import Tensor


def micro(dtype=np.float32, seed=0, **overrides):
    cfg = M.variant_config("MICRO", **overrides)
    return M.build_model(cfg, rng=np.random.default_rng(seed), dtype=dtype)


# -- stem -----------------------------------------------------------------------

def test_stem_output_shape_small(rng):
    stem = M.ConvPatchEmbed(96, np.random.default_rng(0), np.float32)
    x = Tensor(rng.standard_normal((1, 56, 56, 3)).astype(np.float32))
    assert stem.forward(x).shape == (1, 14, 14, 96)


def test_stem_zero_image_zero_biases_gives_zero(rng):
    stem = M.ConvPatchEmbed(16, np.random.default_rng(0), np.float64)
    x = Tensor(np.zeros((1, 8, 8, 3)))
    np.testing.assert_array_equal(stem.forward(x).data, np.zeros((1, 2, 2, 16)))


def test_stem_rejects_indivisible():
    stem = M.ConvPatchEmbed(16, np.random.default_rng(0), np.float32)
    with pytest.raises(T.ShapeError):
        stem.forward(Tensor(np.zeros((1, 30, 30, 3), dtype=np.float32)))


# -- patch merge -------------------------------------------------------------------

def test_merge_shapes(rng):
    merge = M.ConvPatchMerge(96, np.random.default_rng(0), np.float32)
    x = Tensor(rng.standard_normal((1, 56, 56, 96)).astype(np.float32))
    assert merge.forward(x).shape == (1, 28, 28, 192)
    merge2 = M.ConvPatchMerge(384, np.random.default_rng(0), np.float32)
    y = Tensor(rng.standard_normal((1, 14, 14, 384)).astype(np.float32))
    assert merge2.forward(y).shape == (1, 7, 7, 768)


def test_merge_impulse_support(rng):
    # a single lit input pixel can only influence outputs whose 3x3 stride-2
    # receptive field covers it
    merge = M.ConvPatchMerge(4, np.random.default_rng(3), np.float64)
    merge.bias.data[:] = 0.0
    x = np.zeros((1, 8, 8, 4))
    x[0, 3, 3, 1] = 1.0
    out = merge.forward(Tensor(x)).data
    lit = {(i, j) for i in range(4) for j in range(4)
           if np.any(out[0, i, j] != 0)}
    # input (3,3) is seen by output (i,j) iff 2i-1 <= 3 <= 2i+1, same for j
    expected = {(i, j) for i in range(4) for j in range(4)
                if abs(2 * i - 3) <= 1 and abs(2 * j - 3) <= 1}
    assert lit <= expected and (1, 1) in lit


def test_merge_rejects_odd_sides(rng):
    merge = M.ConvPatchMerge(4, np.random.default_rng(0), np.float32)
    with pytest.raises(T.ShapeError):
        merge.forward(Tensor(np.zeros((1, 5, 5, 4), dtype=np.float32)))


# -- window partitioning -------------------------------------------------------------

def test_partition_single_window_is_raster_order(rng):
    x = rng.standard_normal((1, 3, 3, 2))
    tokens = M.window_partition(Tensor(x), 3)
    assert tokens.shape == (1, 9, 2)
    np.testing.assert_array_equal(tokens.data[0], x.reshape(9, 2))


def test_partition_window_count():
    x = Tensor(np.zeros((2, 28, 28, 4), dtype=np.float32))
    tokens = M.window_partition(x, 14)
    assert tokens.shape == (2 * 4, 196, 4)


def test_partition_reverse_roundtrip(rng):
    for b, h, w, d, k in [(2, 6, 6, 3, 3), (1, 8, 4, 2, 2), (3, 4, 4, 5, 4)]:
        x = rng.standard_normal((b, h, w, d))
        back = M.window_reverse(M.window_partition(Tensor(x), k), k, h, w)
        np.testing.assert_array_equal(back.data, x)


def test_partition_rejects_indivisible():
    with pytest.raises(T.ShapeError):
        M.window_partition(Tensor(np.zeros((1, 6, 6, 2), dtype=np.float32)), 4)


@pytest.mark.parametrize("op,k", [
    ("partition", 0), ("partition", -2), ("partition", 4),
    ("reverse", 0), ("reverse", -2), ("reverse", 4),
])
def test_window_side_that_does_not_fit_is_a_shape_error(op, k):
    x = Tensor(np.zeros((1, 2, 2, 3), dtype=np.float32))
    with pytest.raises(T.ShapeError):
        if op == "partition":
            M.window_partition(x, k)
        else:
            M.window_reverse(x, k, 2, 2)


def test_partition_gradient_is_inverse_permutation(rng):
    x = Tensor(rng.standard_normal((1, 4, 4, 2)), requires_grad=True)
    tokens = M.window_partition(x, 2)
    w = rng.standard_normal(tokens.shape)
    T.backward(T.weighted_sum(tokens, w))
    back = M.window_reverse(Tensor(w), 2, 4, 4)
    np.testing.assert_array_equal(x.grad, back.data)


def window_oracle(x, k):
    """Window (i, j) of each image, sliced out one at a time, raster order."""
    b, h, w, d = x.shape
    return np.stack([x[n, i:i + k, j:j + k].reshape(k * k, d)
                     for n in range(b) for i in range(0, h, k) for j in range(0, w, k)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 4), st.sampled_from([np.float32, np.float64]), st.integers(0, 99))
def test_partition_matches_slicing_oracle(b, rows, cols, k, d, dtype, seed):
    h, w = rows * k, cols * k
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((b, h, w, d)).astype(dtype)
    x = Tensor(data, requires_grad=True)
    tokens = M.window_partition(x, k)
    want = window_oracle(data, k)
    # a copy even when the permutation moves nothing (one window across)
    assert tokens.dtype == dtype and not np.shares_memory(tokens.data, data)
    np.testing.assert_array_equal(tokens.data, want)
    np.testing.assert_array_equal(M.window_reverse(Tensor(want), k, h, w).data, data)

    g = rng.standard_normal(tokens.shape).astype(dtype)
    T.backward(T.weighted_sum(tokens, g))
    np.testing.assert_array_equal(x.grad, M.window_reverse(Tensor(g), k, h, w).data)


# -- block ----------------------------------------------------------------------------

def block_cfg(k=14, groups=8, kind=GatingKind.GGQPE, **kw):
    return GatingConfig(kind=kind, window_side=k, groups=groups, **kw)


def test_block_zero_proj_out_is_identity(rng):
    blk = M.PosMlpBlock(8, block_cfg(k=2, groups=2), 4, np.random.default_rng(0), np.float64)
    blk.w_out.data[:] = 0.0
    blk.b_out.data[:] = 0.0
    x = rng.standard_normal((3, 4, 8))
    np.testing.assert_array_equal(blk.forward(Tensor(x)).data, x)


def test_block_parameter_count_stage1_tiny():
    # d=96, expansion 4, N=196, s=8 quadratic block: projection plus
    # token-mixing parameters total 56020
    blk = M.PosMlpBlock(96, block_cfg(), 4, np.random.default_rng(0), np.float32)
    named = blk.parameters()
    counted = sum(p.size for name, p in named.items()
                  if not name.startswith("norm.") and not name.startswith("unit.norm."))
    assert counted == 56020
    assert analytic_params(GatingKind.GGQPE, 96, 4, 196, 8).total == 56020


def test_block_gradcheck_smallest_window(rng):
    # smallest square window (k=2 -> 4 tokens) at width 4
    blk = M.PosMlpBlock(4, block_cfg(k=2, groups=2, kind=GatingKind.GGQPE), 2,
                        np.random.default_rng(1), np.float64)
    x = Tensor(np.random.default_rng(2).standard_normal((2, 4, 4)))
    w = np.random.default_rng(3).standard_normal((2, 4, 4))

    def fn():
        return T.weighted_sum(blk.forward(x), w)

    res = gradcheck(fn, blk.parameters())
    assert res.ok, res.failures[:5]
    assert res.max_rel_err < 1e-4


# -- whole model ------------------------------------------------------------------------

def test_variant_config_table():
    cfg = M.variant_config("T")
    assert tuple(s.dim for s in cfg.stages) == (96, 192, 384, 768)
    assert tuple(s.depth for s in cfg.stages) == (2, 2, 18, 2)
    assert tuple(s.window_side for s in cfg.stages) == (14, 14, 14, 7)
    assert tuple(s.groups for s in cfg.stages) == (8, 16, 32, 64)
    assert tuple(s.expansion for s in cfg.stages) == (4, 4, 4, 2)
    assert M.variant_config("S").stages[0].dim == 128
    assert M.variant_config("B").stages[0].dim == 192


def test_variant_config_rejects_unknown():
    with pytest.raises(ValueError) as err:
        M.variant_config("XL")
    assert "MICRO" in str(err.value) and "T" in str(err.value)


@pytest.mark.parametrize("args, kw, field", [
    (("MICRO",), dict(use_ape="no"), "use_ape"),
    (("MICRO",), dict(use_bias=1), "use_bias"),
    (("MICRO",), dict(pre_norm_on_x1="yes"), "pre_norm_on_x1"),
    (("MICRO",), dict(split_channels=None), "split_channels"),
    (("MICRO",), dict(image_side="224"), "image_side"),
    (("MICRO",), dict(num_classes=4.0), "num_classes"),
    (("MICRO",), dict(windows=14), "windows"),
    ((5,), {}, "variant"),
])
def test_variant_config_refuses_a_mistyped_setting(args, kw, field):
    with pytest.raises(ValueError, match=field):
        M.variant_config(*args, **kw)


def test_numpy_integer_settings_are_stored_as_ints():
    # Stored as numpy integers they would pass, then fail the checkpoint's JSON record.
    cfg = M.variant_config("MICRO", image_side=np.int64(32), num_classes=np.int32(4))
    stage = M.StageConfig(**{k: np.int64(v) for k, v in asdict(cfg.stages[0]).items()})
    assert type(cfg.image_side) is type(cfg.num_classes) is type(stage.depth) is int
    assert M.ModelConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg


def test_config_validation_happens_at_build_time():
    with pytest.raises(ValueError):
        M.variant_config("MICRO", windows=(8, 8, 8, 4))  # 8 does not divide the 4x4 map


def test_config_refuses_an_odd_feature_side_before_a_merge():
    # 36 pixels give feature sides 9, 4, 2, 1: the first merge cannot halve 9.
    with pytest.raises(ValueError, match="odd"):
        M.variant_config("MICRO", image_side=36)


@pytest.mark.parametrize("side, reason", [
    (30, "image side 30 must be divisible by 4"),
    (8, "stage 1: feature side 1 is odd; the merge halves it"),
    (16, "stage 2: feature side 1 is odd; the merge halves it"),
])
def test_default_windows_leave_a_too_small_side_to_the_config_checks(side, reason):
    # The merges halve these sides to 0 before the last stage; choosing its
    # window must not fail first with an empty max().
    with pytest.raises(ValueError, match=f"^{reason}$"):
        M.variant_config("MICRO", image_side=side)


def test_micro_forward_finite_logits(rng):
    m = micro()
    x = Tensor(rng.standard_normal((2, 32, 32, 3)).astype(np.float32))
    logits = m.forward(x)
    assert logits.shape == (2, 4)
    assert np.all(np.isfinite(logits.data))


def test_float32_model_refuses_float64_images(rng):
    x = Tensor(rng.standard_normal((2, 32, 32, 3)))
    with pytest.raises(T.ShapeError, match="dtype mismatch"):
        micro().forward(x)


def test_micro_exact_parameter_count():
    m = micro()
    _, total = count_params(m)
    cfg = m.config
    expected = 0
    c = cfg.stages[0].dim
    expected += 27 * (c // 2) + c // 2          # stem conv1
    expected += 9 * (c // 2) ** 2 + c // 2      # stem conv2
    expected += 9 * (c // 2) * c + c            # stem conv3
    for i, st in enumerate(cfg.stages):
        n = st.window_side ** 2
        per = analytic_params(GatingKind.GGQPE, st.dim, st.expansion, n, st.groups).total
        per += 2 * st.dim                       # block pre-norm affine
        expected += st.depth * per
        if i < 3:
            expected += 18 * st.dim + 2 * st.dim  # depthwise merge + bias
    expected += 2 * cfg.stages[3].dim           # final norm
    expected += cfg.stages[3].dim * cfg.num_classes + cfg.num_classes
    assert total == expected


def per_group_gqpe(form=CovarianceForm.GAMMA_GRAMIAN, delta_frozen=False, groups=1, rng=None,
                   dtype=np.float32):
    """Re-draw oracle: each group draws its own delta, then its own gamma, in group order."""
    out = RealGqpeParams(form, delta_frozen, groups, rng=ZeroDraws(), dtype=dtype)
    for g in range(groups):
        if not out.delta_frozen:
            out.delta.data[g] = rng.uniform(-0.5, 0.5, size=2).astype(dtype)
        if out.gamma is not None:
            out.gamma.data[g] = (np.eye(2) + rng.normal(0.0, 0.1, size=(2, 2))).astype(dtype)
    return out


@pytest.mark.parametrize("variant, overrides, seed", [
    ("T", {}, 3), ("MICRO", {}, 0), ("MICRO", {"covariance_form": "gamma_raw"}, 1),
    ("MICRO", {"covariance_form": "alpha_i", "delta_frozen": True}, 2),
    ("MICRO", {"delta_frozen": True}, 4)])
def test_built_model_matches_the_per_group_redraw_oracle(monkeypatch, variant, overrides, seed):
    cfg = M.variant_config(variant, **overrides)
    built = M.build_model(cfg, rng=np.random.default_rng(seed))
    monkeypatch.setattr(G, "GqpeParams", per_group_gqpe)
    oracle = M.build_model(cfg, rng=np.random.default_rng(seed))
    assert list(built.parameters()) == list(oracle.parameters())
    for (name, p), q in zip(built.parameters().items(), oracle.parameters().values()):
        np.testing.assert_array_equal(p.data.view(np.uint8), q.data.view(np.uint8), err_msg=name)


def test_tiny_has_one_parameter_block_per_kind_per_unit():
    params = M.build_model(M.variant_config("T"), rng=ZeroDraws()).parameters()
    assert len(params) == 232
    assert params["stages.2.blocks.7.unit.gqpe.delta"].shape == (32, 2)
    assert params["stages.2.blocks.7.unit.gqpe.gamma"].shape == (32, 2, 2)
    assert sum(".gqpe." in name for name in params) == 2 * 24


def test_stage_shapes_match_published_table_for_tiny(monkeypatch):
    cfg = M.variant_config("T")
    m = M.build_model(cfg, rng=np.random.default_rng(0), dtype=np.float32)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 224, 224, 3)).astype(np.float32))
    shapes = []
    real_reverse = M.window_reverse

    def recording_reverse(*args):
        out = real_reverse(*args)
        shapes.append(out.shape)
        return out

    # Each stage ends by reversing its windows into the stage's feature map.
    monkeypatch.setattr(M, "window_reverse", recording_reverse)
    logits = m.forward(x)
    assert shapes == [(1, 56, 56, 96), (1, 28, 28, 192), (1, 14, 14, 384), (1, 7, 7, 768)]
    assert logits.shape == (1, 1000)


@pytest.mark.parametrize("variant,c", [("T", 96), ("S", 128), ("B", 192)])
def test_stage_grid_and_width_table(variant, c):
    # feature sides halve per stage from input/4; widths double from C
    cfg = M.variant_config(variant)
    assert cfg.feature_sides() == (56, 28, 14, 7)
    assert tuple(s.dim for s in cfg.stages) == (c, 2 * c, 4 * c, 8 * c)


def test_residual_zero_init_skip_path(rng):
    m = micro(dtype=np.float64)
    for name, p in m.parameters().items():
        if "proj_out" in name:
            p.data[:] = 0.0
    x = Tensor(rng.standard_normal((1, 32, 32, 3)))
    got = m.forward(x).data

    h = m.stem.forward(x)
    for i in range(3):
        h = m.merges[i].forward(h)
    b, hh, ww, d = h.shape
    tokens = T.reshape(h, (b, hh * ww, d))
    tokens = T.layer_norm(tokens, m.final_gain, m.final_shift)
    want = T.linear(T.mean_tokens(tokens), m.head_w, m.head_b).data
    np.testing.assert_array_equal(got, want)


def test_micro_gradcheck_directional(rng):
    m = micro(dtype=np.float64, seed=5)
    x = Tensor(np.random.default_rng(6).standard_normal((1, 32, 32, 3)))
    w = np.random.default_rng(7).standard_normal((1, 4))

    def fn():
        return T.weighted_sum(m.forward(x), w)

    params = m.parameters()
    res = gradcheck_directional(fn, params, groups=category_groups(params),
                                rng=np.random.default_rng(8))
    assert res.ok, res.failures[:5]
    assert res.max_rel_err < 1e-4


def scipy_gelu_f32(x):
    """Float32 GELU from SciPy's erf, the reference for the rational erf."""
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd * np.float32(0.7071067811865476)))

    def vjp(g):
        return (g * (phi + xd * (np.exp(-0.5 * xd * xd) * np.float32(0.3989422804014327))),)

    return T._result(xd * phi, (x,), vjp, "gelu")


def test_micro_float32_matches_the_scipy_gelu_forward(monkeypatch):
    # MICRO's logits are of order 1e-5 and its gradients of order 10 at
    # initialisation; the measured differences are 9.1e-13 and 1.5e-8.
    def run():
        m = micro(seed=0)
        x = Tensor(np.random.default_rng(100).standard_normal((4, 32, 32, 3)).astype(np.float32))
        w = np.random.default_rng(200).standard_normal((4, 4)).astype(np.float32)
        logits = m.forward(x)
        T.backward(T.weighted_sum(logits, w))
        return logits.data, {k: p.grad for k, p in m.parameters().items()}

    logits, grads = run()
    with monkeypatch.context() as mp:
        mp.setattr(T, "gelu", scipy_gelu_f32)
        want_logits, want_grads = run()
    assert logits.dtype == np.float32
    assert np.any(logits != want_logits)  # the reference GELU did run
    assert np.max(np.abs(logits - want_logits)) <= 4e-12
    assert grads.keys() == want_grads.keys()
    for k, g in grads.items():
        assert np.max(np.abs(g - want_grads[k])) <= 1e-7, k


def test_concat_and_nonsplit_models_forward(rng):
    # the output-projection width follows the combine mode all the way
    # through the assembled model
    x = Tensor(rng.standard_normal((1, 32, 32, 3)).astype(np.float32))
    for overrides in ({"combine": "concat"}, {"split_channels": False}):
        m = micro(**overrides)
        logits = m.forward(x)
        assert logits.shape == (1, 4)
        assert np.all(np.isfinite(logits.data))


def test_ape_changes_forward_and_is_counted(rng):
    m = micro(use_ape=True, dtype=np.float64)
    assert "ape" in m.parameters()
    assert m.ape.shape == (64, 16)
    x = Tensor(rng.standard_normal((1, 32, 32, 3)))
    base = m.forward(x).data
    m.ape.data[:] += 1.0
    assert np.abs(m.forward(x).data - base).max() > 0


# -- checkpointing -------------------------------------------------------------------------

def test_checkpoint_roundtrip_bytes_and_forward(tmp_path, rng):
    m = micro(seed=11)
    p1 = tmp_path / "a.pmlp"
    p2 = tmp_path / "b.pmlp"
    M.save_checkpoint(m, p1)
    m2 = M.load_checkpoint(p1)
    M.save_checkpoint(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    x = Tensor(rng.standard_normal((1, 32, 32, 3)).astype(np.float32))
    np.testing.assert_array_equal(m.forward(x).data, m2.forward(x).data)
    for (n1, q1), (n2, q2) in zip(m.parameters().items(), m2.parameters().items()):
        assert n1 == n2
        np.testing.assert_array_equal(q1.data, q2.data)


def _held_between_forwards(unit):
    """Base arrays and bytes a gating unit holds besides its parameters and its grid's geometry.

    Walks everything the unit refers to (its stack cache, the kept stack's
    vectors and their tape, closures included), skipping the parameters,
    their arrays and the shared ``DisplacementGrid``.
    """
    params = list(unit.parameters().values())
    if unit.gqpe is not None:
        params += unit._positional_tensors()
    grid = unit.grid
    seen = {id(grid), id(grid.pairs), *map(id, grid._features.values()), *map(id, params)}
    param_bases = {id(T._base(p.data)) for p in params}
    held, todo = [], list(vars(unit).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if id(T._base(obj)) not in param_bases:
                held.append(T._base(obj))
        elif isinstance(obj, bytes):
            held.append(obj)
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            todo.extend(gc.get_referents(obj))
    return held


def _recipe_bytes(recipe):
    return sum(a.nbytes for a in (recipe.table, *recipe.off_peak, recipe.sums))


def _check_holds_no_more_than_its_recipe(unit):
    recipe = unit._stack_entry[1].recipe
    n, s = recipe.shape[:2]
    held = _held_between_forwards(unit)
    assert any(a is recipe.table for a in held)
    if n == 1:
        # A one-token window's stack and recipe are a few numbers per
        # group, fewer than the vectors' tape and the cache key hold.
        return
    assert max(len(a) if isinstance(a, bytes) else a.nbytes for a in held) <= \
        _recipe_bytes(recipe) < n * s * n * recipe.dtype.itemsize


def test_a_loaded_checkpoint_builds_each_recipe_once_and_keeps_no_stack(tmp_path, rng,
                                                                      monkeypatch):
    # A loaded model's first forward builds each quadratic unit's recipe
    # and keeps it; no later forward builds one, every forward has the
    # built model's logits, and between forwards no unit holds an array
    # larger than its recipe, so none holds a stack.
    m = micro(seed=14)
    path = tmp_path / "m.pmlp"
    M.save_checkpoint(m, path)
    loaded = M.load_checkpoint(path)
    x = Tensor(rng.standard_normal((2, 32, 32, 3)).astype(np.float32))
    want = m.forward(x).data
    units = [blk.unit for blocks in loaded.stages for blk in blocks]
    calls, real = [], G.group_weight_stack
    monkeypatch.setattr(G, "group_weight_stack", lambda *a: calls.append(1) or real(*a))
    for _ in range(3):
        np.testing.assert_array_equal(loaded.forward(x).data, want)
        assert len(calls) == len(units)
        for u in units:
            _check_holds_no_more_than_its_recipe(u)


def test_a_t_unit_holds_no_more_than_its_recipe_between_forwards(rng):
    # PosMLP-T's four stages at 224^2 and batch 1, one quadratic unit each.
    cfg = M.variant_config("T")
    for st, windows in zip(cfg.stages, (16, 4, 1, 1)):
        gcfg = GatingConfig(kind=GatingKind.GGQPE, window_side=st.window_side, groups=st.groups)
        u = G.GatingUnit(gcfg, st.dim * st.expansion, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((windows, gcfg.n_tokens, u.width)).astype(np.float32))
        first = u.forward(x).data
        _check_holds_no_more_than_its_recipe(u)
        np.testing.assert_array_equal(u.forward(x).data, first)


@pytest.mark.parametrize("kind, k, groups, stage", [
    (GatingKind.SGU, 3, 1, None), (GatingKind.LRPE_M, 3, 1, None), (GatingKind.LRPE, 3, 1, None),
    (GatingKind.GLRPE, 3, 2, None), (GatingKind.GLRPE, None, None, 2)])
def test_a_lookup_or_dense_unit_holds_nothing_between_forwards(rng, kind, k, groups, stage):
    # Each forward builds the unit's whole (N, s, N) stack and drops it;
    # after two forwards the unit holds its parameters and its grid alone.
    # The last case is PosMLP-T's stage-2 unit at 224^2 and batch 1.
    width = 8
    if stage is not None:
        st = M.variant_config("T").stages[stage]
        k, groups, width = st.window_side, st.groups, st.dim * st.expansion
    u = G.GatingUnit(GatingConfig(kind=kind, window_side=k, groups=groups), width,
                     rng=np.random.default_rng(0))
    x = Tensor(rng.standard_normal((1, k * k, width)).astype(np.float32))
    first = u.forward(x).data
    np.testing.assert_array_equal(u.forward(x).data, first)
    assert _held_between_forwards(u) == []


@pytest.mark.parametrize("overrides", [{}, {"gating_kind": "lrpe_m"}, {"gating_kind": "glrpe"},
                                       {"use_ape": True, "delta_frozen": True}])
def test_checkpoint_load_draws_no_random_numbers(tmp_path, monkeypatch, overrides):
    m = micro(seed=12, **overrides)
    path = tmp_path / "r.pmlp"
    M.save_checkpoint(m, path)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = M.load_checkpoint(path)
    for (name, p), q in zip(m.parameters().items(), loaded.parameters().values()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        assert q.data.flags.writeable and q.data.flags.c_contiguous


def _write_checkpoint(path, config, records):
    with open(path, "wb") as fh:
        fh.write(M.CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", M.CHECKPOINT_VERSION))
        cfg = json.dumps(config.to_json_dict(), sort_keys=True).encode("utf-8")
        M._write_record(fh, "__config__", np.frombuffer(cfg, dtype=np.uint8))
        for name, arr in records:
            M._write_record(fh, name, arr)


def file_records(m):
    """``(path, array)`` of every parameter record of m's checkpoint, in file order.

    Written out from the model's structure: a quadratic unit's blocks go
    one record per group and kind, ``<unit>.gqpe.{g}.delta|gamma|alpha_raw``,
    group after group, as files have always held them.
    """
    records, done = [], set()
    for name, p in m.parameters().items():
        if ".gqpe." not in name:
            records.append((name, p.data))
            continue
        unit = name.rsplit(".gqpe.", 1)[0]
        if unit in done:
            continue
        done.add(unit)
        _, i, _, j, _ = unit.split(".")
        gqpe = m.stages[int(i)][int(j)].unit.gqpe
        for g in range(len(gqpe)):
            if not gqpe.delta_frozen:
                records.append((f"{unit}.gqpe.{g}.delta", gqpe.delta.data[g]))
            for kind in ("gamma", "alpha_raw"):
                block = getattr(gqpe, kind)
                if block is not None:
                    records.append((f"{unit}.gqpe.{g}.{kind}", block.data[g]))
    return records


@pytest.mark.parametrize("overrides", [{}, {"delta_frozen": True}, {"covariance_form": "gamma_raw"},
                                       {"covariance_form": "alpha_i", "delta_frozen": True},
                                       {"gating_kind": "glrpe"}])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_per_group_records_load_and_save_byte_identical(tmp_path, overrides, dtype):
    m = micro(dtype=dtype, seed=13, **overrides)
    hand = tmp_path / "hand.pmlp"
    _write_checkpoint(hand, m.config, file_records(m))
    saved = tmp_path / "saved.pmlp"
    M.save_checkpoint(m, saved)
    assert saved.read_bytes() == hand.read_bytes()
    loaded = M.load_checkpoint(hand)
    assert loaded.dtype == dtype
    for (name, p), q in zip(m.parameters().items(), loaded.parameters().values()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
    again = tmp_path / "again.pmlp"
    M.save_checkpoint(loaded, again)
    assert again.read_bytes() == hand.read_bytes()


@pytest.mark.parametrize("repeat", ["head.bias", "stages.2.blocks.1.unit.gqpe.5.gamma",
                                    "stages.0.blocks.0.unit.gqpe.0.delta"])
def test_checkpoint_repeated_record_is_refused(tmp_path, repeat):
    m = micro()
    records = file_records(m)
    records.append((repeat, np.full_like(dict(records)[repeat], 7.0)))
    path = tmp_path / "twice.pmlp"
    _write_checkpoint(path, m.config, records)
    with pytest.raises(M.CheckpointError, match="duplicate") as err:
        M.load_checkpoint(path)
    assert repr(repeat) in str(err.value)


def test_a_checkpoint_of_its_config_alone_names_the_missing_parameters(tmp_path):
    # No parameter record gives a dtype, so the model is built in float32
    # and every one of its parameters is missing.
    m = micro()
    path = tmp_path / "config_only.pmlp"
    _write_checkpoint(path, m.config, [])
    with pytest.raises(M.CheckpointError, match="missing parameters") as err:
        M.load_checkpoint(path)
    assert repr(min(name for name, _ in file_records(m))) in str(err.value)


def test_checkpoint_mixed_dtypes_name_the_first_disagreeing_record(tmp_path):
    m = micro()
    records = file_records(m)
    odd = [3, 7]
    for i in odd:
        records[i] = (records[i][0], records[i][1].astype(np.float64))
    path = tmp_path / "mixed.pmlp"
    _write_checkpoint(path, m.config, records)
    with pytest.raises(M.CheckpointError) as err:
        M.load_checkpoint(path)
    assert repr(records[odd[0]][0]) in str(err.value)
    assert "float64" in str(err.value) and "float32" in str(err.value)
    # the same hand-written file with one dtype throughout loads
    records = [(name, arr.astype(np.float32)) for name, arr in records]
    _write_checkpoint(path, m.config, records)
    assert M.load_checkpoint(path).dtype == np.float32


def test_checkpoint_corrupt_shape_names_parameter(tmp_path):
    m = micro()
    path = tmp_path / "c.pmlp"
    M.save_checkpoint(m, path)
    blob = bytearray(path.read_bytes())
    # locate the head.bias record and flip its extent field
    key = b"head.bias"
    at = blob.find(key)
    ext_at = at + len(key) + 2  # dtype tag + rank byte
    blob[ext_at:ext_at + 4] = (999).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(M.CheckpointError) as err:
        M.load_checkpoint(path)
    assert "head.bias" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("record", ["head.bias", "stages.1.blocks.0.unit.gqpe.3.gamma"])
def test_checkpoint_non_finite_value_names_its_record(tmp_path, record, bad):
    m = micro()
    records = file_records(m)
    i = [name for name, _ in records].index(record)
    arr = records[i][1].copy()
    arr.reshape(-1)[-1] = bad
    records[i] = (record, arr)
    path = tmp_path / "bad.pmlp"
    _write_checkpoint(path, m.config, records)
    with pytest.raises(M.CheckpointError, match="non-finite") as err:
        M.load_checkpoint(path)
    assert repr(record) in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("record", ["head.bias", "stages.1.blocks.0.unit.gqpe.3.gamma"])
def test_save_refuses_a_non_finite_parameter_and_writes_no_file(tmp_path, record, bad):
    m = micro()
    p, row = M._records(m.parameters())[record]
    (p.data if row is None else p.data[row]).reshape(-1)[-1] = bad
    path = tmp_path / "bad.pmlp"
    with pytest.raises(M.CheckpointError, match="non-finite") as err:
        M.save_checkpoint(m, path)
    assert repr(record) in str(err.value)
    assert not path.exists()


def test_checkpoint_float64_roundtrip(tmp_path, rng):
    m = micro(dtype=np.float64, seed=13)
    path = tmp_path / "f64.pmlp"
    M.save_checkpoint(m, path)
    m2 = M.load_checkpoint(path)
    assert m2.dtype == np.float64
    x = Tensor(rng.standard_normal((1, 32, 32, 3)))
    np.testing.assert_array_equal(m.forward(x).data, m2.forward(x).data)


def test_checkpoint_truncation_detected(tmp_path):
    m = micro()
    path = tmp_path / "d.pmlp"
    M.save_checkpoint(m, path)
    blob = path.read_bytes()[:-5]
    path.write_bytes(blob)
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "e.pmlp"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(M.CheckpointError):
        M.load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    m = micro()
    path = tmp_path / "f.pmlp"
    M.save_checkpoint(m, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(M.CheckpointError) as err:
        M.load_checkpoint(path)
    assert "version" in str(err.value)


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    """A MICRO checkpoint's bytes, the end of its config record, and a scratch path."""
    path = tmp_path_factory.mktemp("corrupt") / "m.pmlp"
    M.save_checkpoint(micro(seed=21), path)
    blob = path.read_bytes()
    return blob, blob.find(b"stem."), path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_checkpoint_error(micro_checkpoint, data):
    blob, config_end, path = micro_checkpoint
    # Half the draws land in the magic, version and config record, where a
    # flip changes structure rather than one parameter value.
    at = data.draw(st.one_of(st.integers(0, config_end), st.integers(0, len(blob) - 1)))
    if data.draw(st.booleans()):
        corrupt = bytearray(blob)
        corrupt[at] ^= data.draw(st.integers(1, 255))
    else:
        corrupt = blob[:at]
    path.write_bytes(bytes(corrupt))
    try:
        M.load_checkpoint(path)
    except M.CheckpointError:
        pass


# -- concurrency ---------------------------------------------------------------------------

def test_concurrent_forwards_match_serial_logits(rng):
    # Forward writes each gating unit's mixing-stack cache; threads sharing a
    # model must still see exactly the serial results, also right after the
    # parameters change.  More threads than cores and a short switch
    # interval make the threads interleave inside forward.
    shared, serial = micro(seed=8), micro(seed=8)
    x = Tensor(rng.standard_normal((2, 32, 32, 3)).astype(np.float32))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            for m in (shared, serial):
                for name, p in m.parameters().items():
                    if ".gqpe." in name:
                        p.data *= np.float32(1.0 + 0.1 * round_)
            want = serial.forward(x).data
            results = []

            def work():
                for _ in range(2):
                    results.append(shared.forward(x).data)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 8
            for got in results:
                np.testing.assert_array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


# -- window presets --------------------------------------------------------------------------

def test_default_windows_presets():
    assert M.default_windows("T", 224) == (14, 14, 14, 7)
    assert M.default_windows("T", 384) == (24, 24, 12, 12)
    assert M.default_windows("MICRO", 32) == (8, 4, 2, 1)
    # generic fallback picks the largest divisors under the reference caps
    assert M.default_windows("T", 448) == (14, 14, 14, 7)
