import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmlp import model as M
from posmlp import tensor as T
from posmlp.complexity import analytic_params, count_block_gating_fc, count_params
from posmlp.gating import Combine, GatingConfig, GatingKind
from posmlp.gradcheck import category_groups, gradcheck, gradcheck_directional
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


def test_config_validation_happens_at_build_time():
    with pytest.raises(ValueError):
        M.variant_config("MICRO", windows=(8, 8, 8, 4))  # 8 does not divide the 4x4 map


def test_micro_forward_finite_logits(rng):
    m = micro()
    x = Tensor(rng.standard_normal((2, 32, 32, 3)).astype(np.float32))
    logits = m.forward(x)
    assert logits.shape == (2, 4)
    assert np.all(np.isfinite(logits.data))


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


def test_stage_shapes_match_published_table_for_tiny():
    cfg = M.variant_config("T")
    m = M.build_model(cfg, rng=np.random.default_rng(0), dtype=np.float32)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 224, 224, 3)).astype(np.float32))
    logits, shapes = m.forward(x, return_stage_shapes=True)
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
