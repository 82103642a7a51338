import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmlp import tensor as T
from posmlp.gradcheck import gradcheck
from posmlp.tensor import Tensor, backward


def t64(a, grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


def matmul_oracle(a, b):
    """Brute-force triple loop, the independent reference for matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


# -- matmul -------------------------------------------------------------------

def test_matmul_identity():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    eye = t64(np.eye(2))
    np.testing.assert_array_equal(T.matmul(eye, a).data, a.data)


def test_matmul_hand_product():
    out = T.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_against_triple_loop(rng):
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    got = T.matmul(t64(a), t64(b)).data
    assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12


@pytest.mark.parametrize("m,k,n", [(1, 1, 1), (2, 3, 4), (32, 32, 32), (17, 5, 29)])
def test_matmul_oracle_shapes(rng, m, k, n):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    got = T.matmul(t64(a), t64(b)).data
    assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12


def test_matmul_vjp_skips_constant_operand(rng):
    feat = t64(rng.standard_normal((6, 5)))
    v = t64(rng.standard_normal((5, 3)), grad=True)
    out = T.matmul(feat, v)
    g = rng.standard_normal(out.shape)
    g_feat, g_v = out._vjp(g)
    assert g_feat is None
    np.testing.assert_array_equal(g_v, feat.data.T @ g)
    backward(T.weighted_sum(out, g))
    assert feat.grad is None
    np.testing.assert_array_equal(v.grad, feat.data.T @ g)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.matmul(t64(np.ones((2, 3))), t64(np.ones((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


# -- softmax ------------------------------------------------------------------

def test_softmax_symmetry():
    out = T.softmax_rows(t64([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


@pytest.mark.parametrize("c", [-100.0, 0.0, 3.5, 250.0])
def test_softmax_shift_fixed_ratio(c):
    out = T.softmax_rows(t64([[c, c + math.log(2.0)]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-12)


def test_softmax_row_sums(rng):
    x = rng.standard_normal((4, 9)) * 10
    out = T.softmax_rows(t64(x))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-6)
    assert (out.data >= 0).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
def test_softmax_perrow_shift_invariance(row, c):
    x = np.array([row], dtype=np.float64)
    a = T.softmax_rows(Tensor(x)).data
    b = T.softmax_rows(Tensor(x + c)).data
    assert np.max(np.abs(a - b)) < 1e-6


def test_softmax_rejects_nan_in_checked_mode():
    x = np.zeros((2, 2))
    x[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        T.softmax_rows(Tensor(x))


# -- layer norm ---------------------------------------------------------------

def test_layer_norm_constant_row_maps_to_zero():
    x = t64(np.full((1, 5), 7.0))
    out = T.layer_norm(x, t64(np.ones(5)), t64(np.zeros(5)))
    np.testing.assert_allclose(out.data, np.zeros((1, 5)), atol=1e-12)


def test_layer_norm_moments():
    x = t64([[1.0, 2.0, 3.0]])
    out = T.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3))).data
    assert abs(out.mean()) < 1e-6
    assert abs(out.var() - 1.0) < 1e-3  # population variance, eps-shrunk


def test_layer_norm_affine_collapse():
    x = t64(np.random.default_rng(0).standard_normal((4, 6)))
    b = 2.5
    out = T.layer_norm(x, t64(np.zeros(6)), t64(np.full(6, b)))
    np.testing.assert_array_equal(out.data, np.full((4, 6), b))


def test_layer_norm_batched_matches_flat(rng):
    x = rng.standard_normal((2, 3, 6))
    g = rng.standard_normal(6)
    s = rng.standard_normal(6)
    batched = T.layer_norm(t64(x), t64(g), t64(s)).data
    flat = T.layer_norm(t64(x.reshape(6, 6)), t64(g), t64(s)).data
    np.testing.assert_array_equal(batched.reshape(6, 6), flat)


# -- gelu ---------------------------------------------------------------------

def test_gelu_zero():
    assert T.gelu(t64([0.0])).data[0] == 0.0


def test_gelu_large_positive_asymptote():
    x = 10.0
    out = T.gelu(t64([x])).data[0]
    assert abs(out / x - 1.0) < 1e-6


def test_gelu_matches_erf_oracle():
    x = 1.0
    expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    got = T.gelu(t64([x])).data[0]
    assert abs(got - expected) < 1e-6
    assert abs(expected - 0.8413447460685429) < 1e-12


# -- backward -----------------------------------------------------------------

def test_backward_sum_gives_ones(rng):
    x = t64(rng.standard_normal((3, 4)), grad=True)
    backward(T.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_product_rule(rng):
    xv, yv = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
    x, y = t64(xv, grad=True), t64(yv, grad=True)
    backward(T.sum_all(T.mul(x, y)))
    np.testing.assert_array_equal(x.grad, yv)
    np.testing.assert_array_equal(y.grad, xv)


def test_backward_twice_is_error(rng):
    x = t64(rng.standard_normal(3), grad=True)
    loss = T.sum_all(x)
    backward(loss)
    with pytest.raises(T.GradError):
        backward(loss)


def test_backward_non_scalar_is_error(rng):
    x = t64(rng.standard_normal(3), grad=True)
    with pytest.raises(T.GradError):
        backward(T.mul(x, x))


def test_backward_detached_graph_is_error():
    with pytest.raises(T.GradError):
        backward(t64(1.0, grad=True))


def test_backward_visits_each_node_once(rng):
    # Diamond graph: z = (x + x) * (x + x); one vjp call per node means the
    # shared subexpression contributes exactly once.
    x = t64(rng.standard_normal(4), grad=True)
    s = T.add(x, x)
    calls = []
    orig = s._vjp
    s._vjp = lambda g: calls.append(1) or orig(g)
    backward(T.sum_all(T.mul(s, s)))
    assert len(calls) == 1
    np.testing.assert_allclose(x.grad, 8 * x.data, atol=1e-12)


def test_composite_gradcheck(rng):
    """Analytic gradients of a composite of most ops vs central differences."""
    w = t64(rng.standard_normal((4, 4)), grad=True)
    b = t64(rng.standard_normal(4), grad=True)
    gain = t64(rng.standard_normal(6) * 0.1 + 1.0, grad=True)
    shift = t64(rng.standard_normal(6) * 0.1, grad=True)
    x = t64(rng.standard_normal((2, 4, 6)))
    weights = rng.standard_normal((2, 4, 3))

    def fn():
        h = T.layer_norm(x, gain, shift)
        h = T.mix_tokens(w, h)
        h = T.add_token_bias(h, b)
        h = T.gelu(h)
        a, bb = T.split(h, 2, axis=-1)
        h = T.concat([T.mul(a, bb), bb], axis=-1)
        h = T.softmax_rows(T.reshape(h, (8, 6)))
        h = T.reshape(h, (2, 4, 6))
        first, _ = T.split(h, 2, axis=-1)
        return T.weighted_sum(first, weights)

    res = gradcheck(fn, {"w": w, "b": b, "gain": gain, "shift": shift})
    assert res.ok, res.failures
    assert res.max_rel_err < 1e-4


def test_linear_and_conv_gradcheck(rng):
    w = t64(rng.standard_normal((3, 6)) * 0.5, grad=True)
    bias = t64(rng.standard_normal(6) * 0.5, grad=True)
    cw = t64(rng.standard_normal((3, 3, 2, 3)) * 0.5, grad=True)
    cb = t64(rng.standard_normal(3) * 0.5, grad=True)
    dw = t64(rng.standard_normal((3, 3, 6, 2)) * 0.5, grad=True)
    db = t64(rng.standard_normal(12) * 0.5, grad=True)
    img = t64(rng.standard_normal((2, 4, 4, 2)), grad=True)
    wsum = rng.standard_normal((2, 2, 2, 12))

    def fn():
        h = T.conv2d(img, cw, cb, stride=2, pad=1)       # (2, 2, 2, 3)
        h = T.reshape(h, (2, 4, 3))
        h = T.linear(h, w, bias)                         # (2, 4, 6)
        h = T.gelu(h)
        h = T.reshape(h, (2, 2, 2, 6))
        h = T.conv2d_depthwise(h, dw, db, stride=1, pad=1)  # (2, 2, 2, 12)
        return T.weighted_sum(h, wsum)

    res = gradcheck(fn, {"w": w, "bias": bias, "cw": cw, "cb": cb,
                         "dw": dw, "db": db, "img": img})
    assert res.ok, res.failures[:3]


@pytest.mark.parametrize("n,s,c,b", [(9, 2, 1, 2), (9, 4, 3, 3), (49, 8, 4, 1), (16, 1, 5, 2)])
def test_stacked_mix_tokens_matches_group_loop(rng, n, s, c, b):
    w = rng.random((n, s, n))
    x = rng.standard_normal((b, n, s * c))
    g = rng.standard_normal((b, n, s * c))
    wt, xt = t64(w, grad=True), t64(x, grad=True)
    out = T.mix_tokens(wt, xt)
    backward(T.weighted_sum(out, g))
    for i in range(s):
        sl = slice(i * c, (i + 1) * c)
        wi, xi = t64(w[:, i].copy(), grad=True), t64(x[..., sl].copy(), grad=True)
        ref = T.mix_tokens(wi, xi)
        backward(T.weighted_sum(ref, g[..., sl].copy()))
        np.testing.assert_array_equal(out.data[..., sl], ref.data)
        np.testing.assert_array_equal(wt.grad[:, i], wi.grad)
        np.testing.assert_array_equal(xt.grad[..., sl], xi.grad)


def test_mix_tokens_rejects_indivisible_groups():
    with pytest.raises(T.ShapeError):
        T.mix_tokens(t64(np.ones((4, 3, 4))), t64(np.ones((1, 4, 8))))


def test_grouped_layer_norm_matches_group_loop(rng):
    x = rng.standard_normal((2, 5, 12))
    gain, shift = rng.standard_normal(12), rng.standard_normal(12)
    got = T.layer_norm(t64(x), t64(gain), t64(shift), groups=3).data
    for i in range(3):
        sl = slice(4 * i, 4 * (i + 1))
        ref = T.layer_norm(t64(x[..., sl].copy()), t64(gain[sl]), t64(shift[sl])).data
        np.testing.assert_array_equal(got[..., sl], ref)


def test_grouped_layer_norm_gradcheck(rng):
    gain = t64(rng.standard_normal(6) * 0.1 + 1.0, grad=True)
    shift = t64(rng.standard_normal(6) * 0.1, grad=True)
    x = t64(rng.standard_normal((2, 3, 6)), grad=True)
    weights = rng.standard_normal((2, 3, 6))

    def fn():
        return T.weighted_sum(T.layer_norm(x, gain, shift, groups=2), weights)

    res = gradcheck(fn, {"x": x, "gain": gain, "shift": shift})
    assert res.ok, res.failures
    assert res.max_rel_err < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_fused_layout_matches_copy_chain(rng, dtype):
    # Oracle: the copying chain reshape (N^2, s) -> (N, N, s), transpose to
    # (N, s, N), then a plain softmax; the gradient goes back the same way.
    n, s = 9, 4
    flat = (rng.standard_normal((n * n, s)) * 30.0).astype(dtype)
    weights = rng.standard_normal((n, s, n)).astype(dtype)

    x = Tensor(flat, requires_grad=True)
    y = T.softmax_rows(x, (n, n, s), (0, 2, 1))
    backward(T.weighted_sum(y, weights))

    z = Tensor(np.ascontiguousarray(flat.reshape(n, n, s).transpose(0, 2, 1)),
               requires_grad=True)
    want = T.softmax_rows(z)
    backward(T.weighted_sum(want, weights))

    assert y.shape == (n, s, n) and y.data.flags.c_contiguous
    np.testing.assert_array_equal(y.data, want.data)
    np.testing.assert_array_equal(
        x.grad, np.ascontiguousarray(z.grad.transpose(0, 2, 1)).reshape(n * n, s))


def test_softmax_rejects_a_bad_axis_permutation():
    with pytest.raises(T.ShapeError):
        T.softmax_rows(t64(np.zeros((4, 2))), (2, 2, 2), (0, 0, 1))


def test_permute_flat_rejects_a_bad_permutation_or_shape():
    x = t64(np.zeros((4, 2)))
    with pytest.raises(T.ShapeError):
        T.permute_flat(x, (2, 2, 2), (0, 0, 1), (8,))
    with pytest.raises(T.ShapeError):
        T.permute_flat(x, (2, 2, 2), (0, 1), (8,))
    with pytest.raises(T.ShapeError):
        T.permute_flat(x, (3, 3), (1, 0), (9,))


def test_softmax_flushes_subnormals_to_zero():
    out = T.softmax_rows(Tensor(np.array([[0.0, -100.0, -200.0]], dtype=np.float32))).data
    # exp(-100) is subnormal in float32; exp(-200) underflows on its own
    assert out[0, 0] == 1.0 and out[0, 1] == 0.0 and out[0, 2] == 0.0


@pytest.mark.parametrize("dtype, want_cut", [(np.float32, 71.394), (np.float64, 672.353)])
def test_softmax_cuts_logits_far_below_the_row_max(dtype, want_cut):
    fi = np.finfo(dtype)
    cut = np.log(fi.eps / fi.tiny)
    assert abs(cut - want_cut) < 1e-3
    n = 196
    row = np.full(n, -2 * want_cut, dtype=dtype)
    row[0] = 0.0
    row[1] = np.nextafter(-cut, dtype(0))  # just above the cut
    row[2] = np.nextafter(-cut, dtype(-np.inf))  # just below it
    out = T.softmax_rows(Tensor(row[None, :])).data[0]
    assert out[1] >= fi.tiny / (fi.eps * n)
    assert out[2] == 0.0 and not np.any(out[3:])
    assert out[0] == 1.0


def test_softmax_normalizes_last_axis_of_a_stack(rng):
    x = rng.standard_normal((3, 2, 5))
    got = T.softmax_rows(t64(x)).data
    for i in range(2):
        np.testing.assert_array_equal(got[:, i], T.softmax_rows(t64(x[:, i].copy())).data)


# -- structural ops -------------------------------------------------------------

def test_split_concat_roundtrip(rng):
    x = t64(rng.standard_normal((3, 4, 8)))
    parts = T.split(x, 4, axis=-1)
    back = T.concat(parts, axis=-1)
    np.testing.assert_array_equal(back.data, x.data)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 1), st.integers(0, 9))
def test_split_concat_roundtrip_property(parts, rows, axis, seed):
    data = np.random.default_rng(seed).standard_normal((rows * parts, rows * parts))
    x = Tensor(data)
    back = T.concat(T.split(x, parts, axis=axis), axis=axis)
    np.testing.assert_array_equal(back.data, data)


def test_split_rejects_uneven():
    with pytest.raises(T.ShapeError):
        T.split(t64(np.ones((2, 5))), 2, axis=-1)


def test_reshape_is_rowmajor_copy(rng):
    x = t64(rng.standard_normal((2, 6)))
    y = T.reshape(x, (3, 4))
    np.testing.assert_array_equal(y.data.reshape(-1), x.data.reshape(-1))


def test_tensor_rejects_zero_extent():
    with pytest.raises(T.ShapeError):
        Tensor(np.zeros((0, 3)))


def test_checked_mode_rejects_nonfinite_input():
    bad = np.ones(3)
    bad[1] = np.inf
    with pytest.raises(FloatingPointError):
        T.add(Tensor(bad), Tensor(np.ones(3)))


def test_grad_matches_shape(rng):
    x = t64(rng.standard_normal((2, 3)), grad=True)
    backward(T.sum_all(T.gelu(x)))
    assert x.grad.shape == x.data.shape


def test_default_dtype_is_float32():
    assert Tensor([1, 2, 3]).dtype == np.float32
    assert Tensor(np.array([1.0, 2.0])).dtype == np.float64  # preserved
