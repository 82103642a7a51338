import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from posmlp import model as M
from posmlp import tensor as T
from posmlp.gradcheck import gradcheck, gradcheck_directional
from posmlp.positional import displacement_grid, lrpe_index_map
from posmlp.tensor import Tensor, backward


# Measured float32 GELU error against float64 SciPy: the output in float32
# spacings of |x|, the derivative (at most 1.13 in size) in float32 eps.
GELU_F32_SPACINGS = 3.55
GELU_F32_GRAD_EPS = 2.5


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_matmul_is_each_product_alone(rng, dtype):
    # the 2x2 precision algebra of s groups runs as one stacked product
    for ashape, bshape in (((7, 2, 2), (7, 2, 2)), ((7, 2, 2), (7, 2, 1)), ((3, 4, 5), (3, 5, 6))):
        a = Tensor(rng.standard_normal(ashape).astype(dtype), requires_grad=True)
        b = Tensor(rng.standard_normal(bshape).astype(dtype), requires_grad=True)
        out = T.matmul(a, b)
        g = rng.standard_normal(out.shape).astype(dtype)
        ga, gb = out._vjp(g)
        for i in range(ashape[0]):
            ai = Tensor(a.data[i].copy(), requires_grad=True)
            bi = Tensor(b.data[i].copy(), requires_grad=True)
            one = T.matmul(ai, bi)
            gai, gbi = one._vjp(g[i].copy())
            np.testing.assert_array_equal(out.data[i].view(np.uint8), one.data.view(np.uint8))
            np.testing.assert_array_equal(ga[i].view(np.uint8), gai.view(np.uint8))
            np.testing.assert_array_equal(gb[i].view(np.uint8), gbi.view(np.uint8))


@pytest.mark.parametrize("ashape, bshape", [((2, 2, 2), (3, 2, 2)), ((2, 2, 2), (2, 3, 2)),
                                            ((2, 2, 2), (2, 2)), ((2, 2), (2, 2, 2)),
                                            ((1, 2, 2, 2), (1, 2, 2, 2))])
def test_matmul_rejects_unequal_stacks(ashape, bshape):
    with pytest.raises(T.ShapeError):
        T.matmul(t64(np.ones(ashape)), t64(np.ones(bshape)))


# -- elementwise ----------------------------------------------------------------

def ones(shape, dtype):
    return Tensor(np.ones(shape, dtype=dtype))


# Every op kind with two or more tensor operands, applied with one operand
# (the second, or the one the case names) of dtype ``o`` and the others of ``d``.
DTYPE_CASES = {
    "add": lambda d, o: T.add(ones(3, d), ones(3, o)),
    "sub": lambda d, o: T.sub(ones(3, d), ones(3, o)),
    "mul": lambda d, o: T.mul(ones(3, d), ones(3, o)),
    "matmul": lambda d, o: T.matmul(ones((2, 3), d), ones((3, 4), o)),
    "linear weight": lambda d, o: T.linear(ones((2, 3), d), ones((3, 4), o), ones(4, d)),
    "linear bias": lambda d, o: T.linear(ones((2, 3), d), ones((3, 4), d), ones(4, o)),
    "mix_tokens": lambda d, o: T.mix_tokens(ones((4, 2, 4), d), ones((2, 4, 6), o)),
    "layer_norm": lambda d, o: T.layer_norm(ones((2, 3), d), ones(3, o), ones(3, d)),
    "add_map": lambda d, o: T.add_map(ones((2, 4, 3), d), ones((4, 3), o)),
    "add_token_bias": lambda d, o: T.add_token_bias(ones((2, 4, 3), d), ones(4, o)),
    "conv2d": lambda d, o: T.conv2d(ones((2, 4, 4, 2), d), ones((3, 3, 2, 5), o),
                                    ones(5, d), 1),
    "conv2d_depthwise": lambda d, o: T.conv2d_depthwise(
        ones((2, 4, 4, 2), d), ones((3, 3, 2, 2), o), ones(4, d), 2),
    "concat": lambda d, o: T.concat([ones((2, 3), d), ones((2, 1), o)]),
}


@pytest.mark.parametrize("case", DTYPE_CASES)
def test_ops_reject_a_dtype_mismatch(case):
    op = DTYPE_CASES[case]
    f32, f64 = np.float32, np.float64
    assert op(f32, f32).dtype == f32 and op(f64, f64).dtype == f64
    for d, o in ((f32, f64), (f64, f32)):
        with pytest.raises(T.ShapeError, match=f"{case.split()[0]}: dtype mismatch"):
            op(d, o)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_gradient_never_overflows(dtype):
    # The logistic 1/(1 + exp(-x)) overflows in exp for x below about -88
    # (float32) or -709 (float64).
    fi = np.finfo(dtype)
    x = np.concatenate([np.linspace(-800, 800, 160_001), [-1e30, 1e30, -fi.max, fi.max]])
    x = Tensor(x.astype(dtype), requires_grad=True)
    with np.errstate(over="raise"):
        got = T.softplus(x)._vjp(np.ones(x.shape, dtype=dtype))[0]
    assert got.dtype == dtype
    with np.errstate(over="ignore"):
        e = np.exp(-x.data)
    fits = np.isfinite(e)
    assert not fits.all()
    np.testing.assert_allclose(got[fits], 1.0 / (1.0 + e[fits]), rtol=3 * fi.eps, atol=fi.tiny)
    assert np.all(got[~fits] < fi.tiny)
    assert np.all((got >= 0) & (got <= 1))


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


def gelu64(x):
    """Float64 GELU and its derivative from SciPy's erf."""
    x = np.asarray(x, dtype=np.float64)
    phi = 0.5 * (1.0 + erf(x * 0.7071067811865476))
    return x * phi, phi + x * (np.exp(-0.5 * x * x) * 0.3989422804014327)


def test_gelu_float64_is_scipy_bit_for_bit(rng):
    # Several chunks and a ragged tail: chunking changes no float64 bit.
    x = rng.standard_normal(2 * T._CHUNK + 1001) * 6
    x[:4] = [0.0, -0.0, 1e-310, -40.0]
    g = rng.standard_normal(x.shape)
    y = T.gelu(t64(x, grad=True))
    want, dwant = gelu64(x)
    assert y.data.tobytes() == want.tobytes()
    assert y._vjp(g)[0].tobytes() == (g * dwant).tobytes()


def test_gelu_float32_sweep_is_within_the_stated_spacing_bound():
    # The bound the gelu docstring states, measured over every float32 in
    # [-12, 12]; beyond it the output is x or +-0 exactly.
    x = np.linspace(-12, 12, 2**22 + 1, dtype=np.float32)
    got = T.gelu(Tensor(x)).data
    want, _ = gelu64(x)
    err = np.abs(got.astype(np.float64) - want) / np.spacing(np.abs(x))
    assert err.max() <= GELU_F32_SPACINGS
    assert not np.any(got * x < 0)


@pytest.mark.parametrize("big", [1e30, 3.4e38])
def test_gelu_float32_extremes(big):
    x = np.array([big, -big, 12.0, -12.0, -6.0, 6.0], dtype=np.float32)
    with np.errstate(over="raise", invalid="raise"):
        got = T.gelu(Tensor(x)).data
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got[[0, 2, 5]], x[[0, 2, 5]])
    np.testing.assert_array_equal(got[[1, 3, 4]], 0.0)


def test_gelu_float32_bits_do_not_depend_on_position(rng):
    x = (rng.standard_normal((3, 5, T._CHUNK // 4 + 77)) * 4).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    whole = T.gelu(Tensor(x, requires_grad=True))
    gwhole = whole._vjp(g)[0]
    flat, gflat = x.reshape(-1), g.reshape(-1)
    cuts = [0, 1, 1000, T._CHUNK - 3, 2 * T._CHUNK + 5, flat.size - 17, flat.size]
    for lo, hi in zip(cuts, cuts[1:]):
        part = T.gelu(Tensor(flat[lo:hi].copy(), requires_grad=True))
        np.testing.assert_array_equal(part.data, whole.data.reshape(-1)[lo:hi])
        np.testing.assert_array_equal(part._vjp(gflat[lo:hi].copy())[0], gwhole.reshape(-1)[lo:hi])
    for i in range(x.shape[0]):
        one = T.gelu(Tensor(x[i].copy(), requires_grad=True))
        np.testing.assert_array_equal(one.data, whole.data[i])
        np.testing.assert_array_equal(one._vjp(g[i].copy())[0], gwhole[i])


def test_gelu_float32_gradient_matches_float64():
    x = np.linspace(-12, 12, 2**22 + 1, dtype=np.float32)
    y = T.gelu(Tensor(x, requires_grad=True))
    got = y._vjp(np.ones_like(x))[0]
    _, want = gelu64(x)
    assert got.dtype == np.float32
    assert np.max(np.abs(got - want)) <= GELU_F32_GRAD_EPS * np.finfo(np.float32).eps


@pytest.mark.parametrize("dtype,big", [(np.float32, 3e38), (np.float64, 1e300)])
def test_gelu_gradient_never_overflows(dtype, big):
    x = np.array([big, -big, 1.0, -1.0], dtype=dtype)
    y = T.gelu(Tensor(x, requires_grad=True))
    with np.errstate(over="raise"):
        got = y._vjp(np.ones_like(x))[0]
    np.testing.assert_array_equal(got[:2], [1.0, 0.0])
    assert np.all(np.isfinite(got))


def gelu_vjp_unclamped(x, g):
    """The gelu vjp with exp(-x*x/2) formed from x itself, as before the clamp."""
    h, out, t, s = (np.empty_like(x) for _ in range(4))
    kernel = T._gelu_f32 if x.dtype == np.float32 else T._gelu_scipy
    kernel(x, h, out, t, s)
    phi = h + 0.5  # Phi as the rule forms it from the kept erf half
    d = x * -0.5
    d *= x
    np.exp(d, out=d)
    d *= T._INV_SQRT2PI
    d *= x
    d += phi
    return d * g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_gradient_clamp_changes_no_bit(rng, dtype):
    # In range, x*x does not overflow: below 1.8e19 (float32) and 1.3e154
    # (float64).  The sweep crosses the clamps at 15 and 40 and reaches
    # down into the subnormals, where x*x rounds differently from x*-0.5*x.
    tiny = np.finfo(dtype).smallest_subnormal
    mags = np.concatenate([np.linspace(0, 50, 2**18 + 1),
                           np.geomspace(tiny, 1e18, 2**16),
                           np.abs(rng.standard_normal(2**16)) * 8])
    x = np.concatenate([mags, -mags]).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    got = T.gelu(Tensor(x, requires_grad=True))._vjp(g)[0]
    with np.errstate(under="ignore"):
        want = gelu_vjp_unclamped(x, g)
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


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
    s._node._vjp = lambda g: calls.append(1) or orig(g)
    backward(T.sum_all(T.mul(s, s)))
    assert len(calls) == 1
    np.testing.assert_allclose(x.grad, 8 * x.data, atol=1e-12)


def oracle_backward(loss):
    """Reverse accumulation by ``backward``'s one rule: every sum a new array, acc + pg."""
    order = T._topo_order(loss)
    grads = {id(loss._node): np.ones((), dtype=loss.dtype)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        vjp = node._vjp
        if vjp is None:
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parents = node._parents
        node._vjp, node._parents = T._consumed, ()
        if g is None:
            continue
        for p, pg in zip(parents, vjp(g)):
            if p is not None and pg is not None:
                grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg


def _fan_in_graph(dtype):
    """A loss whose nodes sum shared, viewed and fresh gradients; x holds a caller's grad."""
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((4, 6)).astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 6)).astype(dtype), requires_grad=True)
    x.grad = np.full((4, 6), 0.5, dtype=dtype)
    held = x.grad
    h = T.scale(x, 1.5)
    twice = T.add(h, h)                                 # the same array to h twice
    viewed = T.reshape(T.reshape(h, (6, 4)), (4, 6))    # views of the gradient
    fresh = T.mul(T.add(twice, viewed), h)              # a fresh array to h
    res = T.add(T.matmul(fresh, w), x)                  # the residual's g to x and on
    mixed = T.concat(T.split(T.gelu(res), 2), axis=-1)
    weights = rng.standard_normal((4, 6)).astype(dtype)
    weights[0, :3] = -0.0
    loss = T.add(T.weighted_sum(mixed, weights), T.weighted_sum(T.scale(res, -0.0), weights))
    return loss, (x, w), held


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_sums_a_fan_in_with_the_oracles_bits(dtype):
    loss, leaves, held = _fan_in_graph(dtype)
    want_loss, want_leaves, _ = _fan_in_graph(dtype)
    backward(loss)
    oracle_backward(want_loss)
    for got, want in zip(leaves, want_leaves):
        assert got.grad.tobytes() == want.grad.tobytes()
    # The leaf's earlier gradient belongs to the caller: it is added to, not into.
    assert not np.shares_memory(leaves[0].grad, held)
    np.testing.assert_array_equal(held, np.full((4, 6), 0.5, dtype=dtype))


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("passed_on", [True, False])
def test_a_gradient_handed_to_two_operands_keeps_their_later_terms_apart(first, passed_on):
    # s = a + b hands one array to a and b; a, or the operand p that a's
    # rule passes that array on to, then gets a fresh term from q = p * b,
    # whose rule fires before b's, so the term must not reach b.
    grads = []
    for run in (backward, oracle_backward):
        x = t64(np.arange(6.0).reshape(2, 3), grad=True)
        p, b = T.scale(x, 2.0), T.scale(x, 3.0)
        a = T.add_scalar(p, 1.0) if passed_on else p
        s, q = T.add(a, b), T.mul(p, b)
        run(T.sum_all(T.add(s, q) if first else T.add(q, s)))
        grads.append(x.grad)
    np.testing.assert_array_equal(grads[0], 5.0 + 12.0 * x.data)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_a_scalar_node_sums_every_gradient_it_gets():
    # The sum of two 0-d gradients is a numpy scalar, which s's rule takes as its g.
    x = t64([1.0, 2.0], grad=True)
    s = T.weighted_sum(x, np.ones(2))
    backward(T.add(T.add(s, s), T.add(s, s)))
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_writes_into_no_array_a_rule_returned(dtype):
    # Every rule's results are copied as they are returned; backward sums
    # them into new arrays, so each still holds those bytes afterwards.
    # split's part rules are left out: they fill the one buffer the first
    # of them returned, which that rule keeps until its node passes it on.
    loss, (x, _), held = _fan_in_graph(dtype)
    returned = []
    for node in T._topo_order(loss):
        if node._vjp is not None and node.op != "split":
            def wrapped(g, rule=node._vjp):
                results = rule(g)
                returned.extend((r, r.copy()) for r in results if isinstance(r, np.ndarray))
                return results
            node._vjp = wrapped
    backward(loss)
    assert len(returned) > 10
    for array, copy in returned:
        assert array.tobytes() == copy.tobytes()
    np.testing.assert_array_equal(held, np.full((4, 6), 0.5, dtype=dtype))
    assert x.grad is not held


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["sgu", "lrpe_m", "lrpe", "glrpe", "ggqpe"])
def test_backward_of_a_micro_loss_has_the_bits_of_new_arrays(kind, dtype):
    grads = []
    for run in (backward, oracle_backward):
        m = M.build_model(M.variant_config("MICRO", gating_kind=kind),
                          rng=np.random.default_rng(0), dtype=dtype)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 32, 32, 3)), dtype=dtype)
        run(T.cross_entropy_mean(m.forward(x), np.array([0, 3])))
        grads.append([p.grad.tobytes() for p in m.parameters().values()])
    assert grads[0] == grads[1]


def test_composite_gradcheck(rng):
    """Analytic gradients of a composite of most ops vs central differences."""
    w = t64(rng.standard_normal((4, 4))[:, None], grad=True)  # one (N, 1, N) stack
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


def test_a_nan_difference_fails_both_gradchecks(rng):
    # The tape gradient comes from the first call; every perturbed call
    # returns NaN, which compares false against any tolerance.  Checked mode
    # would refuse the NaN before the check could see it.
    T.set_checked(False)
    w = t64(rng.standard_normal(3), grad=True)
    calls = []

    def fn():
        calls.append(1)
        if len(calls) > 1:
            return t64(np.nan)
        return T.sum_all(T.mul(w, w))

    res = gradcheck(fn, {"w": w})
    assert not res.ok and len(res.failures) == 3 and res.max_rel_err == math.inf
    calls.clear()
    res = gradcheck_directional(fn, {"w": w}, {"w": ["w"]})
    assert not res.ok and len(res.failures) == 1 and res.max_rel_err == math.inf


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
        h = T.conv2d(img, cw, cb, stride=2)              # (2, 2, 2, 3)
        h = T.reshape(h, (2, 4, 3))
        h = T.linear(h, w, bias)                         # (2, 4, 6)
        h = T.gelu(h)
        h = T.reshape(h, (2, 2, 2, 6))
        h = T.conv2d_depthwise(h, dw, db, stride=1)      # (2, 2, 2, 12)
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
        wi, xi = t64(w[:, i:i + 1].copy(), grad=True), t64(x[..., sl].copy(), grad=True)
        ref = T.mix_tokens(wi, xi)
        backward(T.weighted_sum(ref, g[..., sl].copy()))
        np.testing.assert_array_equal(out.data[..., sl], ref.data)
        np.testing.assert_array_equal(wt.grad[:, i:i + 1], wi.grad)
        np.testing.assert_array_equal(xt.grad[..., sl], xi.grad)


def gw_accumulated_from_zero(w, x, g):
    """The weight gradient as a zero-filled stack every window's product adds onto."""
    n, s = w.shape[:2]
    c = x.shape[2] // s
    gws = np.zeros_like(w)
    for i in range(s):
        sl = slice(i * c, (i + 1) * c)
        for b in range(x.shape[0]):
            gws[:, i] += g[b, :, sl] @ x[b, :, sl].T
    return gws


# (N, s, c, windows) of MICRO's stages at batch 32 and T's at batch 1
@pytest.mark.parametrize("n, s, c, b", [(64, 8, 4, 32), (16, 16, 4, 32), (4, 32, 4, 128),
                                        (1, 64, 4, 512), (196, 8, 24, 16), (196, 32, 24, 1),
                                        (49, 64, 12, 1)])
def test_mix_tokens_weight_gradient_matches_accumulation_from_zero(rng, n, s, c, b):
    # The first window's product is written in place instead of added to
    # zeros: the values are equal, only a -0.0 product now stays -0.0.
    w = Tensor(rng.random((n, s, n)).astype(np.float32), requires_grad=True)
    x = Tensor(rng.standard_normal((b, n, s * c)).astype(np.float32))
    g = rng.standard_normal((b, n, s * c)).astype(np.float32)
    gw, gx = T.mix_tokens(w, x)._vjp(g)
    assert gx is None
    np.testing.assert_array_equal(gw, gw_accumulated_from_zero(w.data, x.data, g))


def test_mix_tokens_writes_an_untaped_product_into_out(rng):
    # out may be a channel slice of a wider array; the product's bits are
    # the new array's, and nothing outside the slice is touched.
    w, x = t64(rng.random((9, 2, 9))), t64(rng.standard_normal((3, 9, 8)))
    whole = np.full((3, 9, 12), 7.0)
    got = T.mix_tokens(w, x, out=whole[..., 2:10])
    assert np.shares_memory(got.data, whole) and not got.requires_grad
    np.testing.assert_array_equal(whole[..., 2:10], T.mix_tokens(w, x).data)
    assert (whole[..., :2] == 7.0).all() and (whole[..., 10:] == 7.0).all()
    with pytest.raises(T.ShapeError):
        T.mix_tokens(w, x, out=whole)
    with pytest.raises(T.GradError):
        T.mix_tokens(t64(w.data, grad=True), x, out=whole[..., 2:10])


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
def test_softmax_over_permute_flat_matches_copy_chain(rng, dtype):
    # Oracle: the copying chain reshape (N^2, s) -> (N, N, s), transpose to
    # (N, s, N), then a plain softmax; the gradient goes back the same way.
    n, s = 9, 4
    flat = (rng.standard_normal((n * n, s)) * 30.0).astype(dtype)
    weights = rng.standard_normal((n, s, n)).astype(dtype)

    x = Tensor(flat, requires_grad=True)
    y = T.softmax_rows(T.permute_flat(x, (n, n, s), (0, 2, 1), (n, s, n)))
    backward(T.weighted_sum(y, weights))

    z = Tensor(np.ascontiguousarray(flat.reshape(n, n, s).transpose(0, 2, 1)),
               requires_grad=True)
    want = T.softmax_rows(z)
    backward(T.weighted_sum(want, weights))

    assert y.shape == (n, s, n) and y.data.flags.c_contiguous
    np.testing.assert_array_equal(y.data, want.data)
    np.testing.assert_array_equal(
        x.grad, np.ascontiguousarray(z.grad.transpose(0, 2, 1)).reshape(n * n, s))


def test_permute_flat_rejects_a_bad_permutation_or_shape():
    x = t64(np.zeros((4, 2)))
    with pytest.raises(T.ShapeError):
        T.permute_flat(x, (2, 2, 2), (0, 0, 1), (8,))
    with pytest.raises(T.ShapeError):
        T.permute_flat(x, (2, 2, 2), (0, 1), (8,))
    with pytest.raises(T.ShapeError):
        T.permute_flat(x, (3, 3), (1, 0), (9,))
    with pytest.raises(T.ShapeError, match="permute_flat"):
        T.permute_flat(x, (4, 2), (1, 0), (9,))  # out_shape the elements do not fill
    # axes=None would be a pure reshape, which is reshape's job.
    with pytest.raises(T.ShapeError, match="axes are required"):
        T.permute_flat(x, (2, 4), None, (8,))
    with pytest.raises(T.ShapeError, match=r"^permute_flat: axis .* got 1\.0$"):
        T.permute_flat(x, None, (1.0, 0), (2, 4))


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
    with pytest.raises(T.ShapeError, match="split"):
        T.split(t64(np.ones((2, 5))), 0)
    with pytest.raises(T.ShapeError, match=r"^split: parts must be an integer .* got 2\.0$"):
        T.split(t64(np.ones((2, 4))), 2.0)
    # An axis outside [-ndim, ndim) is refused, not wrapped onto another axis.
    with pytest.raises(T.ShapeError, match=r"^split: axis 5 "):
        T.split(t64(np.ones((2, 4, 6))), 2, axis=5)


@pytest.mark.parametrize("shapes, axis", [(((2, 3), (3, 3)), 1), (((2, 3), (2, 3, 1)), 1),
                                         (((2, 3), (2,)), 1), (((2, 3), (2, 3)), 5)])
def test_concat_rejects_parts_that_differ_off_axis(shapes, axis):
    with pytest.raises(T.ShapeError, match="concat"):
        T.concat([t64(np.ones(s)) for s in shapes], axis=axis)


def test_take_rejects_an_out_shape_its_indices_do_not_fill():
    with pytest.raises(T.ShapeError, match="take"):
        T.take(Tensor(np.ones(3)), [0, 1], (3,))


@pytest.mark.parametrize("idx", [[0, 5], [0, 3], [-1, 0], [0.5, 1]])
def test_take_rejects_an_index_outside_x(idx):
    with pytest.raises(T.ShapeError, match="take"):
        T.take(Tensor(np.ones(3)), idx, (2,))


def window_stack_indices(k, s):
    """The oracle's ``(N, s, N)`` flat indices of every pair's entry in an ``(s, (2k-1)^2)`` table."""
    offsets = (2 * k - 1) ** 2 * np.arange(s)
    return lrpe_index_map(displacement_grid(k))[:, None, :] + offsets[None, :, None]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("s", [1, 5, 32])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 14])
def test_window_stack_is_the_index_gather_and_its_gradient_the_indexed_sum(k, s, dtype):
    rng = np.random.default_rng(100 * k + s)
    values = rng.standard_normal((s, (2 * k - 1) ** 2)).astype(dtype)
    idx = window_stack_indices(k, s)
    out = T.window_stack(Tensor(values, requires_grad=True), k)
    assert out.dtype == dtype
    assert out.data.tobytes() == values.reshape(-1)[idx].tobytes()
    g = rng.standard_normal(out.shape).astype(dtype)
    # Displacement (k-1, k-1) has one pair, so its table entry sums -0.0
    # alone: +0.0 from a zero start, as np.add.at gives.
    g[0, :, -1] = -0.0
    want = np.zeros(values.size, dtype=dtype)
    np.add.at(want, idx.reshape(-1), g.reshape(-1))
    got = out._vjp(g)[0]
    assert got.shape == values.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, k", [((2, 8), 2), ((9,), 2), ((2, 9), 3), ((1, 1), 0),
                                      ((1, 9), 2.0)])
def test_window_stack_refuses_a_table_of_another_window(shape, k):
    with pytest.raises(T.ShapeError, match="^window_stack"):
        T.window_stack(t64(np.ones(shape)), k)


@pytest.mark.parametrize("labels, match", [([0, 3], "out of range"), ([0, -1], "out of range"),
                                           ([0.9, 1], "must be integers")])
def test_cross_entropy_refuses_a_label_that_is_no_class(labels, match):
    with pytest.raises(ValueError, match=f"^cross_entropy_mean: .*{match}"):
        T.cross_entropy_mean(t64(np.zeros((2, 3))), labels)


@pytest.mark.parametrize("call, match", [
    (lambda x: T.reshape(x, (2.5, 4.9)), r"^reshape: extent .* got 2\.5$"),
    (lambda x: T.take(x, [0, 1], (-2, -3)), r"^take: extent .* got -2$"),
    (lambda x: T.take(x, np.zeros(0, dtype=int), (0,)), r"^take: extent .* got 0$"),
    (lambda x: T.permute_flat(x, (3, 4), (1, 0), (-2, -3)), r"^permute_flat: extent .* got -2$"),
    (lambda x: T.permute_flat(x, (2.0, 6), (1, 0), (12,)), r"^permute_flat: extent .* got 2\.0$"),
    (lambda x: T.permute_flat(x, (3, 4), (1, 0), (2.0, 6)), r"^permute_flat: extent .* got 2\.0$"),
    (lambda x: T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)), groups=0),
     r"^layer_norm: groups .* got 0$"),
    (lambda x: T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)), groups=2.0),
     r"^layer_norm: groups .* got 2\.0$"),
])
def test_ops_refuse_a_size_or_count_that_is_no_integer(call, match):
    with pytest.raises(T.ShapeError, match=match):
        call(t64(np.ones((3, 4))))


def test_reshape_is_rowmajor_copy(rng):
    x = t64(rng.standard_normal((2, 6)))
    y = T.reshape(x, (3, 4))
    np.testing.assert_array_equal(y.data.reshape(-1), x.data.reshape(-1))
    assert T.reshape(x, (np.int64(3), np.int32(4))).shape == (3, 4)


def test_tensor_rejects_zero_extent():
    with pytest.raises(T.ShapeError):
        Tensor(np.zeros((0, 3)))


def test_checked_mode_rejects_nonfinite_input():
    bad = np.ones(3)
    bad[1] = np.inf
    with pytest.raises(FloatingPointError):
        T.add(Tensor(bad), Tensor(np.ones(3)))


def test_checked_mode_rejects_an_operand_made_nonfinite_in_place():
    # The result gathers only the finite half, so only a check of the
    # operand itself catches the NaN written after the tensor was constructed.
    x = Tensor(np.zeros(4))
    x.data[3] = np.nan
    with pytest.raises(FloatingPointError, match="take"):
        T.take(x, [0, 1], (2,))


def test_checked_mode_names_window_stack_for_a_nonfinite_table():
    x = Tensor(np.zeros((2, 9)))
    x.data[1, 4] = np.inf
    with pytest.raises(FloatingPointError, match="^window_stack"):
        T.window_stack(x, 2)


def test_grad_matches_shape(rng):
    x = t64(rng.standard_normal((2, 3)), grad=True)
    backward(T.sum_all(T.gelu(x)))
    assert x.grad.shape == x.data.shape


def test_default_dtype_is_float32():
    assert Tensor([1, 2, 3]).dtype == np.float32
    assert Tensor(np.array([1.0, 2.0])).dtype == np.float64  # preserved
    assert Tensor([1, 2], dtype=np.float64).dtype == np.float64
    assert Tensor(np.array([1.0, 2.0]), dtype=np.float32).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.int64, np.float16, bool])
def test_tensor_refuses_a_dtype_other_than_float32_or_float64(dtype):
    with pytest.raises(T.ShapeError, match=f"got {np.dtype(dtype)}$"):
        Tensor([1.0, 2.0], dtype=dtype)


# -- bitwise oracles: the formulas with full-size temporaries --------------------

# (N, s) of T's four stages at 224^2
T_STACK_SHAPES = [(196, 8), (196, 16), (196, 32), (49, 64)]


def softmax_with_scatter_cut(rows):
    """Rows below the cut set to -inf by a boolean scatter before the exponential."""
    fi = np.finfo(rows.dtype)
    y = rows - rows.max(axis=-1, keepdims=True)
    y[y < -np.log(fi.eps / fi.tiny)] = -np.inf
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, s", T_STACK_SHAPES)
def test_softmax_cut_by_arithmetic_select_matches_the_scatter(rng, dtype, n, s):
    # Logits spread over several cut widths, so every row straddles the cut;
    # each row's maximum is 0 and two entries lie one spacing either side of it.
    fi = np.finfo(dtype)
    cut = dtype(np.log(fi.eps / fi.tiny))
    flat = (rng.standard_normal((s, n * n)) * cut).astype(dtype)
    rows = flat.reshape(s, n, n)
    rows -= rows.max(axis=-1, keepdims=True)
    rows[:, :, 1] = -np.nextafter(cut, dtype(0))
    rows[:, :, 2] = -np.nextafter(cut, dtype(np.inf))
    got = T.softmax_rows(T.permute_flat(Tensor(flat), (s, n, n), (1, 0, 2), (n, s, n))).data
    want = softmax_with_scatter_cut(np.ascontiguousarray(rows.transpose(1, 0, 2)))
    assert 0.0 < np.mean(want == 0.0) < 1.0
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def linear_with_temporaries(x, w, b, g):
    """Output and gradients of a 3-D linear one leading index at a time."""
    out = np.empty(x.shape[:2] + (w.shape[1],), dtype=x.dtype)
    for i in range(x.shape[0]):
        out[i] = x[i] @ w
    out = out + b
    gx = np.empty_like(x)
    gw = np.zeros_like(w)
    for i in range(x.shape[0]):
        gx[i] = g[i] @ w.T
        gw += x[i].T @ g[i]
    return out, gx, gw, g.sum(axis=(0, 1))


# (windows, N, d_in, d_out) of T's projections at 224^2
T_LINEAR_SHAPES = [(16, 196, 96, 384), (16, 196, 192, 96), (4, 196, 192, 768),
                   (1, 196, 384, 1536), (1, 196, 768, 384), (1, 49, 768, 1536)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, n, din, dout", T_LINEAR_SHAPES)
def test_linear_matches_the_formula_with_temporaries(rng, dtype, b, n, din, dout):
    x = rng.standard_normal((b, n, din)).astype(dtype)
    w = (rng.standard_normal((din, dout)) * 0.02).astype(dtype)
    bias = rng.standard_normal(dout).astype(dtype)
    g = rng.standard_normal((b, n, dout)).astype(dtype)
    out = T.linear(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                   Tensor(bias, requires_grad=True))
    got = (out.data,) + tuple(out._vjp(g))
    for a, want in zip(got, linear_with_temporaries(x, w, bias, g)):
        np.testing.assert_array_equal(a.view(np.uint8), want.view(np.uint8))


def layer_norm_with_temporaries(x, gain, shift, g, eps=1e-5, groups=1):
    """Output and gradients of layer_norm with the input centred twice."""
    xg = x.reshape(x.shape[:-1] + (groups, x.shape[-1] // groups))
    mean = xg.mean(axis=-1, keepdims=True)
    var = ((xg - mean) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xg - mean) * inv
    out = xhat.reshape(x.shape) * gain + shift
    red = tuple(range(g.ndim - 1))
    gx_hat = (g * gain).reshape(xhat.shape)
    m1 = gx_hat.mean(axis=-1, keepdims=True)
    m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (gx_hat - m1 - xhat * m2)
    return out, gx.reshape(x.shape), (g * xhat.reshape(x.shape)).sum(axis=red), g.sum(axis=red)


# (windows, N, d, groups): T's block norms at 224^2, and a grouped pre-norm
T_NORM_SHAPES = [(16, 196, 96, 1), (4, 196, 192, 1), (1, 196, 384, 1), (1, 49, 768, 1),
                 (1, 196, 768, 32)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, n, d, groups", T_NORM_SHAPES)
def test_layer_norm_matches_the_formula_with_temporaries(rng, dtype, b, n, d, groups):
    x = (rng.standard_normal((b, n, d)) * 3.0 + 1.0).astype(dtype)
    gain = (rng.standard_normal(d) * 0.1 + 1.0).astype(dtype)
    shift = (rng.standard_normal(d) * 0.1).astype(dtype)
    g = rng.standard_normal((b, n, d)).astype(dtype)
    out = T.layer_norm(Tensor(x, requires_grad=True), Tensor(gain, requires_grad=True),
                       Tensor(shift, requires_grad=True), groups=groups)
    got = (out.data,) + tuple(out._vjp(g))
    for a, want in zip(got, layer_norm_with_temporaries(x, gain, shift, g, groups=groups)):
        assert a.dtype == want.dtype == dtype
        np.testing.assert_array_equal(a.view(np.uint8), want.view(np.uint8))
