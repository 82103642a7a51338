import numpy as np
import pytest

from posmlp import positional as P
from posmlp import tensor as T
from posmlp.gradcheck import gradcheck
from posmlp.tensor import Tensor, backward


def gaussian_logits_oracle(grid, delta, prec):
    """Explicit quadratic logits -0.5 (d - delta)^T P (d - delta) per pair."""
    n = grid.n_tokens
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = np.array([grid.dx[i, j], grid.dy[i, j]], dtype=np.float64) - delta
            out[i, j] = -0.5 * d @ prec @ d
    return out


def softmax_oracle(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def make_gramian(rng, frozen=False):
    g = P.GqpeGroupParams(P.CovarianceForm.GAMMA_GRAMIAN, delta_frozen=frozen,
                          rng=rng, dtype=np.float64)
    return g


# -- displacement grid ---------------------------------------------------------

def test_grid_k1_single_zero_entry():
    g = P.displacement_grid(1)
    assert g.n_tokens == 1
    assert g.dx[0, 0] == 0 and g.dy[0, 0] == 0


def test_grid_k2_corner_to_corner():
    g = P.displacement_grid(2)
    # raster order: token 0 = (0,0), token 3 = (1,1)
    assert (g.dx[0, 3], g.dy[0, 3]) == (1, 1)
    assert (g.dx[3, 0], g.dy[3, 0]) == (-1, -1)


def test_grid_k14_exhaustive_properties():
    k = 14
    g = P.displacement_grid(k)
    assert np.array_equal(g.dx, -g.dx.T) and np.array_equal(g.dy, -g.dy.T)
    assert np.all(np.diag(g.dx) == 0) and np.all(np.diag(g.dy) == 0)
    assert g.dx.min() >= -k + 1 and g.dx.max() <= k - 1
    assert g.dy.min() >= -k + 1 and g.dy.max() <= k - 1
    distinct = {(int(a), int(b)) for a, b in zip(g.dx.ravel(), g.dy.ravel())}
    assert len(distinct) == (2 * k - 1) ** 2 == 729


def test_grid_rejects_k0():
    with pytest.raises(ValueError):
        P.DisplacementGrid(0)


def test_index_map_is_bijection():
    for k in (1, 2, 3, 7):
        g = P.displacement_grid(k)
        idx = P.lrpe_index_map(g)
        n_entries = (2 * k - 1) ** 2
        assert idx.min() >= 0 and idx.max() < n_entries
        # every displacement keys exactly one slot
        seen = {}
        for i in range(g.n_tokens):
            for j in range(g.n_tokens):
                key = (g.dx[i, j], g.dy[i, j])
                slot = idx[i, j]
                assert seen.setdefault(key, slot) == slot
        assert len(set(seen.values())) == len(seen)


# -- lrpe -----------------------------------------------------------------------

def test_lrpe_zero_table_gives_zero_matrix():
    g = P.displacement_grid(3)
    tab = P.LrpeTable(3, 1, dtype=np.float64)
    tab.values.data[:] = 0.0
    w = P.lrpe_weight_matrix(tab, g)
    np.testing.assert_array_equal(w.data, np.zeros((9, 9)))


def test_lrpe_onehot_center_is_scaled_identity():
    k = 3
    g = P.displacement_grid(k)
    tab = P.LrpeTable(k, 1, dtype=np.float64)
    tab.values.data[:] = 0.0
    center = (0 + k - 1) * (2 * k - 1) + (0 + k - 1)
    tab.values.data[0, center] = 3.0
    w = P.lrpe_weight_matrix(tab, g)
    np.testing.assert_array_equal(w.data, 3.0 * np.eye(9))


def test_lrpe_equal_displacements_equal_entries(rng):
    k = 3
    g = P.displacement_grid(k)
    tab = P.LrpeTable(k, 1, rng=rng, dtype=np.float64)
    w = P.lrpe_weight_matrix(tab, g).data
    for i in range(9):
        for j in range(9):
            for a in range(9):
                for b in range(9):
                    if g.dx[i, j] == g.dx[a, b] and g.dy[i, j] == g.dy[a, b]:
                        assert w[i, j] == w[a, b]


def test_lrpe_group_out_of_range(rng):
    tab = P.LrpeTable(3, 2, rng=rng)
    with pytest.raises(IndexError):
        P.lrpe_weight_matrix(tab, P.displacement_grid(3), group=2)


def test_lrpe_window_mismatch(rng):
    tab = P.LrpeTable(3, 1, rng=rng)
    with pytest.raises(ValueError):
        P.lrpe_weight_matrix(tab, P.displacement_grid(4))


# -- gqpe embedding and vector ---------------------------------------------------

def test_embedding_rows():
    g = P.displacement_grid(4)
    emb = P.gqpe_embedding(g)
    flat = emb.flat
    idx0 = np.flatnonzero((g.dx.ravel() == 0) & (g.dy.ravel() == 0))[0]
    np.testing.assert_array_equal(flat[idx0], [0, 0, 0, 0, 0])
    idx12 = np.flatnonzero((g.dx.ravel() == 1) & (g.dy.ravel() == 2))[0]
    np.testing.assert_array_equal(flat[idx12], [1, 2, 1, 4, 2])
    idxm31 = np.flatnonzero((g.dx.ravel() == -3) & (g.dy.ravel() == 1))[0]
    np.testing.assert_array_equal(flat[idxm31], [-3, 1, 9, 1, -3])


def test_vector_identity_precision_zero_delta():
    g = P.GqpeGroupParams(P.CovarianceForm.GAMMA_GRAMIAN, delta_frozen=True,
                          dtype=np.float64)
    g.gamma.data[:] = np.eye(2)
    v = P.gqpe_vector(g).data
    eps = P.PRECISION_EPS
    np.testing.assert_allclose(v, [0, 0, -0.5 * (1 + eps), -0.5 * (1 + eps), 0],
                               atol=1e-12)


def test_vector_unit_shift():
    g = P.GqpeGroupParams(P.CovarianceForm.GAMMA_GRAMIAN, dtype=np.float64)
    g.gamma.data[:] = np.eye(2)
    g.delta.data[:] = [1.0, 0.0]
    v = P.gqpe_vector(g).data
    eps = P.PRECISION_EPS
    np.testing.assert_allclose(
        v, [1 + eps, 0, -0.5 * (1 + eps), -0.5 * (1 + eps), 0], atol=1e-12)


def test_vector_dot_equals_quadratic_up_to_constant(rng):
    """v . r_d differs from the explicit quadratic by exactly 0.5 d^T P d."""
    k = 5
    grid = P.displacement_grid(k)
    emb = P.gqpe_embedding(grid)
    for _ in range(10):
        g = make_gramian(rng)
        v = P.gqpe_vector(g).data
        prec = g.effective_precision_numpy()
        delta = g.delta.data.astype(np.float64)
        offset = 0.5 * delta @ prec @ delta
        dots = emb.flat @ v
        quad = gaussian_logits_oracle(grid, delta, prec).reshape(-1)
        np.testing.assert_allclose(dots - quad, offset, atol=1e-10)


# -- gqpe weight matrices ---------------------------------------------------------

def alpha_params(alpha, dtype=np.float64):
    g = P.GqpeGroupParams(P.CovarianceForm.ALPHA_I, delta_frozen=True, dtype=dtype)
    g.alpha_raw.data[:] = np.log(np.expm1(alpha - P.PRECISION_EPS))
    return g


def test_sharp_isotropic_concentrates_on_query():
    k = 7
    w = P.gqpe_weight_matrix(alpha_params(50.0), P.gqpe_embedding(P.displacement_grid(k)))
    diag = np.diag(w.data)
    assert (diag > 0.99).all()


def test_flat_precision_limit_is_uniform():
    k = 7
    g = P.GqpeGroupParams(P.CovarianceForm.ALPHA_I, delta_frozen=True, dtype=np.float64)
    g.alpha_raw.data[:] = -40.0  # softplus -> 0, precision -> eps
    w = P.gqpe_weight_matrix(g, P.gqpe_embedding(P.displacement_grid(k)))
    np.testing.assert_allclose(w.data, np.full((49, 49), 1 / 49), atol=1e-3)


@pytest.mark.parametrize("k", [3, 7])
def test_softmax_equivalence_oracle(rng, k):
    grid = P.displacement_grid(k)
    emb = P.gqpe_embedding(grid)
    for _ in range(20):
        g = make_gramian(rng)
        got = P.gqpe_weight_matrix(g, emb).data
        want = softmax_oracle(
            gaussian_logits_oracle(grid, g.delta.data, g.effective_precision_numpy()))
        assert np.max(np.abs(got - want)) < 1e-9


def test_raw_form_quadratic_part_uses_mirrored_upper_entry(rng):
    # the quadratic logit entries consume (0,0), (1,1), (0,1) of the raw
    # factor; with a frozen center the (1,0) entry is ignored entirely
    grid = P.displacement_grid(4)
    emb = P.gqpe_embedding(grid)
    g = P.GqpeGroupParams(P.CovarianceForm.GAMMA_RAW, delta_frozen=True,
                          rng=rng, dtype=np.float64)
    g.gamma.data[:] = [[1.5, 0.7], [-2.0, 0.9]]  # deliberately asymmetric
    got = P.gqpe_weight_matrix(g, emb).data
    want = softmax_oracle(
        gaussian_logits_oracle(grid, np.zeros(2), g.effective_precision_numpy()))
    assert np.max(np.abs(got - want)) < 1e-9
    eff = g.effective_precision_numpy()
    assert eff[1, 0] == eff[0, 1] == 0.7


def test_raw_form_linear_term_follows_full_matrix(rng):
    # with a learnable center the linear logit term is the verbatim P @ delta,
    # so an asymmetric raw factor does not reduce to one symmetric Gaussian
    g = P.GqpeGroupParams(P.CovarianceForm.GAMMA_RAW, rng=rng, dtype=np.float64)
    g.gamma.data[:] = [[1.5, 0.7], [-2.0, 0.9]]
    g.delta.data[:] = [1.0, -0.5]
    v = P.gqpe_vector(g).data
    pd = g.gamma.data @ g.delta.data
    np.testing.assert_allclose(v[:2], pd, atol=1e-12)
    assert v[1] != pytest.approx(g.effective_precision_numpy()[1] @ g.delta.data)


def test_row_shift_invariance(rng):
    k = 4
    grid = P.displacement_grid(k)
    emb = P.gqpe_embedding(grid)
    g = make_gramian(rng)
    logits = P.gqpe_logits(g, emb).data
    base = softmax_oracle(logits)
    shifted = logits.copy()
    shifted[3] += 17.25
    assert np.max(np.abs(softmax_oracle(shifted) - base)) < 1e-9


def test_logits_toeplitz_by_displacement(rng):
    k = 3
    grid = P.displacement_grid(k)
    emb = P.gqpe_embedding(grid)
    g = make_gramian(rng)
    logits = P.gqpe_logits(g, emb).data
    for i in range(9):
        for j in range(9):
            for a in range(9):
                for b in range(9):
                    if g_eq(grid, i, j, a, b):
                        assert logits[i, j] == logits[a, b]


def g_eq(grid, i, j, a, b):
    return grid.dx[i, j] == grid.dx[a, b] and grid.dy[i, j] == grid.dy[a, b]


def test_argmax_at_on_grid_delta(rng):
    k = 7
    grid = P.displacement_grid(k)
    emb = P.gqpe_embedding(grid)
    for dx, dy in [(0, 0), (1, 1), (-2, 0), (2, -1)]:
        g = make_gramian(rng)
        g.delta.data[:] = [dx, dy]
        w = P.gqpe_weight_matrix(g, emb).data
        for i in range(grid.n_tokens):
            xi, yi = divmod(i, k)
            xj, yj = xi + dx, yi + dy
            if 0 <= xj < k and 0 <= yj < k:
                assert w[i].argmax() == xj * k + yj


def test_group_stack_degenerate_and_shared(rng):
    grid = P.displacement_grid(3)
    emb = P.gqpe_embedding(grid)
    g = make_gramian(rng)
    single = P.gqpe_weight_matrix(g, emb).data
    stack = P.group_weight_stack([g], emb)
    assert len(stack) == 1 and stack.weights.shape == (9, 1, 9)
    np.testing.assert_array_equal(stack.matrix(0), single)
    two = P.group_weight_stack([g, g], emb)
    assert len(two) == 2 and two.weights.shape == (9, 2, 9)
    np.testing.assert_array_equal(two.matrix(0), two.matrix(1))


def test_group_stack_row_stochastic_large(rng):
    grid = P.displacement_grid(14)
    emb = P.gqpe_embedding(grid)
    groups = [make_gramian(rng) for _ in range(8)]
    stack = P.group_weight_stack(groups, emb)
    assert len(stack) == 8
    for g in range(len(stack)):
        np.testing.assert_allclose(stack.matrix(g).sum(axis=1), np.ones(196), atol=1e-6)


def test_group_stack_entries_match_single_group(rng):
    # the stacked product and softmax give each group its own matrix
    grid = P.displacement_grid(4)
    emb = P.gqpe_embedding(grid)
    groups = [make_gramian(rng) for _ in range(5)]
    stack = P.group_weight_stack(groups, emb)
    for g, params in enumerate(groups):
        want = softmax_oracle(P.gqpe_logits(params, emb).data)
        np.testing.assert_allclose(stack.matrix(g), want, rtol=0, atol=1e-15)


def test_float32_stack_has_no_subnormal_weights():
    # a T-sized stage-3 stack at init: the sharp prior underflows some
    # weights, which come out as exact zeros rather than subnormals
    rng = np.random.default_rng(0)
    emb = P.gqpe_embedding(P.displacement_grid(14))
    groups = [P.GqpeGroupParams(rng=rng, dtype=np.float32) for _ in range(32)]
    w = P.group_weight_stack(groups, emb).weights.data
    assert w.dtype == np.float32 and w.shape == (196, 32, 196)
    fi = np.finfo(np.float32)
    assert not np.any((w != 0) & (np.abs(w) < fi.tiny / (fi.eps * 196)))
    assert np.any(w == 0)
    np.testing.assert_allclose(w.sum(axis=-1, dtype=np.float64), 1.0, rtol=0, atol=1e-6)


@pytest.mark.parametrize("k, s, c", [(14, 8, 192), (14, 16, 384), (14, 32, 768), (7, 64, 768)])
def test_cut_stack_mixes_like_the_tiny_flush_oracle(k, s, c):
    # T's stage shapes: the weights cut below tiny/eps of the row maximum
    # change no mixed value, though they are a few percent of the stack
    rng = np.random.default_rng(0)
    n = k * k
    emb = P.gqpe_embedding(P.displacement_grid(k))
    groups = [P.GqpeGroupParams(rng=rng, dtype=np.float32) for _ in range(s)]
    w = P.group_weight_stack(groups, emb).weights
    logits = np.ascontiguousarray(
        P._feature_logits(groups, emb).data.reshape(n, n, s).transpose(0, 2, 1))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    oracle = e / e.sum(axis=-1, keepdims=True)
    oracle[oracle < np.finfo(np.float32).tiny] = 0.0
    kept = w.data != 0
    np.testing.assert_array_equal(w.data[kept], oracle[kept])
    if k == 14:  # the 7x7 windows hold no logit that far below its row's maximum
        assert np.any(oracle[~kept] != 0)
    x = Tensor(rng.standard_normal((2, n, c)).astype(np.float32))
    np.testing.assert_array_equal(T.mix_tokens(w, x).data, T.mix_tokens(Tensor(oracle), x).data)


def test_group_stack_rejects_empty():
    with pytest.raises(ValueError):
        P.group_weight_stack([], P.gqpe_embedding(P.displacement_grid(2)))


# -- gradients -------------------------------------------------------------------

@pytest.mark.parametrize("form,frozen", [
    (P.CovarianceForm.GAMMA_GRAMIAN, False),
    (P.CovarianceForm.GAMMA_GRAMIAN, True),
    (P.CovarianceForm.GAMMA_RAW, False),
    (P.CovarianceForm.GAMMA_RAW, True),
    (P.CovarianceForm.ALPHA_I, True),
])
def test_weight_matrix_gradcheck(rng, form, frozen):
    grid = P.displacement_grid(3)
    emb = P.gqpe_embedding(grid)
    g = P.GqpeGroupParams(form, delta_frozen=frozen, rng=rng, dtype=np.float64)
    weights = rng.standard_normal((9, 9))

    def fn():
        return T.weighted_sum(P.gqpe_weight_matrix(g, emb), weights)

    res = gradcheck(fn, g.parameters())
    assert res.ok, res.failures
    assert res.max_rel_err < 1e-4


def test_frozen_delta_receives_no_gradient(rng):
    grid = P.displacement_grid(3)
    emb = P.gqpe_embedding(grid)
    g = P.GqpeGroupParams(P.CovarianceForm.GAMMA_GRAMIAN, delta_frozen=True,
                          rng=rng, dtype=np.float64)
    loss = T.sum_all(T.mul(P.gqpe_weight_matrix(g, emb),
                           Tensor(rng.standard_normal((9, 9)))))
    backward(loss)
    assert g.delta.grad is None
    np.testing.assert_array_equal(g.delta.data, np.zeros(2))
    assert g.gamma.grad is not None


def test_alpha_i_requires_frozen_delta():
    with pytest.raises(ValueError):
        P.GqpeGroupParams(P.CovarianceForm.ALPHA_I, delta_frozen=False)


def test_lrpe_table_gradcheck(rng):
    grid = P.displacement_grid(3)
    tab = P.LrpeTable(3, 2, rng=rng, dtype=np.float64)
    weights = rng.standard_normal((9, 9))

    def fn():
        w0 = P.lrpe_weight_matrix(tab, grid, 0)
        w1 = P.lrpe_weight_matrix(tab, grid, 1)
        return T.weighted_sum(T.mul(w0, w1), weights)

    res = gradcheck(fn, {"values": tab.values})
    assert res.ok, res.failures
