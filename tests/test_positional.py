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


def make_gramian(rng, frozen=False, groups=1):
    return P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, delta_frozen=frozen, groups=groups,
                        rng=rng, dtype=np.float64)


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


def test_grid_and_embedding_caches_are_bounded():
    assert P.displacement_grid.cache_info().maxsize is not None


def test_grid_rejects_k0():
    with pytest.raises(ValueError):
        P.DisplacementGrid(0)


@pytest.mark.parametrize("make, field, value", [
    (lambda: P.displacement_grid(2.5), "window_side", "2.5"),
    (lambda: P.DisplacementGrid(True), "window_side", "True"),
    (lambda: P.LrpeTable(3, 1.5), "group_count", "1.5"),
    (lambda: P.LrpeTable(2.0), "window_side", "2.0"),
    (lambda: P.GqpeParams(groups=2.7), "groups", "2.7"),
    (lambda: P.GqpeParams(groups=0), "groups", "0"),
])
def test_generators_refuse_a_size_that_is_no_positive_integer(make, field, value):
    # Nothing is truncated: a fractional side or count never builds a smaller generator.
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 1, got {value}$"):
        make()


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


# -- initialisation -------------------------------------------------------------

def trunc_normal_full_rescan(rng, shape, std, dtype):
    """The resampling loop that rescans the whole array after every redraw."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out.astype(dtype)


@pytest.mark.parametrize("shape", [(1,), (7, 3), (96, 384), (3, 3, 48, 96), (2, 2, 2, 2, 2)])
@pytest.mark.parametrize("std", [0.02, 0.1, 1.0])
def test_trunc_normal_matches_the_full_rescan_loop(shape, std):
    for seed in range(3):
        for dtype in (np.float32, np.float64):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = P.trunc_normal(got_rng, shape, std, dtype)
            want = trunc_normal_full_rescan(want_rng, shape, std, dtype)
            assert got.dtype == dtype and got.shape == shape
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
            assert np.all(np.abs(got) <= 2 * std)
            # the same draws were consumed, so the generators agree afterwards
            assert got_rng.normal() == want_rng.normal()


def test_zero_draws_give_zeros_without_drawing(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    got = P.trunc_normal(P.ZeroDraws(), (4, 5), 0.02, np.float32)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, np.zeros((4, 5)))
    g = P.GqpeParams(groups=3, rng=P.ZeroDraws(), dtype=np.float64)
    np.testing.assert_array_equal(g.delta.data, np.zeros((3, 2)))
    np.testing.assert_array_equal(g.gamma.data, [np.eye(2)] * 3)


# -- lrpe -----------------------------------------------------------------------

def test_lrpe_zero_table_gives_zero_matrix():
    g = P.displacement_grid(3)
    tab = P.LrpeTable(3, 1, dtype=np.float64)
    tab.values.data[:] = 0.0
    w = P.lrpe_weight_matrix(tab)
    np.testing.assert_array_equal(w.data, np.zeros((9, 9)))


def test_lrpe_onehot_center_is_scaled_identity():
    k = 3
    g = P.displacement_grid(k)
    tab = P.LrpeTable(k, 1, dtype=np.float64)
    tab.values.data[:] = 0.0
    center = (0 + k - 1) * (2 * k - 1) + (0 + k - 1)
    tab.values.data[0, center] = 3.0
    w = P.lrpe_weight_matrix(tab)
    np.testing.assert_array_equal(w.data, 3.0 * np.eye(9))


def test_lrpe_weight_matrix_refuses_a_table_of_more_groups():
    with pytest.raises(T.ShapeError, match="^lrpe_weight_matrix: .* one group, got 2$"):
        P.lrpe_weight_matrix(P.LrpeTable(3, 2, dtype=np.float64))


def test_lrpe_equal_displacements_equal_entries(rng):
    k = 3
    g = P.displacement_grid(k)
    tab = P.LrpeTable(k, 1, rng=rng, dtype=np.float64)
    w = P.lrpe_weight_matrix(tab).data
    for i in range(9):
        for j in range(9):
            for a in range(9):
                for b in range(9):
                    if g.dx[i, j] == g.dx[a, b] and g.dy[i, j] == g.dy[a, b]:
                        assert w[i, j] == w[a, b]


# -- gqpe embedding and vector ---------------------------------------------------

def test_embedding_rows():
    g = P.displacement_grid(4)
    flat = g.features(np.float64).data.T
    idx0 = np.flatnonzero((g.dx.ravel() == 0) & (g.dy.ravel() == 0))[0]
    np.testing.assert_array_equal(flat[idx0], [0, 0, 0, 0, 0])
    idx12 = np.flatnonzero((g.dx.ravel() == 1) & (g.dy.ravel() == 2))[0]
    np.testing.assert_array_equal(flat[idx12], [1, 2, 1, 4, 2])
    idxm31 = np.flatnonzero((g.dx.ravel() == -3) & (g.dy.ravel() == 1))[0]
    np.testing.assert_array_equal(flat[idxm31], [-3, 1, 9, 1, -3])


def test_vector_identity_precision_zero_delta():
    g = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, delta_frozen=True, dtype=np.float64)
    g.gamma.data[:] = np.eye(2)
    v = P.gqpe_vectors(g).data[0]
    eps = P.PRECISION_EPS
    np.testing.assert_allclose(v, [0, 0, -0.5 * (1 + eps), -0.5 * (1 + eps), 0],
                               atol=1e-12)


def test_vector_unit_shift():
    g = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, dtype=np.float64)
    g.gamma.data[:] = np.eye(2)
    g.delta.data[:] = [1.0, 0.0]
    v = P.gqpe_vectors(g).data[0]
    eps = P.PRECISION_EPS
    np.testing.assert_allclose(
        v, [1 + eps, 0, -0.5 * (1 + eps), -0.5 * (1 + eps), 0], atol=1e-12)


def test_vector_dot_equals_quadratic_up_to_constant(rng):
    """v . r_d differs from the explicit quadratic by exactly 0.5 d^T P d."""
    k = 5
    grid = P.displacement_grid(k)
    for _ in range(10):
        g = make_gramian(rng)
        v = P.gqpe_vectors(g).data[0]
        prec = g.effective_precision_numpy()[0]
        delta = g.delta.data[0].astype(np.float64)
        offset = 0.5 * delta @ prec @ delta
        dots = grid.features(np.float64).data.T @ v
        quad = gaussian_logits_oracle(grid, delta, prec).reshape(-1)
        np.testing.assert_allclose(dots - quad, offset, atol=1e-10)


# -- gqpe weight matrices ---------------------------------------------------------

def alpha_params(alpha, dtype=np.float64):
    g = P.GqpeParams(P.CovarianceForm.ALPHA_I, delta_frozen=True, dtype=dtype)
    g.alpha_raw.data[:] = np.log(np.expm1(alpha - P.PRECISION_EPS))
    return g


def test_sharp_isotropic_concentrates_on_query():
    k = 7
    w = P.group_weight_stack(alpha_params(50.0), P.displacement_grid(k)).matrix(0)
    diag = np.diag(w)
    assert (diag > 0.99).all()


def test_flat_precision_limit_is_uniform():
    k = 7
    g = P.GqpeParams(P.CovarianceForm.ALPHA_I, delta_frozen=True, dtype=np.float64)
    g.alpha_raw.data[:] = -40.0  # softplus -> 0, precision -> eps
    w = P.group_weight_stack(g, P.displacement_grid(k)).matrix(0)
    np.testing.assert_allclose(w, np.full((49, 49), 1 / 49), atol=1e-3)


@pytest.mark.parametrize("k", [3, 7])
def test_softmax_equivalence_oracle(rng, k):
    grid = P.displacement_grid(k)
    for _ in range(20):
        g = make_gramian(rng)
        got = P.group_weight_stack(g, grid).matrix(0)
        want = softmax_oracle(
            gaussian_logits_oracle(grid, g.delta.data[0], g.effective_precision_numpy()[0]))
        assert np.max(np.abs(got - want)) < 1e-9


def test_raw_form_quadratic_part_uses_mirrored_upper_entry(rng):
    # the quadratic logit entries consume (0,0), (1,1), (0,1) of the raw
    # factor; with a frozen center the (1,0) entry is ignored entirely
    grid = P.displacement_grid(4)
    g = P.GqpeParams(P.CovarianceForm.GAMMA_RAW, delta_frozen=True, rng=rng, dtype=np.float64)
    g.gamma.data[:] = [[1.5, 0.7], [-2.0, 0.9]]  # deliberately asymmetric
    got = P.group_weight_stack(g, grid).matrix(0)
    want = softmax_oracle(
        gaussian_logits_oracle(grid, np.zeros(2), g.effective_precision_numpy()[0]))
    assert np.max(np.abs(got - want)) < 1e-9
    eff = g.effective_precision_numpy()[0]
    assert eff[1, 0] == eff[0, 1] == 0.7


def test_raw_form_linear_term_follows_full_matrix(rng):
    # with a learnable center the linear logit term is the verbatim P @ delta,
    # so an asymmetric raw factor does not reduce to one symmetric Gaussian
    g = P.GqpeParams(P.CovarianceForm.GAMMA_RAW, rng=rng, dtype=np.float64)
    g.gamma.data[:] = [[1.5, 0.7], [-2.0, 0.9]]
    g.delta.data[:] = [1.0, -0.5]
    v = P.gqpe_vectors(g).data[0]
    pd = g.gamma.data[0] @ g.delta.data[0]
    np.testing.assert_allclose(v[:2], pd, atol=1e-12)
    assert v[1] != pytest.approx(g.effective_precision_numpy()[0, 1] @ g.delta.data[0])


def test_row_shift_invariance(rng):
    k = 4
    grid = P.displacement_grid(k)
    g = make_gramian(rng)
    logits = P.gqpe_logits(g, grid).data[0].reshape(16, 16)
    base = softmax_oracle(logits)
    shifted = logits.copy()
    shifted[3] += 17.25
    assert np.max(np.abs(softmax_oracle(shifted) - base)) < 1e-9


def test_logits_toeplitz_by_displacement(rng):
    k = 3
    grid = P.displacement_grid(k)
    g = make_gramian(rng)
    logits = P.gqpe_logits(g, grid).data[0].reshape(9, 9)
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
    for dx, dy in [(0, 0), (1, 1), (-2, 0), (2, -1)]:
        g = make_gramian(rng)
        g.delta.data[:] = [dx, dy]
        w = P.group_weight_stack(g, grid).matrix(0)
        for i in range(grid.n_tokens):
            xi, yi = divmod(i, k)
            xj, yj = xi + dx, yi + dy
            if 0 <= xj < k and 0 <= yj < k:
                assert w[i].argmax() == xj * k + yj


def test_group_stack_degenerate_and_shared(rng):
    grid = P.displacement_grid(3)
    g = make_gramian(rng)
    single = P.group_weight_stack(g, grid).matrix(0)
    stack = P.group_weight_stack(g, grid)
    assert len(stack) == 1 and stack.weights.shape == (9, 1, 9)
    np.testing.assert_array_equal(stack.matrix(0), single)
    g2 = make_gramian(rng, groups=2)
    g2.delta.data[:] = g.delta.data
    g2.gamma.data[:] = g.gamma.data
    two = P.group_weight_stack(g2, grid)
    assert len(two) == 2 and two.weights.shape == (9, 2, 9)
    np.testing.assert_array_equal(two.matrix(0), two.matrix(1))


def test_group_stack_row_stochastic_large(rng):
    grid = P.displacement_grid(14)
    stack = P.group_weight_stack(make_gramian(rng, groups=8), grid)
    assert len(stack) == 8
    for g in range(len(stack)):
        np.testing.assert_allclose(stack.matrix(g).sum(axis=1), np.ones(196), atol=1e-6)


def test_group_stack_entries_match_single_group(rng):
    # the stacked product and softmax give each group its own matrix
    grid = P.displacement_grid(4)
    groups = make_gramian(rng, groups=5)
    stack = P.group_weight_stack(groups, grid)
    for g in range(5):
        params = make_gramian(rng)
        params.delta.data[:] = groups.delta.data[g]
        params.gamma.data[:] = groups.gamma.data[g]
        want = softmax_oracle(P.gqpe_logits(params, grid).data[0].reshape(16, 16))
        np.testing.assert_allclose(stack.matrix(g), want, rtol=0, atol=1e-15)


def test_float32_stack_has_no_subnormal_weights():
    # a T-sized stage-3 stack at init: the sharp prior underflows some
    # weights, which come out as exact zeros rather than subnormals
    rng = np.random.default_rng(0)
    grid = P.displacement_grid(14)
    w = P.group_weight_stack(P.GqpeParams(groups=32, rng=rng), grid).weights.data
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
    grid = P.displacement_grid(k)
    groups = P.GqpeParams(groups=s, rng=rng)
    w = P.group_weight_stack(groups, grid).weights
    logits = np.ascontiguousarray(
        P.gqpe_logits(groups, grid).data.reshape(s, n, n).transpose(1, 0, 2))
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
        P.GqpeParams(groups=0)


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
    g = P.GqpeParams(form, delta_frozen=frozen, rng=rng, dtype=np.float64)
    weights = rng.standard_normal((9, 9))

    def fn():
        return T.weighted_sum(P.group_weight_stack(g, grid).weights, weights.reshape(9, 1, 9))

    res = gradcheck(fn, g.parameters())
    assert res.ok, res.failures
    assert res.max_rel_err < 1e-4


def test_frozen_delta_receives_no_gradient(rng):
    grid = P.displacement_grid(3)
    g = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, delta_frozen=True, rng=rng,
                     dtype=np.float64)
    loss = T.sum_all(T.mul(P.group_weight_stack(g, grid).weights,
                           Tensor(rng.standard_normal((9, 9)).reshape(9, 1, 9))))
    backward(loss)
    assert g.delta.grad is None
    np.testing.assert_array_equal(g.delta.data, np.zeros((1, 2)))
    assert g.gamma.grad is not None


def test_alpha_i_requires_frozen_delta():
    with pytest.raises(ValueError):
        P.GqpeParams(P.CovarianceForm.ALPHA_I, delta_frozen=False)


def test_lrpe_table_gradcheck(rng):
    tab = P.LrpeTable(3, 2, rng=rng, dtype=np.float64)
    weights = rng.standard_normal((9, 9))

    def fn():
        w0, w1 = T.split(P.lrpe_weight_stack(tab).weights, 2, axis=1)
        return T.weighted_sum(T.mul(w0, w1), weights.reshape(9, 1, 9))

    res = gradcheck(fn, {"values": tab.values})
    assert res.ok, res.failures


# -- the stacked generation against the per-group chain ------------------------------

class PerGroupParams:
    """One group's delta and gamma (or alpha_raw) as tensors of their own."""

    def __init__(self, params, g):
        self.form = params.form
        self.delta = Tensor(params.delta.data[g].copy(), requires_grad=params.delta.requires_grad)
        self.gamma = self.alpha_raw = None
        if params.gamma is not None:
            self.gamma = Tensor(params.gamma.data[g].copy(), requires_grad=True)
        if params.alpha_raw is not None:
            self.alpha_raw = Tensor(params.alpha_raw.data[g].copy(), requires_grad=True)

    def precision(self):
        dtype = (self.gamma if self.gamma is not None else self.alpha_raw).dtype
        if self.form is P.CovarianceForm.GAMMA_GRAMIAN:
            eps_eye = Tensor(np.eye(2, dtype=dtype) * P.PRECISION_EPS)
            return T.add(T.matmul(self.gamma, T.transpose2(self.gamma)), eps_eye)
        if self.form is P.CovarianceForm.GAMMA_RAW:
            return self.gamma
        alpha = T.add_scalar(T.softplus(self.alpha_raw), P.PRECISION_EPS)
        zero = Tensor(np.zeros(1, dtype=dtype))
        return T.reshape(T.concat([alpha, zero, zero, alpha], axis=0), (2, 2))


def per_group_stack(groups, grid):
    """The per-group chain: a [P | P d] block per group, then a node-major softmax."""
    blocks = []
    for grp in groups:
        p = grp.precision()
        blocks.append(T.concat([p, T.matmul(p, T.reshape(grp.delta, (2, 1)))], axis=1))
    blocks = T.concat(blocks, axis=0)
    s, n = len(groups), grid.n_tokens
    idx = np.array([2, 5, 0, 4, 1])[:, None] + 6 * np.arange(s)[None, :]
    coeffs = np.repeat(np.array([1.0, 1.0, -0.5, -0.5, -1.0])[:, None], s, axis=1)
    v = T.mul(T.take(blocks, idx, (5, s)), Tensor(coeffs.astype(blocks.dtype)))
    logits = T.matmul(Tensor(grid.features(v.dtype).data.T), v)
    return T.softmax_rows(T.permute_flat(logits, (n, n, s), (0, 2, 1), (n, s, n)))


# Forming the logits group-major, (s, 5) @ (5, N^2), sums each vector
# gradient's N^2 terms in another order than the per-group chain's
# (N^2, 5) @ (5, s) product did.  The stacks keep every bit; the delta,
# gamma and alpha_raw gradients move by at most this many units of their
# dtype's eps times the largest gradient value in their block (21.8 is
# the most measured, at k = 8, s = 8).
REORDER_EPS_BOUND = 32

FORMS = [(P.CovarianceForm.GAMMA_GRAMIAN, False), (P.CovarianceForm.GAMMA_GRAMIAN, True),
         (P.CovarianceForm.GAMMA_RAW, False), (P.CovarianceForm.GAMMA_RAW, True),
         (P.CovarianceForm.ALPHA_I, True)]


@pytest.mark.parametrize("k, s", [(1, 64), (2, 32), (4, 16), (7, 64), (8, 8), (14, 8), (14, 32)])
@pytest.mark.parametrize("form, frozen", FORMS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_generation_matches_the_per_group_chain(k, s, form, frozen, dtype):
    rng = np.random.default_rng(k * 100 + s)
    n = k * k
    grid = P.displacement_grid(k)
    params = P.GqpeParams(form, delta_frozen=frozen, groups=s, rng=rng, dtype=dtype)
    if params.alpha_raw is not None:
        params.alpha_raw.data[:] = rng.uniform(-1.0, 3.0, size=(s, 1))
    groups = [PerGroupParams(params, g) for g in range(s)]
    got = P.group_weight_stack(params, grid).weights
    want = per_group_stack(groups, grid)
    assert got.shape == want.shape == (n, s, n) and got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got.data.view(np.uint8), want.data.view(np.uint8))

    weights = rng.standard_normal((n, s, n))
    backward(T.weighted_sum(got, weights))
    backward(T.weighted_sum(want, weights))
    assert (params.delta.grad is None) == frozen
    for name, block in params.parameters().items():
        oracle = np.stack([getattr(grp, name).grad for grp in groups])
        bound = REORDER_EPS_BOUND * np.finfo(dtype).eps * np.max(np.abs(oracle))
        assert block.grad.shape == oracle.shape and block.grad.dtype == dtype
        assert np.max(np.abs(block.grad - oracle)) <= bound, name


@pytest.mark.parametrize("form, frozen", FORMS)
def test_stack_tape_does_not_grow_with_the_group_count(form, frozen):
    # a per-group loop would record nodes in proportion to s
    grid = P.displacement_grid(3)

    def tape_nodes(s):
        params = P.GqpeParams(form, delta_frozen=frozen, groups=s, rng=np.random.default_rng(0))
        stack = P.group_weight_stack(params, grid).weights
        return sum(node._vjp is not None for node in T._topo_order(stack))

    assert tape_nodes(64) <= tape_nodes(1)


def _displacement_logit_cases(k, s, dtype, rng):
    """(name, (s, N^2) logits) of s raw-precision groups: centres near and far, a tie, sharp."""
    grid = P.displacement_grid(k)
    far = k - 1

    def logits(delta, gamma_scale=1.0, gamma=None):
        params = P.GqpeParams(P.CovarianceForm.GAMMA_RAW, groups=s, rng=rng, dtype=dtype)
        params.delta.data[:] = delta
        params.gamma.data[:] = params.gamma.data * gamma_scale if gamma is None else gamma
        return P.gqpe_logits(params, grid).data

    half = np.zeros((s, 2))
    half[: s // 2] = rng.uniform(-far, far, size=(s // 2, 2))
    return [
        ("near", logits(rng.uniform(-0.5, 0.5, size=(s, 2)))),
        ("half far", logits(half)),
        ("spread", logits(rng.uniform(-far, far, size=(s, 2)))),
        ("corner", logits(np.full((s, 2), float(far)))),
        # (0, 0) and (1, 0) tie exactly: 1.5 dx - 1.5 (dx^2 + dy^2) is 0 at both.
        ("tie", logits(np.tile([0.5, 0.0], (s, 1)), gamma=3.0 * np.eye(2))),
        # precisions near 2000 put most logits below either dtype's cut
        ("sharp", logits(rng.uniform(-far, far, size=(s, 2)), gamma_scale=2000.0)),
    ]


def same_bits(a, b):
    """Equal shapes and bytes, compared as integers of the item size (faster than uint8)."""
    return np.array_equal(a.view(f"i{a.itemsize}"), b.view(f"i{b.itemsize}"))


@pytest.mark.parametrize("k, s", [(1, 64), (2, 64), (3, 5), (7, 64), (8, 8), (14, 8), (14, 16),
                                  (14, 32)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_displacement_softmax_matches_the_row_softmax(k, s, dtype, monkeypatch):
    # softmax_stack exponentiates each displacement once for the rows at
    # their group's maximum and each entry of the others; the oracle is
    # softmax_rows over every entry of the logits copied into the same
    # layout.  The stack rebuilt from its recipe, in chunks of any number
    # of groups, has the same bits.
    rng = np.random.default_rng(k * 100 + s)
    n, side = k * k, 2 * k - 1
    grid = P.displacement_grid(k)
    # The pairs follow lrpe_index_map, and the strided copy reads table
    # entry [a, b] as displacement (a - k + 1, b - k + 1).
    at_pairs = P.lrpe_index_map(grid).reshape(-1)[grid.pairs]
    np.testing.assert_array_equal(at_pairs, np.tile(np.arange(side * side), (2, 1)))
    d = np.arange(1 - k, k)
    for i, j in zip(*np.divmod(grid.pairs, n)):
        np.testing.assert_array_equal(grid.dx[i, j], np.repeat(d, side))
        np.testing.assert_array_equal(grid.dy[i, j], np.tile(d, side))
    oracle, row_calls = T.softmax_rows, []
    monkeypatch.setattr(T, "softmax_rows", lambda *a: row_calls.append(a) or oracle(*a))

    def check(name, x):
        got, recipe = T.softmax_stack(Tensor(x, requires_grad=True), grid.pairs)
        assert not row_calls, name
        by_row = T.permute_flat(Tensor(x, requires_grad=True), (s, n, n), (1, 0, 2), (n, s, n))
        want = oracle(by_row)
        assert got.shape == want.shape == recipe.shape == (n, s, n) and got.dtype == dtype
        assert same_bits(got.data, want.data), name
        if name == "unequal pairs":
            every_row = np.ravel_multi_index(recipe.off_peak[:2], (s, n))
            np.testing.assert_array_equal(every_row, np.arange(s * n))
        by_group = np.ascontiguousarray(want.data.transpose(1, 0, 2))
        for step in {1, 3, max(1, T._STACK_CHUNK_BYTES // (n * n * x.itemsize))}:
            rebuilt = np.full((s, n, n), np.nan, dtype=dtype)
            for lo in range(0, s, step):
                recipe.write(lo, min(lo + step, s), rebuilt[lo:lo + step])
            assert same_bits(rebuilt, by_group), (name, step)
        g = rng.standard_normal((n, s, n)).astype(dtype)
        (gx,), (want_gx,) = got._vjp(g), by_row._vjp(*want._vjp(g))
        assert gx.shape == x.shape and same_bits(gx, want_gx), name
        return want.data

    off_peak = {}
    for name, x in _displacement_logit_cases(k, s, dtype, rng):
        want = check(name, x)
        row_max = x.reshape(s, n, n).max(axis=-1)
        off_peak[name] = np.mean(row_max != row_max.max(axis=-1, keepdims=True))
        if name == "sharp" and k > 1:
            assert np.mean(want == 0.0) > 0.5
    # Every group has a row at its peak; the corner centres put most rows off it.
    if k > 1:
        assert off_peak["corner"] > 0.5, off_peak
        # A last pair of displacement (0, 0) that differs from its first by
        # one ulp puts every row of the stack off peak.
        last = grid.pairs[1, side * side // 2]
        x[-1, last] = np.nextafter(x[-1, last], dtype(np.inf))
        check("unequal pairs", x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_nan_logit_puts_every_row_off_peak(dtype):
    # A NaN at a first pair makes that displacement's two pairs differ, so
    # every row is exponentiated from its own logits: the NaN row is NaN, as
    # softmax_rows has it, and every other row keeps softmax_rows' bits.
    T.set_checked(False)  # a NaN operand is this test's input
    k, s = 14, 8
    n, grid = k * k, P.displacement_grid(k)
    x = _displacement_logit_cases(k, s, dtype, np.random.default_rng(5))[0][1].copy()
    first = grid.pairs[0, 100]
    x[3, first] = np.nan
    got, recipe = T.softmax_stack(Tensor(x), grid.pairs)
    want = T.softmax_rows(T.permute_flat(Tensor(x), (s, n, n), (1, 0, 2), (n, s, n))).data
    np.testing.assert_array_equal(np.ravel_multi_index(recipe.off_peak[:2], (s, n)),
                                  np.arange(s * n))
    nan_rows = np.isnan(want).any(axis=-1)
    np.testing.assert_array_equal(np.argwhere(nan_rows), [[first // n, 3]])
    np.testing.assert_array_equal(np.isnan(got.data), np.isnan(want))
    assert same_bits(got.data[~nan_rows], want[~nan_rows])
    rebuilt = recipe.write(0, s, np.empty((s, n, n), dtype=dtype)).transpose(1, 0, 2)
    np.testing.assert_array_equal(np.isnan(rebuilt), np.isnan(want))
    assert same_bits(rebuilt[~nan_rows], want[~nan_rows])


@pytest.mark.parametrize("form, frozen", FORMS)
def test_blocks_draw_group_by_group(form, frozen):
    # the draws of each group built on its own, delta before gamma, in group order
    for dtype in (np.float32, np.float64):
        params = P.GqpeParams(form, delta_frozen=frozen, groups=6, rng=np.random.default_rng(4),
                              dtype=dtype)
        rng = np.random.default_rng(4)
        for g in range(6):
            delta = np.zeros(2, dtype=dtype)
            if not frozen:
                delta = rng.uniform(-0.5, 0.5, size=2).astype(dtype)
            np.testing.assert_array_equal(params.delta.data[g], delta)
            if params.gamma is not None:
                gamma = (np.eye(2) + rng.normal(0.0, 0.1, size=(2, 2))).astype(dtype)
                np.testing.assert_array_equal(params.gamma.data[g], gamma)
        if params.alpha_raw is not None:
            np.testing.assert_array_equal(
                params.alpha_raw.data, np.full((6, 1), np.log(np.expm1(1.0 - P.PRECISION_EPS)),
                                               dtype=dtype))
        assert params.delta.requires_grad == (not frozen)


# -- mixing through the softmax stack in one node ---------------------------------

# (B, s, k, c): PosMLP-T's four stages at 224^2 and batch 1, then MICRO's first
# and last stages at batch 2 (the last has one-token windows).
MIX_SHAPES = [(16, 8, 14, 24), (4, 16, 14, 24), (1, 32, 14, 24), (1, 64, 7, 12),
              (2, 8, 8, 4), (2, 64, 1, 2)]


def _mix_gradients(params, grid, x, bias, g, fused):
    """Output, input, bias and parameter gradients of stack mixing under loss sum(g * out)."""
    stack = P.group_weight_stack(params, grid)
    xt = Tensor(x, requires_grad=True)
    bt = None if bias is None else Tensor(bias, requires_grad=True)
    if fused:
        out = T.mix_softmax_stack(stack.weights, stack.recipe, stack.vectors, stack.features,
                                  xt, bt)
    else:
        out = T.mix_tokens(stack.weights, xt)
        if bt is not None:
            out = T.add_token_bias(out, bt)
    for p in params.parameters().values():
        p.grad = None
    backward(T.weighted_sum(out, g))
    grads = {name: p.grad for name, p in params.parameters().items()}
    return out.data, xt.grad, None if bt is None else bt.grad, grads


@pytest.mark.parametrize("b, s, k, c", MIX_SHAPES)
@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_node_mixing_matches_the_stack_chain(b, s, k, c, with_bias, dtype):
    # The reference is mix_tokens on the built stack plus add_token_bias,
    # differentiated through the stack's softmax and logit product.
    rng = np.random.default_rng(b * 1000 + s * 10 + k)
    n = k * k
    grid = P.displacement_grid(k)
    params = P.GqpeParams(P.CovarianceForm.GAMMA_GRAMIAN, groups=s, rng=rng, dtype=dtype)
    x = rng.standard_normal((b, n, s * c)).astype(dtype)
    bias = rng.standard_normal(n).astype(dtype) if with_bias else None
    g = rng.standard_normal((b, n, s * c)).astype(dtype)
    out, gx, gb, grads = _mix_gradients(params, grid, x, bias, g, fused=True)
    want_out, want_gx, want_gb, want = _mix_gradients(params, grid, x, bias, g, fused=False)
    np.testing.assert_array_equal(out.view(np.uint8), want_out.view(np.uint8))
    np.testing.assert_array_equal(gx.view(np.uint8), want_gx.view(np.uint8))
    if with_bias:
        np.testing.assert_array_equal(gb, want_gb)
    # The row term comes from the output, not from the stack gradient, so
    # the logit gradients round differently: 5.4 eps is the most measured
    # (these shapes, both dtypes, with and without a bias, all three forms).
    for name, oracle in want.items():
        bound = REORDER_EPS_BOUND * np.finfo(dtype).eps * np.max(np.abs(oracle))
        assert grads[name].dtype == dtype
        assert np.max(np.abs(grads[name] - oracle)) <= bound, name


@pytest.mark.parametrize("form, frozen", FORMS)
@pytest.mark.parametrize("with_bias", [True, False])
def test_one_node_mixing_gradcheck(form, frozen, with_bias):
    rng = np.random.default_rng(31)
    grid = P.displacement_grid(3)
    params = P.GqpeParams(form, delta_frozen=frozen, groups=2, rng=rng, dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 9, 6)), requires_grad=True)
    bias = Tensor(rng.standard_normal(9), requires_grad=True) if with_bias else None
    weights = rng.standard_normal((2, 9, 6))

    def fn():
        stack = P.group_weight_stack(params, grid)
        out = T.mix_softmax_stack(stack.weights, stack.recipe, stack.vectors, stack.features,
                                  x, bias)
        return T.weighted_sum(out, weights)

    wrt = {**params.parameters(), "x": x, **({"bias": bias} if with_bias else {})}
    res = gradcheck(fn, wrt)
    assert res.ok, res.failures
    assert res.max_rel_err < 1e-4


def test_one_node_mixing_refuses_a_stack_its_vectors_cannot_generate():
    params = P.GqpeParams(groups=2, rng=np.random.default_rng(0))
    stack = P.group_weight_stack(params, P.displacement_grid(3))
    other = P.group_weight_stack(P.GqpeParams(groups=3, rng=np.random.default_rng(0)),
                                 P.displacement_grid(3))
    x = Tensor(np.ones((1, 9, 6), dtype=np.float32))
    with pytest.raises(T.ShapeError, match="do not generate"):
        T.mix_softmax_stack(stack.weights, stack.recipe, other.vectors, other.features, x)
    with pytest.raises(T.ShapeError, match="does not rebuild"):
        T.mix_softmax_stack(stack.weights, other.recipe, stack.vectors, stack.features, x)
    with pytest.raises(T.ShapeError, match="bias"):
        T.mix_softmax_stack(stack.weights, stack.recipe, stack.vectors, stack.features, x,
                            Tensor(np.ones(4, dtype=np.float32)))
    with pytest.raises(T.ShapeError, match="dtype"):
        T.mix_softmax_stack(stack.weights, stack.recipe, stack.vectors,
                            P.displacement_grid(3).features(np.float64), x)


# -- the mixing rule that rebuilds its stack from the recipe -------------------------

def _recipe_cases(k, s, dtype, rng):
    """``_displacement_logit_cases`` plus logits whose unequal pairs put every row off peak."""
    cases = _displacement_logit_cases(k, s, dtype, rng)
    if k > 1:
        x = cases[0][1].copy()
        last = P.displacement_grid(k).pairs[1, (2 * k - 1) ** 2 // 2]
        x[-1, last] = np.nextafter(x[-1, last], dtype(np.inf))
        cases.append(("unequal pairs", x))
    return cases


def _dense_stack_rule(y, g, xd, zd, bd, ft):
    """The vectors' and input gradients of the one-node rule whose node kept the dense stack.

    The bit oracle for the rule that rebuilds the stack from its recipe:
    the same row term, the stack gradient formed chunk by chunk in the same
    window order and multiplied by the strided stack, one product with the
    features, and the input gradient as one product with the whole stack.
    """
    n, s = y.shape[:2]
    bsz = xd.shape[0]
    grouped = (bsz, n, s, xd.shape[2] // s)
    gg, xg, yg = T._by_group(g, s), T._by_group(xd, s), y.transpose(1, 0, 2)
    z = zd if bd is None else zd - bd[:, None]
    r = np.einsum("bnsc,bnsc->sn", g.reshape(grouped), z.reshape(grouped))
    gl = np.empty((s, n, n), dtype=y.dtype)
    step = max(1, T._STACK_CHUNK_BYTES // (n * n * y.itemsize))
    for lo in range(0, s, step):
        hi = min(lo + step, s)
        gw = gl[lo:hi]
        np.matmul(gg[0, lo:hi], xg[0, lo:hi].transpose(0, 2, 1), out=gw)
        for b in range(1, bsz):
            gw += np.matmul(gg[b, lo:hi], xg[b, lo:hi].transpose(0, 2, 1))
        gw -= r[lo:hi, :, None]
        gw *= yg[lo:hi]
    gx = np.empty(xd.shape, dtype=y.dtype)
    np.matmul(y.transpose(1, 2, 0), gg, out=T._by_group(gx, s))
    return gl.reshape(s, n * n) @ ft, gx


# (k, s): tiny windows, then PosMLP-T's stages 3, 0 and 2 at 224^2.
@pytest.mark.parametrize("k, s", [(1, 64), (3, 5), (7, 64), (14, 8), (14, 32)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_recipe_rule_has_the_dense_stack_rules_bits(k, s, dtype):
    rng = np.random.default_rng(k * 100 + s + 8)
    n, grid = k * k, P.displacement_grid(k)
    features = grid.features(dtype)
    for name, logits in _recipe_cases(k, s, dtype, rng):
        stack, recipe = T.softmax_stack(Tensor(logits), grid.pairs)
        # The rule reads the vectors only for their shape: the stack is given.
        vectors = Tensor(np.zeros((s, 5), dtype=dtype), requires_grad=True)
        for bsz, with_bias in ((1, True), (2, False), (3, True)):
            x = rng.standard_normal((bsz, n, 2 * s)).astype(dtype)
            bias = Tensor(rng.standard_normal(n), dtype=dtype, requires_grad=True) \
                if with_bias else None
            g = rng.standard_normal(x.shape).astype(dtype)
            out = T.mix_softmax_stack(stack, recipe, vectors, features,
                                      Tensor(x, requires_grad=True), bias)
            want_out = T.mix_tokens(stack, Tensor(x)).data
            if with_bias:
                want_out += bias.data[:, None]
            assert same_bits(out.data, want_out), name
            gv, gx = out._vjp(g)[:2]
            want_gv, want_gx = _dense_stack_rule(stack.data, g, x, out.data,
                                                 bias.data if with_bias else None,
                                                 features.data.T)
            assert same_bits(gv, want_gv) and same_bits(gx, want_gx), (name, bsz)
