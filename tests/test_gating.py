import numpy as np
import pytest

from posmlp import gating as G
from posmlp import positional as P
from posmlp import tensor as T
from posmlp.gradcheck import gradcheck
from posmlp.tensor import Tensor


def unit(kind, k=3, width=4, groups=1, dtype=np.float64, seed=0, **cfg):
    config = G.GatingConfig(kind=kind, window_side=k, groups=groups, **cfg)
    return G.GatingUnit(config, width, rng=np.random.default_rng(seed), dtype=dtype)


def tin(rng, b, n, d):
    return Tensor(rng.standard_normal((b, n, d)), requires_grad=False)


def layer_norm_oracle(x, gain, shift, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + shift


def sgu_oracle(x, w, bias, gain, shift):
    """Naive per-element reimplementation of the baseline gating unit."""
    b, n, d = x.shape
    x1, x2 = x[..., :d // 2], x[..., d // 2:]
    out = np.zeros_like(x1)
    for bi in range(b):
        xn = layer_norm_oracle(x1[bi], gain, shift)
        for i in range(n):
            for c in range(d // 2):
                acc = 0.0
                for j in range(n):
                    acc += w[i, j] * xn[j, c]
                if bias is not None:
                    acc += bias[i]
                out[bi, i, c] = acc * x2[bi, i, c]
    return out


def group_matrices(u):
    """Each group's quadratic-prior matrix, generated on its own from its block rows."""
    mats = []
    for g in range(len(u.gqpe)):
        one = P.GqpeParams(u.config.covariance_form, u.config.delta_frozen,
                           dtype=u.gqpe.dtype)
        for name, block in u.gqpe.parameters().items():
            getattr(one, name).data[:] = block.data[g]
        mats.append(P.group_weight_stack(one, u.grid).matrix(0))
    return mats


def grouped_oracle(x, mats, bias, gain, shift, use_norm):
    """Per-group loop oracle shared by the lookup and quadratic variants."""
    b, n, d = x.shape
    x1, x2 = x[..., :d // 2], x[..., d // 2:]
    s = len(mats)
    gw = (d // 2) // s
    out = np.zeros_like(x1)
    for g in range(s):
        sl = slice(g * gw, (g + 1) * gw)
        for bi in range(b):
            xg = x1[bi, :, sl]
            if use_norm:
                xg = layer_norm_oracle(xg, gain[sl], shift[sl])
            mixed = mats[g] @ xg
            if bias is not None:
                mixed = mixed + bias[:, None]
            out[bi, :, sl] = mixed * x2[bi, :, sl]
    return out


# -- baseline unit ---------------------------------------------------------------

def test_sgu_unit_gate_passes_x2(rng):
    u = unit(G.GatingKind.SGU, k=2, width=6)
    u.token_fc_weight.data[:] = 0.0
    u.bias.data[:] = 1.0
    x = tin(rng, 2, 4, 6)
    out = u.forward(x)
    np.testing.assert_allclose(out.data, x.data[..., 3:], atol=1e-12)


def test_sgu_identity_mixing_gates_the_normed_half(rng):
    u = unit(G.GatingKind.SGU, k=2, width=6)
    u.token_fc_weight.data[:] = np.eye(4)
    u.bias.data[:] = 0.0
    x = tin(rng, 2, 4, 6)
    out = u.forward(x)
    normed = layer_norm_oracle(x.data[..., :3], u.norm_gain.data, u.norm_shift.data)
    np.testing.assert_allclose(out.data, normed * x.data[..., 3:], atol=1e-12)


def test_sgu_matches_loop_oracle(rng):
    u = unit(G.GatingKind.SGU, k=3, width=4, seed=7)
    u.token_fc_weight.data[:] = rng.standard_normal((9, 9))
    u.bias.data[:] = rng.standard_normal(9)
    u.norm_gain.data[:] = rng.standard_normal(2) * 0.3 + 1.0
    u.norm_shift.data[:] = rng.standard_normal(2) * 0.3
    x = tin(rng, 1, 9, 4)
    got = u.forward(x).data
    want = sgu_oracle(x.data, u.token_fc_weight.data, u.bias.data,
                      u.norm_gain.data, u.norm_shift.data)
    assert np.max(np.abs(got - want)) < 1e-10


def test_sgu_rejects_odd_width():
    with pytest.raises(ValueError):
        unit(G.GatingKind.SGU, k=2, width=5)


@pytest.mark.parametrize("make, field", [
    (lambda: G.GatingConfig(kind="glrpe", window_side=2.5), "window_side"),
    (lambda: G.GatingConfig(kind="glrpe", window_side=True), "window_side"),
    (lambda: G.GatingConfig(kind="glrpe", window_side=2, groups=0), "groups"),
    (lambda: G.GatingUnit(G.GatingConfig(kind="sgu", window_side=2), 8.9), "width"),
])
def test_gating_refuses_a_size_that_is_no_positive_integer(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 1"):
        make()


def test_sgu_rejects_token_mismatch(rng):
    u = unit(G.GatingKind.SGU, k=2, width=4)
    with pytest.raises(T.ShapeError):
        u.forward(tin(rng, 1, 5, 4))


# -- degeneracy lattice -------------------------------------------------------------

def test_lrpe_m_with_zero_table_equals_sgu(rng):
    um = unit(G.GatingKind.LRPE_M, k=3, width=6, use_bias=True, seed=3)
    us = unit(G.GatingKind.SGU, k=3, width=6, use_bias=True, seed=4)
    um.lrpe.values.data[:] = 0.0
    us.token_fc_weight.data[:] = um.token_fc_weight.data
    us.bias.data[:] = um.bias.data
    us.norm_gain.data[:] = um.norm_gain.data
    us.norm_shift.data[:] = um.norm_shift.data
    x = tin(rng, 2, 9, 6)
    np.testing.assert_allclose(um.forward(x).data, us.forward(x).data, atol=1e-12)


def test_lrpe_m_with_zero_w_equals_lrpe(rng):
    um = unit(G.GatingKind.LRPE_M, k=3, width=6, use_bias=False, seed=3)
    ul = unit(G.GatingKind.LRPE, k=3, width=6, use_bias=False, seed=5)
    um.token_fc_weight.data[:] = 0.0
    ul.lrpe.values.data[:] = um.lrpe.values.data
    ul.norm_gain.data[:] = um.norm_gain.data
    ul.norm_shift.data[:] = um.norm_shift.data
    x = tin(rng, 2, 9, 6)
    np.testing.assert_allclose(um.forward(x).data, ul.forward(x).data, atol=1e-12)


def test_glrpe_s1_equals_lrpe(rng):
    ug = unit(G.GatingKind.GLRPE, k=3, width=6, groups=1, use_bias=False, seed=3)
    ul = unit(G.GatingKind.LRPE, k=3, width=6, use_bias=False, seed=9)
    ul.lrpe.values.data[:] = ug.lrpe.values.data
    ul.norm_gain.data[:] = ug.norm_gain.data
    ul.norm_shift.data[:] = ug.norm_shift.data
    x = tin(rng, 2, 9, 6)
    np.testing.assert_allclose(ug.forward(x).data, ul.forward(x).data, atol=1e-12)


def test_ggqpe_s1_equals_single_group(rng):
    ug = unit(G.GatingKind.GGQPE, k=3, width=6, groups=1, seed=3)
    x = tin(rng, 2, 9, 6)
    w = P.group_weight_stack(ug.gqpe, ug.grid).matrix(0)
    x1, x2 = x.data[..., :3], x.data[..., 3:]
    want = np.stack([(w @ x1[b] + ug.bias.data[:, None]) * x2[b] for b in range(2)])
    np.testing.assert_allclose(ug.forward(x).data, want, atol=1e-12)


# -- lookup variants ------------------------------------------------------------------

def test_lrpe_onehot_center_gates_identity(rng):
    k = 3
    u = unit(G.GatingKind.LRPE, k=k, width=6, use_bias=False)
    u.lrpe.values.data[:] = 0.0
    center = (k - 1) * (2 * k - 1) + (k - 1)
    u.lrpe.values.data[0, center] = 1.0
    x = tin(rng, 2, 9, 6)
    out = u.forward(x)
    normed = layer_norm_oracle(x.data[..., :3], u.norm_gain.data, u.norm_shift.data)
    np.testing.assert_allclose(out.data, normed * x.data[..., 3:], atol=1e-12)


def test_glrpe_matches_group_oracle(rng):
    u = unit(G.GatingKind.GLRPE, k=3, width=8, groups=2, use_bias=False, seed=11)
    u.lrpe.values.data[:] = rng.standard_normal(u.lrpe.values.shape)
    x = tin(rng, 2, 9, 8)
    stack = P.lrpe_weight_stack(u.lrpe)
    mats = [stack.matrix(g) for g in range(2)]
    want = grouped_oracle(x.data, mats, None, u.norm_gain.data, u.norm_shift.data, True)
    assert np.max(np.abs(u.forward(x).data - want)) < 1e-10


def test_glrpe_rejects_indivisible_groups():
    with pytest.raises(ValueError):
        unit(G.GatingKind.GLRPE, k=3, width=6, groups=2)  # half-width 3, groups 2


# -- quadratic variant ------------------------------------------------------------------

def test_ggqpe_group_concat_identity(rng):
    # identical group params + no bias == one group applied to the full width
    cfg = dict(k=3, width=8, use_bias=False, seed=13)
    u2 = unit(G.GatingKind.GGQPE, groups=2, **cfg)
    u1 = unit(G.GatingKind.GGQPE, groups=1, **cfg)
    u2.gqpe.gamma.data[:] = u1.gqpe.gamma.data
    u2.gqpe.delta.data[:] = u1.gqpe.delta.data
    x = tin(rng, 2, 9, 8)
    np.testing.assert_allclose(u2.forward(x).data, u1.forward(x).data, atol=1e-12)


def test_ggqpe_sharp_limit_is_hadamard(rng):
    k = 7
    u = unit(G.GatingKind.GGQPE, k=k, width=4, use_bias=False,
             covariance_form=P.CovarianceForm.ALPHA_I, delta_frozen=True)
    u.gqpe.alpha_raw.data[:] = np.log(np.expm1(50.0 - P.PRECISION_EPS))
    x = tin(rng, 1, 49, 4)
    out = u.forward(x).data
    want = x.data[..., :2] * x.data[..., 2:]
    assert np.max(np.abs(out - want)) < 1e-2


def test_ggqpe_matches_group_oracle(rng):
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=17)
    x = tin(rng, 2, 9, 8)
    mats = group_matrices(u)
    want = grouped_oracle(x.data, mats, u.bias.data, None, None, False)
    assert np.max(np.abs(u.forward(x).data - want)) < 1e-10


def test_ggqpe_prenorm_variant_has_norm_params():
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, pre_norm_on_x1=True)
    assert u.norm_gain is not None
    u0 = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2)
    assert u0.norm_gain is None  # softmax variant skips the norm by default


# -- combine and split configurations -----------------------------------------------------

def test_output_width_contract(rng):
    x = tin(rng, 2, 9, 8)
    for combine, width in ((G.Combine.GATE, 4), (G.Combine.ADD, 4), (G.Combine.CONCAT, 8)):
        u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, combine=combine)
        assert u.forward(x).shape == (2, 9, width)
        assert u.config.output_width(8) == width
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, split_channels=False)
    assert u.forward(x).shape == (2, 9, 8)


def test_add_combine_semantics(rng):
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, combine=G.Combine.ADD, seed=17)
    x = tin(rng, 2, 9, 8)
    mats = group_matrices(u)
    gated = grouped_oracle(x.data, mats, u.bias.data, None, None, False)
    mixed = gated / np.where(x.data[..., 4:] == 0, 1.0, x.data[..., 4:])
    want = mixed + x.data[..., 4:]
    assert np.max(np.abs(u.forward(x).data - want)) < 1e-10


def test_concat_combine_semantics(rng):
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, combine=G.Combine.CONCAT, seed=17)
    x = tin(rng, 2, 9, 8)
    out = u.forward(x).data
    np.testing.assert_array_equal(out[..., 4:], x.data[..., 4:])


def test_nonsplit_uses_full_tensor(rng):
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, split_channels=False, seed=17)
    x = tin(rng, 2, 9, 8)
    mats = group_matrices(u)
    xx = np.concatenate([x.data, x.data], axis=-1)  # X1 = X2 = x
    want = grouped_oracle(xx, mats, u.bias.data, None, None, False)
    assert np.max(np.abs(u.forward(x).data - want)) < 1e-10


def test_forced_norm_for_lookup_family():
    with pytest.raises(ValueError):
        unit(G.GatingKind.LRPE, k=3, width=6, pre_norm_on_x1=False)
    with pytest.raises(ValueError):
        unit(G.GatingKind.SGU, k=3, width=6, groups=2)


# -- ape ---------------------------------------------------------------------------------

def test_apply_ape_zero_is_identity(rng):
    x = tin(rng, 2, 9, 4)
    ape = Tensor(np.zeros((9, 4)))
    np.testing.assert_array_equal(T.add_map(x, ape).data, x.data)


def test_apply_ape_on_zero_input_broadcasts(rng):
    ape = Tensor(rng.standard_normal((9, 4)))
    x = Tensor(np.zeros((3, 9, 4)))
    out = T.add_map(x, ape).data
    for b in range(3):
        np.testing.assert_array_equal(out[b], ape.data)


def test_apply_ape_difference_is_exact(rng):
    x = tin(rng, 3, 9, 4)
    ape = Tensor(rng.standard_normal((9, 4)))
    out = T.add_map(x, ape).data
    for b in range(3):
        # exact as an addition identity; the re-subtracted form only holds
        # to roundoff
        np.testing.assert_array_equal(out[b], x.data[b] + ape.data)
        np.testing.assert_allclose(out[b] - x.data[b], ape.data, atol=1e-12)


# -- structural invariants ------------------------------------------------------------------

@pytest.mark.parametrize("kind,groups", [
    (G.GatingKind.SGU, 1), (G.GatingKind.LRPE_M, 1), (G.GatingKind.LRPE, 1),
    (G.GatingKind.GLRPE, 2), (G.GatingKind.GGQPE, 2),
])
def test_window_weight_sharing_is_exact(rng, kind, groups):
    u = unit(kind, k=3, width=8, groups=groups, seed=21)
    windows = rng.standard_normal((3, 9, 8))
    batch_out = u.forward(Tensor(windows)).data
    for b in range(3):
        alone = u.forward(Tensor(windows[b:b + 1])).data
        np.testing.assert_array_equal(batch_out[b], alone[0])


def test_channel_group_locality(rng):
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=23)
    x = rng.standard_normal((1, 9, 8))
    base = u.forward(Tensor(x)).data
    bumped = x.copy()
    bumped[..., 0:2] += rng.standard_normal((1, 9, 2))  # group 0 of X1
    out = u.forward(Tensor(bumped)).data
    np.testing.assert_array_equal(out[..., 2:4], base[..., 2:4])  # group 1 untouched


def test_glrpe_locality_with_norm(rng):
    u = unit(G.GatingKind.GLRPE, k=3, width=8, groups=2, seed=23)
    x = rng.standard_normal((1, 9, 8))
    base = u.forward(Tensor(x)).data
    bumped = x.copy()
    bumped[..., 0:2] += rng.standard_normal((1, 9, 2))
    out = u.forward(Tensor(bumped)).data
    np.testing.assert_array_equal(out[..., 2:4], base[..., 2:4])


@pytest.mark.parametrize("kind,groups", [
    (G.GatingKind.SGU, 1), (G.GatingKind.LRPE_M, 1), (G.GatingKind.LRPE, 1),
    (G.GatingKind.GLRPE, 2), (G.GatingKind.GGQPE, 2),
])
def test_gating_gradcheck_all_parameters(rng, kind, groups):
    u = unit(kind, k=2, width=8, groups=groups, use_bias=True, seed=29)
    x = Tensor(np.random.default_rng(5).standard_normal((2, 4, 8)))
    weights = np.random.default_rng(6).standard_normal((2, 4, 4))

    def fn():
        return T.weighted_sum(u.forward(x), weights)

    res = gradcheck(fn, u.parameters())
    assert res.ok, res.failures[:5]
    assert res.max_rel_err < 1e-4


# -- the mixing-stack cache ----------------------------------------------------------

def counting_generator(monkeypatch):
    """Count the GGQPE stack generations a gating unit asks for."""
    calls = []
    real = G.group_weight_stack

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(G, "group_weight_stack", counted)
    return calls


def test_mixing_stack_hit_returns_the_same_stack(monkeypatch):
    calls = counting_generator(monkeypatch)
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=3)
    first = u.mixing_stack()
    assert u.mixing_stack() is first
    u.gqpe.gamma.data[1] = u.gqpe.gamma.data[1]  # rewriting the same bytes is no change
    assert u.mixing_stack() is first
    assert len(calls) == 1


def recording_generator(monkeypatch, name="group_weight_stack"):
    """The stacks a gating unit builds through ``G.<name>``, in order."""
    built = []
    real = getattr(G, name)

    def recorded(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(G, name, recorded)
    return built


def test_a_first_request_keeps_the_recipe_until_a_backward_consumes_it(rng, monkeypatch):
    # A quadratic unit keeps its state's SoftmaxStack, which holds no
    # stack-sized array, from the first request on.  A backward through
    # the vectors consumes it, so the next request builds anew, and the
    # gradients are those of a unit that built its stack for the forward.
    built = recording_generator(monkeypatch)
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=3)
    fresh = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=3)
    x, weights = tin(rng, 2, 9, 8), rng.standard_normal((2, 9, 4))
    out = u.forward(x)
    assert len(built) == 1 and built[0] is u._stack_entry[1] is u.mixing_stack()
    assert isinstance(built[0], P.SoftmaxStack) and len(built) == 1
    held = fresh.mixing_stack()
    T.backward(T.weighted_sum(out, weights))
    T.backward(T.weighted_sum(fresh.forward(x), weights))
    assert fresh.mixing_stack() is not held and u.mixing_stack() is not built[0]
    for (name, p), q in zip(u.parameters().items(), fresh.parameters().values()):
        np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)


def test_a_quadratic_state_is_built_once_and_a_lookup_stack_on_every_request(rng,
                                                                            monkeypatch):
    # A SoftmaxStack is kept from the state's first request on.  A lookup
    # unit's whole (N, s, N) stack is built afresh on every request and
    # never kept, and each build has the same bits.
    recipes = recording_generator(monkeypatch)
    lookups = recording_generator(monkeypatch, "lrpe_weight_stack")
    x = tin(rng, 2, 9, 8)
    q = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=3)
    first = q.forward(x).data
    assert q.mixing_stack() is recipes[0] is q._stack_entry[1]
    np.testing.assert_array_equal(q.forward(x).data, first)
    assert len(recipes) == 1

    u = unit(G.GatingKind.GLRPE, k=3, width=8, groups=2, seed=3)
    first = u.forward(x).data
    assert len(lookups) == 1 and u._stack_entry is None
    held = u.mixing_stack()
    assert held is lookups[1] and u.mixing_stack() is lookups[2] is not held
    np.testing.assert_array_equal(u.forward(x).data, first)
    assert len(lookups) == 4 and u._stack_entry is None
    assert len({s.weights.data.tobytes() for s in lookups}) == 1


def _edit_gamma_in_place(u):
    u.gqpe.gamma.data[1] = u.gqpe.gamma.data[1] * 1.5


def _replace_gamma(u):
    # Equal bytes, so only the tensor's identity tells the stack is stale.
    u.gqpe.gamma = Tensor(u.gqpe.gamma.data.copy(), requires_grad=True)


def _freeze_delta(u):
    u.gqpe.delta.requires_grad = False


def _cast_to_float32(u):
    for t in u._positional_tensors():
        t.data = t.data.astype(np.float32)


@pytest.mark.parametrize("edit", [_edit_gamma_in_place, _replace_gamma, _freeze_delta,
                                  _cast_to_float32])
def test_mixing_stack_rebuilds_after_a_parameter_change(rng, monkeypatch, edit):
    calls = counting_generator(monkeypatch)
    u = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=3)
    fresh = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=3)
    before = u.mixing_stack()
    edit(u)
    edit(fresh)
    after = u.mixing_stack()
    assert after is not before and len(calls) == 2
    want = fresh.mixing_stack()
    assert after.weights.dtype == want.weights.dtype
    np.testing.assert_array_equal(after.weights.data, want.weights.data)
    if edit is _cast_to_float32:
        return
    x = tin(rng, 2, 9, 8)
    weights = rng.standard_normal((2, 9, 4))
    for v in (u, fresh):
        T.backward(T.weighted_sum(v.forward(x), weights))
    for (name, p), q in zip(u.parameters().items(), fresh.parameters().values()):
        if p.requires_grad:
            np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)
        else:
            assert p.grad is None and q.grad is None, name
    if edit is _freeze_delta:
        assert u.gqpe.delta.grad is None and u.gqpe.gamma.grad is not None


def test_shared_stack_gradients_match_two_built_stacks(rng, monkeypatch):
    calls = counting_generator(monkeypatch)
    cached = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=5)
    uncached = unit(G.GatingKind.GGQPE, k=3, width=8, groups=2, seed=5)
    x1, x2 = tin(rng, 2, 9, 8), tin(rng, 1, 9, 8)
    w1, w2 = rng.standard_normal((2, 9, 4)), rng.standard_normal((1, 9, 4))

    # The unit keeps its state's stack, so both forwards mix with this one.
    shared = cached.mixing_stack()
    T.backward(T.add(T.weighted_sum(cached.forward(x1), w1),
                     T.weighted_sum(cached.forward(x2), w2)))
    assert len(calls) == 1 and shared.vectors.consumed
    first = uncached.forward(x1)
    uncached._stack_entry = None
    loss = T.add(T.weighted_sum(first, w1), T.weighted_sum(uncached.forward(x2), w2))
    T.backward(loss)
    assert len(calls) == 3
    # The chain rule is linear in the incoming gradient; only the order in
    # which the two forwards' contributions are summed differs.
    for (name, p), q in zip(cached.parameters().items(), uncached.parameters().values()):
        np.testing.assert_allclose(p.grad, q.grad, rtol=1e-12, atol=1e-15, err_msg=name)


def _leaf_view(data):
    """A leaf that requires a gradient and reads ``data`` as it is, view or not."""
    t = T._untaped(data)
    t.requires_grad = True
    return t


def _bits(arrays):
    return [None if a is None else (a.shape, a.dtype, np.ascontiguousarray(a).tobytes())
            for a in arrays]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, k, groups", [(kind, 3, 4 if kind.grouped else 1)
                                             for kind in G.GatingKind]
                         + [(G.GatingKind.GLRPE, 7, 8), (G.GatingKind.GGQPE, 14, 32)])
def test_a_mixing_stack_is_group_major_and_mixes_as_a_contiguous_copy(rng, kind, k, groups,
                                                                      dtype):
    # Each group's matrix is one contiguous run, and mixing a half that is
    # a view of the unit's input, as the unit does, gives the bits that an
    # (N, s, N)-contiguous copy of the stack gives on a contiguous copy of
    # the half: outputs and both gradients.  The last two cases are
    # PosMLP-T's stage-1 window with more groups and its stage-2 unit.
    n, width = k * k, 8 * groups
    u = unit(kind, k=k, width=width, groups=groups, dtype=dtype, seed=3)
    stack = u.mixing_stack()
    w = stack.weights
    assert w.shape == (n, groups, n) and w.data.transpose(1, 0, 2).flags.c_contiguous
    half = T.split(Tensor(rng.standard_normal((2, n, width)).astype(dtype)), 2)[0]
    assert not half.data.flags.c_contiguous
    g = rng.standard_normal((2, n, width // 2)).astype(dtype)
    copy, half_copy = np.ascontiguousarray(w.data), np.ascontiguousarray(half.data)

    got = T.mix_tokens(_leaf_view(w.data), _leaf_view(half.data))
    want = T.mix_tokens(Tensor(copy, requires_grad=True), Tensor(half_copy, requires_grad=True))
    assert _bits([got.data, *got._vjp(g)]) == _bits([want.data, *want._vjp(g)])
    if kind is G.GatingKind.GGQPE:
        def mixed(x):
            out = T.mix_softmax_stack(stack.recipe, stack.vectors, stack.features, x, u.bias)
            return [out.data, *out._vjp(g)]

        assert _bits(mixed(_leaf_view(half.data))) == \
            _bits(mixed(Tensor(half_copy, requires_grad=True)))
