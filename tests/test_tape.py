"""The tape keeps only what backward rules read, and only until they fire.

A taped result links to its operands' tape nodes, not to their tensors, so
an intermediate's values are freed once nothing but the tape refers to
them.  The retention tests drop every reference to an intermediate but
the op's output, check through a weak reference that its array is gone,
and check that the gradient equals the one computed with it held.  The
convolutions' rules read their input, so for them the input must stay
alive, as the one array the node keeps besides views of the weight; no
patch matrix is kept, and the memory tests check that none is formed
either: the stem's conv2 copies patches one block of output rows or one
kernel row at a time and scatters its patch gradient block by block, last
block first, and a merge's backward adds one tap's gradient at a time.  A backward pass consumes the nodes it runs
through, so what the rules read is freed during the pass and a second pass
through them is an error.  A rule that reads a result its op can remake
keeps the remake instead: the remake tests check its bits, that keeping it
adds nothing to what the tape holds, and that it runs once per backward.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from posmlp import gating as G
from posmlp import model as M
from posmlp import positional as P
from posmlp import tensor as T
from posmlp import training as TR
from posmlp.tensor import Tensor, backward


# op name -> (input shape or values, the op applied to an intermediate h)
def _ops(rng):
    gain = Tensor(rng.standard_normal(6), requires_grad=True)
    shift = Tensor(rng.standard_normal(6), requires_grad=True)
    other = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    bias = Tensor(rng.standard_normal(4), requires_grad=True)
    conv_w = Tensor(rng.standard_normal((3, 3, 2, 3)), requires_grad=True)
    conv_b = Tensor(rng.standard_normal(3), requires_grad=True)
    dw_w = Tensor(rng.standard_normal((3, 3, 2, 2)), requires_grad=True)
    dw_b = Tensor(rng.standard_normal(4), requires_grad=True)
    const = Tensor(rng.standard_normal((4, 6)))
    lin_w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    lin_b = Tensor(rng.standard_normal(3), requires_grad=True)
    # logits that depend on their pair only through the displacement
    grid = P.displacement_grid(3)
    by_pair = np.random.default_rng(1).standard_normal((2, 25))[:, P.lrpe_index_map(grid).ravel()]
    return {
        "softmax_rows": ((4, 6), lambda h: T.softmax_rows(h)),
        "permute_flat_softmax_rows": ((2, 9), lambda h: T.softmax_rows(
            T.permute_flat(h, (2, 3, 3), (1, 0, 2), (3, 2, 3)))),
        "softmax_stack": (by_pair, lambda h: T.softmax_stack(h, grid.pairs)[0]),
        "split": ((4, 6), lambda h: T.split(h, 3)),
        "take": ((4, 6), lambda h: T.take(h, [0, 5, 5, 23], (2, 2))),
        "window_stack": ((3, 25), lambda h: T.window_stack(h, 3)),
        "permute_flat": ((4, 6), lambda h: T.permute_flat(h, (2, 2, 6), (2, 0, 1), (6, 4))),
        "concat": ((4, 6), lambda h: T.concat([h, other])),
        "sum_all": ((4, 6), lambda h: T.sum_all(h)),
        "conv2d": ((1, 4, 4, 2), lambda h: T.conv2d(h, conv_w, conv_b, stride=1)),
        "conv2d_depthwise": ((1, 4, 4, 2),
                             lambda h: T.conv2d_depthwise(h, dw_w, dw_b, stride=2)),
        "layer_norm": ((2, 4, 6), lambda h: T.layer_norm(h, gain, shift, groups=2)),
        # results that can be remade, kept by a rule or returned: the remake
        # holds only what the producer's rule holds, never its input
        "layer_norm_split": ((2, 4, 6), lambda h: T.split(T.layer_norm(h, gain, shift), 2)),
        "layer_norm_linear": ((2, 4, 6),
                              lambda h: T.linear(T.layer_norm(h, gain, shift), lin_w, lin_b)),
        "mul": ((4, 6), lambda h: T.mul(h, const)),
        "add_token_bias": ((2, 4, 6), lambda h: T.add_token_bias(h, bias)),
    }


# The convolutions' rules read their input, so it is not among the freed;
# nor is a split input, whose parts are its memory.
CONVS = ["conv2d", "conv2d_depthwise"]
VIEWS = ["split"]
OPS = [name for name in _ops(np.random.default_rng(0)) if name not in CONVS + VIEWS]


def _loss(outs, rng):
    outs = outs if isinstance(outs, list) else [outs]
    total = None
    for o in outs:
        term = T.weighted_sum(o, rng.standard_normal(o.shape))
        total = term if total is None else T.add(total, term)
    return total


def _gradient(name, hold, check=None):
    """x's gradient through ``op(scale(x))``; returns it and whether scale(x)'s data outlived h.

    ``check(outs, data)``, if given, inspects the op's result and scale(x)'s
    data before the backward pass.
    """
    rng = np.random.default_rng(7)
    shape, op = _ops(rng)[name]
    x = Tensor(shape if isinstance(shape, np.ndarray) else rng.standard_normal(shape),
               requires_grad=True)
    h = T.scale(x, 1.5)
    ref = weakref.ref(h.data)
    outs = op(h)
    held = h if hold else None
    del h
    gc.collect()
    alive = ref() is not None
    if check is not None:
        check(outs, ref())
    backward(_loss(outs, rng))
    del held
    return x.grad, alive


@pytest.mark.parametrize("name", OPS)
def test_an_intermediate_read_by_no_rule_is_freed(name):
    grad, alive = _gradient(name, hold=False)
    want, _ = _gradient(name, hold=True)
    assert not alive
    np.testing.assert_array_equal(grad, want)


def _holds_its_input_only(out, data):
    # Every array the rule captured is the input itself or a view of the
    # weight: no patch matrix.
    vjp = out._node._vjp
    arrays = [c.cell_contents for c in vjp.__closure__
              if isinstance(c.cell_contents, np.ndarray)]
    assert _closure(out, "xd") is data
    weight = out._node._parents[1]
    assert all(a is data or np.shares_memory(a, weight.data) for a in arrays)


def test_split_parts_are_views_that_alone_keep_their_input():
    # The parts are slices of the input's memory: they keep it alive, and
    # dropping them frees it; the tape's nodes hold no value.
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
    h = T.scale(x, 1.5)
    ref = weakref.ref(h.data)
    parts = T.split(h, 3)
    loss = _loss(parts, rng)
    del h
    gc.collect()
    assert ref() is not None
    assert all(np.shares_memory(p.data, ref()) for p in parts)
    assert all(p.data.base is ref() for p in parts)
    del parts
    gc.collect()
    assert ref() is None
    backward(loss)
    assert x.grad.shape == x.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("used, parts, axis", [((0, 1), 2, -1), ((1, 0), 2, -1),
                                               ((0,), 2, -1), ((2, 0, 1), 3, 1),
                                               ((1, 2), 3, 0)])
def test_a_split_gradient_has_the_bits_of_zero_filled_parts_summed(dtype, used, parts, axis):
    # The oracle is the rule split once had: each part's gradient zero-filled
    # to the input's shape, summed over the parts in the order their rules
    # fire, which adds 0.0 to every entry a second part reaches.  The
    # weights' -0.0 entries give -0.0 gradient entries.
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((3, 6, 6)).astype(dtype), requires_grad=True)
    outs = T.split(T.scale(x, 1.0), parts, axis=axis)
    weights = [rng.standard_normal(o.shape).astype(dtype) for o in outs]
    for w in weights:
        w.reshape(-1)[:3] = [-0.0, 0.0, -0.0]
    loss = None
    for i in used:
        term = T.weighted_sum(outs[i], weights[i])
        loss = term if loss is None else T.add(loss, term)
    backward(loss)

    want = None
    for i in reversed(used):  # the loss adds the terms in order; rules fire in reverse
        full = np.zeros(x.shape, dtype)
        sl = [slice(None)] * x.ndim
        step = x.shape[axis] // parts
        sl[axis] = slice(i * step, (i + 1) * step)
        full[tuple(sl)] = weights[i]
        want = full if want is None else want + full
    assert ((want == 0) & np.signbit(want)).any() == (len(used) == 1)
    assert x.grad.dtype == dtype and x.grad.tobytes() == want.tobytes()


def test_a_split_backward_allocates_one_input_sized_array():
    # PosMLP-T stage 2's gating input.  The parts' rules share one buffer;
    # zero-filling a gradient per part and summing them took three.
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((1, 196, 1536)), requires_grad=True, dtype=np.float32)
    a, b = T.split(x, 2)
    ga, gb = (rng.standard_normal(a.shape).astype(np.float32) for _ in range(2))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        (buf,) = a._vjp(ga)
        assert b._vjp(gb) == (None,)
        (passed,) = a._node._parents[0]._vjp(buf)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passed is buf and buf.shape == x.shape
    assert x.data.nbytes <= peak - before < 1.1 * x.data.nbytes
    assert current - before >= x.data.nbytes
    np.testing.assert_array_equal(buf, np.concatenate([ga, gb], axis=-1))


@pytest.mark.parametrize("name", CONVS)
def test_a_convolution_keeps_its_input_not_its_patches(name):
    grad, alive = _gradient(name, hold=False, check=_holds_its_input_only)
    want, _ = _gradient(name, hold=True)
    assert alive
    np.testing.assert_array_equal(grad, want)


def test_a_convolution_retains_about_its_input():
    # PosMLP-T's stem conv2: 2.4 MB of input against 21.7 MB of patches.
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 112, 112, 48)), requires_grad=True, dtype=np.float32)
    w = Tensor(rng.standard_normal((3, 3, 48, 48)), requires_grad=True, dtype=np.float32)
    b = Tensor(np.zeros(48), requires_grad=True, dtype=np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = T.scale(x, 1.0)
        out = T.conv2d(h, w, b, stride=1)
        del h
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert x.data.nbytes <= retained < 1.5 * x.data.nbytes


@pytest.mark.parametrize("taped", [True, False])
def test_a_depthwise_merge_cuts_no_patch_array(taped):
    # PosMLP-T's first patch merge: 1.2 MB of input, whose 3 x 3 patches at
    # stride 2 take 2.7 MB.  The forward holds the padded input, the output,
    # two sums of one multiplier's channels (half the output together) and
    # numpy's ufunc buffers; cutting the patches held them on top of the
    # padded input and the output.
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 56, 56, 96)), requires_grad=taped, dtype=np.float32)
    w = Tensor(rng.standard_normal((3, 3, 96, 2)), requires_grad=taped, dtype=np.float32)
    b = Tensor(np.zeros(192), requires_grad=taped, dtype=np.float32)
    patches = 9 * 28 * 28 * 96 * 4
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.conv2d_depthwise(x, w, b, stride=2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    padded = 58 * 58 * 96 * 4
    assert peak < padded + 2 * out.data.nbytes + 2 ** 18 < padded + patches + out.data.nbytes


def test_the_t_stem_conv2_never_allocates_its_patch_matrix():
    # PosMLP-T's stem conv2: 21.7 MB of patches from a 2.4 MB input.  The
    # forward holds the padded input, its output and one block of patches;
    # the weight gradient adds one kernel row's patch copy (a third of the
    # patches) to the padded input, and the input gradient one block of the
    # patch gradient to the padded gradient and the gradient itself.
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 112, 112, 48)), requires_grad=True, dtype=np.float32)
    w = Tensor(rng.standard_normal((3, 3, 48, 48)), requires_grad=True, dtype=np.float32)
    b = Tensor(np.zeros(48), requires_grad=True, dtype=np.float32)
    g = rng.standard_normal((1, 112, 112, 48)).astype(np.float32)
    patches = 112 * 112 * 9 * 48 * 4
    padded = 114 * 114 * 48 * 4
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.conv2d(x, w, b, stride=1)
        forward = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        grads = out._vjp(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [x.shape, w.shape, b.shape]
    assert forward < padded + out.data.nbytes + 2 * T._CONV_BLOCK_BYTES
    assert peak < out.data.nbytes + padded + patches // 3 + 2 ** 20 < patches


def test_a_merge_backward_forms_no_patch_gradient():
    # PosMLP-T's first patch merge: its (1, 784, 9, 96) patch gradient takes
    # 2.7 MB.  The rule holds the padded gradient, then its cropped copy,
    # and one tap's gradient and product at a time.
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 56, 56, 96)), requires_grad=True, dtype=np.float32)
    w = Tensor(rng.standard_normal((3, 3, 96, 2)), requires_grad=True, dtype=np.float32)
    b = Tensor(np.zeros(192), requires_grad=True, dtype=np.float32)
    out = T.conv2d_depthwise(x, w, b, stride=2)
    g = rng.standard_normal(out.shape).astype(np.float32)
    patch_grad = 9 * 28 * 28 * 96 * 4
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = out._vjp(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [a.shape for a in grads] == [x.shape, w.shape, b.shape]
    padded, tap = 58 * 58 * 96 * 4, 28 * 28 * 96 * 4
    assert peak < padded + x.data.nbytes + 2 * tap < patch_grad + padded


def _stack_gradients(form, frozen, hold):
    """Gradients through one stack, and whether its feature logits outlived the build."""
    params = P.GqpeParams(form, delta_frozen=frozen, groups=4, rng=np.random.default_rng(2))
    grid = P.displacement_grid(3)
    refs, held = [], []
    softmax = T.softmax_stack

    def recording(x, *args):
        refs.append(weakref.ref(x.data))
        if hold:
            held.append(x)
        return softmax(x, *args)

    T.softmax_stack = recording
    try:
        stack = P.group_weight_stack(params, grid).weights
    finally:
        T.softmax_stack = softmax
    gc.collect()
    alive = refs[0]() is not None
    backward(T.weighted_sum(stack, np.random.default_rng(3).standard_normal(stack.shape)))
    return [p.grad for p in params.parameters().values()], alive


@pytest.mark.parametrize("form", list(P.CovarianceForm))
def test_a_weight_stack_frees_its_feature_logits(form):
    frozen = form is P.CovarianceForm.ALPHA_I
    grads, alive = _stack_gradients(form, frozen, hold=False)
    want, held_alive = _stack_gradients(form, frozen, hold=True)
    assert held_alive and not alive
    for got, ref in zip(grads, want):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_micro_records_as_many_tape_nodes_as_before(monkeypatch, dtype):
    # 115 results in the forward, one more for the loss, 61 leaves; the
    # counts the tape recorded when it linked parent tensors, except that
    # each of the five ggqpe blocks mixes through one mix_softmax_stack node
    # in place of mix_tokens + add_token_bias.  That node's inner mix_tokens
    # result (one chunk at MICRO's windows) is untaped, and its gradient
    # reaches the logit vectors directly, so the logit product is off the
    # loss's path, and the blocks form no softmax_stack result: their
    # stacks are recipes.  Each block's split adds the one node its two
    # parts link through.
    taped = []
    result = T._result

    def counting(data, parents, vjp, op_name):
        out = result(data, parents, vjp, op_name)
        taped.append(bool(out._parents))
        return out

    monkeypatch.setattr(T, "_result", counting)
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0), dtype=dtype)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 32, 32, 3)), dtype=dtype)
    logits = m.forward(x)
    assert len(taped) == 115 and sum(taped) == 115 - 5
    loss = T.cross_entropy_mean(logits, np.array([0, 3]))
    order = T._topo_order(loss)
    assert sum(node._vjp is not None for node in order) == 115 + 1 - 2 * 5 + 5
    assert sum(isinstance(node, T._Node) and node.op == "split" for node in order) == 3 * 5
    assert sum(node._vjp is None for node in order) == 61
    backward(loss)
    assert all(p.grad is not None for p in m.parameters().values())


def test_a_leaf_or_untaped_result_has_no_vjp_to_assign():
    x = Tensor(np.ones(3), requires_grad=True)
    untaped = T.scale(Tensor(np.ones(3)), 2.0)
    assert x._vjp is None and untaped._vjp is None
    assert not x._parents and not untaped._parents
    for t in (x, untaped):
        with pytest.raises(AttributeError):
            t._vjp = lambda g: (g,)


def test_an_operand_that_needs_no_gradient_gets_none():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    c = Tensor(np.ones((2, 2)))
    out = T.matmul(a, c)
    assert out._parents == (a, None)
    ga, gc_ = out._vjp(np.ones((2, 2)))
    assert gc_ is None and ga.shape == (2, 2)
    backward(T.sum_all(out))
    assert c.grad is None and a.grad is not None


def test_a_second_backward_through_a_consumed_graph_raises(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    h = T.gelu(T.scale(x, 2.0))
    w = rng.standard_normal((3, 4))
    backward(T.weighted_sum(h, w))
    first = x.grad.copy()
    assert h.consumed and not x.consumed
    with pytest.raises(T.GradError):
        h._vjp(np.ones((3, 4)))
    # A fresh loss over the consumed part raises before depositing anything.
    with pytest.raises(T.GradError):
        backward(T.add(T.weighted_sum(h, w), T.weighted_sum(T.scale(x, 3.0), w)))
    np.testing.assert_array_equal(x.grad, first)


def _closure(t, name):
    """The array ``name`` that t's backward rule captured."""
    vjp = t._node._vjp
    return vjp.__closure__[vjp.__code__.co_freevars.index(name)].cell_contents


def test_a_training_step_frees_its_graph_and_its_gradients(monkeypatch):
    # What backward rules captured is freed as each rule fires, while the
    # loss is still held; the optimizer step then drops every gradient.
    # The gelu output, and with it the mixing input, is remade in the
    # backward from the gelu input its rule keeps; the erf half is formed
    # in the backward and dropped by the gelu rule.
    refs, halves = {}, []
    gelu, layer_norm = T.gelu, T.layer_norm

    def recording_gelu(x):
        out = gelu(x)
        refs.setdefault("gelu x", weakref.ref(_closure(out, "xd")))
        halves.append(_closure(out, "half"))
        return out

    def recording_layer_norm(*args, **kwargs):
        out = layer_norm(*args, **kwargs)
        refs.setdefault("layer_norm xhat", weakref.ref(_closure(out, "xhat")))
        return out

    monkeypatch.setattr(T, "gelu", recording_gelu)
    monkeypatch.setattr(T, "layer_norm", recording_layer_norm)
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    opt = TR.AdamW(m.parameters(), TR.TrainConfig(seed=0))
    x = Tensor(np.random.default_rng(1).standard_normal((4, 32, 32, 3)), dtype=np.float32)
    logits = m.forward(x)
    loss = T.cross_entropy_mean(logits, np.array([0, 1, 2, 3]))
    assert len(refs) == 2 and all(ref() is not None for ref in refs.values())
    assert halves and all(h[0] is None for h in halves)
    m.zero_grad()
    backward(loss)
    assert [name for name, ref in refs.items() if ref() is not None] == []
    assert all(h[0] is None for h in halves)
    assert all(p.grad is not None for p in m.parameters().values())
    opt.step(1e-3)
    assert [k for k, p in m.parameters().items() if p.grad is not None] == []
    assert loss.consumed and logits.consumed


# -- what the tape holds ----------------------------------------------------------

def _micro_training_loss(seed):
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(seed))
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((2, 32, 32, 3)).astype(np.float32))
    return m, T.cross_entropy_mean(m.forward(x), np.array([0, 3]))


def test_same_seed_tape_censuses_are_identical():
    first, second = (T.tape_census(_micro_training_loss(5)[1]) for _ in range(2))
    assert first == second
    assert first["mix_softmax_stack"] > 0 and first["gelu"] > 0


def test_gelu_holds_exactly_its_input(monkeypatch):
    leaf = Tensor(np.random.default_rng(0).standard_normal((4, 6)), requires_grad=True)
    x = T.scale(leaf, 2.0)  # holds no array; x is not a parameter
    y = T.gelu(x)
    assert T.tape_census(y) == {"gelu": x.data.nbytes}
    assert {id(a) for _, a in T._held_arrays(y)} == {id(x.data)}
    # A wrapped rule, as the benchmark tracer installs, counts under its op.
    result = T._result

    def wrapping(data, parents, vjp, op_name):
        return result(data, parents, lambda g: vjp(g), op_name)

    monkeypatch.setattr(T, "_result", wrapping)
    assert T.tape_census(T.gelu(T.scale(leaf, 2.0))) == {"gelu": x.data.nbytes}


def test_a_t_stage_2_gelu_node_holds_one_input_sized_array():
    # PosMLP-T's stage 2: 196 tokens of 1536 hidden channels, 1.2 MB.  The
    # forward forms the erf half a chunk at a time, so the node holds the
    # input alone; the rule forms one input-sized half and drops it.
    st = M.variant_config("T").stages[2]
    rng = np.random.default_rng(0)
    shape = (1, st.window_side ** 2, st.dim * st.expansion)
    x = T.scale(Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True), 1.0)
    g = rng.standard_normal(shape).astype(np.float32)
    nbytes = x.data.nbytes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.gelu(x)
        del x  # its array, allocated before tracing began, lives on in the node
        gc.collect()
        forward, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        (gx,) = y._vjp(g)
        backward, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert T.tape_census(y) == {"gelu": nbytes}
    small, chunk = nbytes // 8, T._CHUNK * 4
    assert forward - before - y.data.nbytes < small
    # the output and three chunk-sized buffers: h, and the kernel's t and s
    assert forward_peak - before < nbytes + 3 * chunk + small
    assert backward - forward - gx.nbytes < small
    # h, the gradient and the rule's two chunk-sized buffers
    assert 2 * nbytes <= backward_peak - forward < 2 * nbytes + 2 * chunk + small


def test_a_window_stack_rule_holds_no_array():
    table = T.scale(Tensor(np.random.default_rng(0).standard_normal((3, 25)), requires_grad=True),
                    2.0)
    assert T._held_arrays(T.window_stack(table, 3)) == []


def _stack_shapes(units):
    """Every layout a unit's (N, s, N) stack takes; one-token windows' stacks are trivial."""
    shapes = set()
    for u in units:
        n, s = u.config.n_tokens, u.config.groups
        if n > 1:
            shapes |= {(n, s, n), (s, n, n), (s, n * n), (n, s * n)}
    return shapes


def test_a_micro_ggqpe_training_tape_holds_no_mixing_stack():
    m, loss = _micro_training_loss(6)
    shapes = _stack_shapes([blk.unit for blocks in m.stages for blk in blocks])
    assert [(op, a.shape) for op, a in T._held_arrays(loss) if a.shape in shapes] == []


def test_a_t_stage_ggqpe_unit_tape_holds_its_stacks_recipe_not_the_stack():
    # PosMLP-T's stage 2: 196-token windows, 32 groups, 1536 hidden channels.
    st = M.variant_config("T").stages[2]
    cfg = G.GatingConfig(kind=G.GatingKind.GGQPE, window_side=st.window_side, groups=st.groups)
    u = G.GatingUnit(cfg, st.dim * st.expansion, rng=np.random.default_rng(0))
    n, s = cfg.n_tokens, cfg.groups
    rng = np.random.default_rng(1)
    # The unit's input is a GELU output, as in a block: the mixed half is a
    # view of it, and the mixing rule keeps the half's remake.
    x = T.gelu(Tensor(rng.standard_normal((1, n, u.width)).astype(np.float32),
                      requires_grad=True))
    loss = T.weighted_sum(u.forward(x), rng.standard_normal((1, n, u.width // 2)))
    assert [a.shape for _, a in T._held_arrays(loss) if a.shape in _stack_shapes([u])] == []
    # the output, the recipe and the shared features: under half the stack
    assert T.tape_census(loss)["mix_softmax_stack"] < n * s * n * 4 // 2


# -- remakes ----------------------------------------------------------------------

# Wide enough rows that a remake runs over several row blocks and a ragged last one.
WIDE = 2 * (T._CHUNK // 8 + 38)


def _leaf(rng, shape, dtype, scale=4.0):
    return Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=True)


def _gelu_input(rng, shape, dtype):
    x = _leaf(rng, shape, dtype)
    big = 1e30 if dtype == np.float32 else 1e300
    x.data.reshape(-1)[:8] = [0.0, -0.0, 1e-40, -1e-40, big, -big, 12.0, -0.68]
    return T.scale(x, 1.0)


def _producers(dtype):
    """Name -> a taped result whose op can remake it, from operands that require a gradient."""
    rng = np.random.default_rng(11)
    gain, shift = _leaf(rng, 6, dtype), _leaf(rng, 6, dtype)
    return {
        "gelu": lambda: T.gelu(_gelu_input(rng, (3, 5, WIDE), dtype)),
        "gelu_split": lambda: T.split(T.gelu(_gelu_input(rng, (3, 5, WIDE), dtype)), 2)[1],
        "gelu_split_axis1": lambda: T.split(T.gelu(_gelu_input(rng, (2, 6, 77), dtype)), 3,
                                            axis=1)[2],
        "mul": lambda: T.mul(T.scale(_leaf(rng, (2, 4, 6), dtype), 1.0),
                             T.scale(_leaf(rng, (2, 4, 6), dtype), 1.0)),
        "gate": lambda: T.mul(T.scale(_leaf(rng, (1, 3, 10), dtype), 1.0),
                              T.split(T.gelu(_gelu_input(rng, (1, 3, 20), dtype)), 2)[1]),
        "layer_norm": lambda: T.layer_norm(T.scale(_leaf(rng, (2, 4, 6), dtype), 1.0),
                                           gain, shift, groups=2),
        "layer_norm_split": lambda: T.split(
            T.layer_norm(T.scale(_leaf(rng, (2, 4, 6), dtype), 1.0), gain, shift), 3)[2],
    }


PRODUCERS = list(_producers(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", PRODUCERS)
def test_a_remake_has_its_results_bits(name, dtype):
    out = _producers(dtype)[name]()
    assert out._remake is not None
    whole = out._remake()
    assert whole.dtype == dtype and whole.shape == out.shape
    assert whole.tobytes() == out.data.tobytes()
    for sl in [(0,), (slice(None), slice(1, 3)), (Ellipsis, slice(2, None))]:
        np.testing.assert_array_equal(out._remake(sl).view(np.uint8),
                                      np.ascontiguousarray(out.data[sl]).view(np.uint8))


def test_an_untaped_result_has_no_remake():
    x = Tensor(np.ones((2, 4)))
    gain, shift = Tensor(np.ones(4)), Tensor(np.zeros(4))
    outs = [T.gelu(x), T.mul(x, x), T.layer_norm(x, gain, shift), *T.split(T.gelu(x), 2)]
    assert all(o._node is None and o._remake is None for o in outs)
    # a mul whose rule keeps only one operand cannot remake its result
    assert T.mul(Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3)))._remake is None


def _consumers(rng, width, dtype):
    w = _leaf(rng, (width, 2), dtype, scale=1.0)
    b = _leaf(rng, 2, dtype, scale=1.0)
    return {"linear": lambda y: T.linear(y, w, b),
            "mul": lambda y: T.mul(y, _leaf(rng, y.shape, dtype, scale=1.0))}


@pytest.mark.parametrize("consumer", ["linear", "mul"])
@pytest.mark.parametrize("name", PRODUCERS)
def test_keeping_a_remake_leaves_the_tape_census_unchanged(name, consumer):
    out = _producers(np.float32)[name]()
    use = _consumers(np.random.default_rng(5), out.shape[-1], np.float32)[consumer]
    assert T.tape_census(use(out)) == T.tape_census(out)


@pytest.mark.parametrize("consumer", ["linear", "mul"])
@pytest.mark.parametrize("name", PRODUCERS)
def test_a_rule_reading_a_remake_gives_the_kept_arrays_gradient(name, consumer):
    grads = []
    for remade in (True, False):
        out = _producers(np.float64)[name]()
        if not remade:
            out._remake = None
        use = _consumers(np.random.default_rng(5), out.shape[-1], np.float64)[consumer]
        y = use(out)
        leaves = [n for n in T._topo_order(y) if isinstance(n, Tensor)]
        backward(T.weighted_sum(y, np.random.default_rng(6).standard_normal(y.shape)))
        grads.append([leaf.grad for leaf in leaves])
    for got, want in zip(*grads):
        assert got.tobytes() == want.tobytes()


def test_a_gate_operand_is_remade_once_per_backward():
    # The gate half is read by mul's rule and by mul's remake, which the
    # out-projection's rule calls: one remake serves both.
    rng = np.random.default_rng(2)
    z = T.scale(_leaf(rng, (1, 3, 10), np.float32), 1.0)
    half = T.split(T.gelu(_gelu_input(rng, (1, 3, 20), np.float32)), 2)[1]
    calls = []
    remake = half._remake

    def counting(sl=...):
        calls.append(sl)
        return remake(sl)

    half._remake = counting
    gated = T.mul(z, half)
    y = _consumers(rng, 10, np.float32)["linear"](gated)
    backward(T.sum_all(y))
    assert calls == [Ellipsis]


def test_a_split_gelu_forms_its_erf_half_once_per_backward(monkeypatch):
    # Both halves are read, by mul's rule and by its remake, which the
    # linear's rule calls; the gelu rule reads the erf half after them.
    calls = []
    kernel = T._gelu_f32

    def counting(x, h, t, s):
        calls.append(x.size)
        kernel(x, h, t, s)

    monkeypatch.setattr(T, "_gelu_f32", counting)
    rng = np.random.default_rng(3)
    y = T.gelu(_gelu_input(rng, (2, 3, WIDE), np.float32))
    n, half = y.size, _closure(y, "half")
    assert calls == [T._CHUNK, n - T._CHUNK]
    a, b = T.split(y, 2)
    out = _consumers(rng, WIDE // 2, np.float32)["linear"](T.mul(a, b))
    calls.clear()
    backward(T.sum_all(out))
    assert calls == [T._CHUNK, n - T._CHUNK]
    assert half[0] is None


def _erf_half_oracle(x):
    """h = erf(x / sqrt(2)) / 2 by the formula the forward has always used."""
    if x.dtype == np.float64:
        return erf(x * 0.7071067811865476) * 0.5
    num = 0.5 * np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                          -1.60960333262415e-02], dtype=np.float32)
    den = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                    -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
    t = np.clip(x * 0.7071067811865476, -4.0, 4.0)
    s = t * t
    p = s * num[0] + num[1]
    for c in num[2:]:
        p = p * s + c
    q = s * den[0] + den[1]
    for c in den[2:]:
        q = q * s + c
    return np.clip(p * t / q, -0.5, 0.5)


def _gelu_oracle(x, g):
    """The output and the input gradient by the formulas a gelu keeping h formed."""
    h = _erf_half_oracle(x)
    if x.dtype == np.float64:
        out = x * (h + 0.5)
    else:
        out = np.maximum(x, 0.0) - np.abs(x * (0.5 - np.abs(h)))
    lim = 15.0 if x.dtype == np.float32 else 40.0
    d = np.clip(x, -lim, lim)
    d = np.exp(d * d * -0.5) * 0.3989422804014327 * x + (h + 0.5)
    return out, d * g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_remakes_and_gradients_have_the_formulas_bits(dtype):
    rng = np.random.default_rng(12)
    lim = 15.0 if dtype == np.float32 else 40.0
    edge = 4 * np.sqrt(2.0)  # where erf's argument is clamped in float32
    big = 1e30 if dtype == np.float32 else 1e300
    special = np.array([0.0, -0.0, edge, -edge, lim, -lim, big, -big, 1e-40, -0.68],
                       dtype=dtype)
    special = np.concatenate([special, np.nextafter(special, np.inf, dtype=dtype),
                              np.nextafter(special, -np.inf, dtype=dtype)])
    x = (rng.standard_normal(3 * (T._CHUNK // 2 + 33)) * 6).astype(dtype)
    x[:special.size] = special
    x = x.reshape(1, 3, -1)
    g = rng.standard_normal(x.shape).astype(dtype)
    with np.errstate(over="ignore", under="ignore"):
        want, gwant = _gelu_oracle(x, g)
    y = T.gelu(T.scale(Tensor(x, requires_grad=True), 1.0))
    halves = T.split(y, 3, axis=1)
    assert y.data.tobytes() == want.tobytes()
    assert y._remake().tobytes() == want.tobytes()
    for i, part in enumerate(halves):
        assert part._remake().tobytes() == want[:, i:i + 1].tobytes()
    assert y._vjp(g)[0].tobytes() == gwant.tobytes()


def test_a_t_training_tape_holds_no_gate_or_projection_input():
    # PosMLP-T 224^2, batch 1: every linear and mul input the backward reads
    # is remade.  What those ops still hold is the pooled features the head
    # reads and each ggqpe unit's (s, 5) constant coefficients.  Each gelu
    # holds its input alone: the stem's two and one per block.
    m = M.build_model(M.variant_config("T"), rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((1, 224, 224, 3)).astype(np.float32))
    loss = T.cross_entropy_mean(m.forward(x), np.array([7]))
    held = [(op, a.shape) for op, a in T._held_arrays(loss) if op in ("linear", "mul")]
    coeffs = [("mul", (blk.unit.config.groups, 5)) for blocks in m.stages for blk in blocks]
    assert sorted(held) == sorted(coeffs + [("linear", (1, m.config.stages[3].dim))])
    census = T.tape_census(loss)
    side = m.config.image_side // 4
    stem = 2 * (2 * side) ** 2 * (m.config.stages[0].dim // 2)
    blocks = sum(st.depth * (side >> i) ** 2 * st.dim * st.expansion
                 for i, st in enumerate(m.config.stages))
    assert census["gelu"] == 4 * (stem + blocks)
    assert sum(census.values()) <= 80 * 2 ** 20


def test_a_t_glrpe_training_tape_holds_no_lookup_indices():
    # PosMLP-T 224^2, batch 1, group-wise lookup units: each stack is a
    # strided copy of its table, so the one integer array the tape holds is
    # the loss's label; the int64 (N, s, N) lookup indices held 185.2 of
    # 404.5 MiB.
    m = M.build_model(M.variant_config("T", gating_kind=G.GatingKind.GLRPE),
                      rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((1, 224, 224, 3)).astype(np.float32))
    loss = T.cross_entropy_mean(m.forward(x), np.array([7]))
    census = T.tape_census(loss)
    assert "take" not in census
    held = [(op, a.shape) for op, a in T._held_arrays(loss) if a.dtype.kind in "iub"]
    assert held == [("cross_entropy_mean", (1,))]
    assert sum(census.values()) <= 225 * 2 ** 20
