"""Dense tensor engine with reverse-mode automatic differentiation.

Values are numpy arrays in row-major order, float32 by default and float64
for test oracles and gradient checks.  Operations record a computation graph
(the tape); ``backward`` walks it once in reverse topological order and
deposits gradients on the ``requires_grad`` leaves.  The tape links nodes,
not tensors, and each backward rule keeps only the arrays it reads, so an
intermediate result is freed as soon as nothing else refers to it.  The
walk consumes the tape: each node drops its rule, and with it the arrays
the rule read, as soon as the rule has fired, so a graph is differentiated
once.

A rule that reads an operand keeps what the operand's op left to remake it,
when that op left one: a result whose op can recompute it bit for bit from
arrays its own rule already holds carries a remake (``Tensor._remake``), a
function returning the result, or a slice of it, afresh.  ``gelu`` remakes
from its input alone, forming its erf half again once per backward;
``layer_norm`` remakes from its standardized input, ``mul`` from its two
operands, and a ``split`` part from its slice of a remakeable input.
``linear``, ``mul``, ``mix_tokens``, ``mix_softmax_stack`` and the
convolutions keep such a remake instead of the array and run it once, in
their rule, so the tape holds one copy of each activation.  A remake reads
the parameters' arrays when it runs, so a parameter edited in place
between the forward and the backward changes the remade values, as it
changes every rule that reads that parameter.

Batched matrix products go through ``np.matmul`` over the leading batch
axes, which numpy carries out as one BLAS call per matrix, so every batch
element sees the byte-identical BLAS call it would see alone; this is what
makes the window weight-sharing tests exact instead of merely close.  A
weight shared by windows or images sums its gradient's products in order
through one helper, ``_window_sum``.  The convolutions convolve the whole
batch in one op with the bits of one BLAS call per image, though
``conv2d`` splits that call into blocks (its docstring names the splits
and where their bits are checked).

Every op checks its own operands' shapes before it computes, and forms its
result through ``_result``, which enforces the rest of the operand
contract for all ops at once: the operands share the result's float dtype
(a float32 op never silently runs in float64), and in checked mode
(``set_checked``) the operands and the result are finite.
"""

import math
import numbers

import numpy as np

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

_checked = False


def set_checked(flag):
    """Globally enable/disable NaN/Inf rejection at op boundaries."""
    global _checked
    _checked = bool(flag)


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an operation's contract."""


class GradError(RuntimeError):
    """Raised on misuse of the backward pass (non-scalar loss, reuse, ...)."""


def check_int(name, value, least=1, error=ValueError):
    """``value`` as an int: the one rule for every size, count, stride and seed.

    Only an integer of at least ``least`` passes, numpy's too, never a bool
    or a float.  Else ``error`` (``ValueError`` from configurations and
    constructors, ``ShapeError`` from ops) names ``name``: the field or op.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _extents(op, shape):
    """``shape`` as a tuple of ints, each at least 1; else a ``ShapeError`` naming ``op``."""
    return tuple(check_int(f"{op}: extent", s, error=ShapeError) for s in shape)


def _axis(op, axis, ndim):
    """``axis`` of an ndim-D operand counted from 0; refuses one outside [-ndim, ndim)."""
    if check_int(f"{op}: axis", axis, least=-ndim, error=ShapeError) >= ndim:
        raise ShapeError(f"{op}: axis {axis} is not below {ndim}")
    return axis % ndim


def _integers(name, values, error):
    """``values`` as a flat int64 array; refuses an array of floats or bools."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        raise error(f"{name} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False).reshape(-1)


def _validate_finite(name, *arrays):
    if not _checked:
        return
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise FloatingPointError(f"{name}: non-finite value in checked mode")


class Tensor:
    """A dense n-dimensional array with an optional gradient tape node.

    ``data`` is a float32 or float64 ndarray; any other ``dtype`` is
    refused with a ``ShapeError``.  The constructor copies its input to
    C-contiguous memory, and most ops form fresh contiguous results; two
    kinds of op result are views instead: ``split``'s parts, slices of
    their input, and the group-major stacks of ``softmax_stack``
    and ``window_stack``, whose ``(N, s, N)`` data is the axis-swapped view
    of ``(s, N, N)`` memory.  Leaves created with ``requires_grad=True``
    receive a ``grad`` buffer of the same shape when ``backward`` runs.  A
    tensor created by an operation that needs a gradient carries a
    ``_Node``; the nodes are the tape.  Such a tensor may also carry
    ``_remake(sl=...)``, which returns ``data[sl]`` afresh, bit for bit,
    from arrays its op's rule holds; it is set after ``_result`` returns.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_remake")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            if np.dtype(dtype) not in (np.float32, np.float64):
                raise ShapeError(f"tensor dtype must be float32 or float64, got {np.dtype(dtype)}")
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if any(s <= 0 for s in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        _validate_finite("Tensor", arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None
        self._remake = None

    # -- tape --------------------------------------------------------------

    @property
    def _parents(self):
        """The parent links of this tensor's tape node; empty if it has none."""
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self):
        """The vector-Jacobian rule of this tensor's tape node, or None."""
        return None if self._node is None else self._node._vjp

    @property
    def consumed(self):
        """True once a backward pass has run through this tensor's tape node."""
        return self._node is not None and self._node._vjp is _consumed

    # -- metadata ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


class _Node:
    """One op's place on the tape: links to its operands' places and its vjp.

    A node holds no values of its own, so an op result's ``data`` lives only
    as long as something other than the tape refers to it; what a backward
    rule needs it captures itself.  ``_parents`` has one link per operand:
    the operand's node, the operand itself if it is a leaf that requires a
    gradient, or None if it needs no gradient.  ``op`` names the op that
    made it, whatever wraps its rule.
    """

    __slots__ = ("_parents", "_vjp", "op")

    def __init__(self, parents, vjp, op):
        self._parents = parents
        self._vjp = vjp
        self.op = op


def _consumed(g=None):
    """The rule of a node whose backward has run; its captured arrays are gone."""
    raise GradError("backward already ran through this graph; rebuild it first")


def _result(data, parents, vjp, op_name):
    """Wrap an op result; it joins the tape only if an operand needs a gradient.

    Every op forms its result here, so this is the one place the operand
    contract is enforced: every operand has the result's dtype, else
    ``ShapeError`` (numpy promotes a result computed from mixed dtypes, so
    a mixed operand never matches it), and in checked mode the result and
    every operand are finite, else ``FloatingPointError`` naming the op.
    Op outputs are freshly computed arrays or the views the ``Tensor``
    docstring names, so this skips the defensive conversions of the public
    constructor.
    """
    for p in parents:
        if p.dtype != data.dtype:
            raise ShapeError(f"{op_name}: dtype mismatch {p.dtype} vs {data.dtype}")
    _validate_finite(op_name, data, *(p.data for p in parents))
    links = tuple((p._node or p) if p.requires_grad else None for p in parents)
    out = _untaped(data)
    if any(link is not None for link in links):
        out.requires_grad = True
        out._node = _Node(links, vjp, op_name)
    return out


def _untaped(data):
    """``data`` as a tensor that needs no gradient, without the constructor's copy to contiguous."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._node = None
    out._remake = None
    return out


class _Remade:
    """An operand's remake as a rule keeps it: run at the first read, its array reused after.

    So a rule and its own result's remake, which read the same operand,
    remake it once between them.
    """

    __slots__ = ("remake", "array")

    def __init__(self, remake):
        self.remake = remake
        self.array = None

    def __call__(self):
        if self.array is None:
            self.array, self.remake = self.remake(), None
        return self.array


def _kept(t):
    """What a rule keeps to read operand t's data: its remake if its op gave it one, else the array."""
    return t.data if t._remake is None else _Remade(t._remake)


def _read(kept):
    """The data that ``_kept`` kept, remade at the first read."""
    return kept() if isinstance(kept, _Remade) else kept


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# -- elementwise ops -------------------------------------------------------

def add(a, b):
    _check_same_shape("add", a, b)
    return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a, b):
    _check_same_shape("sub", a, b)
    return _result(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a, b):
    """Hadamard product.

    When the rule keeps both operands, the result can be remade from them.
    """
    _check_same_shape("mul", a, b)
    # Each operand's gradient reads only the other operand.
    ak = _kept(a) if b.requires_grad else None
    bk = (ak if b is a else _kept(b)) if a.requires_grad else None

    def vjp(g):
        return (None if bk is None else g * _read(bk), None if ak is None else g * _read(ak))

    out = _result(a.data * b.data, (a, b), vjp, "mul")
    if ak is not None and bk is not None:
        out._remake = lambda sl=...: _read(ak)[sl] * _read(bk)[sl]
    return out


def neg(x):
    return _result(-x.data, (x,), lambda g: (-g,), "neg")


def scale(x, c):
    """Multiply by a python scalar constant."""
    c = float(c)
    return _result(x.data * c, (x,), lambda g: (g * c,), "scale")


def add_scalar(x, c):
    c = float(c)
    return _result(x.data + c, (x,), lambda g: (g,), "add_scalar")


# -- matrix products -------------------------------------------------------

def matmul(a, b):
    """Strict matrix product ``[m x k] @ [k x n]``, or a stack of them.

    Stacked operands ``(s, m, k)`` and ``(s, k, n)`` give ``(s, m, n)``;
    each product is the one its pair of matrices gives alone.
    """
    if a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects 2-D operands or equal stacks of them, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} x {b.shape}")
    out = a.data @ b.data
    # Each operand's gradient reads only the other operand.
    bt = np.swapaxes(b.data, -1, -2) if a.requires_grad else None
    at = np.swapaxes(a.data, -1, -2) if b.requires_grad else None

    def vjp(g):
        return (None if bt is None else g @ bt, None if at is None else at @ g)

    return _result(out, (a, b), vjp, "matmul")


def _window_sum(a, b, out, part=None):
    """Sum a shared weight's gradient, Σ_w ``a[w] @ b[w]``, into out in w order; return out.

    The first product is written into out and each later one is formed
    (into part, when given) and added, so an exactly -0.0 sum stays -0.0
    where adding into a zero-filled matrix would give +0.0.  Each product
    is one ``np.matmul``: one BLAS call per matrix of a stacked pair.
    """
    np.matmul(a[0], b[0], out=out)
    for i in range(1, len(a)):
        out += np.matmul(a[i], b[i], out=part)
    return out


def _by_group(a, s):
    """(B, N, C) array as the (B, s, N, c) view of its s channel groups."""
    b, n, c = a.shape
    return a.reshape(b, n, s, c // s).transpose(0, 2, 1, 3)


def _mix_input_grad(w, gg, out):
    """``mix_tokens``' input gradient: the (s, N, N) stack w, transposed, times the group view gg, into out."""
    np.matmul(w.transpose(0, 2, 1), gg, out=out)


def mix_tokens(w, x, out=None):
    """Apply an ``(N, s, N)`` stack of token-mixing weights to ``x`` of shape ``(B, N, C)``.

    The stack's entry ``w[:, g]`` mixes the g-th of s equal contiguous
    channel groups; one matrix is the stack ``w[:, None]`` of s = 1.  The
    forward and the input gradient are each one ``np.matmul`` of the
    stack's ``(s, N, N)`` view with the ``(B, s, N, c)`` view of every
    window's channel groups, and the weight gradient is one per window,
    summed over the windows in window order by ``_window_sum``; numpy
    carries each out as one BLAS call per (window, group) on that pair's
    strided matrices alone.  So each window's result is bitwise identical
    to processing that window alone, and each group's to mixing that
    group's channels on their own.  The stacks of ``softmax_stack`` and
    ``window_stack`` are group-major, so their ``(s, N, N)`` view is
    contiguous and each group's matrix is read in one run; any other
    layout of w, and an x that is a view (a ``split`` part), give the same
    bits.  The weight gradient is formed group-major too and returned as
    its ``(N, s, N)`` view.  ``mix_softmax_stack``'s rule forms its
    products with the same ``_mix_input_grad`` and ``_window_sum`` calls.

    ``out``, a ``(B, N, C)`` array or view with unit stride along C, takes
    the product in place of a new array; the result wraps it.  It is for
    operands that need no gradient: ``mix_softmax_stack`` writes each
    chunk's product straight into its channels of the whole output.
    """
    if w.ndim != 3 or w.shape[0] != w.shape[2]:
        raise ShapeError(f"mix_tokens: expected an (N, s, N) stack, got {w.shape}")
    n, s = w.shape[:2]
    if x.ndim != 3 or x.shape[1] != n or x.shape[2] % s != 0:
        raise ShapeError(f"mix_tokens: weights {w.shape} do not fit input {x.shape}")
    xshape, dtype = x.shape, x.dtype
    if out is None:
        out = np.empty(xshape, dtype=dtype)
    elif out.shape != xshape or out.dtype != dtype:
        raise ShapeError(f"mix_tokens: out {out.shape} {out.dtype} does not fit input "
                         f"{xshape} {dtype}")
    elif w.requires_grad or x.requires_grad:
        raise GradError("mix_tokens: out takes only a product that needs no gradient")
    wg = w.data.transpose(1, 0, 2)
    np.matmul(wg, _by_group(x.data, s), out=_by_group(out, s))
    # The weight gradient reads x, the input gradient the weights.
    xk = _kept(x) if w.requires_grad else None
    wk = wg if x.requires_grad else None

    def vjp(g):
        gw = gx = None
        gg = _by_group(g, s)
        if xk is not None:
            xgt = _by_group(_read(xk), s).transpose(0, 1, 3, 2)
            gw = _window_sum(gg, xgt, np.empty((s, n, n), dtype=dtype)).transpose(1, 0, 2)
        if wk is not None:
            gx = np.empty(xshape, dtype=dtype)
            _mix_input_grad(wk, gg, _by_group(gx, s))
        return gw, gx

    return _result(out, (w, x), vjp, "mix_tokens")


# Bytes of stack rows the softmax-stack mixing works through at once: four
# float32 groups of a 196-token window, which stay in L2.
_STACK_CHUNK_BYTES = 5 << 17

# The power of two by which mix_softmax_stack's rule scales the gradient on
# the vectors' path, and divides it out of the vectors' gradient.
_GRAD_SCALE = 2.0 ** 24


def mix_softmax_stack(recipe, vectors, features, x, bias=None):
    """x mixed by the softmax stack that ``recipe`` rebuilds, plus an optional token bias.

    ``recipe`` is the ``StackRecipe`` of the group-major ``(s, N^2)``
    logits ``vectors @ features``, as ``positional.group_weight_stack``
    builds it with ``stack_recipe``: ``vectors`` is ``(s, m)`` and
    ``features`` a constant ``(m, N^2)``.  The result is bitwise
    ``mix_tokens(stack, x)`` followed by ``add_token_bias``, where stack is
    ``softmax_stack``'s, and one tape node links its gradient to the
    vectors, x and the bias.  The whole stack is never formed.

    The forward goes through the groups in chunks of ``_STACK_CHUNK_BYTES``
    of stack rows, four float32 groups at N = 196, which stay in L2.  It
    rebuilds each chunk from the recipe, with the stack's bits, into one
    buffer of this call, and mixes the chunk's channel groups with it
    through an untaped ``mix_tokens`` call of an ``(N, s', N)`` stack,
    which writes them straight into the output.  That call forms each
    (window, group) product as the whole stack's call does, so the output
    has its bits, and the benchmark's tracer counts the products' MACs in
    ``mix_tokens``.  The bias is added in place.

    The node keeps the recipe, x and its own output.  Its rule goes
    through the same chunks, rebuilds each, and forms the chunk's input
    gradient and stack gradient with ``mix_tokens``' own calls,
    ``_mix_input_grad`` and ``_window_sum``.  The vectors' gradient never
    forms the ``(N, s, N)`` stack gradient.  The softmax's row term r comes
    from the output: r_i = sum of G_i * (Z_i - b_i) over the windows and a
    group's channels, which equals the row sum of the stack gradient times
    the stack.  The chunk's stack gradient, less r, multiplies the chunk,
    which was rebuilt straight into the group-major ``(s, N^2)`` logit
    gradient.  One product with the features' transpose, the one
    ``matmul``'s rule forms, ends the rule.  That product takes the whole
    logit gradient: split into row blocks, OpenBLAS rounds it differently.

    On the vectors' path (r, the stack gradient and the logit gradient)
    the rule works on g times ``_GRAD_SCALE`` = 2^24 and multiplies the
    vectors' gradient by 2^-24.  Scaling by a power of two is exact for
    every normal value, so it changes only results that would otherwise be
    subnormal: a batch-1 loss spread over 196-token rows gives logit
    gradients near 1e-9, several percent of whose float32 products are
    subnormal unscaled, which is slower and less accurate.  The input and
    bias gradients use g as it comes.  Each row of the stack sums to 1, so
    every scaled value is at most 2^25 B c N (k-1)^2 max|g| max|x|, for B
    windows and c channels per group: at T's stage 2 at batch 1, float32
    overflows only where max|g| max|x| exceeds about 1e25.
    """
    n, s = recipe.shape[:2]
    if vectors.ndim != 2 or vectors.shape[0] != s or features.shape != (vectors.shape[1], n * n):
        raise ShapeError(f"mix_softmax_stack: vectors {vectors.shape} and features "
                         f"{features.shape} do not generate a recipe of {recipe.shape}")
    if x.ndim != 3 or x.shape[1] != n or x.shape[2] % s != 0:
        raise ShapeError(f"mix_softmax_stack: a recipe of {recipe.shape} does not fit input "
                         f"{x.shape}")
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"mix_softmax_stack: bias {bias.shape} does not fit a recipe of "
                         f"{recipe.shape}")
    for dtype in (recipe.dtype, features.dtype):
        if dtype != vectors.dtype:
            raise ShapeError(f"mix_softmax_stack: dtype mismatch {dtype} vs {vectors.dtype}")
    xshape, dtype = x.shape, vectors.dtype
    c = xshape[2] // s
    step = max(1, _STACK_CHUNK_BYTES // (n * n * dtype.itemsize))
    chunk = (min(step, s), n, n)
    out = np.empty(xshape, dtype=dtype)
    ys = np.empty(chunk, dtype=dtype)
    for lo in range(0, s, step):
        hi = min(lo + step, s)
        y = recipe.write(lo, hi, ys[:hi - lo])
        mix_tokens(_untaped(y.transpose(1, 0, 2)), _untaped(x.data[..., lo * c:hi * c]),
                   out=out[..., lo * c:hi * c])
    if bias is not None:
        out += bias.data[:, None]
    grouped = (xshape[0], n, s, c)

    # The vectors' gradient reads x, the output, the bias and the features;
    # both it and the input gradient read the stack, rebuilt from the recipe.
    to_vectors, to_x = vectors.requires_grad, x.requires_grad
    to_bias = bias is not None and bias.requires_grad
    xk = _kept(x) if to_vectors else None
    zd = out if to_vectors else None
    bd = bias.data if to_vectors and bias is not None else None
    ft = np.swapaxes(features.data, -1, -2) if to_vectors else None

    def vjp(g):
        gg = _by_group(g, s)
        gv = gx = gb = None
        if to_vectors:
            gs = g * _GRAD_SCALE
            z = zd if bd is None else zd - bd[:, None]
            r = np.einsum("bnsc,bnsc->sn", gs.reshape(grouped), z.reshape(grouped))
            del z
            gsg = _by_group(gs, s)
            xgt = _by_group(_read(xk), s).transpose(0, 1, 3, 2)
            gw = np.empty(chunk, dtype=dtype)
            part = np.empty(chunk, dtype=dtype) if xshape[0] > 1 else None
        if to_x:
            gx = np.empty(xshape, dtype=dtype)
        if to_vectors or to_x:
            # For the vectors' gradient the chunks are rebuilt straight into
            # the logit gradient, else into one reused chunk.
            ys = np.empty((s, n, n) if to_vectors else chunk, dtype=dtype)
            for lo in range(0, s, step):
                hi = min(lo + step, s)
                y = recipe.write(lo, hi, ys[lo:hi] if to_vectors else ys[:hi - lo])
                if to_x:
                    _mix_input_grad(y, gg[:, lo:hi], _by_group(gx, s)[:, lo:hi])
                if to_vectors:
                    w = _window_sum(gsg[:, lo:hi], xgt[:, lo:hi], gw[:hi - lo],
                                    None if part is None else part[:hi - lo])
                    w -= r[lo:hi, :, None]
                    y *= w
        if to_vectors:
            gv = ys.reshape(s, n * n) @ ft
            gv *= 1.0 / _GRAD_SCALE
        if to_bias:
            gb = g.sum(axis=(0, 2))
        return (gv, gx) if bias is None else (gv, gx, gb)

    parents = (vectors, x) if bias is None else (vectors, x, bias)
    return _result(out, parents, vjp, "mix_softmax_stack")


def _rows_product(a, b):
    """``a @ b`` over the last two axes; one-row matrices in a form whose bits
    the BLAS thread count cannot change.

    A product of one-row matrices goes through ``np.einsum``, which runs no
    BLAS and no threads: OpenBLAS splits a one-row product's columns
    between its threads, and at some widths (the 1000 classes of a batch-1
    head among them) the bits depend on the split.  einsum's bits depend on
    its operands' layouts, which here are always the same: a row-major x
    or gradient against a weight or its transposed view.  Other products
    are one ``np.matmul``, one BLAS call per matrix.
    """
    return np.einsum("...ij,jk->...ik", a, b) if a.shape[-2] == 1 else a @ b


def linear(x, w, b):
    """Channel projection ``y = x @ w + b`` over the last axis of 2/3-D x.

    The forward is one ``np.matmul``, one BLAS call per leading index of a
    3-D x, and the bias is added in place; the forward and the input
    gradient of one-row matrices take ``_rows_product``'s thread-free form.
    The weight gradient sums the leading indices' products in index order
    with ``_window_sum`` (a 2-D x is one index).
    """
    if x.ndim not in (2, 3) or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: cannot apply {w.shape} weight to input {x.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} does not match width {w.shape[1]}")
    xd, wd = x.data, w.data
    out = _rows_product(xd, wd)
    out += b.data
    # The input gradient reads the weight, the weight gradient the input.
    wt = wd.T if x.requires_grad else None
    xk = _kept(x) if w.requires_grad else None
    bias_grad = b.requires_grad

    def vjp(g):
        gx = None if wt is None else _rows_product(g, wt)
        gw = None
        if xk is not None:
            xs = _read(xk)
            xs = xs.reshape((-1,) + xs.shape[-2:])
            gw = _window_sum(xs.transpose(0, 2, 1), g.reshape(xs.shape[:2] + (-1,)),
                             np.empty((xs.shape[2], g.shape[-1]), dtype=g.dtype))
        return gx, gw, g.sum(axis=tuple(range(g.ndim - 1))) if bias_grad else None

    return _result(out, (x, w, b), vjp, "linear")


def add_map(x, m):
    """Add a shared ``(N, C)`` map to every batch element of ``(B, N, C)`` x."""
    if x.ndim != 3 or m.ndim != 2 or x.shape[1:] != m.shape:
        raise ShapeError(f"add_map: map {m.shape} does not fit input {x.shape}")
    out = x.data + m.data[None]

    def vjp(g):
        return g, g.sum(axis=0)

    return _result(out, (x, m), vjp, "add_map")


def add_token_bias(x, b):
    """Add a per-token-position bias ``b`` of length N to ``(B, N, C)`` x."""
    if x.ndim != 3 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_token_bias: {b.shape} does not fit input {x.shape}")
    out = x.data + b.data[None, :, None]

    def vjp(g):
        return g, g.sum(axis=(0, 2))

    return _result(out, (x, b), vjp, "add_token_bias")


# -- shape ops (copies, except split's views of its input) ------------------

def reshape(x, shape):
    shape = _extents("reshape", shape)
    if np.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape
    return _result(x.data.reshape(shape).copy(), (x,),
                   lambda g: (g.reshape(old),), "reshape")


def transpose2(x):
    if x.ndim != 2:
        raise ShapeError(f"transpose2 expects a matrix, got {x.shape}")
    return _result(np.ascontiguousarray(x.data.T), (x,),
                   lambda g: (np.ascontiguousarray(g.T),), "transpose2")


def split(x, parts, axis=-1):
    """Split into ``parts`` equal contiguous slices along ``axis``, each a view of x.

    Returns a list of tensors whose data are slices of x's data, so x's
    memory lives as long as any part does.  ``concat(split(x, n), axis)``
    reproduces x exactly.  The parts of an input that can be remade can be
    remade too, each on its own slice.

    The parts' rules fill one input-sized gradient buffer, allocated by
    the first to fire: each writes ``g + 0.0`` into its own slice.  The
    parts link to x through one node of their own, which the buffer
    reaches only from them and which passes it on once they have all
    fired; that node zero-fills the slices of parts that never fired and,
    if only one part fired, rewrites its slice with the gradient as it
    came, which the rule held until then.  So each entry has the bits of
    zero-filling a gradient per part and summing them: ``0.0 + g`` turns a
    -0.0 into +0.0 wherever a second part fired.
    """
    axis = _axis("split", axis, x.ndim)
    check_int("split: parts", parts, error=ShapeError)
    extent = x.shape[axis]
    if extent % parts != 0:
        raise ShapeError(f"split: axis extent {extent} not divisible into {parts} parts")
    step = extent // parts
    shape = x.shape
    slices = []
    for i in range(parts):
        sl = [slice(None)] * x.ndim
        sl[axis] = slice(i * step, (i + 1) * step)
        slices.append(tuple(sl))
    # The buffer, the slices filled so far, and the first part's gradient,
    # held while it is the only one.
    fill = [None, [], None]

    def pass_on(g):
        buf, filled, alone = fill
        if alone is not None:
            buf[filled[0]] = alone
        for sl in slices:
            if sl not in filled:
                buf[sl] = 0.0
        fill[:] = None, [], None
        return (g,)

    whole = _Node(((x._node or x),), pass_on, "split") if x.requires_grad else None
    outs = []
    for sl in slices:
        def vjp(g, _sl=sl):
            buf, filled, _ = fill
            first = buf is None
            if first:
                buf = fill[0] = np.empty(shape, dtype=g.dtype)
            fill[2] = g if first else None
            np.add(g, 0.0, out=buf[_sl])
            filled.append(_sl)
            return (buf if first else None,)

        part = _result(x.data[sl], (x,), vjp, "split")
        if whole is not None:
            part._node._parents = (whole,)
        if x._remake is not None:
            part._remake = _part_remake(x._remake, sl)
        outs.append(part)
    return outs


def _part_remake(whole, sl):
    """The remake of slice ``sl`` of a result whose remake is ``whole``."""
    return lambda sub=...: whole(sl)[sub]


def concat(parts, axis=-1):
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: empty input list")
    axis = _axis("concat", axis, parts[0].ndim)
    if len({(p.ndim, p.shape[:axis] + p.shape[axis + 1:]) for p in parts}) != 1:
        raise ShapeError(f"concat: parts {[p.shape for p in parts]} differ off axis {axis}")
    sizes = [p.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(np.ascontiguousarray(g[tuple(sl)]))
        return tuple(grads)

    return _result(data, tuple(parts), vjp, "concat")


def take(x, flat_indices, out_shape):
    """Gather ``x.flat[idx]`` into ``out_shape``; duplicates accumulate on backward.

    ``out_shape`` follows ``reshape``'s extent rule, so an empty gather is refused.
    """
    idx = _integers("take: indices", flat_indices, ShapeError)
    out_shape = _extents("take", out_shape)
    if np.prod(out_shape) != idx.size:
        raise ShapeError(f"take: {idx.size} indices do not fill {out_shape}")
    if not 0 <= idx.min() <= idx.max() < x.size:
        raise ShapeError(f"take: an index lies outside the {x.size} elements of {x.shape}")
    data = x.data.reshape(-1)[idx].reshape(out_shape)
    shape, size = x.shape, x.size

    def vjp(g):
        gx = np.zeros(size, dtype=g.dtype)
        np.add.at(gx, idx, g.reshape(-1))
        return (gx.reshape(shape),)

    return _result(data, (x,), vjp, "take")


def permute_flat(x, shape, axes, out_shape):
    """x read as ``shape`` (its own if None), axes permuted by ``axes``, copied out as ``out_shape``."""
    if axes is None:
        raise ShapeError("permute_flat: axes are required; reshape is the op for a pure reshape")
    view = x.data
    if shape is not None:
        shape = _extents("permute_flat", shape)
        if np.prod(shape) != x.size:
            raise ShapeError(f"permute_flat: {shape} does not hold the {x.size} "
                             f"elements of {x.shape}")
        view = view.reshape(shape)
    axes = tuple(check_int("permute_flat: axis", a, least=0, error=ShapeError) for a in axes)
    if sorted(axes) != list(range(view.ndim)):
        raise ShapeError(f"permute_flat: {axes} is not a permutation of the axes of {view.shape}")
    view, inv = view.transpose(axes), tuple(np.argsort(axes).tolist())
    out_shape = _extents("permute_flat", out_shape)
    if np.prod(out_shape) != x.size:
        raise ShapeError(f"permute_flat: {out_shape} does not hold the {x.size} "
                         f"elements of {x.shape}")
    data = view.copy().reshape(out_shape)
    view_shape, shape = view.shape, x.shape

    def vjp(g):
        return (g.reshape(view_shape).transpose(inv).copy().reshape(shape),)

    return _result(data, (x,), vjp, "permute_flat")


# -- nonlinearities and normalization ---------------------------------------

# Added to every variance layer_norm divides by.
LN_EPS = 1e-5

# Coefficients of erf(t) ~ t * P(t^2) / Q(t^2) in float32, highest power
# first; P is halved (see _gelu_f32).
_ERF_F32_NUM = 0.5 * np.array(
    [-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
     -1.60960333262415e-02], dtype=np.float32)
_ERF_F32_DEN = np.array(
    [-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)

# Elements per pass of the elementwise loops: the few chunk-sized buffers a
# loop touches stay in cache between its passes.
_CHUNK = 1 << 16


def _chunks(n):
    return (slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


def _row_blocks(*arrays):
    """Arrays of one shape read as (rows, last extent), in blocks of about ``_CHUNK`` elements."""
    width = arrays[0].shape[-1] if arrays[0].ndim else 1
    rows = [a.reshape(-1, width) for a in arrays]
    step = max(1, _CHUNK // width)
    for lo in range(0, rows[0].shape[0], step):
        yield [r[lo:lo + step] for r in rows]


def _gelu_scipy(x, h, t, s):
    """h = erf(x / sqrt(2)) / 2 from SciPy's erf; t and s are unused."""
    from scipy.special import erf

    np.multiply(x, _INV_SQRT2, out=h)
    erf(h, out=h)
    h *= 0.5


def _gelu_out_scipy(x, h, out, s):
    """out = x * Phi(x) from h = erf(x / sqrt(2)) / 2; s is scratch.

    Phi = h + 1/2 has the bits of (erf + 1) / 2: halving is exact.
    """
    np.add(h, 0.5, out=s)
    np.multiply(x, s, out=out)


def _gelu_f32(x, h, t, s):
    """h = erf(x / sqrt(2)) / 2 from a float32 rational erf; t, s are scratch.

    erf's argument is clamped to [-4, 4], where the rational function
    reaches exactly +-1, and an odd degree-13 numerator is divided by an
    even degree-8 denominator (the form of Eigen's and XLA's float erf).
    The numerator's coefficients are halved, which changes no bit, so the
    quotient is h = erf/2; rounding can carry it a few spacings past +-1/2,
    so it is clipped back.  Phi(x) is h + 1/2, and the output is formed
    from h by ``_gelu_out_f32``.  Only +, -, *, /, abs, max and clip run,
    so each element's bits depend on its value alone.
    """
    np.multiply(x, _INV_SQRT2, out=t)
    np.clip(t, -4.0, 4.0, out=t)
    np.multiply(t, t, out=s)
    a = _ERF_F32_NUM
    np.multiply(s, a[0], out=h)
    h += a[1]
    for c in a[2:]:
        h *= s
        h += c
    h *= t
    b = _ERF_F32_DEN
    np.multiply(s, b[0], out=t)
    t += b[1]
    for c in b[2:]:
        t *= s
        t += c
    h /= t
    np.clip(h, -0.5, 0.5, out=h)


def _gelu_out_f32(x, h, out, s):
    """out = x * Phi(x) from the clipped erf half h; s is scratch.

    The output is max(x, 0) - |x| * (1/2 - |h|), where 1/2 - |h| =
    Phi(-|x|) is exact for |x| >= 0.68 (|h| >= 1/4): x * (1/2 + h) would
    add the rounding of 1/2 + h, up to half a spacing of x, to the error
    for positive x.
    """
    np.abs(h, out=s)
    np.subtract(0.5, s, out=s)
    np.multiply(x, s, out=s)
    np.abs(s, out=s)
    np.maximum(x, 0.0, out=out)
    out -= s


def gelu(x):
    """Exact Gaussian-CDF GELU, x * Phi(x), with Phi(x) = (1 + erf(x/sqrt(2))) / 2.

    float64 takes erf from SciPy.  float32 takes it from a float32 rational
    function (``_gelu_f32``): every finite float32 output lies within 3.55
    float32 spacings of |x| of the float64 result, has the sign of x, and
    depends on its input's value alone.  Both work in place over chunks
    that stay in cache: the forward forms h = erf(x/sqrt(2)) / 2 a chunk at
    a time and writes only the output.  The rule keeps x alone.  The
    backward's first read, the rule's or the result's remake's, forms one
    input-sized h from x again with the same kernel, which the rule and
    every remake share and the rule drops once it has run; so h is formed
    once per backward and its bits are the forward's.  The rule forms Phi =
    h + 1/2 as it goes, and the remake forms the output, or any slice of
    it, with the forward's ops, so its bits are the output's.
    """
    xd = x.data
    xf = xd.reshape(-1)
    n, dtype = xf.size, xd.dtype
    out = np.empty_like(xd)
    outf = out.reshape(-1)
    kernel, output = (_gelu_f32, _gelu_out_f32) if dtype == np.float32 else \
        (_gelu_scipy, _gelu_out_scipy)
    h, t, s = np.empty((3, min(n, _CHUNK)), dtype=dtype)
    for sl in _chunks(n):
        m = sl.stop - sl.start
        kernel(xf[sl], h[:m], t[:m], s[:m])
        output(xf[sl], h[:m], outf[sl], s[:m])
    # Freed before _result, whose finiteness check in checked mode allocates.
    del h, t, s
    # h over the whole input, from the backward's first read until the rule has run.
    half = [None]

    def erf_half():
        if half[0] is None:
            hf = np.empty_like(xf)
            t, s = np.empty((2, min(n, _CHUNK)), dtype=dtype)
            for sl in _chunks(n):
                m = sl.stop - sl.start
                kernel(xf[sl], hf[sl], t[:m], s[:m])
            half[0] = hf.reshape(xd.shape)
        return half[0]

    def vjp(g):
        hf = erf_half().reshape(-1)
        gf = g.reshape(-1)
        gx = np.empty_like(xd)
        gxf = gx.reshape(-1)
        d, phi = np.empty((2, min(n, _CHUNK)), dtype=dtype)
        # exp(-x^2/2) is already 0 at the clamp, so clamping first changes
        # no bit and keeps x^2 from overflowing.
        lim = 15.0 if dtype == np.float32 else 40.0
        for sl in _chunks(n):
            m = sl.stop - sl.start
            xs, ds, ps = xf[sl], d[:m], phi[:m]
            np.clip(xs, -lim, lim, out=ds)
            ds *= ds
            ds *= -0.5
            np.exp(ds, out=ds)
            ds *= _INV_SQRT2PI
            ds *= xs
            np.add(hf[sl], 0.5, out=ps)
            ds += ps
            np.multiply(ds, gf[sl], out=gxf[sl])
        half[0] = None
        return (gx,)

    def remake(sl=...):
        xs = xd[sl]
        y = np.empty(xs.shape, dtype=dtype)
        s = None
        for xb, hb, yb in _row_blocks(xs, erf_half()[sl], y):
            s = np.empty_like(yb) if s is None else s[:len(yb)]
            output(xb, hb, yb, s)
        return y

    out = _result(out, (x,), vjp, "gelu")
    if out._node is not None:
        out._remake = remake
    return out


def softplus(x):
    xd = x.data
    out = np.log1p(np.exp(-np.abs(xd))) + np.maximum(xd, 0.0)

    def vjp(g):
        from scipy.special import expit

        return (g * expit(xd),)

    return _result(out.astype(xd.dtype, copy=False), (x,), vjp, "softplus")


def softmax_rows(x):
    """Softmax over the last axis, stabilized by max subtraction.

    An entry whose logit lies more than ln(eps/tiny) below its row's maximum
    (71.39 in float32, 672.35 in float64) gets weight exactly 0: one masked
    pass sets it to -inf before the exponential.  Its exponential would be
    under tiny/eps (2**-103 in float32) of the row's largest, far below
    what can move the row sum.  Every nonzero weight is
    then at least tiny/(eps*L) for rows of length L, so no exponential and
    no weight is subnormal, nor (for L <= 256) any product of a weight with
    a value of magnitude 2**-15 or more.  A sharp positional prior otherwise
    puts several percent of its float32 weights where such products are
    subnormal, and each mixing product and its gradient slows on common CPUs.
    """
    if x.ndim < 2:
        raise ShapeError(f"softmax_rows expects a matrix or a stack of rows, got {x.shape}")
    y = np.empty(x.shape, dtype=x.dtype)
    np.subtract(x.data, x.data.max(axis=-1, keepdims=True), out=y)
    _cut_exp(y)
    y /= y.sum(axis=-1, keepdims=True)
    return _softmax_result(y, x, "softmax_rows")


def _cut_exp(y):
    """The exponential of y in place, exactly 0 below the cut of ``softmax_rows``."""
    fi = np.finfo(y.dtype)
    # One masked pass sets the entries below the cut to -inf, whose
    # exponential is exactly 0; the others keep every bit.
    np.copyto(y, -np.inf, where=y < -np.log(fi.eps / fi.tiny))
    np.exp(y, out=y)


def _softmax_result(y, x, op_name, swap=False):
    """Row softmaxes y of x's data as the op's result on x.

    The gradient is the softmax's, returned in x's shape.  With ``swap`` the
    result is the view of 3-D y with its first two axes swapped, and the
    rule reads its gradient through the same swap.
    """
    shape = x.shape

    def vjp(g):
        if swap:
            g = g.transpose(1, 0, 2)
        gx = g - (g * y).sum(axis=-1, keepdims=True)
        gx *= y
        return (gx.reshape(shape),)

    return _result(y.transpose(1, 0, 2) if swap else y, (x,), vjp, op_name)


def _row_runs(table, k):
    """c groups' displacement tables as the ``(c, k, k, N)`` view of each row's window in one run.

    ``table`` is a contiguous ``(c, (2k-1)^2)`` array whose entry
    ``[g, a * (2k-1) + b]`` is displacement (a - k + 1, b - k + 1).  Row
    (ix, iy), the query at (ix, iy), reads the k x k window of the
    (2k-1) x (2k-1) table at (k-1-ix, k-1-iy).  One strided copy forms
    ``by_row[g, iy, a, jy] = table[g, a, k-1-iy+jy]``, which holds that
    window at ``by_row[g, iy, k-1-ix:2k-1-ix]``: N contiguous entries, key
    (jx, jy) at ``jx * k + jy``.  Entry ``[g, iy, ix]`` of the returned
    view is that run, with no gather.  It is the one reader of the table
    layout: ``_table_windows`` reads the runs as windows, and
    ``stack_recipe`` sums them.
    """
    c, dtype, e, side = table.shape[0], table.dtype, table.itemsize, 2 * k - 1
    by_row = np.ndarray((c, k, side, k), dtype, table, (k - 1) * e,
                        (side * side * e, -e, side * e, e)).copy()
    return np.ndarray((c, k, k, k * k), dtype, by_row, (k - 1) * k * e,
                      (k * side * k * e, side * k * e, -k * e, e))


def _table_windows(table, k):
    """Each row's window of c groups' displacement tables, as a (c, k, k, k, k) view.

    Entry ``[g, ix, iy, jx, jy]`` of the view is group g's entry for the
    pair of query (ix, iy) and key (jx, jy), read from ``_row_runs``.
    ``_copy_windows`` copies it out for ``window_stack``, and
    ``StackRecipe.write`` divides it out.  Its ``(c, N, N)`` reshape is
    the group-major stack itself.
    """
    runs = _row_runs(table, k)
    return runs.reshape(runs.shape[:3] + (k, k)).transpose(0, 2, 1, 3, 4)


def _copy_windows(table, k, out):
    """c groups' ``(c, (2k-1)^2)`` tables copied into the group-major ``(c, N, N)`` stack ``out``.

    Entry ``[g, i, j]`` of ``out`` becomes group g's entry for the pair of
    query i and key j: row i of group g is g's window for query i.
    """
    np.copyto(out.reshape(table.shape[0], k, k, k, k), _table_windows(table, k))


def window_stack(table, k):
    """The ``(N, s, N)`` stack of s displacement tables of a k x k window (N = k^2).

    ``table`` is ``(s, (2k-1)^2)``: entry ``(dx + k - 1) * (2k - 1) +
    (dy + k - 1)`` of row g is group g's value for displacement (dx, dy).
    Entry ``[i, g, j]`` of the stack is group g's value for the displacement
    from query token i to key token j, copied out through strided views of
    the table (``_table_windows``), with no index array.  The stack is
    group-major: its data is the ``(N, s, N)`` view of ``(s, N, N)``
    memory, so each group's matrix is one contiguous run.

    The gradient starts from zeros and adds each row's window back into the
    table, row by row in order, so each table entry sums its pairs in the
    order ``np.add.at`` over the pairs' flat indices does, bit for bit.  The
    rule holds no array.
    """
    k = check_int("window_stack: k", k, error=ShapeError)
    side = 2 * k - 1
    if table.ndim != 2 or table.shape[1] != side * side:
        raise ShapeError(f"window_stack: expected (s, {side * side}) tables of a {k} x {k} "
                         f"window, got {table.shape}")
    s, n = table.shape[0], k * k
    data = np.empty((s, n, n), dtype=table.dtype)
    _copy_windows(table.data, k, data)

    def vjp(g):
        gt = np.zeros((s, side, side), dtype=g.dtype)
        for i in range(n):
            a, b = k - 1 - i // k, k - 1 - i % k
            gt[:, a:a + k, b:b + k] += g[i].reshape(s, k, k)
        return (gt.reshape(s, side * side),)

    return _result(data.transpose(1, 0, 2), (table,), vjp, "window_stack")


class StackRecipe:
    """What a softmax stack is rebuilt from, some groups at a time, with its bits.

    ``stack_recipe`` makes one from a stack's logits; ``shape`` is the
    ``(N, s, N)`` stack's shape.  The recipe is small: each group's
    (2k-1)^2 exponentiated logits (``table``); the groups, rows and
    numerators of the rows that miss their group's peak (``off_peak``);
    and every row's sum, group-major (``sums``).  A PosMLP-T stage-2 recipe
    at initialisation holds 170 KB (70 off-peak rows), against the stack's
    4.9 MB.  Where unequal pairs were found, every row is off peak and the
    numerators are the stack's size.
    """

    __slots__ = ("shape", "table", "off_peak", "sums")

    def __init__(self, shape, table, off_peak, sums):
        self.shape = shape
        self.table = table
        self.off_peak = off_peak
        self.sums = sums

    @property
    def dtype(self):
        return self.table.dtype

    def write(self, lo, hi, out):
        """Groups lo to hi of the stack, group-major, written into ``(hi - lo, N, N)`` ``out``.

        Each entry is its numerator, copied out through the table's
        strided views or from its off-peak row, divided by its row's sum:
        ``softmax_rows``' division, so it has the bits of the row softmax.
        Returns ``out``.
        """
        k = math.isqrt(self.shape[0])
        sums = self.sums[lo:hi]
        # Each numerator is divided as it is copied out; an off-peak row's
        # window is then overwritten with its own numerators so divided.
        np.divide(_table_windows(self.table[lo:hi], k), sums.reshape(hi - lo, k, k, 1, 1),
                  out=out.reshape(hi - lo, k, k, k, k))
        g, i, own = self.off_peak
        a, b = np.searchsorted(g, (lo, hi))
        out[g[a:b] - lo, i[a:b]] = own[a:b] / sums[g[a:b] - lo, i[a:b]]
        return out


def stack_recipe(x, pairs):
    """The ``StackRecipe`` of the row softmaxes of logits of displacement alone; forms no stack.

    x is the group-major ``(s, N^2)`` product of s logit vectors with the
    features of a k x k window (N = k^2): entry ``i * N + j`` of row g is
    group g's logit of the pair whose key token j lies ``p_j - p_i`` from
    query token i.  ``pairs`` is the window's ``DisplacementGrid.pairs``:
    the flat indices of the first and the last pair of each of the
    (2k-1)^2 displacements, entry ``(dx + k - 1) * (2k - 1) + (dy + k - 1)``
    for displacement (dx, dy).  The stack the recipe rebuilds is bit for
    bit ``softmax_rows`` of x's ``(s, N, N)`` view.

    Every row's maximum is taken from x, in one exact pass.  A group's
    (2k-1)^2 distinct logits are read at the first pairs.  The rows whose
    maximum equals their group's maximum M share the numerators
    exp(cut(l - M)) of those logits, so each is exponentiated once, into
    the table.  A row whose window misses its group's peak is subtracted,
    cut and exponentiated from its own logits, as ``softmax_rows`` does.
    Either way each numerator is the same subtraction, cut and exponential
    of the same two values.  A peak row's sum is taken over its window's
    run of N numerators in ``_row_runs``, an off-peak row's over its own
    numerators: each is the pairwise sum ``softmax_rows`` takes of the
    same N values in the same order, so the sums have its bits too.

    The table rests on pairs of equal displacement holding equal logits.
    In exact arithmetic a product with equal feature columns gives them,
    but in floating point it is an assumption about the BLAS: that it
    rounds equal columns alike wherever they sit in the product.  This
    function checks it at the first and the last pair of each
    displacement, and where they differ in any group (a NaN among them
    included) it marks every row off peak, so each is exponentiated from
    its own logits, which is ``softmax_rows``' computation, and the
    recipe's numerators are the whole stack's.  Pairs in between are not
    checked.
    """
    n = math.isqrt(x.shape[-1])
    k = math.isqrt(n)
    if x.ndim != 2 or k < 1 or x.shape[1] != n * n or n != k * k or \
            pairs.shape != (2, (2 * k - 1) ** 2):
        raise ShapeError(f"stack_recipe: expected (s, N^2) logits of a k x k window, N = k^2, "
                         f"and (2, (2k-1)^2) pairs, got {x.shape} and {pairs.shape}")
    s = x.shape[0]
    rows = x.data.reshape(s, n, n)
    row_max = rows.max(axis=-1)
    top = row_max.max(axis=-1, keepdims=True)
    g, i = np.nonzero(row_max != top)
    table = x.data.take(pairs[0], axis=1)
    if not np.array_equal(table, x.data.take(pairs[1], axis=1)):
        # Every row is off peak, exponentiated from its own logits.
        g, i = np.divmod(np.arange(s * n), n)
    table -= top
    _cut_exp(table)
    own = rows[g, i]
    own -= row_max[g, i, None]
    _cut_exp(own)
    sums = _row_runs(table, k).sum(axis=-1).transpose(0, 2, 1).reshape(s, n, 1)
    sums[g, i] = own.sum(axis=-1, keepdims=True)
    return StackRecipe((n, s, n), table, (g, i, own), sums)


def softmax_stack(x, pairs):
    """The ``(N, s, N)`` view of x's ``(s, N, N)`` row softmaxes, for logits of displacement alone.

    x and ``pairs`` are ``stack_recipe``'s.  Returns the stack that recipe
    writes whole, bit for bit ``softmax_rows`` of x's ``(s, N, N)`` view
    and with its gradient returned in x's layout, and the recipe.  The
    stack is group-major, like x: its data is the ``(N, s, N)`` view of
    ``(s, N, N)`` memory, so each group's matrix is one contiguous run.
    A model mixes from the recipe alone (``mix_softmax_stack``); this op
    forms the whole stack for the analyses and tests that read it.
    """
    recipe = stack_recipe(x, pairs)
    n, s = recipe.shape[:2]
    y = recipe.write(0, s, np.empty((s, n, n), dtype=x.dtype))
    return _softmax_result(y, x, "softmax_stack", swap=True), recipe


def layer_norm(x, gain, shift, groups=1):
    """Standardization (population variance, plus ``LN_EPS``) followed by an affine map.

    x may be ``(R, d)`` or ``(B, N, d)``; gain and shift have length d.
    Statistics only ever reduce over the final axis, so batching is exact.
    With ``groups`` > 1 that axis is cut into equal contiguous groups, each
    standardized on its own.  The rule keeps the standardized ``xhat``, and
    the result's remake forms ``xhat * gain + shift`` from it again, or any
    slice of it, with the forward's bits.
    """
    if x.shape[-1] != gain.shape[0] or gain.shape != shift.shape:
        raise ShapeError(f"layer_norm: affine {gain.shape}/{shift.shape} does not fit {x.shape}")
    if x.shape[-1] % check_int("layer_norm: groups", groups, error=ShapeError) != 0:
        raise ShapeError(f"layer_norm: width {x.shape[-1]} not divisible by {groups} groups")
    xd = x.data
    shape, gd, sd = xd.shape, gain.data, shift.data
    xg = xd.reshape(shape[:-1] + (groups, shape[-1] // groups))
    # Centred once; the centred values are scaled into xhat in place.
    xhat = xg - xg.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv
    out = xhat.reshape(shape) * gd
    out += sd

    def vjp(g):
        red = tuple(range(g.ndim - 1))
        ggain = (g * xhat.reshape(shape)).sum(axis=red)
        gshift = g.sum(axis=red)
        gx_hat = (g * gd).reshape(xhat.shape)
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - m1 - xhat * m2)
        return gx.reshape(shape), ggain, gshift

    def remake(sl=...):
        y = xhat.reshape(shape)[sl] * np.broadcast_to(gd, shape)[sl]
        y += np.broadcast_to(sd, shape)[sl]
        return y

    out = _result(out, (x, gain, shift), vjp, "layer_norm")
    if out._node is not None:
        out._remake = remake
    return out


# -- reductions and losses ---------------------------------------------------

def sum_all(x):
    data = np.asarray(x.data.sum(), dtype=x.dtype)
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        return (np.full(shape, g, dtype=dtype),)

    return _result(data, (x,), vjp, "sum_all")


def mean_tokens(x):
    """Average over the token axis of ``(B, N, C)``, giving ``(B, C)``."""
    if x.ndim != 3:
        raise ShapeError(f"mean_tokens expects (B, N, C), got {x.shape}")
    n = x.shape[1]
    data = x.data.mean(axis=1)

    def vjp(g):
        return (np.repeat(g[:, None, :], n, axis=1) / n,)

    return _result(data, (x,), vjp, "mean_tokens")


def weighted_sum(x, weights):
    """Scalar contraction ``sum(x * w)`` with a constant weight array."""
    w = np.asarray(weights, dtype=x.dtype)
    _check_same_shape("weighted_sum", x, w)
    data = np.asarray((x.data * w).sum(), dtype=x.dtype)

    def vjp(g):
        return (g * w,)

    return _result(data, (x,), vjp, "weighted_sum")


def cross_entropy_mean(logits, labels):
    """Mean cross-entropy of integer ``labels`` under row ``logits``."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_mean expects (B, K) logits, got {logits.shape}")
    lab = _integers("cross_entropy_mean: labels", labels, ValueError)
    if lab.shape[0] != logits.shape[0]:
        raise ShapeError("cross_entropy_mean: label count does not match batch")
    if lab.min() < 0 or lab.max() >= logits.shape[1]:
        raise ValueError("cross_entropy_mean: label out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    nll = logsumexp - z[np.arange(lab.shape[0]), lab]
    data = np.asarray(nll.mean(), dtype=logits.dtype)

    def vjp(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(lab.shape[0]), lab] -= 1.0
        return (g * p / lab.shape[0],)

    return _result(data, (logits,), vjp, "cross_entropy_mean")


# -- convolutions ------------------------------------------------------------

def _conv_shape(op, x, w, stride):
    """Check a convolution's input, kernel and stride; return (k, ho, wo).

    The kernel is square and odd, and the input is zero-padded by k // 2 on
    every side, so a stride-1 convolution keeps the image size.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[3] != w.shape[2]:
        raise ShapeError(f"{op}: weight {w.shape} does not fit input {x.shape}")
    check_int(f"{op}: stride", stride, error=ShapeError)
    k = w.shape[0]
    if w.shape[1] != k or k % 2 == 0:
        raise ShapeError(f"{op}: kernel {w.shape[:2]} is not square and odd")
    return k, (x.shape[1] - 1) // stride + 1, (x.shape[2] - 1) // stride + 1


def _taps(x, k, stride, ho, wo):
    """The taps of (B, H, W, C) x zero-padded by k // 2, as one strided view.

    ``taps[:, :, :, di, dj]`` is the ``(B, ho, wo, C)`` view that each
    output position reads at kernel offset (di, dj), and ``taps[b, i, j]``
    is output (i, j)'s ``(k, k, C)`` patch.  It is the convolutions' one
    reader of patches: they copy blocks of it (``_conv_blocks``) or
    multiply its taps.
    """
    bsz, h, w, c = x.shape
    pad = k // 2
    if pad:
        xp = np.zeros((bsz, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w] = x
        x = xp
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    return windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


# Bytes per image of a convolution block: output rows for the forward's
# patch copy and conv2d's patch-gradient product, kernel rows for its
# weight gradient's patch copy.  Blocks split the rows evenly and hold at
# least this much unless one block holds them all.  Whether a block's BLAS
# product has the bits of the whole product is a property of the BLAS:
# OpenBLAS 0.3.31 (SkylakeX kernels) rounds products below about 10^6
# multiply-adds differently, and 1 MB keeps the row blocks above that for
# Cout >= 4 in float32 and >= 8 in float64.  A sweep of other shapes found
# the kernel-row split off in the last bit for some convolutions of Cout
# <= 16 whose patches exceed one block; the default-size models have none.
# Each of MICRO's maps is one block.
_CONV_BLOCK_BYTES = 1 << 20


def _conv_blocks(n, unit_bytes):
    """Slices of range(n) in blocks of at least ``_CONV_BLOCK_BYTES``, and the largest block's length."""
    parts = max(1, n // -(-_CONV_BLOCK_BYTES // unit_bytes))
    return [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)], -(-n // parts)


def _scatter_taps(tap_grads, blocks, shape, dtype, k, stride, wo):
    """The (B, H, W, C) input gradient from per-tap gradients of blocks of output rows.

    ``tap_grads(rows)`` yields, in tap order, the ``(B, len(rows), wo, C)``
    gradient that output rows ``rows`` send through each tap; they are added
    into the zero-padded gradient tap by tap.  The blocks go from the last
    output row to the first: a padded row is reached from a later output
    row through an earlier kernel row, so every element receives its
    additions in tap order, as from one whole-map scatter.  Going first to
    last would change bits at block boundaries.
    """
    bsz, h, w, c = shape
    pad = k // 2
    gpad = np.zeros((bsz, h + 2 * pad, w + 2 * pad, c), dtype=dtype)
    for rows in reversed(blocks):
        lo, hi = stride * rows.start, stride * rows.stop
        for t, gt in enumerate(tap_grads(rows)):
            di, dj = divmod(t, k)
            gpad[:, di + lo:di + hi:stride, dj:dj + stride * wo:stride] += gt
    return gpad[:, pad:pad + h, pad:pad + w].copy() if pad else gpad


def _conv2d_weight_grad(x, g, k, stride, ho, wo):
    """conv2d's (k, k, Cin, Cout) weight gradient from input x and (B, ho*wo, Cout) g.

    g multiplies one block of kernel rows' contiguous patch copy at a time,
    and ``_window_sum`` sums the images' products in image order straight
    into those rows of the ``(k*k*Cin, Cout)`` gradient.
    """
    bsz, _, _, cin = x.shape
    cout, dtype, row = g.shape[2], x.dtype, k * cin
    taps = _taps(x, k, stride, ho, wo)
    blocks, most = _conv_blocks(k, ho * wo * row * dtype.itemsize)
    buf = np.empty(bsz * ho * wo * most * row, dtype=dtype)
    part = np.empty((most * row, cout), dtype=dtype)
    gw = np.empty((k * row, cout), dtype=dtype)
    for r in blocks:
        n = r.stop - r.start
        patches = buf[:bsz * ho * wo * n * row].reshape(bsz, ho, wo, n, k, cin)
        patches[...] = taps[:, :, :, r]
        _window_sum(patches.reshape(bsz, ho * wo, n * row).transpose(0, 2, 1), g,
                    gw[r.start * row:r.stop * row], part[:n * row])
    return gw.reshape(k, k, cin, cout)


def conv2d(x, w, b, stride):
    """Square odd-kernel convolution on channel-last images, zero-padded by k // 2.

    x: (B, H, W, Cin); w: (k, k, Cin, Cout); b: (Cout,).  The output is
    ``ceil(H / stride) x ceil(W / stride)``.  The whole batch is convolved
    in one op and no patch matrix or patch gradient is formed.  Every
    result has the bits of one ``(ho*wo, k*k*Cin)`` patch matrix per image
    multiplied by one BLAS call; the weight gradient sums the images'
    products in image order with ``_window_sum``, and the bias gradient
    sums per image, then over the images.  Three splits of those products
    keep the bits (``_CONV_BLOCK_BYTES`` sizes their blocks and
    says where the first two, properties of the BLAS, stop holding):

    - the forward copies one block of output rows' patches at a time from
      the strided taps (``_taps``) into a reused buffer and multiplies it
      by the weight into those rows: a row split of each image's product;
    - the weight gradient multiplies g by one block of kernel rows'
      contiguous ``(ho*wo, rows*k*Cin)`` patch copy at a time, a split of
      the product's output rows (one kernel row per block on PosMLP-T);
    - the input gradient forms row blocks of ``g @ wmat.T`` and adds them
      into the padded gradient tap by tap, last block first
      (``_scatter_taps``), so every element sums in the whole-map order.

    ``tests/test_conv.py`` checks all three against a per-image loop over
    whole patch matrices, in float32 and float64, at MICRO's and PosMLP-T's
    stem shapes and at shapes of several unequal blocks.  When the weight
    needs a gradient the rule keeps the input, not its patches (k²/stride²
    times larger).
    """
    k, ho, wo = _conv_shape("conv2d", x, w, stride)
    bsz, _, _, cin = x.shape
    cout = w.shape[3]
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias {b.shape} is not ({cout},)")
    dtype = x.dtype
    kk = k * k * cin
    wmat = w.data.reshape(kk, cout)
    # Blocks of output rows, for the forward and the input gradient.
    blocks, most = _conv_blocks(ho, wo * kk * dtype.itemsize)
    taps = _taps(x.data, k, stride, ho, wo)
    buf = np.empty(bsz * most * wo * kk, dtype=dtype)
    out = np.empty((bsz, ho * wo, cout), dtype=dtype)
    for r in blocks:
        n = r.stop - r.start
        patches = buf[:bsz * n * wo * kk].reshape(bsz, n, wo, k, k, cin)
        patches[...] = taps[:, r]
        np.matmul(patches.reshape(bsz, n * wo, kk), wmat, out=out[:, r.start * wo:r.stop * wo])
    del taps, buf, patches
    out += b.data
    # The weight gradient reads the input, the input gradient the weight.
    xd = _kept(x) if w.requires_grad else None
    to_x, to_b, xshape = x.requires_grad, b.requires_grad, x.shape

    def vjp(g):
        g = g.reshape(bsz, ho * wo, cout)
        gx = gw = gb = None
        if xd is not None:
            gw = _conv2d_weight_grad(_read(xd), g, k, stride, ho, wo)
        if to_b:
            gb = g.sum(axis=1).sum(axis=0)
        if to_x:
            buf = np.empty(bsz * most * wo * kk, dtype=dtype)

            def tap_grads(r):
                n = r.stop - r.start
                pg = buf[:bsz * n * wo * kk].reshape(bsz, n * wo, kk)
                np.matmul(g[:, r.start * wo:r.stop * wo], wmat.T, out=pg)
                pg = pg.reshape(bsz, n, wo, k * k, cin)
                return (pg[:, :, :, t] for t in range(k * k))

            gx = _scatter_taps(tap_grads, blocks, xshape, dtype, k, stride, wo)
        return gx, gw, gb

    return _result(out.reshape(bsz, ho, wo, cout), (x, w, b), vjp, "conv2d")


def _depthwise_weight_grad(x, g, k, stride):
    """conv2d_depthwise's (k, k, C, M) weight gradient from input x and (B, ho, wo, C, M) g.

    For each tap and multiplier, one product with g over every image is
    reduced over each image's positions, the reduction the product of one
    image alone gets; the images' gradients are then summed in image order
    as by ``_window_sum``, which cannot take these non-BLAS reductions.
    """
    bsz, ho, wo, c, m = g.shape
    taps = _taps(x, k, stride, ho, wo).transpose(3, 4, 0, 1, 2, 5)
    prod = np.empty((bsz, ho, wo, c), dtype=x.dtype)
    gi = np.empty((bsz, k * k, c, m), dtype=x.dtype)
    for t in range(k * k):
        tap = taps[divmod(t, k)]
        for j in range(m):
            np.multiply(tap, g[..., j], out=prod)
            np.add.reduce(prod.reshape(bsz, ho * wo, c), axis=1, out=gi[:, t, :, j])
    gw = gi[0]
    for image in gi[1:]:
        gw += image
    return gw.reshape(k, k, c, m)


def conv2d_depthwise(x, w, b, stride):
    """Depthwise convolution with a channel multiplier, zero-padded by k // 2.

    x: (B, H, W, C); w: (k, k, C, M) with k odd; b: (C*M,).  Output channel
    ``c*M + m`` is produced from input channel ``c`` alone; M=2 realizes the
    stride-2 patch-merging doubling.  As in ``conv2d``, the output is
    ``ceil(H / stride) x ceil(W / stride)``, the whole batch is convolved
    in one op, the weight and bias gradients are summed per image, then
    over the images in image order (the weight's as ``_window_sum`` sums),
    and the rule keeps the input.

    No patch array and no patch gradient is formed.  The forward reads the
    k² taps as strided views of the padded input (``_taps``) and, once per
    multiplier m, sums their products with the tap's weights in tap order,
    then adds 0.0 as it writes the sum out; the weight gradient reduces
    each tap's product with g over the positions with ``np.add.reduce``,
    which starts from 0.0 too.  Both are the ``einsum`` over the patches,
    bit for bit, -0.0 sums included.  Each tap's input gradient is the
    broadcast products ``g[..., m] * w[t, :, m]`` added in m order, not an
    ``einsum`` over m; for M <= 2 (the only M the model builds) that is the
    einsum's result bit for bit, for M >= 3 the summation order can differ
    from the einsum's in the last bit.  The taps' gradients are added into
    the padded gradient tap by tap, in blocks of output rows taken last
    first as in ``conv2d`` (``_scatter_taps``); at PosMLP-T's merges one
    block covers the map.
    """
    k, ho, wo = _conv_shape("conv2d_depthwise", x, w, stride)
    bsz, _, _, c = x.shape
    m = w.shape[3]
    if b.shape != (c * m,):
        raise ShapeError(f"conv2d_depthwise: bias {b.shape} is not ({c * m},)")
    dtype = x.dtype
    wtaps = w.data.reshape(k * k, c, m)
    taps = _taps(x.data, k, stride, ho, wo).transpose(3, 4, 0, 1, 2, 5)
    out = np.empty((bsz, ho, wo, c, m), dtype=dtype)
    acc, prod = np.empty((2, bsz, ho, wo, c), dtype=dtype)
    for j in range(m):
        np.multiply(taps[0, 0], wtaps[0, :, j], out=acc)
        for t in range(1, k * k):
            np.multiply(taps[divmod(t, k)], wtaps[t, :, j], out=prod)
            acc += prod
        np.add(acc, 0.0, out=out[..., j])
    del taps, acc, prod
    out = out.reshape(bsz, ho, wo, c * m)
    out += b.data
    xd = _kept(x) if w.requires_grad else None
    to_x, to_b, xshape = x.requires_grad, b.requires_grad, x.shape

    def vjp(g):
        g = g.reshape(bsz, ho, wo, c, m)
        gx = gw = gb = None
        if xd is not None:
            gw = _depthwise_weight_grad(_read(xd), g, k, stride)
        if to_b:
            gb = g.reshape(bsz, ho * wo, c * m).sum(axis=1).sum(axis=0)
        if to_x:
            def tap_grads(r):
                gr = g[:, r]
                for t in range(k * k):
                    gt = gr[..., 0] * wtaps[t, :, 0]
                    for j in range(1, m):
                        gt += gr[..., j] * wtaps[t, :, j]
                    yield gt

            blocks, _ = _conv_blocks(ho, wo * c * dtype.itemsize)
            gx = _scatter_taps(tap_grads, blocks, xshape, dtype, k, stride, wo)
        return gx, gw, gb

    return _result(out, (x, w, b), vjp, "conv2d_depthwise")


# -- backward pass ------------------------------------------------------------

def _topo_order(root):
    """Iterative post-order over the tape from tensor ``root``; inputs precede consumers.

    The order holds tape nodes and the leaf tensors that require a gradient;
    both have ``_parents`` and ``_vjp`` (empty and None for a leaf).  A node
    shared by several consumers appears once.
    """
    order = []
    seen = set()
    stack = [(root._node or root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def _base(a):
    """The array whose buffer view ``a`` reads."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held_arrays(root):
    """``(op name, base array)`` of each buffer the rules on ``root``'s tape hold.

    A rule holds what its closure cells reach, through nested functions (a
    wrapped rule or a kept remake), tuples, lists and the slots of
    ``StackRecipe`` and ``_Remade``.  Each buffer is
    listed once, under the first op in tape order that holds it, and the
    buffers of the tape's leaves, the parameters, are left out.
    """
    order = _topo_order(root)
    seen = {id(_base(leaf.data)) for leaf in order if isinstance(leaf, Tensor)}
    held = []
    for node in order:
        if not isinstance(node, _Node):
            continue
        todo = [node._vjp]
        while todo:
            obj = todo.pop()
            if isinstance(obj, np.ndarray):
                base = _base(obj)
                if id(base) not in seen:
                    seen.add(id(base))
                    held.append((node.op, base))
            elif callable(obj) and getattr(obj, "__closure__", None):
                todo.extend(cell.cell_contents for cell in obj.__closure__)
            elif isinstance(obj, (tuple, list)):
                todo.extend(obj)
            elif isinstance(obj, (StackRecipe, _Remade)):
                todo.extend(getattr(obj, name) for name in type(obj).__slots__)
    return held


def tape_census(root):
    """Bytes that the backward rules on ``root``'s tape hold, per op name.

    These are the arrays a backward pass from ``root`` would free as it
    goes, counted by base buffer, once each, under the first op in tape
    order that holds them; the parameters are not counted.  The op name is
    the one each node records, so a traced rule counts under its op.
    """
    census = {}
    for op, base in _held_arrays(root):
        census[op] = census.get(op, 0) + base.nbytes
    return census


def backward(loss):
    """Run reverse-mode differentiation from a scalar loss.

    Populates ``grad`` on every ``requires_grad`` leaf reachable from the
    loss.  Each tape node's rule fires exactly once and is then consumed:
    the node drops its rule and its parent links, and each incoming
    gradient is dropped once it has been passed on, so the arrays of the
    graph are freed as the pass moves toward the inputs.  Calling backward
    on a non-scalar, on a tensor with no recorded operations, or through
    any node an earlier backward consumed is an error, raised before any
    gradient is deposited.

    A node's gradient is the sum of what its consumers' rules return, in
    the order they fire, each sum a new array ``acc + pg``.  Backward never
    writes into an array a rule returned or into a leaf's earlier ``grad``,
    so a rule may return a view or a buffer it keeps.
    """
    if loss.ndim != 0:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        raise GradError("detached graph: loss has no recorded operations")
    order = _topo_order(loss)
    if any(node._vjp is _consumed for node in order):
        _consumed()
    grads = {id(loss._node): np.ones((), dtype=loss.dtype)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        vjp = node._vjp
        if vjp is None:
            # requires-grad leaf: deposit.
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parents = node._parents
        node._vjp, node._parents = _consumed, ()
        if g is None:
            continue
        parent_grads = vjp(g)
        del g, vjp
        for p, pg in zip(parents, parent_grads):
            if p is not None and pg is not None:
                key = id(p)
                grads[key] = grads[key] + pg if key in grads else pg
        parent_grads = pg = None
