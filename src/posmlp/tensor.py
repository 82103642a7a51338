"""Dense tensor engine with reverse-mode automatic differentiation.

Values are numpy arrays in row-major order, float32 by default and float64
for test oracles and gradient checks.  Operations record a computation graph
(the tape); ``backward`` walks it once in reverse topological order and
deposits gradients on the ``requires_grad`` leaves.

Batched matrix products deliberately loop over the leading batch axis so
that every batch element goes through the byte-identical BLAS call sequence
it would see alone; this is what makes the window weight-sharing tests exact
instead of merely close.
"""

import numpy as np
from scipy.special import erf as _erf

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

_checked = False


def set_checked(flag):
    """Globally enable/disable NaN/Inf rejection at op boundaries."""
    global _checked
    _checked = bool(flag)


def checked():
    return _checked


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an operation's contract."""


class GradError(RuntimeError):
    """Raised on misuse of the backward pass (non-scalar loss, reuse, ...)."""


def _validate_finite(name, *arrays):
    if not _checked:
        return
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise FloatingPointError(f"{name}: non-finite value in checked mode")


class Tensor:
    """A dense n-dimensional array with an optional gradient tape node.

    ``data`` is always a C-contiguous float32 or float64 ndarray.  Leaves
    created with ``requires_grad=True`` receive a ``grad`` buffer of the same
    shape when ``backward`` runs.  Tensors created by operations carry their
    parents and a vector-Jacobian closure; that linked structure is the tape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_backward_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
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
        self._parents = ()
        self._vjp = None
        self._backward_done = False

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

    def detach(self):
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # Operator sugar for the common arithmetic.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _result(data, parents, vjp, op_name):
    """Wrap an op result; the graph edge is only kept if a parent needs it.

    Op outputs are always freshly computed contiguous arrays, so this skips
    the defensive conversions of the public constructor.
    """
    _validate_finite(op_name, data)
    needs = False
    for p in parents:
        if p.requires_grad:
            needs = True
            break
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = needs
    out.grad = None
    out._parents = tuple(parents) if needs else ()
    out._vjp = vjp if needs else None
    out._backward_done = False
    return out


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _check_same_dtype(op, a, b):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


# -- elementwise ops -------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check_same_shape("add", a, b)
    _check_same_dtype("add", a, b)
    _validate_finite("add", a.data, b.data)
    return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check_same_shape("sub", a, b)
    _validate_finite("sub", a.data, b.data)
    return _result(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a, b):
    """Hadamard product."""
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check_same_shape("mul", a, b)
    _check_same_dtype("mul", a, b)
    _validate_finite("mul", a.data, b.data)
    ad, bd = a.data, b.data
    return _result(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


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
    """Strict 2-D matrix product ``[m x k] @ [k x n]``."""
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} x {b.shape}")
    _validate_finite("matmul", a.data, b.data)
    ad, bd = a.data, b.data

    def vjp(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _result(ad @ bd, (a, b), vjp, "matmul")


def mix_tokens(w, x):
    """Apply token-mixing weights to ``x`` of shape ``(B, N, C)``.

    ``w`` is one ``N x N`` matrix or an ``(N, s, N)`` stack whose entry
    ``w[:, g]`` mixes the g-th of s equal contiguous channel groups.  Every
    window-group product is its own BLAS call, so each window's result is
    bitwise identical to processing that window alone, and each group's to
    mixing that group's channels on their own.
    """
    if w.ndim not in (2, 3) or w.shape[0] != w.shape[-1]:
        raise ShapeError(f"mix_tokens: expected an N x N matrix or (N, s, N) stack, "
                         f"got {w.shape}")
    ws = w.data if w.ndim == 3 else w.data[:, None, :]
    n, s = ws.shape[:2]
    if x.ndim != 3 or x.shape[1] != n or x.shape[2] % s != 0:
        raise ShapeError(f"mix_tokens: weights {w.shape} do not fit input {x.shape}")
    _validate_finite("mix_tokens", w.data, x.data)
    xd = x.data
    c = xd.shape[2] // s
    groups = [slice(i * c, (i + 1) * c) for i in range(s)]
    out = np.empty_like(xd)
    for i, sl in enumerate(groups):
        wi = ws[:, i]
        for b in range(xd.shape[0]):
            np.matmul(wi, xd[b, :, sl], out=out[b, :, sl])

    def vjp(g):
        gw = gx = None
        if w.requires_grad:
            gws = np.zeros_like(ws)
            for i, sl in enumerate(groups):
                acc = gws[:, i]
                for b in range(xd.shape[0]):
                    acc += g[b, :, sl] @ xd[b, :, sl].T
            gw = gws.reshape(w.shape)
        if x.requires_grad:
            gx = np.empty_like(xd)
            for i, sl in enumerate(groups):
                wt = ws[:, i].T
                for b in range(xd.shape[0]):
                    np.matmul(wt, g[b, :, sl], out=gx[b, :, sl])
        return gw, gx

    return _result(out, (w, x), vjp, "mix_tokens")


def linear(x, w, b=None):
    """Channel projection ``y = x @ w (+ b)`` over the last axis of 2/3-D x."""
    if x.ndim not in (2, 3) or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: cannot apply {w.shape} weight to input {x.shape}")
    _validate_finite("linear", x.data, w.data, None if b is None else b.data)
    xd, wd = x.data, w.data
    if x.ndim == 2:
        out = xd @ wd
    else:
        out = np.empty(xd.shape[:2] + (wd.shape[1],), dtype=xd.dtype)
        for i in range(xd.shape[0]):
            out[i] = xd[i] @ wd
    if b is not None:
        if b.shape != (wd.shape[1],):
            raise ShapeError(f"linear: bias shape {b.shape} does not match width {wd.shape[1]}")
        out = out + b.data

    def vjp(g):
        gx = gw = None
        if xd.ndim == 2:
            if x.requires_grad:
                gx = g @ wd.T
            if w.requires_grad:
                gw = xd.T @ g
        else:
            if x.requires_grad:
                gx = np.empty_like(xd)
                for i in range(xd.shape[0]):
                    gx[i] = g[i] @ wd.T
            if w.requires_grad:
                gw = np.zeros_like(wd)
                for i in range(xd.shape[0]):
                    gw += xd[i].T @ g[i]
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=tuple(range(g.ndim - 1))) if b.requires_grad else None

    parents = (x, w) if b is None else (x, w, b)
    return _result(out, parents, vjp, "linear")


def add_map(x, m):
    """Add a shared ``(N, C)`` map to every batch element of ``(B, N, C)`` x."""
    if x.ndim != 3 or m.ndim != 2 or x.shape[1:] != m.shape:
        raise ShapeError(f"add_map: map {m.shape} does not fit input {x.shape}")
    _validate_finite("add_map", x.data, m.data)
    out = x.data + m.data[None]

    def vjp(g):
        return g, g.sum(axis=0)

    return _result(out, (x, m), vjp, "add_map")


def add_token_bias(x, b):
    """Add a per-token-position bias ``b`` of length N to ``(B, N, C)`` x."""
    if x.ndim != 3 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_token_bias: {b.shape} does not fit input {x.shape}")
    _validate_finite("add_token_bias", x.data, b.data)
    out = x.data + b.data[None, :, None]

    def vjp(g):
        return g, g.sum(axis=(0, 2))

    return _result(out, (x, b), vjp, "add_token_bias")


# -- shape ops (copying; no views) ------------------------------------------

def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
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
    """Split into ``parts`` equal contiguous slices along ``axis``.

    Returns a list of tensors.  ``concat(split(x, n), axis)`` reproduces x
    exactly.
    """
    axis = axis % x.ndim
    extent = x.shape[axis]
    if extent % parts != 0:
        raise ShapeError(f"split: axis extent {extent} not divisible by {parts}")
    step = extent // parts
    outs = []
    for i in range(parts):
        sl = [slice(None)] * x.ndim
        sl[axis] = slice(i * step, (i + 1) * step)
        sl = tuple(sl)

        def vjp(g, _sl=sl):
            gx = np.zeros(x.shape, dtype=g.dtype)
            gx[_sl] = g
            return (gx,)

        outs.append(_result(np.ascontiguousarray(x.data[sl]), (x,), vjp, "split"))
    return outs


def concat(parts, axis=-1):
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: empty input list")
    axis = axis % parts[0].ndim
    sizes = [p.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for i in range(len(parts)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(np.ascontiguousarray(g[tuple(sl)]))
        return tuple(grads)

    return _result(data, tuple(parts), vjp, "concat")


def take(x, flat_indices, out_shape):
    """Gather ``x.flat[idx]`` into ``out_shape``; duplicates accumulate on backward."""
    idx = np.asarray(flat_indices, dtype=np.int64).reshape(-1)
    data = x.data.reshape(-1)[idx].reshape(out_shape)

    def vjp(g):
        gx = np.zeros(x.size, dtype=g.dtype)
        np.add.at(gx, idx, g.reshape(-1))
        return (gx.reshape(x.shape),)

    return _result(data, (x,), vjp, "take")


def _permuted_view(op, x, shape, axes):
    """x's data read as ``shape`` with its axes permuted by ``axes``, and the inverse axes."""
    view = x.data
    if shape is not None:
        if np.prod(shape) != x.size:
            raise ShapeError(f"{op}: {shape} does not hold the {x.size} elements of {x.shape}")
        view = view.reshape(shape)
    if axes is None:
        return view, None
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(view.ndim)):
        raise ShapeError(f"{op}: {axes} is not a permutation of the axes of {view.shape}")
    return view.transpose(axes), tuple(int(a) for a in np.argsort(axes))


def permute_flat(x, shape, axes, out_shape):
    """x read as ``shape``, axes permuted by ``axes``, copied out as ``out_shape``."""
    view, inv = _permuted_view("permute_flat", x, shape, axes)
    data = view.copy().reshape(out_shape)

    def vjp(g):
        return (g.reshape(view.shape).transpose(inv).copy().reshape(x.shape),)

    return _result(data, (x,), vjp, "permute_flat")


# -- nonlinearities and normalization ---------------------------------------

def gelu(x):
    """Exact Gaussian-CDF GELU, x * Phi(x)."""
    _validate_finite("gelu", x.data)
    xd = x.data
    phi = 0.5 * (1.0 + _erf(xd * _INV_SQRT2))
    out = xd * phi

    def vjp(g):
        dens = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (phi + xd * dens),)

    return _result(out.astype(xd.dtype, copy=False), (x,), vjp, "gelu")


def softplus(x):
    _validate_finite("softplus", x.data)
    xd = x.data
    out = np.log1p(np.exp(-np.abs(xd))) + np.maximum(xd, 0.0)

    def vjp(g):
        sig = 1.0 / (1.0 + np.exp(-xd))
        return (g * sig,)

    return _result(out.astype(xd.dtype, copy=False), (x,), vjp, "softplus")


def softmax_rows(x, shape=None, axes=None):
    """Softmax over the last axis, stabilized by max subtraction.

    With ``shape`` and ``axes`` the rows are read from a view of x: its data
    reshaped to ``shape``, then with the axes permuted by ``axes``.  The
    output is a fresh contiguous array in the permuted layout, bitwise equal
    to copying x into that layout first, and the gradient is returned in x's
    own layout.  No permuted copy of x is made or kept.

    An entry whose logit lies more than ln(eps/tiny) below its row's maximum
    (71.39 in float32, 672.35 in float64) gets weight exactly 0: its
    exponential would be under tiny/eps (2**-103 in float32) of the row's
    largest, far below what can move the row sum.  Every nonzero weight is
    then at least tiny/(eps*L) for rows of length L, so no exponential and
    no weight is subnormal, nor (for L <= 256) any product of a weight with
    a value of magnitude 2**-15 or more.  A sharp positional prior otherwise
    puts several percent of its float32 weights where such products are
    subnormal, and each mixing product and its gradient slows on common CPUs.
    """
    view, inv = _permuted_view("softmax_rows", x, shape, axes)
    if view.ndim < 2:
        raise ShapeError(f"softmax_rows expects a matrix or a stack of rows, got {view.shape}")
    _validate_finite("softmax_rows", x.data)
    fi = np.finfo(view.dtype)
    y = np.empty(view.shape, dtype=view.dtype)
    np.subtract(view, view.max(axis=-1, keepdims=True), out=y)
    y[y < -np.log(fi.eps / fi.tiny)] = -np.inf
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        gx = g - (g * y).sum(axis=-1, keepdims=True)
        gx *= y
        if inv is not None:
            gx = np.ascontiguousarray(gx.transpose(inv))
        return (gx.reshape(x.shape),)

    return _result(y, (x,), vjp, "softmax_rows")


def layer_norm(x, gain, shift, eps=1e-5, groups=1):
    """Standardization (population variance) followed by an affine map.

    x may be ``(R, d)`` or ``(B, N, d)``; gain and shift have length d.
    Statistics only ever reduce over the final axis, so batching is exact.
    With ``groups`` > 1 that axis is cut into equal contiguous groups, each
    standardized on its own.
    """
    if x.shape[-1] != gain.shape[0] or gain.shape != shift.shape:
        raise ShapeError(f"layer_norm: affine {gain.shape}/{shift.shape} does not fit {x.shape}")
    if x.shape[-1] % groups != 0:
        raise ShapeError(f"layer_norm: width {x.shape[-1]} not divisible by {groups} groups")
    _validate_finite("layer_norm", x.data, gain.data, shift.data)
    xd = x.data
    xg = xd.reshape(xd.shape[:-1] + (groups, xd.shape[-1] // groups))
    mean = xg.mean(axis=-1, keepdims=True)
    var = ((xg - mean) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xg - mean) * inv
    out = xhat.reshape(xd.shape) * gain.data + shift.data

    def vjp(g):
        red = tuple(range(g.ndim - 1))
        ggain = (g * xhat.reshape(xd.shape)).sum(axis=red)
        gshift = g.sum(axis=red)
        gx_hat = (g * gain.data).reshape(xhat.shape)
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - m1 - xhat * m2)
        return gx.reshape(xd.shape), ggain, gshift

    return _result(out.astype(xd.dtype, copy=False), (x, gain, shift), vjp, "layer_norm")


# -- reductions and losses ---------------------------------------------------

def sum_all(x):
    data = np.asarray(x.data.sum(), dtype=x.dtype)

    def vjp(g):
        return (np.full(x.shape, g, dtype=x.dtype),)

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
    _check_same_shape("weighted_sum", x, Tensor(w))
    data = np.asarray((x.data * w).sum(), dtype=x.dtype)

    def vjp(g):
        return (g * w,)

    return _result(data, (x,), vjp, "weighted_sum")


def cross_entropy_mean(logits, labels):
    """Mean cross-entropy of integer ``labels`` under row ``logits``."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_mean expects (B, K) logits, got {logits.shape}")
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.shape[0] != logits.shape[0]:
        raise ShapeError("cross_entropy_mean: label count does not match batch")
    if lab.min() < 0 or lab.max() >= logits.shape[1]:
        raise ValueError("cross_entropy_mean: label out of range")
    _validate_finite("cross_entropy_mean", logits.data)
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

def _pad_hw(img, pad):
    if pad == 0:
        return img
    return np.pad(img, ((pad, pad), (pad, pad), (0, 0)))


def _im2col(img, k, stride):
    """(H, W, C) -> (H'*W', k*k, C) patch tensor via tap slicing."""
    h, w, c = img.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    cols = np.empty((ho, wo, k * k, c), dtype=img.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di * k + dj, :] = img[di:di + stride * ho:stride,
                                             dj:dj + stride * wo:stride, :]
    return cols.reshape(ho * wo, k * k, c), ho, wo


def _col2im(gcols, h, w, c, k, stride, ho, wo):
    """Scatter patch gradients back onto a (H, W, C) grid."""
    gimg = np.zeros((h, w, c), dtype=gcols.dtype)
    gc = gcols.reshape(ho, wo, k * k, c)
    for di in range(k):
        for dj in range(k):
            gimg[di:di + stride * ho:stride, dj:dj + stride * wo:stride, :] += gc[:, :, di * k + dj, :]
    return gimg


def conv2d(x, w, b, stride, pad=1):
    """3x3-style convolution on channel-last images.

    x: (B, H, W, Cin); w: (k, k, Cin, Cout); b: (Cout,).  Images are processed
    one at a time (batch independence is exact).
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[3] != w.shape[2]:
        raise ShapeError(f"conv2d: weight {w.shape} does not fit input {x.shape}")
    _validate_finite("conv2d", x.data, w.data, b.data)
    k = w.shape[0]
    bsz, h, wd_, cin = x.shape
    cout = w.shape[3]
    wmat = w.data.reshape(k * k * cin, cout)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd_ + 2 * pad - k) // stride + 1
    out = np.empty((bsz, ho, wo, cout), dtype=x.dtype)
    cols_cache = []
    for i in range(bsz):
        cols, _, _ = _im2col(_pad_hw(x.data[i], pad), k, stride)
        cols = cols.reshape(ho * wo, k * k * cin)
        cols_cache.append(cols)
        out[i] = (cols @ wmat + b.data).reshape(ho, wo, cout)

    def vjp(g):
        gx = np.empty_like(x.data) if x.requires_grad else None
        gw = np.zeros_like(wmat) if w.requires_grad else None
        gb = np.zeros_like(b.data) if b.requires_grad else None
        for i in range(bsz):
            gi = g[i].reshape(ho * wo, cout)
            if gw is not None:
                gw += cols_cache[i].T @ gi
            if gb is not None:
                gb += gi.sum(axis=0)
            if gx is not None:
                gcols = (gi @ wmat.T).reshape(ho * wo, k * k, cin)
                gpad = _col2im(gcols, h + 2 * pad, wd_ + 2 * pad, cin, k, stride, ho, wo)
                gx[i] = gpad[pad:pad + h, pad:pad + wd_, :] if pad else gpad
        return gx, None if gw is None else gw.reshape(w.shape), gb

    return _result(out, (x, w, b), vjp, "conv2d")


def conv2d_depthwise(x, w, b, stride, pad=1):
    """Depthwise convolution with a channel multiplier.

    x: (B, H, W, C); w: (k, k, C, M); b: (C*M,).  Output channel ``c*M + m``
    is produced from input channel ``c`` alone; M=2 realizes the stride-2
    patch-merging doubling.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[3] != w.shape[2]:
        raise ShapeError(f"conv2d_depthwise: weight {w.shape} does not fit input {x.shape}")
    _validate_finite("conv2d_depthwise", x.data, w.data, b.data)
    k = w.shape[0]
    bsz, h, wd_, c = x.shape
    m = w.shape[3]
    wtaps = w.data.reshape(k * k, c, m)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd_ + 2 * pad - k) // stride + 1
    out = np.empty((bsz, ho, wo, c * m), dtype=x.dtype)
    cols_cache = []
    for i in range(bsz):
        cols, _, _ = _im2col(_pad_hw(x.data[i], pad), k, stride)  # (P, k*k, C)
        cols_cache.append(cols)
        res = np.einsum("ptc,tcm->pcm", cols, wtaps)
        out[i] = (res.reshape(ho * wo, c * m) + b.data).reshape(ho, wo, c * m)

    def vjp(g):
        gx = np.empty_like(x.data) if x.requires_grad else None
        gw = np.zeros_like(wtaps) if w.requires_grad else None
        gb = np.zeros_like(b.data) if b.requires_grad else None
        for i in range(bsz):
            gi = g[i].reshape(ho * wo, c, m)
            if gw is not None:
                gw += np.einsum("ptc,pcm->tcm", cols_cache[i], gi)
            if gb is not None:
                gb += gi.reshape(ho * wo, c * m).sum(axis=0)
            if gx is not None:
                gcols = np.einsum("pcm,tcm->ptc", gi, wtaps)
                gpad = _col2im(gcols, h + 2 * pad, wd_ + 2 * pad, c, k, stride, ho, wo)
                gx[i] = gpad[pad:pad + h, pad:pad + wd_, :] if pad else gpad
        return gx, None if gw is None else gw.reshape(w.shape), gb

    return _result(out, (x, w, b), vjp, "conv2d_depthwise")


# -- backward pass ------------------------------------------------------------

def _topo_order(root):
    """Iterative post-order over the tape; inputs precede their consumers."""
    order = []
    seen = set()
    stack = [(root, False)]
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
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Run reverse-mode differentiation from a scalar loss.

    Populates ``grad`` on every ``requires_grad`` leaf reachable from the
    loss.  Each tape node's rule fires exactly once.  Calling backward twice
    on the same loss, on a non-scalar, or on a tensor with no recorded
    operations is an error.
    """
    if loss.ndim != 0:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise GradError("backward already ran for this loss; rebuild the graph first")
    if not loss._parents:
        raise GradError("detached graph: loss has no recorded operations")
    order = _topo_order(loss)
    grads = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            # requires-grad leaf: deposit.
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p.requires_grad or pg is None:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    loss._backward_done = True
