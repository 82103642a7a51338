"""Relative displacements and the positional weight-matrix generators.

A ``k x k`` token window induces an ``N x N`` table of 2-D displacements
(N = k^2).  Two families of generators turn parameters into token-mixing
matrices indexed by displacement:

* a learnable lookup table with one scalar per distinct displacement, and
* a quadratic (Gaussian) form with a learnable center and precision factor,
  evaluated through fixed polynomial displacement features and a row softmax.

Both keep the defining property that matrix entries depend on token pairs
only through their displacement.
"""

from enum import Enum
from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import Tensor

PRECISION_EPS = 1e-6


class CovarianceForm(Enum):
    """Parameterization of the quadratic form's precision matrix."""

    ALPHA_I = "alpha_i"        # isotropic: softplus scalar times identity
    GAMMA_RAW = "gamma_raw"    # the raw 2x2 factor itself (may be indefinite)
    GAMMA_GRAMIAN = "gramian"  # Gamma @ Gamma^T + eps*I (positive definite)


def check_frozen_delta(form, delta_frozen):
    """Refuse a learnable center under ALPHA_I, whose only learnable value is the scalar."""
    if form is CovarianceForm.ALPHA_I and not delta_frozen:
        raise ValueError("ALPHA_I admits only the scalar as learnable; freeze delta")


class DisplacementGrid:
    """All pairwise displacements ``p_j - p_i`` of a k x k raster window.

    Token i sits at ``(i // k, i % k)``; components therefore lie in
    ``[-k+1, k-1]`` and the table is antisymmetric with a zero diagonal.
    The grid also owns the quadratic generator's polynomial features of
    these displacements, and ``pairs``: the read-only ``(2, (2k-1)^2)``
    flat indices ``i * N + j`` of the first and the last pair of each
    displacement, in ``lrpe_index_map``'s order.
    """

    def __init__(self, window_side):
        k = self.window_side = T.check_int("window_side", window_side)
        self.n_tokens = k * k
        pos = np.arange(self.n_tokens)
        px = pos // k
        py = pos % k
        self.dx = px[None, :] - px[:, None]
        self.dy = py[None, :] - py[:, None]
        idx = lrpe_index_map(self).reshape(-1)
        first = np.unique(idx, return_index=True)[1]
        last = idx.size - 1 - np.unique(idx[::-1], return_index=True)[1]
        self.pairs = np.stack([first, last])
        self.pairs.flags.writeable = False
        self._features = {}

    def features(self, dtype):
        """The constant ``(5, N^2)`` tensor of [dx, dy, dx^2, dy^2, dx*dy] per pair.

        Column ``i * N + j`` holds pair (i, j); each dtype's tensor is built once.
        """
        dtype = np.dtype(dtype)
        if dtype not in self._features:
            dx = self.dx.reshape(-1).astype(np.float64)
            dy = self.dy.reshape(-1).astype(np.float64)
            self._features[dtype] = Tensor(np.stack([dx, dy, dx * dx, dy * dy, dx * dy]),
                                           dtype=dtype)
        return self._features[dtype]


@lru_cache(maxsize=16)
def displacement_grid(window_side):
    """The shared displacement grid of a k x k window; a bounded cache."""
    return DisplacementGrid(window_side)


def lrpe_index_map(grid):
    """(N, N) indices into the (2k-1)^2 lookup vector.

    idx(d) = (dx + k - 1) * (2k - 1) + (dy + k - 1); a bijection from the
    displacement range onto [0, (2k-1)^2), fixed for file-format stability.
    """
    k = grid.window_side
    return (grid.dx + k - 1) * (2 * k - 1) + (grid.dy + k - 1)


class LrpeTable:
    """Learnable displacement dictionary; one row of (2k-1)^2 scalars per group."""

    def __init__(self, window_side, group_count=1, rng=None, dtype=np.float32):
        self.window_side = T.check_int("window_side", window_side)
        self.group_count = T.check_int("group_count", group_count)
        n_entries = (2 * self.window_side - 1) ** 2
        rng = rng or np.random.default_rng(0)
        self.values = Tensor(trunc_normal(rng, (self.group_count, n_entries), 0.02, dtype),
                             requires_grad=True)


class WeightStack:
    """The s token-mixing matrices of a gating unit as one ``(N, s, N)`` tensor.

    ``weights[:, g]`` is group g's ``N x N`` matrix: the leading axis is the
    query token and ``len`` is the group count.  The stacks of
    ``tensor.window_stack`` are group-major: ``weights.data`` is the
    ``(N, s, N)`` view of ``(s, N, N)`` memory, so each group's matrix,
    ``matrix(g)`` included, is one contiguous run and ``tensor.mix_tokens``
    reads it as it is.  A stack can be weakly referenced, as
    ``GatingUnit.mixing_stack`` does for a state asked for once.
    """

    __slots__ = ("weights", "__weakref__")

    def __init__(self, weights):
        if weights.ndim != 3 or weights.shape[0] != weights.shape[2]:
            raise T.ShapeError(f"a weight stack is (N, s, N), got {weights.shape}")
        self.weights = weights

    def __len__(self):
        return self.weights.shape[1]

    @property
    def consumed(self):
        """True once a backward pass has run through the stack's tape."""
        return self.weights.consumed

    def matrix(self, group):
        """Group ``group``'s ``N x N`` matrix as a numpy array."""
        return self.weights.data[:, group]


class SoftmaxStack:
    """A quadratic unit's s row-softmax matrices, kept as what rebuilds them, not as an array.

    It holds the ``(s, 5)`` logit ``vectors`` with their tape, the
    constant ``(5, N^2)`` ``features``, the window's ``pairs`` and the
    ``tensor.StackRecipe`` of the logits' softmax: 170 KB at PosMLP-T's
    stage 2, against 4.9 MB for the ``(N, s, N)`` stack.
    ``tensor.mix_softmax_stack`` mixes from the recipe, a few groups at a
    time, and takes its gradient to the vectors.  ``weights`` forms the
    whole stack anew on each read, ``tensor.softmax_stack`` of the vectors'
    logits with a tape through the vectors, and ``matrix(g)`` rebuilds one
    group's matrix from the recipe; both have the bits of the row softmax.
    ``len`` is the group count.
    """

    __slots__ = ("vectors", "features", "pairs", "recipe", "__weakref__")

    def __init__(self, vectors, features, pairs, recipe):
        self.vectors = vectors
        self.features = features
        self.pairs = pairs
        self.recipe = recipe

    def __len__(self):
        return self.recipe.shape[1]

    @property
    def consumed(self):
        """True once a backward pass has run through the vectors' tape."""
        return self.vectors.consumed

    @property
    def weights(self):
        """The whole ``(N, s, N)`` stack, formed on each read with a tape through the vectors."""
        return T.softmax_stack(T.matmul(self.vectors, self.features), self.pairs)[0]

    def matrix(self, group):
        """Group ``group``'s ``N x N`` matrix as a numpy array, rebuilt from the recipe."""
        n = self.recipe.shape[0]
        out = np.empty((1, n, n), dtype=self.recipe.dtype)
        return self.recipe.write(group, group + 1, out)[0]


def lrpe_weight_stack(table):
    """Every group's displacement table copied out into one weight stack, a window per row."""
    return WeightStack(T.window_stack(table.values, table.window_side))


def lrpe_weight_matrix(table):
    """A one-group table's stack as an ``N x N`` mixing matrix; more groups are refused.

    No softmax is applied; the table value is used directly as the weight.
    """
    groups = table.values.shape[0]
    if groups != 1:
        raise T.ShapeError(f"lrpe_weight_matrix: expected a table of one group, got {groups}")
    n = table.window_side ** 2
    return T.reshape(T.window_stack(table.values, table.window_side), (n, n))


class GqpeParams:
    """Center shifts and precision factors of the quadratic prior of s groups.

    Each kind of parameter is one block whose row g belongs to group g:
    ``delta`` is ``(s, 2)``, and ``gamma`` is ``(s, 2, 2)`` or, under
    ALPHA_I, ``alpha_raw`` is ``(s, 1)``.  A delta row shifts its group's
    attention peak relative to the query token (token units); the
    covariance form selects how the 2x2 precisions are built.  A frozen
    delta stays at (0, 0) and receives no gradient.  Under ALPHA_I the only
    learnable value is the softplus-reparameterized scalar, so delta is
    necessarily frozen.
    """

    def __init__(self, form=CovarianceForm.GAMMA_GRAMIAN, delta_frozen=False, groups=1,
                 rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.form = CovarianceForm(form)
        check_frozen_delta(self.form, delta_frozen)
        s = T.check_int("groups", groups)
        self.delta_frozen = bool(delta_frozen)
        delta = np.zeros((s, 2), dtype=dtype)
        gamma = None if self.form is CovarianceForm.ALPHA_I else np.empty((s, 2, 2), dtype=dtype)
        # One group at a time, delta before gamma, so every block row gets
        # the draws it would get if the groups were built one by one.
        for g in range(s):
            if not self.delta_frozen:
                delta[g] = rng.uniform(-0.5, 0.5, size=2)
            if gamma is not None:
                gamma[g] = np.eye(2) + rng.normal(0.0, 0.1, size=(2, 2))
        self.delta = Tensor(delta, requires_grad=not self.delta_frozen)
        self.gamma = None if gamma is None else Tensor(gamma, requires_grad=True)
        self.alpha_raw = None
        if self.form is CovarianceForm.ALPHA_I:
            # softplus(raw) + eps == 1 at init -> unit isotropic precision
            raw = np.log(np.expm1(1.0 - PRECISION_EPS))
            self.alpha_raw = Tensor(np.full((s, 1), raw, dtype=dtype), requires_grad=True)

    def __len__(self):
        return self.delta.shape[0]

    @property
    def dtype(self):
        t = self.alpha_raw if self.alpha_raw is not None else self.gamma
        return t.dtype

    def parameters(self):
        out = {}
        if not self.delta_frozen:
            out["delta"] = self.delta
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.alpha_raw is not None:
            out["alpha_raw"] = self.alpha_raw
        return out

    def precision(self):
        """The ``(s, 2, 2)`` matrices fed into the quadratic form, as one tape tensor."""
        s, dtype = len(self), self.dtype
        if self.form is CovarianceForm.GAMMA_GRAMIAN:
            gamma_t = T.permute_flat(self.gamma, None, (0, 2, 1), (s, 2, 2))
            eps_eye = Tensor(np.broadcast_to(np.eye(2, dtype=dtype) * PRECISION_EPS, (s, 2, 2)))
            return T.add(T.matmul(self.gamma, gamma_t), eps_eye)
        if self.form is CovarianceForm.GAMMA_RAW:
            return self.gamma
        alpha = T.add_scalar(T.softplus(self.alpha_raw), PRECISION_EPS)
        zero = Tensor(np.zeros((s, 1), dtype=dtype))
        return T.reshape(T.concat([alpha, zero, zero, alpha], axis=1), (s, 2, 2))

    def effective_precision_numpy(self):
        """The ``(s, 2, 2)`` symmetric matrices inducing the quadratic part of the logits.

        The 5-vector's quadratic entries consume (0,0), (1,1) and (0,1), so
        an asymmetric raw factor acts through its upper entry mirrored.  Its
        linear entries use the full ``P @ delta`` product, so only with a
        symmetric precision (or a frozen center) do the logits equal the
        Gaussian form of this matrix up to a constant.
        """
        p = self.precision().data.astype(np.float64)
        p[:, 1, 0] = p[:, 0, 1]
        return p


# Flat offsets of [P d, P d, P00, P11, P01] in a group's (2, 3) block [P | P d],
# and the coefficients that turn them into the 5-vector.
_VECTOR_OFFSETS = np.array([2, 5, 0, 4, 1])
_VECTOR_COEFFS = np.array([1.0, 1.0, -0.5, -0.5, -1.0])


def gqpe_vectors(params):
    """``(s, 5)`` matrix whose row g is group g's [P d, P d, -P00/2, -P11/2, -P01].

    Dotted with the displacement features a row reproduces the Gaussian
    logits up to a displacement-independent offset that the row softmax
    cancels.  Every group is formed at once: stacked 2x2 products, one
    concat into the ``(s, 2, 3)`` blocks ``[P | P d]``, one gather, one
    product with the coefficients.
    """
    p = params.precision()
    s = len(params)
    blocks = T.concat([p, T.matmul(p, T.reshape(params.delta, (s, 2, 1)))], axis=2)
    idx = _VECTOR_OFFSETS[None, :] + 6 * np.arange(s)[:, None]
    coeffs = np.broadcast_to(_VECTOR_COEFFS.astype(blocks.dtype), (s, 5))
    return T.mul(T.take(blocks, idx, (s, 5)), Tensor(coeffs))


def gqpe_logits(params, grid):
    """``(s, N^2)`` logits: row g holds group g's logit of pair (i, j) at ``i * N + j``.

    Equal displacements give equal entries, as far as the BLAS rounds
    equal feature columns alike (see ``tensor.softmax_stack``).
    """
    v = gqpe_vectors(params)
    return T.matmul(v, grid.features(v.dtype))


def group_weight_stack(params, grid):
    """Every group's row-stochastic matrix, as one ``SoftmaxStack``.

    All groups share the displacement features: one product forms the
    group-major ``(s, N^2)`` logits, and ``tensor.stack_recipe`` reads
    them into the recipe of their row softmax.  Since a logit depends on
    its pair only through the displacement, the recipe holds each group's
    (2k-1)^2 distinct logits, exponentiated once, and the row sums, with
    the bits of a row-by-row softmax.  Every product entry is still read,
    for the row maxima.  The op count does not depend on s.  The logits
    are freed on return, and no stack is formed.
    """
    v = gqpe_vectors(params)
    features = grid.features(v.dtype)
    recipe = T.stack_recipe(T.matmul(v, features), grid.pairs)
    return SoftmaxStack(v, features, grid.pairs, recipe)


class ZeroDraws:
    """A stand-in for ``np.random.Generator`` whose every draw is zero.

    A model built with it has the structure, shapes and fixed values of a
    randomly initialised one, but draws no random numbers: its drawn
    parameters are zero-filled allocations that nothing writes.
    ``model.load_checkpoint`` builds its model this way and then replaces
    every parameter with the array read from the file.
    """

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.zeros(size)


def trunc_normal(rng, shape, std, dtype):
    """Normal(0, std) resampled into [-2 std, 2 std].

    Values outside are redrawn in raster order until none is left; each
    pass checks only the values it has just drawn.  ``ZeroDraws`` gives
    zeros without drawing.
    """
    if isinstance(rng, ZeroDraws):
        return np.zeros(shape, dtype)
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2 * std)
    while bad.size:
        redrawn = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > 2 * std]
    return out.astype(dtype)
