"""Spatial gating units.

The baseline unit splits channels into two halves, mixes the first over the
token axis with a dense learnable matrix, and uses the result to gate the
second elementwise.  The positional variants replace that dense matrix with
a displacement lookup, a quadratic-prior softmax matrix, or group-wise
stacks of either, trading the quadratic parameter cost for linear or
constant cost.

Alternative combine modes (elementwise addition, channel concatenation),
an optional pre-norm on the mixed half, a no-split mode and a per-position
bias cover the ablation configurations.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .positional import (CovarianceForm, GqpeParams, LrpeTable, WeightStack,
                         check_frozen_delta, displacement_grid, group_weight_stack,
                         lrpe_weight_matrix, lrpe_weight_stack, trunc_normal)


class GatingKind(Enum):
    SGU = "sgu"
    LRPE_M = "lrpe_m"
    LRPE = "lrpe"
    GLRPE = "glrpe"
    GGQPE = "ggqpe"

    @property
    def grouped(self):
        """True for the kinds with one positional generator per channel group."""
        return self in (GatingKind.GLRPE, GatingKind.GGQPE)


class Combine(Enum):
    GATE = "gate"
    ADD = "add"
    CONCAT = "concat"


@dataclass(frozen=True)
class GatingConfig:
    """Static description of a gating unit.

    ``pre_norm_on_x1`` and ``use_bias`` may be left as None to take the
    per-kind defaults: the dense and lookup variants normalize the mixed
    half (and only the dense baseline keeps its bias), while the quadratic
    variant skips the norm (its softmax already normalizes the mixing
    weights) and keeps the bias.
    """

    kind: GatingKind
    window_side: int
    groups: int = 1
    combine: Combine = Combine.GATE
    pre_norm_on_x1: bool = None
    split_channels: bool = True
    use_bias: bool = None
    covariance_form: CovarianceForm = CovarianceForm.GAMMA_GRAMIAN
    delta_frozen: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", GatingKind(self.kind))
        object.__setattr__(self, "combine", Combine(self.combine))
        object.__setattr__(self, "covariance_form", CovarianceForm(self.covariance_form))
        for name, tri_state in (("split_channels", False), ("delta_frozen", False),
                                ("use_bias", True), ("pre_norm_on_x1", True)):
            val = getattr(self, name)
            if not (isinstance(val, bool) or (tri_state and val is None)):
                or_none = ", or None for the kind's default" if tri_state else ""
                raise ValueError(f"{name} must be true or false{or_none}, got {val!r}")
        for name in ("window_side", "groups"):
            object.__setattr__(self, name, T.check_int(name, getattr(self, name)))
        if not self.kind.grouped:
            if self.groups != 1:
                raise ValueError(f"{self.kind.name} admits exactly one group")
            if self.pre_norm_on_x1 is False:
                raise ValueError(f"{self.kind.name} always normalizes the mixed half")
            object.__setattr__(self, "pre_norm_on_x1", True)
        elif self.kind is GatingKind.GLRPE:
            if self.pre_norm_on_x1 is None:
                object.__setattr__(self, "pre_norm_on_x1", True)
        elif self.pre_norm_on_x1 is None:
            object.__setattr__(self, "pre_norm_on_x1", False)
        if self.kind is GatingKind.GGQPE:
            check_frozen_delta(self.covariance_form, self.delta_frozen)
        if self.use_bias is None:
            default_bias = self.kind in (GatingKind.SGU, GatingKind.GGQPE)
            object.__setattr__(self, "use_bias", default_bias)

    @property
    def n_tokens(self):
        return self.window_side ** 2

    def mixed_width(self, width):
        """Channel count of the mixed half; refuses a width that cannot be split or grouped."""
        if self.split_channels and width % 2:
            raise ValueError(f"channel width {width} must be even to split")
        x1 = width // 2 if self.split_channels else width
        if x1 % self.groups:
            raise ValueError(f"mixed width {x1} not divisible by {self.groups} groups")
        return x1

    def output_width(self, width):
        """Output channel count for an input of ``width`` channels."""
        x1 = self.mixed_width(width)
        return 2 * x1 if self.combine is Combine.CONCAT else x1


class GatingUnit:
    """A configured gating unit with its learnable state.

    Exactly the parameter sets the configuration demands exist: dense token
    weights for the baseline and the merged variant, lookup tables for the
    lookup variants, one block per kind of per-group quadratic parameter
    for the quadratic one, plus the optional shared position bias and
    pre-norm affine.
    """

    def __init__(self, config, width, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.width = T.check_int("width", width)
        k = config.window_side
        n = config.n_tokens
        x1_width = config.mixed_width(self.width)
        self.grid = displacement_grid(k)

        self.token_fc_weight = None
        if config.kind in (GatingKind.SGU, GatingKind.LRPE_M):
            self.token_fc_weight = Tensor(trunc_normal(rng, (n, n), 0.02, dtype),
                                          requires_grad=True)
        self.lrpe = None
        if config.kind in (GatingKind.LRPE_M, GatingKind.LRPE, GatingKind.GLRPE):
            self.lrpe = LrpeTable(k, config.groups, rng=rng, dtype=dtype)
        self.gqpe = None
        if config.kind is GatingKind.GGQPE:
            self.gqpe = GqpeParams(config.covariance_form, config.delta_frozen,
                                   config.groups, rng=rng, dtype=dtype)
        self.bias = None
        if config.use_bias:
            # The gate starts as identity for the dense/lookup family
            # (mask == 1); the softmax variant starts from zero offset.
            init = 0.0 if config.kind is GatingKind.GGQPE else 1.0
            self.bias = Tensor(np.full(n, init, dtype=dtype), requires_grad=True)
        self.norm_gain = self.norm_shift = None
        if config.pre_norm_on_x1:
            self.norm_gain = Tensor(np.ones(x1_width, dtype=dtype), requires_grad=True)
            self.norm_shift = Tensor(np.zeros(x1_width, dtype=dtype), requires_grad=True)
        self._stack_entry = None

    # -- parameters --------------------------------------------------------

    def parameters(self):
        out = {}
        if self.token_fc_weight is not None:
            out["token_fc_weight"] = self.token_fc_weight
        if self.lrpe is not None:
            out["lrpe.values"] = self.lrpe.values
        if self.gqpe is not None:
            for name, p in self.gqpe.parameters().items():
                out[f"gqpe.{name}"] = p
        if self.bias is not None:
            out["bias"] = self.bias
        if self.norm_gain is not None:
            out["norm.gain"] = self.norm_gain
            out["norm.shift"] = self.norm_shift
        return out

    # -- forward -----------------------------------------------------------

    def _positional_tensors(self):
        """A quadratic unit's positional tensors, the state of its kept stack, in a fixed order."""
        return [t for t in (self.gqpe.delta, self.gqpe.gamma, self.gqpe.alpha_raw)
                if t is not None]

    def mixing_stack(self):
        """The unit's s token-mixing matrices: a ``SoftmaxStack`` or an ``(N, s, N)`` ``WeightStack``.

        Only a quadratic unit keeps anything between calls.  Its
        ``SoftmaxStack`` holds no stack-sized array, only the recipe its
        stack is rebuilt from, and that recipe costs far more to build than
        to keep, so the unit keeps one ``(state, stack)`` pair.  The state
        is ``_positional_tensors()``: their identities, ``requires_grad``,
        dtypes and bytes.  In-place edits (an optimizer step,
        ``p.data[:] = ...``) and replaced tensors both change the state,
        and a changed state builds anew.  A backward through the vectors
        consumes the tape their gradient needs, so it forces a rebuild too.
        A returned stack keeps its tape, so gradients through it reach the
        parameters as if it were built afresh.  The pair is read once and
        replaced in one assignment, so concurrent forwards never pair a
        state with another state's stack.  A lookup or dense unit's
        ``WeightStack`` is the whole stack, and forming it from the table
        or the dense weights costs little next to a forward, so every call
        builds it afresh and the unit keeps nothing.
        """
        if self.config.kind is not GatingKind.GGQPE:
            return self._build_mixing_stack()
        tensors = self._positional_tensors()
        # Lists of tensors compare by identity: Tensor defines no __eq__.
        key = (tensors, [t.requires_grad for t in tensors], [t.data.dtype for t in tensors],
               b"".join([t.data.tobytes() for t in tensors]))
        entry = self._stack_entry
        if entry is not None and entry[0] == key and not entry[1].consumed:
            return entry[1]
        stack = self._build_mixing_stack()
        self._stack_entry = (key, stack)
        return stack

    def _build_mixing_stack(self):
        cfg = self.config
        if cfg.kind is GatingKind.GGQPE:
            return group_weight_stack(self.gqpe, self.grid)
        if cfg.kind in (GatingKind.LRPE, GatingKind.GLRPE):
            return lrpe_weight_stack(self.lrpe)
        w = self.token_fc_weight
        if cfg.kind is GatingKind.LRPE_M:
            w = T.add(w, lrpe_weight_matrix(self.lrpe))
        n = cfg.n_tokens
        return WeightStack(T.reshape(w, (n, 1, n)))

    def forward(self, x):
        """x: (B, N, width) -> (B, N, output_width)."""
        cfg = self.config
        if x.ndim != 3:
            raise T.ShapeError(f"gating unit expects (B, N, C), got {x.shape}")
        if x.shape[1] != cfg.n_tokens:
            raise T.ShapeError(
                f"token count {x.shape[1]} does not match window {cfg.window_side}^2")
        if x.shape[2] != self.width:
            raise T.ShapeError(f"channel width {x.shape[2]} != configured {self.width}")

        if cfg.split_channels:
            x1, x2 = T.split(x, 2, axis=-1)
        else:
            x1 = x2 = x
        if cfg.pre_norm_on_x1:
            # Statistics stay inside each group's channel slice, so groups
            # remain independent channel-wise.
            x1 = T.layer_norm(x1, self.norm_gain, self.norm_shift, groups=cfg.groups)
        stack = self.mixing_stack()
        if cfg.kind is GatingKind.GGQPE:
            z1 = T.mix_softmax_stack(stack.recipe, stack.vectors, stack.features, x1, self.bias)
        else:
            z1 = T.mix_tokens(stack.weights, x1)
            if self.bias is not None:
                z1 = T.add_token_bias(z1, self.bias)

        if cfg.combine is Combine.GATE:
            return T.mul(z1, x2)
        if cfg.combine is Combine.ADD:
            return T.add(z1, x2)
        return T.concat([z1, x2], axis=-1)
