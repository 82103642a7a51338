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
from .positional import (CovarianceForm, GqpeGroupParams, LrpeTable, WeightStack,
                         displacement_grid, gqpe_embedding, group_weight_stack,
                         lrpe_weight_matrix, lrpe_weight_stack, trunc_normal)


class GatingKind(Enum):
    SGU = "sgu"
    LRPE_M = "lrpe_m"
    LRPE = "lrpe"
    GLRPE = "glrpe"
    GGQPE = "ggqpe"


class Combine(Enum):
    GATE = "gate"
    ADD = "add"
    CONCAT = "concat"


_LRPE_FAMILY = (GatingKind.SGU, GatingKind.LRPE_M, GatingKind.LRPE)


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
        if self.window_side < 1:
            raise ValueError("window_side must be >= 1")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if self.kind in _LRPE_FAMILY and self.groups != 1:
            raise ValueError(f"{self.kind.name} admits exactly one group")
        if self.kind in _LRPE_FAMILY:
            if self.pre_norm_on_x1 is False:
                raise ValueError(f"{self.kind.name} always normalizes the mixed half")
            object.__setattr__(self, "pre_norm_on_x1", True)
        elif self.kind is GatingKind.GLRPE:
            if self.pre_norm_on_x1 is None:
                object.__setattr__(self, "pre_norm_on_x1", True)
        elif self.pre_norm_on_x1 is None:
            object.__setattr__(self, "pre_norm_on_x1", False)
        if self.use_bias is None:
            default_bias = self.kind in (GatingKind.SGU, GatingKind.GGQPE)
            object.__setattr__(self, "use_bias", default_bias)

    @property
    def n_tokens(self):
        return self.window_side ** 2

    def output_width(self, width):
        """Output channel count for an input of ``width`` channels."""
        x1 = width if not self.split_channels else width // 2
        if self.combine is Combine.CONCAT:
            return 2 * x1
        return x1


class GatingUnit:
    """A configured gating unit with its learnable state.

    Exactly the parameter sets the configuration demands exist: dense token
    weights for the baseline and the merged variant, lookup tables for the
    lookup variants, per-group quadratic parameters for the quadratic one,
    plus the optional shared position bias and pre-norm affine.
    """

    def __init__(self, config, width, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.width = int(width)
        k = config.window_side
        n = config.n_tokens
        if config.split_channels:
            if self.width % 2 != 0:
                raise ValueError(f"channel width {width} must be even to split")
            x1_width = self.width // 2
        else:
            x1_width = self.width
        if x1_width % config.groups != 0:
            raise ValueError(
                f"mixed width {x1_width} not divisible by {config.groups} groups")
        self.x1_width = x1_width
        self.grid = displacement_grid(k)
        self.emb = gqpe_embedding(self.grid) if config.kind is GatingKind.GGQPE else None

        self.token_fc_weight = None
        if config.kind in (GatingKind.SGU, GatingKind.LRPE_M):
            self.token_fc_weight = Tensor(trunc_normal(rng, (n, n), 0.02, dtype),
                                          requires_grad=True)
        self.lrpe = None
        if config.kind in (GatingKind.LRPE_M, GatingKind.LRPE, GatingKind.GLRPE):
            self.lrpe = LrpeTable(k, config.groups, rng=rng, dtype=dtype)
        self.gqpe = None
        if config.kind is GatingKind.GGQPE:
            self.gqpe = [GqpeGroupParams(config.covariance_form, config.delta_frozen,
                                         rng=rng, dtype=dtype)
                         for _ in range(config.groups)]
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
            for i, grp in enumerate(self.gqpe):
                for name, p in grp.parameters().items():
                    out[f"gqpe.{i}.{name}"] = p
        if self.bias is not None:
            out["bias"] = self.bias
        if self.norm_gain is not None:
            out["norm.gain"] = self.norm_gain
            out["norm.shift"] = self.norm_shift
        return out

    # -- forward -----------------------------------------------------------

    def _positional_tensors(self):
        """Every tensor the mixing stack is a function of, in a fixed order."""
        tensors = [self.token_fc_weight, self.lrpe.values if self.lrpe else None]
        for grp in self.gqpe or ():
            tensors += (grp.delta, grp.gamma, grp.alpha_raw)
        return [t for t in tensors if t is not None]

    def mixing_stack(self):
        """The unit's s token-mixing matrices as one ``(N, s, N)`` ``WeightStack``.

        The stack is a pure function of ``_positional_tensors()``, so the one
        built last is returned again while each of them is the same object
        with the same ``requires_grad``, dtype and bytes.  In-place
        edits (an optimizer step, ``p.data[:] = ...``) and replaced tensors
        both force a rebuild.  A returned stack keeps its tape, so gradients
        through it reach the parameters as if it were built afresh.  The
        entry is one ``(key, stack)`` pair, read once and replaced in one
        assignment, so concurrent forwards never pair a key with another
        key's stack.
        """
        tensors = self._positional_tensors()
        # Lists of tensors compare by identity: Tensor defines no __eq__.
        key = (tensors, [t.requires_grad for t in tensors], [t.data.dtype for t in tensors],
               b"".join([t.data.tobytes() for t in tensors]))
        entry = self._stack_entry
        if entry is not None and entry[0] == key:
            return entry[1]
        stack = self._build_mixing_stack()
        self._stack_entry = (key, stack)
        return stack

    def _build_mixing_stack(self):
        cfg = self.config
        if cfg.kind is GatingKind.GGQPE:
            return group_weight_stack(self.gqpe, self.emb)
        if cfg.kind in (GatingKind.LRPE, GatingKind.GLRPE):
            return lrpe_weight_stack(self.lrpe, self.grid)
        w = self.token_fc_weight
        if cfg.kind is GatingKind.LRPE_M:
            w = T.add(w, lrpe_weight_matrix(self.lrpe, self.grid, 0))
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
        z1 = T.mix_tokens(self.mixing_stack().weights, x1)
        if self.bias is not None:
            z1 = T.add_token_bias(z1, self.bias)

        if cfg.combine is Combine.GATE:
            return T.mul(z1, x2)
        if cfg.combine is Combine.ADD:
            return T.add(z1, x2)
        return T.concat([z1, x2], axis=-1)
