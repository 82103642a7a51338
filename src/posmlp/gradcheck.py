"""Central finite-difference verification of tape gradients.

The check perturbs parameter entries by +-``STEP``, re-evaluates the scalar
loss, and compares the two-sided difference quotient against the tape
gradient.  It is the independent oracle for every differentiable operation
in the package, so it never calls ``backward`` for the numerical side.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import backward

# The central difference's step, and the tolerances every derivative meets:
# |analytic - numeric| <= ATOL + RTOL * max(|analytic|, |numeric|).
STEP = 1e-5
RTOL = 1e-4
ATOL = 1e-7


@dataclass
class GradcheckResult:
    ok: bool
    max_rel_err: float
    checked: int
    failures: list = field(default_factory=list)


def _analytic_grads(fn, params):
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 parameters; {name} is {p.dtype}")
        if not p.requires_grad:
            raise ValueError(f"gradcheck parameter {name} does not require grad")
        p.zero_grad()
    backward(fn())
    return {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
            for name, p in params.items()}


def _compare(key, ana, f_plus, f_minus, failures):
    """One tape derivative against its central difference; returns the relative error.

    A miss of the module's tolerances appends ``(*key, analytic, numeric, rel)``
    to ``failures``.  ``rel`` divides the error by ``max(|analytic|, |numeric|,
    ATOL / RTOL)``, so exact zeros compare cleanly.  A non-finite derivative
    or difference quotient misses every tolerance, with ``rel`` infinite.
    """
    numeric = (f_plus - f_minus) / (2.0 * STEP)
    err = abs(ana - numeric)
    scl = max(abs(ana), abs(numeric))
    finite = math.isfinite(err)
    rel = err / max(scl, ATOL / RTOL) if finite else math.inf
    if not finite or err > ATOL + RTOL * scl:
        failures.append((*key, ana, numeric, rel))
    return rel


def gradcheck(fn, params):
    """Compare tape gradients of ``fn()`` against central differences.

    fn: zero-argument callable rebuilding the scalar loss from ``params``.
    params: mapping name -> Tensor (float64, requires_grad).

    Every coordinate of every parameter is perturbed in turn by +-``STEP``
    and must meet the module's tolerances (see ``_compare``).
    """
    analytic = _analytic_grads(fn, params)

    max_rel = 0.0
    failures = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for idx in range(p.size):
            orig = flat[idx]
            flat[idx] = orig + STEP
            f_plus = float(fn().data)
            flat[idx] = orig - STEP
            f_minus = float(fn().data)
            flat[idx] = orig
            ana = float(analytic[name].reshape(-1)[idx])
            max_rel = max(max_rel, _compare((name, idx), ana, f_plus, f_minus, failures))
    return GradcheckResult(not failures, max_rel, sum(p.size for p in params.values()), failures)


def gradcheck_directional(fn, params, groups, rng=None):
    """Central-difference check along random directions in parameter space.

    ``groups`` maps a group name to its member parameter names (see
    ``category_groups``); every parameter belongs to exactly one group.
    All members of a group are perturbed together by ``+-STEP u`` for a
    random unit direction ``u``, and the two-sided difference quotient must
    match the projected tape gradient ``<grad, u>`` as in ``gradcheck``.
    Two model evaluations per group make this affordable for whole networks
    while still exercising every parameter coordinate.  ``rng`` draws the
    directions (seed 0 if None).
    """
    rng = rng or np.random.default_rng(0)
    analytic = _analytic_grads(fn, params)
    covered = [n for members in groups.values() for n in members]
    if sorted(covered) != sorted(params):
        raise ValueError("direction groups must cover every parameter exactly once")

    max_rel = 0.0
    failures = []
    for gname, members in groups.items():
        dirs = {n: rng.standard_normal(params[n].shape) for n in members}
        norm = np.sqrt(sum(float((u * u).sum()) for u in dirs.values()))
        dirs = {n: u / norm for n, u in dirs.items()}
        saved = {n: params[n].data.copy() for n in members}
        for n in members:
            params[n].data = saved[n] + STEP * dirs[n]
        f_plus = float(fn().data)
        for n in members:
            params[n].data = saved[n] - STEP * dirs[n]
        f_minus = float(fn().data)
        for n in members:
            params[n].data = saved[n]
        ana = sum(float((analytic[n] * dirs[n]).sum()) for n in members)
        max_rel = max(max_rel, _compare((gname, None), ana, f_plus, f_minus, failures))
    return GradcheckResult(not failures, max_rel, len(groups), failures)


def category_groups(params):
    """Group parameter paths by their trailing category for coarse directions.

    ``stages.0.blocks.1.unit.gqpe.gamma`` and its siblings land in one
    group, all projection weights in another, and so on.
    """
    groups = {}
    for name in params:
        parts = name.split(".")
        tail = [p for p in parts if not p.isdigit()]
        key = ".".join(tail)
        groups.setdefault(key, []).append(name)
    return groups
