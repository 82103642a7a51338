"""Central finite-difference verification of tape gradients.

The check perturbs parameter entries by +-h, re-evaluates the scalar loss,
and compares the two-sided difference quotient against the tape gradient.
It is the independent oracle for every differentiable operation in the
package, so it never calls ``backward`` for the numerical side.
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, backward


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


def gradcheck(fn, params, h=1e-5, rtol=1e-4, atol=1e-7):
    """Compare tape gradients of ``fn()`` against central differences.

    fn: zero-argument callable rebuilding the scalar loss from ``params``.
    params: mapping name -> Tensor (float64, requires_grad).

    Every coordinate of every parameter is perturbed in turn.

    A coordinate passes when ``|analytic - numeric| <= atol + rtol * scale``
    with ``scale = max(|analytic|, |numeric|)``; the reported relative error
    uses the same scale with an ``atol/rtol`` floor so exact zeros compare
    cleanly.
    """
    analytic = _analytic_grads(fn, params)

    max_rel = 0.0
    checked = 0
    failures = []
    floor = atol / rtol
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for idx in range(p.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = float(fn().data)
            flat[idx] = orig - h
            f_minus = float(fn().data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            ana = float(analytic[name].reshape(-1)[idx])
            err = abs(ana - numeric)
            scl = max(abs(ana), abs(numeric))
            rel = err / max(scl, floor)
            max_rel = max(max_rel, rel)
            checked += 1
            if err > atol + rtol * scl:
                failures.append((name, idx, ana, numeric, rel))
    return GradcheckResult(not failures, max_rel, checked, failures)


def gradcheck_directional(fn, params, groups, h=1e-5, rtol=1e-4, atol=1e-7, rng=None):
    """Central-difference check along random directions in parameter space.

    ``groups`` maps a group name to its member parameter names (see
    ``category_groups``); every parameter belongs to exactly one group.
    All members of a group are perturbed together by ``+-h u`` for a
    random unit direction ``u``, and the two-sided difference quotient is
    compared with the projected tape gradient ``<grad, u>``.  Two model
    evaluations per group make this affordable for whole networks while
    still exercising every parameter coordinate.  ``rng`` draws the
    directions (seed 0 if None).
    """
    rng = rng or np.random.default_rng(0)
    analytic = _analytic_grads(fn, params)
    covered = [n for members in groups.values() for n in members]
    if sorted(covered) != sorted(params):
        raise ValueError("direction groups must cover every parameter exactly once")

    max_rel = 0.0
    failures = []
    floor = atol / rtol
    for gname, members in groups.items():
        dirs = {n: rng.standard_normal(params[n].shape) for n in members}
        norm = np.sqrt(sum(float((u * u).sum()) for u in dirs.values()))
        dirs = {n: u / norm for n, u in dirs.items()}
        saved = {n: params[n].data.copy() for n in members}
        for n in members:
            params[n].data = saved[n] + h * dirs[n]
        f_plus = float(fn().data)
        for n in members:
            params[n].data = saved[n] - h * dirs[n]
        f_minus = float(fn().data)
        for n in members:
            params[n].data = saved[n]
        numeric = (f_plus - f_minus) / (2.0 * h)
        ana = sum(float((analytic[n] * dirs[n]).sum()) for n in members)
        err = abs(ana - numeric)
        scl = max(abs(ana), abs(numeric))
        rel = err / max(scl, floor)
        max_rel = max(max_rel, rel)
        if err > atol + rtol * scl:
            failures.append((gname, None, ana, numeric, rel))
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
