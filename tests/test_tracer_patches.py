"""The benchmark tracer patches library functions by name; these tests keep those names.

``perfbench/tracer.py`` swaps module attributes and class methods of posmlp
while it is installed.  Loading it here, by path and without writing
bytecode, runs its ``install`` against the current library, so a renamed or
deleted target fails here rather than only in a benchmark run.  The same
holds for the MAC count that ``perfbench/harness.py`` checks against the
closed form.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from posmlp import model as M
from posmlp import tensor as T
from posmlp.gating import GatingKind

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, stem, name):
    """``perfbench/<stem>.py`` loaded as module ``name``, writing no bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", list(GatingKind))
def test_tracer_installs_over_a_training_step_and_restores_every_patch(monkeypatch, kind):
    had_cache = (PERFBENCH / "__pycache__").exists()
    tracer_mod = load_perfbench(monkeypatch, "tracer", "perfbench_tracer")
    cfg = M.variant_config("MICRO", gating_kind=kind)
    model = M.build_model(cfg, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((2, cfg.image_side, cfg.image_side, 3)).astype(np.float32))
    labels = rng.integers(0, cfg.num_classes, size=2)

    tracer = tracer_mod.Tracer({st.dim: i for i, st in enumerate(cfg.stages)})
    tracer.install()
    originals = list(tracer._saved)
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        T.backward(T.cross_entropy_mean(model.forward(x), labels))
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert (PERFBENCH / "__pycache__").exists() == had_cache

    rows, _, _ = tracer.table()
    assert rows["model.forward"]["calls"] == 1 and rows["tensor.backward"]["calls"] == 1
    assert rows["gating"]["calls"] == sum(st.depth for st in cfg.stages)
    if kind in (GatingKind.GGQPE, GatingKind.LRPE_M):
        assert rows["positional"]["calls"] > 0 and tracer.matrices > 0
    # Only ggqpe's (s, 5) vector gather goes through take; a lookup kind
    # copies its stacks out of the table.
    assert ("tensor.take" in rows) == (kind is GatingKind.GGQPE)


def _traced_forward_macs(tracer_mod, cfg, model, x):
    """The MACs per op of one traced forward, and the span names it recorded."""
    with tracer_mod.Tracer({st.dim: i for i, st in enumerate(cfg.stages)}) as tracer:
        model.forward(x)
    rows, _, _ = tracer.table()
    return {op: rows.get(f"tensor.{op}", {}).get("macs", 0) for op in tracer_mod.MAC_OPS}, rows


@pytest.mark.parametrize("batch, macs", [(1, 1_070_688), (2, 1_949_792)])
def test_a_fresh_micro_forward_executes_the_closed_form_macs(monkeypatch, tmp_path, batch, macs):
    # The benchmark counts MACs only where the tracer wraps tensor.mix_tokens
    # and tensor.matmul; a dense product that bypasses them shows up here.
    # A checkpoint-loaded model, as t224_infer times it, executes the same
    # count on its first forward, which builds the stacks' recipes it then
    # keeps.  Its second forward mixes from the kept recipes and skips only
    # their generation: every other op's count stays, so a kept-recipe
    # path that bypassed mix_tokens, or handed it an (s, N, N) stack whose
    # leading extent the tracer would read as N, fails here.
    had_cache = (PERFBENCH / "__pycache__").exists()
    tracer_mod = load_perfbench(monkeypatch, "tracer", "perfbench_tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer_mod)  # harness imports it by name
    harness = load_perfbench(monkeypatch, "harness", "perfbench_harness")
    cfg = M.variant_config("MICRO", gating_kind=GatingKind.GGQPE)
    model = M.build_model(cfg, rng=np.random.default_rng(0))
    x = T.Tensor(np.random.default_rng(1).standard_normal(
        (batch, cfg.image_side, cfg.image_side, 3)).astype(np.float32))
    fresh, _ = _traced_forward_macs(tracer_mod, cfg, model, x)
    executed = sum(fresh.values())
    assert executed == harness.reconcile_macs(cfg, batch, executed)["code_convention_macs"]
    assert executed == macs

    path = tmp_path / "micro.pmlp"
    M.save_checkpoint(model, path)
    loaded = M.load_checkpoint(path)
    first, rows = _traced_forward_macs(tracer_mod, cfg, loaded, x)
    assert first == fresh and rows["positional"]["calls"] == sum(st.depth for st in cfg.stages)
    # The positional spans hold every matmul: the logits and the 2 x 2
    # precision algebra.
    kept, rows = _traced_forward_macs(tracer_mod, cfg, loaded, x)
    assert "positional" not in rows and "tensor.matmul" not in rows
    assert kept == dict(fresh, matmul=0) and kept["mix_tokens"] > 0
    assert (PERFBENCH / "__pycache__").exists() == had_cache
