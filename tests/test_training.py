import os
import subprocess
import sys
import weakref

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from posmlp import model as M
from posmlp import tensor as T
from posmlp import training as TR
from posmlp.gating import GatingKind
from posmlp.tensor import Tensor, backward


def micro(dtype=np.float32, seed=0, **overrides):
    cfg = M.variant_config("MICRO", **overrides)
    return M.build_model(cfg, rng=np.random.default_rng(seed), dtype=dtype)


def adamw_reference(theta, grads, lr, wd, steps_state=None):
    """Independent re-implementation used as the optimizer oracle."""
    b1, b2, eps = TR.ADAM_BETA1, TR.ADAM_BETA2, TR.ADAM_EPS
    m, v, t = steps_state or (np.zeros_like(theta), np.zeros_like(theta), 0)
    t += 1
    m = b1 * m + (1 - b1) * grads
    v = b2 * v + (1 - b2) * grads ** 2
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    theta = theta - lr * (mhat / (np.sqrt(vhat) + eps) + wd * theta)
    return theta, (m, v, t)


# -- config ------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError):
        TR.TrainConfig(lr_init=1e-5, lr_min=1e-3)
    with pytest.raises(ValueError):
        TR.TrainConfig(epochs=0)


@pytest.mark.parametrize("kw, field", [
    (dict(epochs=2.5), "epochs"), (dict(epochs=True), "epochs"),
    (dict(batch_size="32"), "batch_size"), (dict(seed=-1), "seed"), (dict(seed=1.0), "seed"),
])
def test_train_config_refuses_a_mistyped_count(kw, field):
    with pytest.raises(ValueError, match=field):
        TR.TrainConfig(**kw)


@pytest.mark.parametrize("make, field", [
    (lambda: TR.SyntheticDataset(per_class=0), "per_class"),
    (lambda: TR.SyntheticDataset(image_side=31.5, per_class=1), "image_side"),
    (lambda: TR.evaluate(None, TR.SyntheticDataset(per_class=1), batch_size=0), "batch_size"),
])
def test_data_sizes_are_positive_integers(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 1"):
        make()


def test_train_config_accepts_numpy_integers():
    cfg = TR.TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.uint8(3))
    assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 8, 3)


def test_cosine_schedule_endpoints():
    cfg = TR.TrainConfig(epochs=10, lr_init=1e-3, lr_min=1e-5)
    assert TR.cosine_lr(cfg, 0) == pytest.approx(1e-3)
    assert TR.cosine_lr(cfg, 9) == pytest.approx(1e-5)
    mids = [TR.cosine_lr(cfg, e) for e in range(10)]
    assert all(a >= b for a, b in zip(mids, mids[1:]))


def test_decay_exclusions():
    assert TR.excluded_from_decay("stages.0.blocks.0.norm.gain")
    assert TR.excluded_from_decay("stages.0.blocks.0.unit.gqpe.3.delta")
    assert TR.excluded_from_decay("stages.0.blocks.0.unit.gqpe.3.gamma")
    assert TR.excluded_from_decay("stages.0.blocks.0.unit.lrpe.values")
    assert TR.excluded_from_decay("stages.0.blocks.0.unit.bias")
    assert TR.excluded_from_decay("stages.0.blocks.0.proj_in.bias")
    assert TR.excluded_from_decay("ape")
    assert not TR.excluded_from_decay("stages.0.blocks.0.proj_in.weight")
    assert not TR.excluded_from_decay("head.weight")
    assert not TR.excluded_from_decay("stages.0.blocks.0.unit.token_fc_weight")


# -- optimizer ----------------------------------------------------------------------

def test_zero_gradient_zero_decay_is_noop():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = TR.AdamW({"w": p}, TR.TrainConfig(weight_decay=0.0))
    before = p.data.copy()
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_single_scalar_first_step_matches_hand_calc():
    # from zero state: mhat = g, vhat = g^2, update = lr * g / (|g| + eps)
    g = 0.37
    lr = 0.05
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([g])
    opt = TR.AdamW({"w": p}, TR.TrainConfig(weight_decay=0.0))
    opt.step(lr=lr)
    want = -lr * g / (abs(g) + TR.ADAM_EPS)
    assert abs(p.data[0] - want) < 1e-12
    assert abs(abs(p.data[0]) - lr) < 1e-8  # magnitude == lr up to eps


def test_two_steps_match_reference(rng):
    theta0 = rng.standard_normal(7)
    g1, g2 = rng.standard_normal(7), rng.standard_normal(7)
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = TR.AdamW({"head.weight": p}, TR.TrainConfig(weight_decay=0.05))
    p.grad = g1.copy()
    opt.step(lr=1e-2)
    p.grad = g2.copy()
    opt.step(lr=5e-3)
    ref, state = adamw_reference(theta0, g1, 1e-2, 0.05)
    ref, _ = adamw_reference(ref, g2, 5e-3, 0.05, state)
    assert np.max(np.abs(p.data - ref)) < 1e-12


class AdamWPerTensor:
    """The unchunked per-tensor update, whole-array temporaries and all.

    Its moments are allocated up front, so it is also the oracle for moments
    that appear only at a parameter's first gradient.
    """

    def __init__(self, params, config):
        self.params, self.config, self.step_count = params, config, 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.step_count += 1
        bc1 = 1.0 - TR.ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - TR.ADAM_BETA2 ** self.step_count
        wd = self.config.weight_decay
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= TR.ADAM_BETA1
            m += (1.0 - TR.ADAM_BETA1) * g
            v *= TR.ADAM_BETA2
            v += (1.0 - TR.ADAM_BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + TR.ADAM_EPS)
            if wd and not TR.excluded_from_decay(name):
                update = update + wd * p.data
            p.data -= lr * update


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("late", [(), ("a.bias", "c.weight")])
def test_chunked_adamw_matches_the_per_tensor_update_bitwise(rng, dtype, weight_decay, late):
    # The ``late`` parameters get their first gradient at the third step.
    c = T._CHUNK
    shapes = {"a.weight": (3, 5), "a.bias": (c,), "b.weight": (c // 8, 8),
              "b.gamma": (2 * c + 37,), "c.weight": (3, c + 1), "d.weight": (40, 30)}
    init = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    params = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
    oracle = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
    # a parameter rebound to a column-major array is still updated in place
    for p in (params["d.weight"], oracle["d.weight"]):
        p.data = np.asfortranarray(p.data)
    d_weight = params["d.weight"].data
    cfg = TR.TrainConfig(weight_decay=weight_decay)
    opt, want = TR.AdamW(params, cfg), AdamWPerTensor(oracle, cfg)
    assert opt.m == {} and opt.v == {}
    for i, lr in enumerate((1e-2, 3e-3, 1e-3, 5e-4)):
        for k, s in shapes.items():
            g = (rng.standard_normal(s) * rng.choice([1e-6, 1.0, 1e3])).astype(dtype)
            if i >= 2 or k not in late:
                params[k].grad, oracle[k].grad = g, g.copy()
        opt.step(lr)
        want.step(lr)
        assert sorted(opt.m) == sorted(opt.v) == sorted(k for k in shapes if i >= 2 or k not in late)
        for k in opt.m:
            for got, exp in ((params[k].data, oracle[k].data), (opt.m[k], want.m[k]),
                             (opt.v[k], want.v[k])):
                assert got.dtype == dtype
                np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint8),
                                              np.ascontiguousarray(exp).view(np.uint8), err_msg=k)
    assert params["d.weight"].data is d_weight


def test_parameter_without_gradient_is_left_untouched(rng):
    a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    opt = TR.AdamW({"a.weight": a, "b.weight": b}, TR.TrainConfig(weight_decay=0.05))
    a.grad, b.grad = rng.standard_normal(a.shape), rng.standard_normal(b.shape)
    opt.step(1e-2)
    before = [x.copy() for x in (a.data, opt.m["a.weight"], opt.v["a.weight"])]
    b_before = b.data.copy()
    a.grad = None
    b.grad = rng.standard_normal(b.shape)
    opt.step(1e-2)
    for got, want in zip((a.data, opt.m["a.weight"], opt.v["a.weight"]), before):
        np.testing.assert_array_equal(got, want)
    assert np.any(b.data != b_before)


def test_a_second_step_after_one_backward_moves_nothing(rng):
    m = micro(dtype=np.float64, seed=2)
    opt = TR.AdamW(m.parameters(), TR.TrainConfig(seed=0))
    x = Tensor(rng.standard_normal((2, 32, 32, 3)))
    backward(T.cross_entropy_mean(m.forward(x), np.array([0, 3])))
    opt.step(1e-2)
    assert all(p.grad is None for p in m.parameters().values())
    once = {k: p.data.tobytes() for k, p in m.parameters().items()}
    moments = {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in opt.params}
    opt.step(1e-2)
    assert {k: p.data.tobytes() for k, p in m.parameters().items()} == once
    assert {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in opt.params} == moments


def test_a_step_with_no_gradient_is_not_counted(rng):
    x = Tensor(rng.standard_normal((2, 32, 32, 3)).astype(np.float32))
    labels = np.array([0, 3])
    runs = []
    for extra_step in (False, True):
        m = micro(seed=2)
        opt = TR.AdamW(m.parameters(), TR.TrainConfig(seed=0))
        backward(T.cross_entropy_mean(m.forward(x), labels))
        opt.step(1e-2)
        if extra_step:
            opt.step(1e-2)
            assert opt.step_count == 1
        backward(T.cross_entropy_mean(m.forward(x), labels))
        opt.step(1e-2)
        assert opt.step_count == 2
        runs.append(({k: p.data.tobytes() for k, p in m.parameters().items()},
                     {k: (opt.m[k].tobytes(), opt.v[k].tobytes()) for k in opt.params}))
    assert runs[1] == runs[0]


def _optimizer_state(opt):
    params = opt.params.values()
    return ([p.data.tobytes() for p in params], [p.grad.tobytes() for p in params],
            {k: v.tobytes() for k, v in opt.m.items()}, {k: v.tobytes() for k, v in opt.v.items()})


def test_shape_mismatch_rejected():
    # The bad gradient comes second, for a fresh optimizer and after a step:
    # the refused step must not have counted a step, made or moved a moment,
    # or applied or dropped the first parameter's gradient.
    for earlier_steps in (0, 1):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        opt = TR.AdamW({"a": a, "b": b}, TR.TrainConfig())
        for _ in range(earlier_steps):
            a.grad, b.grad = np.full(3, 0.5), np.full(3, -0.5)
            opt.step(lr=0.1)
        a.grad, b.grad = np.full(3, 2.0), np.zeros(4)
        before = _optimizer_state(opt)
        with pytest.raises(T.ShapeError, match=r"gradient shape \(4,\) != parameter \(3,\)"):
            opt.step(lr=0.1)
        assert opt.step_count == earlier_steps
        assert _optimizer_state(opt) == before


# -- synthetic dataset -----------------------------------------------------------------

def test_synthetic_deterministic():
    a = TR.SyntheticDataset(seed=5, per_class=8)
    b = TR.SyntheticDataset(seed=5, per_class=8)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = TR.SyntheticDataset(seed=6, per_class=8)
    assert np.abs(a.images - c.images).max() > 0


def test_synthetic_layout_is_the_signal():
    ds = TR.SyntheticDataset(seed=0, per_class=32, noise=0.0)
    half = ds.image_side // 2
    for c in range(4):
        imgs = ds.images[ds.labels == c]
        qy, qx = divmod(c, 2)
        quad = imgs[:, qy * half:(qy + 1) * half, qx * half:(qx + 1) * half]
        assert quad.mean() > 3 * imgs.mean()  # mass concentrated in the class quadrant
    # intensity statistics carry no class signal
    sums = [ds.images[ds.labels == c].sum() for c in range(4)]
    assert (max(sums) - min(sums)) / abs(np.mean(sums)) < 0.05


# -- binary dataset ingestion ------------------------------------------------------------

def test_ingest_roundtrip(tmp_path, rng):
    images = rng.integers(0, 256, size=(5, 32, 32, 3), dtype=np.uint8)
    labels = np.array([7, 0, 3, 9, 1], dtype=np.uint8)
    path = tmp_path / "batch.bin"
    TR.write_cifar_binary(path, images, labels)
    assert path.stat().st_size == 5 * 3073
    ds = TR.ingest_cifar_binary(path)
    assert len(ds) == 5 and ds.n_classes == 10
    np.testing.assert_array_equal(ds.labels, labels)
    # un-normalize back to the original bytes
    restored = (ds.images * np.asarray(TR.CIFAR_STD) + np.asarray(TR.CIFAR_MEAN)) * 255.0
    np.testing.assert_array_equal(np.round(restored).astype(np.uint8), images)
    assert ds.labels[0] == 7


def test_ingest_rejects_truncated(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 3072)
    with pytest.raises(ValueError) as err:
        TR.ingest_cifar_binary(path)
    assert "3073" in str(err.value)


def test_ingest_rejects_large_label(tmp_path, rng):
    images = rng.integers(0, 256, size=(2, 32, 32, 3), dtype=np.uint8)
    path = tmp_path / "bad2.bin"
    TR.write_cifar_binary(path, images, np.array([3, 11], dtype=np.uint8))
    with pytest.raises(ValueError):
        TR.ingest_cifar_binary(path)


@st.composite
def cifar_records(draw, max_n=4):
    """n >= 1 uint8 images of the binary layout with labels below 10."""
    n = draw(st.integers(1, max_n))
    images = draw(arrays(np.uint8, (n, 32, 32, 3)))
    labels = draw(arrays(np.uint8, n, elements=st.integers(0, 9)))
    return images, labels


@settings(max_examples=25, deadline=None)
@given(cifar_records())
def test_binary_dataset_round_trips_any_records(records):
    images, labels = records
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.bin"
        TR.write_cifar_binary(path, images, labels)
        ds = TR.ingest_cifar_binary(path)
    want = images.astype(np.float32) / 255.0
    want -= np.asarray(TR.CIFAR_MEAN, dtype=np.float32)
    want /= np.asarray(TR.CIFAR_STD, dtype=np.float32)
    assert len(ds) == len(labels) and ds.n_classes == 10
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_array_equal(ds.images, want)


@settings(max_examples=25, deadline=None)
@given(cifar_records(), st.integers(1, 3072), st.booleans())
def test_binary_dataset_refuses_a_partial_record(records, cut, extra):
    # a file cut short inside its last record, or one with a stray tail
    images, labels = records
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.bin"
        TR.write_cifar_binary(path, images, labels)
        blob = path.read_bytes()
        path.write_bytes(blob + blob[:cut] if extra else blob[:-cut])
        with pytest.raises(ValueError, match="3073"):
            TR.ingest_cifar_binary(path)


@settings(max_examples=25, deadline=None)
@given(cifar_records(), st.data())
def test_binary_dataset_refuses_a_label_of_ten_or_more(records, data):
    images, labels = records
    labels = labels.copy()
    labels[data.draw(st.integers(0, len(labels) - 1))] = data.draw(st.integers(10, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.bin"
        TR.write_cifar_binary(path, images, labels)
        with pytest.raises(ValueError, match="out of range"):
            TR.ingest_cifar_binary(path)


# -- the loop -----------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.integers(1, 60), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_batch_plan_cuts_each_epoch_into_full_batches_and_one_short_tail(n, b, epochs, seed):
    plan = TR._batch_plan(n, b, epochs, seed)
    assert len(plan) == epochs
    for batches in plan:
        assert sorted(np.concatenate(batches).tolist()) == list(range(n))
        assert all(len(batch) == b for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= b
    again = TR._batch_plan(n, b, epochs, seed)
    assert all(len(p) == len(q) and all(np.array_equal(x, y) for x, y in zip(p, q))
               for p, q in zip(plan, again))


def tiny_dataset(seed=0):
    return TR.SyntheticDataset(seed=seed, per_class=16)


def test_lr_zero_leaves_parameters_bit_identical():
    m = micro()
    before = {k: p.data.copy() for k, p in m.parameters().items()}
    cfg = TR.TrainConfig(epochs=2, batch_size=16, lr_init=0.0, lr_min=0.0, seed=3)
    TR.train_loop(m, tiny_dataset(), cfg)
    for k, p in m.parameters().items():
        np.testing.assert_array_equal(p.data, before[k])


def test_lr_zero_steps_see_the_gradients_of_a_fresh_model(monkeypatch):
    # Parameters that do not move leave every mixing stack's cache key as it
    # was, so each step must rebuild the stacks whose tape the last backward
    # consumed; the gradients, read before each step, are a fresh model's.
    seen = []
    step = TR.AdamW.step

    def recording_step(self, lr):
        seen.append({k: p.grad.copy() for k, p in self.params.items() if p.grad is not None})
        step(self, lr)

    monkeypatch.setattr(TR.AdamW, "step", recording_step)
    m = micro(seed=7)
    before = {k: p.data.tobytes() for k, p in m.parameters().items()}
    ds = tiny_dataset()
    cfg = TR.TrainConfig(epochs=1, batch_size=22, lr_init=0.0, lr_min=0.0, seed=3)
    TR.train_loop(m, ds, cfg)
    assert {k: p.data.tobytes() for k, p in m.parameters().items()} == before
    plan = TR._batch_plan(len(ds), cfg.batch_size, cfg.epochs, cfg.seed)[0]
    assert len(seen) == len(plan) == 3
    for idx, grads in zip(plan, seen):
        fresh = micro(seed=7)
        backward(T.cross_entropy_mean(fresh.forward(Tensor(ds.images[idx])), ds.labels[idx]))
        want = {k: p.grad for k, p in fresh.parameters().items() if p.grad is not None}
        assert grads.keys() == want.keys()
        for k, g in want.items():
            assert grads[k].tobytes() == g.tobytes(), k


def test_train_loop_drops_each_step_before_the_next_forward():
    m = micro(seed=1)
    forward = m.forward
    last, alive = [], []

    def watched_forward(x):
        alive.append(bool(last) and last[-1]() is not None)
        out = forward(x)
        last.append(weakref.ref(out.data))
        return out

    m.forward = watched_forward
    TR.train_loop(m, tiny_dataset(), TR.TrainConfig(epochs=1, batch_size=16, seed=0))
    assert len(alive) == 4 and not any(alive)


def test_a_scipy_free_step_does_not_import_scipy():
    code = ("import sys\n"
            "import numpy as np\n"
            "import posmlp.training as TR, posmlp.model as M, posmlp.complexity\n"
            "m = M.build_model(M.variant_config('MICRO'), rng=np.random.default_rng(0))\n"
            "ds = TR.SyntheticDataset(per_class=2)\n"
            "TR.train_loop(m, ds, TR.TrainConfig(epochs=1, batch_size=8))\n"
            "print('scipy.special' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(TR.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_rerun_same_seed_identical_metrics_csv():
    cfg = TR.TrainConfig(epochs=2, batch_size=16, seed=11)
    h1 = TR.train_loop(micro(seed=2), tiny_dataset(), cfg)
    h2 = TR.train_loop(micro(seed=2), tiny_dataset(), cfg)
    assert TR.metrics_csv(h1) == TR.metrics_csv(h2)


def test_float64_trajectories_bit_exact_over_three_steps():
    cfg = TR.TrainConfig(epochs=1, batch_size=22, seed=13)  # 64 samples -> 3 batches
    runs = []
    for _ in range(2):
        m = micro(dtype=np.float64, seed=4)
        TR.train_loop(m, tiny_dataset(seed=1), cfg)
        runs.append({k: p.data.copy() for k, p in m.parameters().items()})
    for k in runs[0]:
        np.testing.assert_array_equal(runs[0][k], runs[1][k])


def test_forward_after_a_step_matches_the_reloaded_model(tmp_path, rng):
    # AdamW updates parameters in place; the next forward must see the new
    # values, not the mixing stacks cached by the forward before the step.
    m = micro(dtype=np.float64, seed=6)
    x = Tensor(rng.standard_normal((2, 32, 32, 3)))
    opt = TR.AdamW(m.parameters(), TR.TrainConfig(seed=0))
    loss = T.cross_entropy_mean(m.forward(x), np.array([0, 3]))
    m.zero_grad()
    backward(loss)
    opt.step(1e-2)
    stepped = m.forward(x).data
    path = tmp_path / "stepped.pmlp"
    M.save_checkpoint(m, path)
    np.testing.assert_array_equal(stepped, M.load_checkpoint(path).forward(x).data)


def test_metrics_csv_format_and_file(tmp_path):
    cfg = TR.TrainConfig(epochs=2, batch_size=32, seed=5)
    TR.train_loop(micro(), tiny_dataset(), cfg, out_dir=tmp_path)
    body = (tmp_path / "metrics.csv").read_text().splitlines()
    assert body[0] == "epoch,split,loss,accuracy"
    assert body[1].startswith("0,train,")
    assert len(body) == 3


def test_dataset_model_shape_mismatch_fails_fast():
    m = micro()
    ds = TR.ArrayDataset(np.zeros((4, 16, 16, 3), dtype=np.float32),
                         np.zeros(4, dtype=np.int64), 4)
    with pytest.raises(T.ShapeError):
        TR.train_loop(m, ds, TR.TrainConfig(epochs=1, batch_size=2))


@pytest.mark.parametrize("kind", list(GatingKind))
def test_loss_decreases_over_five_epochs(kind):
    m = micro(gating_kind=kind, seed=6)
    cfg = TR.TrainConfig(epochs=5, batch_size=16, lr_init=2e-3, lr_min=1e-4, seed=9)
    hist = TR.train_loop(m, tiny_dataset(seed=2), cfg)
    assert hist[-1]["loss"] < hist[0]["loss"]


def test_gradient_flow_to_every_parameter_group():
    # windows with a single token mix through a constant softmax, so their
    # quadratic-prior parameters are structurally gradient-free; everything
    # else (center shifts, precision factors, lookup tables, position bias,
    # the absolute-position map, projections, norms) must receive a nonzero
    # gradient from a generic batch
    ds = tiny_dataset(seed=3)
    for overrides in ({"use_ape": True},
                      {"gating_kind": GatingKind.GLRPE, "use_bias": True}):
        m = micro(dtype=np.float64, seed=8, **overrides)
        x = Tensor(ds.images[:8].astype(np.float64))
        loss = T.cross_entropy_mean(m.forward(x), ds.labels[:8])
        backward(loss)
        inert_stage = [i for i, st in enumerate(m.config.stages) if st.window_side == 1]
        for name, p in m.parameters().items():
            structurally_inert = any(f"stages.{i}." in name and ".gqpe." in name
                                     for i in inert_stage)
            if structurally_inert:
                assert p.grad is None or not np.any(p.grad)
                continue
            assert p.grad is not None and np.any(p.grad), f"no gradient reached {name}"


def test_evaluate_reports_accuracy():
    m = micro()
    ds = tiny_dataset()
    out = TR.evaluate(m, ds, batch_size=32)
    assert 0.0 <= out["accuracy"] <= 1.0 and out["loss"] > 0


def test_a_non_finite_loss_stops_training_before_its_backward_and_step(monkeypatch):
    # An enormous learning rate drives the loss to inf or nan within a few
    # steps; the run stops at the first such loss, before it is differentiated
    # or applied, and writes nothing.
    T.set_checked(False)  # the loop's own check must catch it, not an op's
    calls = []
    losses = []
    cross_entropy, backward_, step = T.cross_entropy_mean, TR.backward, TR.AdamW.step

    def recording_loss(logits, labels):
        out = cross_entropy(logits, labels)
        losses.append(float(out.data))
        return out

    def counted_step(self, lr):
        calls.append("step")
        step(self, lr)

    monkeypatch.setattr(T, "cross_entropy_mean", recording_loss)
    monkeypatch.setattr(TR, "backward", lambda loss: (calls.append("backward"), backward_(loss)))
    monkeypatch.setattr(TR.AdamW, "step", counted_step)
    cfg = TR.TrainConfig(epochs=3, batch_size=16, lr_init=1e4, seed=0)
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"epoch \d+, step \d+") as err:
            TR.train_loop(micro(seed=2), tiny_dataset(), cfg, out_dir=tmp)
        assert list(Path(tmp).iterdir()) == []
    finite = [v for v in losses if np.isfinite(v)]
    assert not np.isfinite(losses[-1]) and len(finite) == len(losses) - 1
    assert calls == ["backward", "step"] * len(finite)
    per_epoch = -(-len(tiny_dataset()) // cfg.batch_size)
    epoch, step_ = divmod(len(finite), per_epoch)
    assert f"epoch {epoch}, step {step_}" in str(err.value)


def test_two_micro_steps_at_lr_zero_rebuild_the_consumed_stacks():
    # The second forward finds every positional parameter unchanged, but the
    # first backward consumed the tape of each ggqpe stack's vectors, so each
    # unit rebuilds its stack; nothing raises and the two steps agree.
    m = micro(seed=4)
    opt = TR.AdamW(m.parameters(), TR.TrainConfig(lr_init=0.0, lr_min=0.0, seed=0))
    ds = tiny_dataset()
    x, labels = Tensor(ds.images[:8]), ds.labels[:8]
    units = [blk.unit for blocks in m.stages for blk in blocks]
    results = []
    for _ in range(2):
        stacks = [u.mixing_stack() for u in units]
        loss = T.cross_entropy_mean(m.forward(x), labels)
        backward(loss)
        assert all(s.vectors.consumed and not s.weights.consumed for s in stacks)
        results.append((loss.data.copy(), {k: p.grad.copy() for k, p in m.parameters().items()
                                           if p.grad is not None}))
        opt.step(0.0)
    assert all(u.mixing_stack() is not s for u, s in zip(units, stacks))
    (loss0, grads0), (loss1, grads1) = results
    assert loss0 == loss1 and grads0.keys() == grads1.keys()
    for k in grads0:
        np.testing.assert_array_equal(grads0[k], grads1[k], err_msg=k)
