"""Workloads, the closed measurement loop, output checks and metric derivation.

Import this module only after ``run.prepare`` has capped the BLAS thread
pools and put the checkout's ``src`` first on ``sys.path``.
"""

import os
import platform
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import scipy

from posmlp import complexity, tensor as T, training as TR
from posmlp import model as M
from tracer import BUCKET_OPS, MAC_OPS, Tracer, op_bucket

# Executed forward MACs over the closed-form estimate on t224_infer.  The
# closed form charges positional generation per window (5 s N^2 each); the
# code builds each block's matrices once per forward, so the executed count
# is lower by (windows - 1) * 5 s N^2 per block (about 1% for T at 224^2).
MAC_RATIO_BOUNDS = (0.97, 1.01)
# Per group and forward the code also forms Gamma Gamma^T (8 MACs) and P delta
# (4 MACs), which the closed form omits.  With that term and positional
# generation charged once per block, the closed form equals the executed count.
PRECISION_MACS_PER_GROUP = 12

T_LR = 1e-3
T_TRAIN_IMAGES = 4


@dataclass(frozen=True)
class Spec:
    kind: str            # "train_loop", "infer" or "train"
    variant: str
    image_side: int
    num_classes: int
    batch: int
    episodes: int        # set-ups per untraced run, each followed by its share of the time
    epochs: int = 0      # train_loop only
    per_class: int = 0   # train_loop only
    min_accuracy: float = 0.0


WORKLOADS = {
    "micro_train": Spec("train_loop", "MICRO", 32, 4, 32, episodes=2, epochs=12,
                        per_class=64, min_accuracy=0.9),
    "t224_infer": Spec("infer", "T", 224, 1000, 1, episodes=3),
    "t224_train": Spec("train", "T", 224, 1000, 1, episodes=2),
}

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_tail", "ms", "lower"),
    ("infer_ms_p50", "ms", "lower"),
    ("infer_ms_tail", "ms", "lower"),
    ("img_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = (
    [("tensor.ops_per_step", "count", "lower"),
     ("tensor.tape_nodes_per_step", "count", "lower"),
     ("tensor.backward_overhead_ms", "ms", "lower"),
     ("tensor.backward_ms", "ms", "lower"),
     ("tensor.executed_gmacs", "GMAC", "lower"),
     ("tensor.gmacs_per_s", "GMAC/s", "higher"),
     ("gating.self_ms", "ms", "lower"),
     ("gating.calls", "count", "lower")]
    + [(f"tensor.fwd_self_ms.{op}", "ms", "lower") for op in BUCKET_OPS + ("other",)]
    + [(f"tensor.bwd_ms.{op}", "ms", "lower") for op in BUCKET_OPS + ("other",)]
    + [(f"model.stage{i}.ms", "ms", "lower") for i in range(4)]
    + [(f"model.stage{i}.gmacs_per_s", "GMAC/s", "higher") for i in range(4)]
    + [("model.stem_ms", "ms", "lower"),
       ("model.merge_ms", "ms", "lower"),
       ("model.window_ms", "ms", "lower"),
       ("model.build_s", "s", "lower"),
       ("model.load_checkpoint_s", "s", "lower"),
       ("positional.gen_ms", "ms", "lower"),
       ("positional.gen_calls", "count", "lower"),
       ("positional.matrices_per_forward", "count", "lower"),
       ("mem.traced_peak_mb", "MB", "lower"),
       ("training.optimizer_ms", "ms", "lower"),
       ("training.loss_ms", "ms", "lower"),
       ("training.zero_grad_ms", "ms", "lower"),
       ("training.data_wait_ms", "ms", "lower"),
       ("complexity.estimate_gmacs", "GMAC", "lower"),
       ("complexity.executed_over_estimate", "ratio", "lower"),
       ("trace.overhead_frac", "ratio", "lower")])


class Checks:
    """Attempted and failed iterations and output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Samples:
    def __init__(self):
        self.step_s = []
        self.infer_s = []
        self.images = 0


# -- workloads -------------------------------------------------------------------


class _Workload:
    def __init__(self, spec, seed, scratch, checks):
        self.spec = spec
        self.seed = seed
        self.scratch = scratch
        self.checks = checks
        self.config = M.variant_config(spec.variant, image_side=spec.image_side,
                                       num_classes=spec.num_classes)
        self.episode_outputs = []

    def stage_of_dim(self):
        return {st.dim: i for i, st in enumerate(self.config.stages)}

    def build(self):
        return M.build_model(self.config, rng=np.random.default_rng(self.seed))

    def after_setup(self):
        """Untimed work between set-up and measurement (reference outputs)."""

    def end_episode(self):
        """Per-episode output checks."""


class MicroTrain(_Workload):
    """``train_loop`` on the quadrant task; one iteration is one whole loop."""

    def setup(self):
        spec = self.spec
        self.dataset = TR.SyntheticDataset(image_side=spec.image_side,
                                           per_class=spec.per_class, seed=self.seed)
        self.train_config = TR.TrainConfig(epochs=spec.epochs, batch_size=spec.batch,
                                           seed=self.seed)
        self.model = self.build()
        self.one_step()

    def one_step(self):
        # Forward, loss and backward without an optimizer step, so the
        # parameters are left as built.
        b = self.spec.batch
        x = T.Tensor(self.dataset.images[:b])
        loss = T.cross_entropy_mean(self.model.forward(x), self.dataset.labels[:b])
        self.model.zero_grad()
        T.backward(loss)
        self.model.zero_grad()

    def iterate(self, samples):
        model = self.build()
        starts, finite = [], []
        forward = model.forward

        def timed_forward(images):
            t0 = time.perf_counter()
            starts.append(t0)
            out = forward(images)
            samples.infer_s.append(time.perf_counter() - t0)
            finite.append(bool(np.isfinite(out.data).all()))
            return out

        model.forward = timed_forward
        history = TR.train_loop(model, self.dataset, self.train_config)
        starts.append(time.perf_counter())
        samples.step_s.extend(np.diff(starts).tolist())
        samples.images += len(self.dataset) * self.spec.epochs
        for ok in finite:
            self.checks.check(ok, "non-finite logits in a training step")
        losses = [row["loss"] for row in history]
        self.episode_outputs.append(losses)
        self.checks.check(all(np.isfinite(losses)), "non-finite epoch loss")
        acc = history[-1]["accuracy"]
        self.checks.check(acc >= self.spec.min_accuracy,
                          f"final train accuracy {acc:.3f} < {self.spec.min_accuracy}")
        if len(self.episode_outputs) > 1:
            self.checks.check(losses == self.episode_outputs[0],
                              "loss history differs from the first same-seed run")


class T224Infer(_Workload):
    """Repeated forwards of a checkpoint-loaded model on fixed seeded images."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reference = None
        self.reconciliation = None

    def setup(self):
        built = self.build()
        path = os.path.join(self.scratch, "model.pmlp")
        M.save_checkpoint(built, path)
        self.model = M.load_checkpoint(path)
        rng = np.random.default_rng([self.seed, 1])
        shape = (self.spec.batch, self.spec.image_side, self.spec.image_side, 3)
        self.images = T.Tensor(rng.normal(size=shape).astype(np.float32))
        self.first_logits = self.model.forward(self.images).data
        self.built = built

    def one_step(self):
        return self.model.forward(self.images)

    def after_setup(self):
        built, self.built = self.built, None
        if self.reference is None:
            counter = Tracer(self.stage_of_dim())
            with counter:
                self.reference = built.forward(self.images).data
            table, _, _ = counter.table()
            executed = sum(table.get(f"tensor.{op}", {}).get("macs", 0) for op in MAC_OPS)
            self.reconciliation = reconcile_macs(self.config, self.spec.batch, executed)
            r = self.reconciliation
            lo, hi = MAC_RATIO_BOUNDS
            self.checks.check(lo <= r["executed_over_estimate"] <= hi,
                              f"executed/estimate MACs {r['executed_over_estimate']:.4f} "
                              f"outside [{lo}, {hi}]")
            self.checks.check(executed == r["code_convention_macs"],
                              "executed MACs differ from the closed form in the code's convention")
        self.checks.check(np.all(np.isfinite(self.reference)), "non-finite reference logits")
        self.checks.check(np.array_equal(self.first_logits, self.reference),
                          "checkpoint round-trip changed the logits")

    def iterate(self, samples):
        t0 = time.perf_counter()
        logits = self.model.forward(self.images).data
        t1 = time.perf_counter()
        ok = bool(np.isfinite(logits).all()) and np.array_equal(logits, self.reference)
        samples.step_s.append(time.perf_counter() - t0)
        samples.infer_s.append(t1 - t0)
        samples.images += self.spec.batch
        self.checks.check(ok, "logits not finite or not bit-identical to the reference")


class T224Train(_Workload):
    """Full training steps (forward, loss, backward, AdamW) on seeded images."""

    def setup(self):
        self.model = self.build()
        rng = np.random.default_rng([self.seed, 2])
        n = T_TRAIN_IMAGES * self.spec.batch
        side = self.spec.image_side
        self.images = rng.normal(size=(n, side, side, 3)).astype(np.float32)
        self.labels = rng.integers(0, self.spec.num_classes, size=n)
        self.opt = TR.AdamW(self.model.parameters(), TR.TrainConfig(seed=self.seed))
        self.losses = []
        self.episode_outputs.append(self.losses)
        self.one_step()

    def one_step(self):
        b = self.spec.batch
        i = (len(self.losses) % T_TRAIN_IMAGES) * b
        t0 = time.perf_counter()
        logits = self.model.forward(T.Tensor(self.images[i:i + b]))
        t1 = time.perf_counter()
        loss = T.cross_entropy_mean(logits, self.labels[i:i + b])
        self.model.zero_grad()
        T.backward(loss)
        self.opt.step(T_LR)
        self.losses.append(float(loss.data))
        return t1 - t0

    def iterate(self, samples):
        t0 = time.perf_counter()
        forward_s = self.one_step()
        samples.step_s.append(time.perf_counter() - t0)
        samples.infer_s.append(forward_s)
        samples.images += self.spec.batch
        self.checks.check(bool(np.isfinite(self.losses[-1])), "non-finite training loss")

    def end_episode(self):
        if len(self.episode_outputs) > 1:
            first = self.episode_outputs[0]
            n = min(len(first), len(self.losses))
            self.checks.check(self.losses[:n] == first[:n],
                              "loss sequence differs from the first same-seed episode")


KINDS = {"train_loop": MicroTrain, "infer": T224Infer, "train": T224Train}


# -- accounting ------------------------------------------------------------------


def reconcile_macs(config, batch, executed):
    """Executed forward MACs against ``estimate_flops`` under both conventions."""
    est = complexity.estimate_flops(config, batch=batch)
    positional = sum(s["breakdown"]["positional"] for s in est["stages"])
    once_per_block = sum(s["breakdown"]["positional"] // (s["windows"] * batch)
                         for s in est["stages"])
    groups = sum(st.depth * config.stage_gating_config(i).groups
                 for i, st in enumerate(config.stages))
    code_convention = (est["total"] - positional + once_per_block
                       + PRECISION_MACS_PER_GROUP * groups)
    return {
        "estimate_macs": est["total"],
        "estimate_convention": "closed form: positional generation 5 s N^2 per window",
        "executed_macs": executed,
        "executed_convention": "code: positional generation 5 s N^2 once per block forward,"
                               " plus 12 MACs of 2x2 precision algebra per group",
        "code_convention_macs": code_convention,
        "executed_over_estimate": executed / est["total"],
    }


# -- statistics ------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it, never below the median.

    Returns ``(value, percentile, beyond)``.  In ``n`` sorted samples the one
    at index ``n - 11`` has ten above it.  With 21 or fewer samples that
    index is not above the median, so the median is returned instead and
    ``beyond`` reports how many samples lie above it.
    """
    s = sorted(values)
    n = len(s)
    if n <= 21:
        return statistics.median(s), 50.0, n // 2
    return s[n - 11], 100.0 * (n - 11) / (n - 1), 10


def run_record(workload, seed, seconds, trace, root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(root), "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "trace_overhead_frac": None,
    }


def git_sha(root):
    """Commit of the checkout, read from ``.git`` without starting a process."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- the run ---------------------------------------------------------------------


def run(spec, seed, seconds, trace, scratch, import_s):
    """Measure one workload; returns ``(checks, metrics, notes, extras, tracer)``.

    Untraced: ``spec.episodes`` episodes, each a timed set-up followed by a
    closed loop for its share of ``seconds``.  Traced: one untraced episode
    then one traced episode, each with half the time, then one iteration
    under tracemalloc.
    """
    checks = Checks()
    wl = KINDS[spec.kind](spec, seed, scratch, checks)
    tracer = Tracer(wl.stage_of_dim())
    episodes = 2 if trace else spec.episodes
    slot = seconds / episodes
    setup_s = []
    plain, traced = Samples(), Samples()
    lo = hi = tape = matrices = 0
    for ep in range(episodes):
        on = trace and ep == episodes - 1
        samples = traced if on else plain
        if on:
            tracer.install()
        try:
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
            wl.after_setup()
            lo, tape0, mat0 = len(tracer), tracer.tape_nodes, tracer.matrices
            deadline = time.perf_counter() + slot
            while True:
                idx = tracer.open("iteration") if on else None
                try:
                    wl.iterate(samples)
                finally:
                    if on:
                        tracer.close(idx)
                if time.perf_counter() >= deadline:
                    break
            hi = len(tracer)
            tape, matrices = tracer.tape_nodes - tape0, tracer.matrices - mat0
        finally:
            if on:
                tracer.uninstall()
        wl.end_episode()

    extras = {"setup_samples_s": setup_s, "import_s": import_s,
              "step_samples_ms": [1e3 * v for v in plain.step_s],
              "infer_samples_ms": [1e3 * v for v in plain.infer_s]}
    if spec.kind == "infer":
        extras["mac_reconciliation"] = wl.reconciliation
    if not trace:
        metrics, notes = end_to_end(plain, setup_s, import_s, checks)
        return checks, metrics, notes, extras, None

    tracemalloc.start()
    try:
        wl.one_step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    metrics, notes = per_layer(spec, wl, tracer, lo, hi, tape, matrices, plain, traced,
                               peak, checks)
    extras["traced_step_samples_ms"] = [1e3 * v for v in traced.step_s]
    return checks, metrics, notes, extras, tracer


def end_to_end(s, setup_s, import_s, checks):
    step_tail, step_pct, step_beyond = tail(s.step_s)
    inf_tail, inf_pct, inf_beyond = tail(s.infer_s)
    n_step, n_inf = len(s.step_s), len(s.infer_s)
    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        "step_ms_p50": 1e3 * statistics.median(s.step_s),
        "step_ms_tail": 1e3 * step_tail,
        "infer_ms_p50": 1e3 * statistics.median(s.infer_s),
        "infer_ms_tail": 1e3 * inf_tail,
        "img_per_s": s.images / sum(s.step_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"n={len(setup_s)} set-ups, median + import {import_s:.3f} s",
        "step_ms_p50": f"n={n_step}",
        "step_ms_tail": f"p{step_pct:.1f}, n={n_step}, {step_beyond} beyond",
        "infer_ms_p50": f"n={n_inf}",
        "infer_ms_tail": f"p{inf_pct:.1f}, n={n_inf}, {inf_beyond} beyond",
        "img_per_s": f"{s.images} images over n={n_step} steps",
        "peak_rss_mb": "ru_maxrss, n=1",
    }
    return metrics, notes


def per_layer(spec, wl, tracer, lo, hi, tape, matrices, plain, traced, peak, checks):
    table, root_s, self_sum = tracer.table(lo, hi)
    checks.check(abs(self_sum - root_s) <= 1e-9 * max(root_s, 1.0),
                 f"span self times {self_sum:.6f} s do not add up to the roots {root_s:.6f} s")

    def get(name, key="total_s"):
        return table.get(name, {}).get(key, 0)

    n = get("model.forward", "calls")
    ms = 1e3 / n
    fwd_ops = [k for k in table if k.startswith("tensor.") and not k.startswith("tensor.vjp.")
               and k != "tensor.backward"]
    metrics = {
        "tensor.ops_per_step": (sum(get(k, "calls") for k in fwd_ops)
                                + get("training.loss", "calls")) / n,
        "tensor.tape_nodes_per_step": tape / n,
        "tensor.backward_overhead_ms": get("tensor.backward", "self_s") * ms,
        "tensor.backward_ms": get("tensor.backward") * ms,
        "gating.self_ms": get("gating", "self_s") * ms,
        "gating.calls": get("gating", "calls") / n,
    }
    executed = sum(get(f"tensor.{op}", "macs") for op in MAC_OPS)
    metrics["tensor.executed_gmacs"] = executed / n / 1e9
    metrics["tensor.gmacs_per_s"] = executed / 1e9 / get("model.forward")
    for op in BUCKET_OPS + ("other",):
        metrics[f"tensor.fwd_self_ms.{op}"] = 0.0
        metrics[f"tensor.bwd_ms.{op}"] = 0.0
    for k in fwd_ops:
        metrics[f"tensor.fwd_self_ms.{op_bucket(k[7:])}"] += get(k, "self_s") * ms
    for k in table:
        if k.startswith("tensor.vjp."):
            metrics[f"tensor.bwd_ms.{op_bucket(k[11:])}"] += get(k) * ms
    for i in range(4):
        name = f"model.stage{i}.block"
        metrics[f"model.stage{i}.ms"] = get(name) * ms
        metrics[f"model.stage{i}.gmacs_per_s"] = get(name, "macs") / 1e9 / get(name)
    loop = "training.train_loop" if spec.kind == "train_loop" else "iteration"
    setup_table, _, _ = tracer.table(0, lo)
    metrics.update({
        "model.stem_ms": get("model.stem") * ms,
        "model.merge_ms": get("model.merge") * ms,
        "model.window_ms": (get("model.window_partition") + get("model.window_reverse")) * ms,
        "model.build_s": setup_table.get("model.build", {}).get("total_s", 0.0),
        "model.load_checkpoint_s": setup_table.get("model.load_checkpoint", {}).get("total_s", 0.0),
        "positional.gen_ms": get("positional") * ms,
        "positional.gen_calls": get("positional", "calls") / n,
        "positional.matrices_per_forward": matrices / n,
        "mem.traced_peak_mb": peak / 2 ** 20,
        "training.optimizer_ms": get("training.optimizer") * ms,
        "training.loss_ms": get("training.loss") * ms,
        "training.zero_grad_ms": get("training.zero_grad") * ms,
        "training.data_wait_ms": get(loop, "self_s") * ms if spec.kind != "infer" else 0.0,
    })
    rec = reconcile_macs(wl.config, spec.batch, executed / n)
    metrics["complexity.estimate_gmacs"] = rec["estimate_macs"] / 1e9
    metrics["complexity.executed_over_estimate"] = rec["executed_over_estimate"]
    step = "step" if spec.kind != "infer" else "forward"
    plain_p50 = statistics.median(plain.step_s)
    traced_p50 = statistics.median(traced.step_s)
    metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    notes = {
        "tensor.ops_per_step": f"per {step}, n={n} {step}s traced",
        "complexity.executed_over_estimate": (
            f"executed {rec['executed_macs'] / 1e9:.4f} G ({rec['executed_convention']}) / "
            f"estimate {rec['estimate_macs'] / 1e9:.4f} G ({rec['estimate_convention']})"),
        "trace.overhead_frac": (f"traced p50 {1e3 * traced_p50:.2f} ms (n={len(traced.step_s)})"
                                f" vs untraced p50 {1e3 * plain_p50:.2f} ms"
                                f" (n={len(plain.step_s)})"),
        "accounting": self_time_shares(table, root_s),
    }
    return metrics, notes


def self_time_shares(table, root_s):
    """Share of the traced root time spent as self time in each layer."""
    layers = {}
    for name, row in table.items():
        if name.startswith("tensor.vjp."):
            layer = "tensor.vjp"
        elif name.startswith("tensor.") and name != "tensor.backward":
            layer = "tensor.op"
        elif name.startswith("model.stage"):
            layer = "model.block"
        else:
            layer = name
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return {k: round(v / root_s, 4) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
