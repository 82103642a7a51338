"""Runtime span tracer for the posmlp benchmark.

The tracer wraps the public functions of each posmlp layer from outside the
package (module attributes and class methods are swapped while it is
installed and restored afterwards) and records one span per call:

    iteration                         the benchmark's root span
      training.train_loop             (micro_train)
      model.forward
        model.stem, model.merge, model.window_partition, model.window_reverse
        model.stage{i}.block
          gating                      GatingUnit.forward
            positional                group_weight_stack / lrpe_weight_matrix
              tensor.<op>             every tensor op; ops never nest
      training.loss                   cross_entropy_mean
      training.zero_grad, training.optimizer
      tensor.backward
        tensor.vjp.<op>               each tape node's vector-Jacobian rule

Spans live in flat typed arrays and are written once, at the end of a run.
Executed multiply-accumulates are counted from the operand shapes of the
dense ops (see ``MAC_OPS``), forward only.
"""

import functools
import time
from array import array

import numpy as np

from posmlp import gating, model, tensor, training

# Ops with their own forward/backward time bucket; every other op is "other".
BUCKET_OPS = ("mix_tokens", "conv2d", "conv2d_depthwise", "linear", "matmul",
              "softmax_rows", "layer_norm", "gelu", "permute_flat", "take", "split",
              "concat", "mul", "add_token_bias")
OTHER_OPS = ("add", "sub", "neg", "scale", "add_scalar", "add_map", "reshape",
             "transpose2", "softplus", "sum_all", "mean_tokens", "weighted_sum")
MAC_OPS = ("matmul", "mix_tokens", "linear", "conv2d", "conv2d_depthwise")


def _reduction(op, args):
    """Length of the contracted axis per output element of a dense op."""
    if op == "matmul":
        return args[0].shape[1]
    if op == "mix_tokens":
        return args[0].shape[0]
    if op == "linear":
        return args[1].shape[0]
    k, _, cin, _ = args[1].shape
    return k * k * cin if op == "conv2d" else k * k


def op_bucket(op):
    return op if op in BUCKET_OPS else "other"


class Tracer:
    """In-memory span recorder; ``install`` patches posmlp, ``uninstall`` restores it."""

    def __init__(self, stage_of_dim=None):
        self.stage_of_dim = dict(stage_of_dim or {})
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.macs = array("q")
        self.tape_nodes = 0
        self.matrices = 0
        self._stack = [-1]
        self._saved = []

    def __len__(self):
        return len(self.start)

    # -- recording -----------------------------------------------------------

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.macs.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as a span; ``name`` may be a callable of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(idx, args, out)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        T = tensor
        for op in BUCKET_OPS + OTHER_OPS:
            after = None
            if op in MAC_OPS:
                def after(idx, args, out, _op=op):
                    self.macs[idx] = out.size * _reduction(_op, args)
            self._patch(T, op, self.wrap(f"tensor.{op}", getattr(T, op), after))
        self._patch(T, "cross_entropy_mean", self.wrap("training.loss", T.cross_entropy_mean))
        self._patch(T, "_result", self._traced_result(T._result))
        traced_backward = self.wrap("tensor.backward", T.backward)
        self._patch(T, "backward", traced_backward)
        self._patch(training, "backward", traced_backward)
        self._patch(training, "train_loop", self.wrap("training.train_loop", training.train_loop))
        self._patch(training.AdamW, "step", self.wrap("training.optimizer", training.AdamW.step))

        M = model
        self._patch(M.PosMlpModel, "forward", self.wrap("model.forward", M.PosMlpModel.forward))
        self._patch(M.PosMlpModel, "zero_grad",
                    self.wrap("training.zero_grad", M.PosMlpModel.zero_grad))
        self._patch(M.ConvPatchEmbed, "forward", self.wrap("model.stem", M.ConvPatchEmbed.forward))
        self._patch(M.ConvPatchMerge, "forward",
                    self.wrap("model.merge", M.ConvPatchMerge.forward))
        self._patch(M.PosMlpBlock, "forward", self.wrap(
            lambda args: f"model.stage{self.stage_of_dim[args[0].dim]}.block",
            M.PosMlpBlock.forward))
        self._patch(M, "window_partition", self.wrap("model.window_partition", M.window_partition))
        self._patch(M, "window_reverse", self.wrap("model.window_reverse", M.window_reverse))
        self._patch(M, "build_model", self.wrap("model.build", M.build_model))
        self._patch(M, "save_checkpoint", self.wrap("model.save_checkpoint", M.save_checkpoint))
        self._patch(M, "load_checkpoint", self.wrap("model.load_checkpoint", M.load_checkpoint))

        self._patch(gating.GatingUnit, "forward", self.wrap("gating", gating.GatingUnit.forward))

        def count_stack(idx, args, out):
            self.matrices += len(out)

        def count_one(idx, args, out):
            self.matrices += 1

        self._patch(gating, "group_weight_stack",
                    self.wrap("positional", gating.group_weight_stack, count_stack))
        self._patch(gating, "lrpe_weight_matrix",
                    self.wrap("positional", gating.lrpe_weight_matrix, count_one))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _traced_result(self, result):
        """Time each tape node's vjp and count the nodes that join the tape."""
        tracer = self

        def traced_result(data, parents, vjp, op_name):
            name = f"tensor.vjp.{op_name}"

            def timed_vjp(g):
                idx = tracer.open(name)
                try:
                    return vjp(g)
                finally:
                    tracer.close(idx)

            out = result(data, parents, timed_vjp, op_name)
            if out._parents:
                tracer.tape_nodes += 1
            return out

        return traced_result

    # -- analysis ------------------------------------------------------------

    def table(self, lo=0, hi=None):
        """Per-name aggregates over spans ``[lo, hi)``.

        Returns ``(rows, root_s, self_s)``: ``rows`` maps each name to
        ``{"calls", "total_s", "self_s", "macs"}``, where ``macs`` counts the
        span's own MACs plus its descendants' and self time is the span's
        duration minus its children's; ``root_s`` sums the durations of the
        spans without a parent in the range and ``self_s`` all self times.
        """
        hi = len(self) if hi is None else hi
        nid = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        own = np.frombuffer(self.macs, dtype=np.int64)[lo:hi]
        inside = par >= 0
        child = np.zeros_like(dur)
        np.add.at(child, par[inside], dur[inside])
        selft = dur - child
        # Parents precede children, so one reverse pass accumulates subtrees.
        sub = own.copy()
        par_list = par.tolist()
        sub_list = sub.tolist()
        for i in range(len(par_list) - 1, -1, -1):
            p = par_list[i]
            if p >= 0:
                sub_list[p] += sub_list[i]
        sub = np.asarray(sub_list, dtype=np.int64)
        out = {}
        for k, name in enumerate(self.names):
            mask = nid == k
            if mask.any():
                out[name] = {"calls": int(mask.sum()), "total_s": float(dur[mask].sum()),
                             "self_s": float(selft[mask].sum()),
                             "macs": int(sub[mask].sum())}
        roots = ~inside
        return out, float(dur[roots].sum()), float(selft.sum())

    def save(self, path):
        """Write every span once, as a compressed npz with a name table."""
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            macs=np.frombuffer(self.macs, dtype=np.int64))
