"""Command-line interface.

One process per command; subcommands cover model inspection (describe,
cost), verification (gradcheck), analysis exports (attn, bias,
nonlocality), training and evaluation, and checkpoint round-trips (save,
load).  Settings come from an optional JSON config file with flag
overrides winning; every command echoes the fully resolved configuration
into its output directory.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 I/O error.
"""

import argparse
import json
import os
import sys


def _apply_thread_cap():
    """POSMLP_THREADS caps numpy's internal pools; must run before numpy loads."""
    cap = os.environ.get("POSMLP_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


class ConfigError(Exception):
    pass


_BOOL_KEYS = ("use_ape", "delta_frozen", "use_bias", "pre_norm_on_x1", "split_channels")
_MODEL_KEYS = ("variant", "image_side", "num_classes", "windows", "gating", "combine",
               "form") + _BOOL_KEYS
_TRAIN_KEYS = ("dataset", "data_path", "epochs", "batch_size", "lr_init", "lr_min",
               "weight_decay", "per_class", "seed")


def _add_model_flags(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--variant", help="model variant: T, S, B or MICRO")
    p.add_argument("--image-side", type=int, dest="image_side")
    p.add_argument("--num-classes", type=int, dest="num_classes")
    p.add_argument("--windows", help="per-stage window sides, e.g. 14,14,14,7")
    p.add_argument("--gating", help="sgu | lrpe_m | lrpe | glrpe | ggqpe")
    p.add_argument("--combine", help="gate | add | concat")
    p.add_argument("--form", help="covariance form: alpha_i | gamma_raw | gramian")
    for key in _BOOL_KEYS:
        flag = key.replace("_", "-")
        p.add_argument(f"--{flag}", dest=key, action=argparse.BooleanOptionalAction)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="posmlp_out", help="output directory")


def _add_train_flags(p):
    p.add_argument("--dataset", help="synthetic | cifar")
    p.add_argument("--data-path", dest="data_path", help="binary dataset file(s), comma separated")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr-init", type=float, dest="lr_init")
    p.add_argument("--lr-min", type=float, dest="lr_min")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--per-class", type=int, dest="per_class")


def build_parser():
    parser = argparse.ArgumentParser(prog="posmlp",
                                     description="Positional gated-MLP models: build, "
                                                 "inspect, verify, train")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra, helptext in [
        ("describe", (), "print the architecture and parameter budget"),
        ("cost", (), "emit a JSON parameter/FLOP report"),
        ("gradcheck", (), "finite-difference verification (float64, MICRO sizes)"),
        ("attn", ("query", "layers", "groups", "checkpoint"), "export attention maps"),
        ("bias", ("checkpoint",), "export position-bias maps"),
        ("nonlocality", ("checkpoint",), "report per-layer non-locality"),
        ("train", ("train",), "train a model and write metrics + checkpoint"),
        ("eval", ("train", "checkpoint"), "evaluate a checkpoint on a dataset"),
        ("save", ("checkpoint",), "build a fresh model and save a checkpoint"),
        ("load", ("checkpoint",), "load a checkpoint and print a summary"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_model_flags(p)
        if "train" in extra:
            _add_train_flags(p)
        if "query" in extra:
            p.add_argument("--query", type=int, default=0, help="query token index")
            p.add_argument("--layers", help="flat block indices, comma separated")
            p.add_argument("--groups", help="group indices, comma separated")
        if "checkpoint" in extra:
            p.add_argument("--checkpoint", help="checkpoint file path")
    return parser


def _resolve(args):
    """defaults <- config file <- explicit flags; returns one flat dict."""
    resolved = {"variant": "MICRO", "seed": 0, "dataset": "synthetic",
                "epochs": 30, "batch_size": 32, "lr_init": 3e-3, "lr_min": 1e-5,
                "weight_decay": 0.05, "per_class": 64}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}")
        unknown = set(file_cfg) - set(_MODEL_KEYS) - set(_TRAIN_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in _MODEL_KEYS + _TRAIN_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    for key in ("query", "layers", "groups", "checkpoint", "out"):
        if getattr(args, key, None) is not None:
            resolved[key] = getattr(args, key)
    return resolved


def _model_config(resolved):
    from .model import variant_config

    kw = {}
    if resolved.get("gating"):
        kw["gating_kind"] = resolved["gating"]
    if resolved.get("combine"):
        kw["combine"] = resolved["combine"]
    if resolved.get("form"):
        kw["covariance_form"] = resolved["form"]
    for key in _BOOL_KEYS:
        if resolved.get(key) is not None:
            kw[key] = resolved[key]
    windows = resolved.get("windows")
    if isinstance(windows, str):
        windows = tuple(int(w) for w in windows.split(","))
    try:
        return variant_config(resolved["variant"],
                              image_side=resolved.get("image_side"),
                              num_classes=resolved.get("num_classes"),
                              windows=windows, **kw)
    except (ValueError, KeyError) as err:
        raise ConfigError(str(err))


def _train_config(resolved):
    from .training import TrainConfig

    try:
        return TrainConfig(epochs=resolved["epochs"], batch_size=resolved["batch_size"],
                           lr_init=resolved["lr_init"], lr_min=resolved["lr_min"],
                           weight_decay=resolved["weight_decay"], seed=resolved["seed"])
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err))


def _is_int(val):
    return isinstance(val, int) and not isinstance(val, bool)


def _check_model_types(resolved):
    """Each model key holds the type its flag gives it; only ``variant`` may not be None."""
    for key in _MODEL_KEYS:
        val = resolved.get(key)
        if val is None and key != "variant":
            continue
        if key in ("image_side", "num_classes"):
            ok, want = _is_int(val), "an integer"
        elif key == "windows":
            ok = isinstance(val, str) or (isinstance(val, list) and all(map(_is_int, val)))
            want = "a comma-separated string or a list of integers"
        elif key in _BOOL_KEYS:
            ok, want = isinstance(val, bool), "true or false"
        else:
            ok, want = isinstance(val, str), "a string"
        if not ok:
            raise ConfigError(f"{key} must be {want}, got {val!r}")


def _validate(resolved):
    """Reject a configuration that cannot run, before anything is written."""
    for key in ("epochs", "batch_size", "per_class", "seed"):
        val = resolved[key]
        if not _is_int(val) or val < 0:
            raise ConfigError(f"{key} must be a nonnegative integer, got {val!r}")
    _check_model_types(resolved)
    _model_config(resolved)
    _train_config(resolved)
    kind = resolved.get("dataset", "synthetic")
    if kind not in ("synthetic", "cifar"):
        raise ConfigError(f"unknown dataset {kind!r} (synthetic or cifar)")
    if kind == "synthetic" and resolved["per_class"] < 1:
        raise ConfigError("per_class must be at least 1 for the synthetic dataset "
                          "(0 gives an empty dataset)")
    if kind == "cifar" and not resolved.get("data_path"):
        raise ConfigError("dataset 'cifar' needs --data-path")


def _echo_config(resolved, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        json.dump(resolved, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _build(resolved, dtype=None):
    import numpy as np
    from .model import build_model

    cfg = _model_config(resolved)
    rng = np.random.default_rng(resolved["seed"])
    return build_model(cfg, rng=rng, dtype=dtype or np.float32)


def _load_or_build(resolved, dtype=None):
    from .model import load_checkpoint

    path = resolved.get("checkpoint")
    if path:
        if not os.path.exists(path):
            raise FileNotFoundError(f"checkpoint {path!r} does not exist")
        return load_checkpoint(path)
    return _build(resolved, dtype=dtype)


def _dataset(resolved):
    from .training import SyntheticDataset, ingest_cifar_binary

    if resolved.get("dataset", "synthetic") == "synthetic":
        return SyntheticDataset(per_class=resolved["per_class"], seed=resolved["seed"])
    return ingest_cifar_binary(resolved["data_path"].split(","))


# -- commands -----------------------------------------------------------------------


def cmd_describe(resolved):
    from .complexity import count_params, estimate_flops

    model = _build(resolved)
    cfg = model.config
    per_path, total = count_params(model)
    print(f"variant {cfg.variant}  input {cfg.image_side}^2  classes {cfg.num_classes}")
    print(f"gating {cfg.gating_kind.value}  combine {cfg.combine.value}  "
          f"form {cfg.covariance_form.value}")
    sides = cfg.feature_sides()
    for i, st in enumerate(cfg.stages):
        stage_params = sum(v for k, v in per_path.items() if k.startswith(f"stages.{i}."))
        groups = cfg.stage_gating_config(i).groups
        print(f"stage {i + 1}: {sides[i]}x{sides[i]} map  dim {st.dim}  depth {st.depth}  "
              f"window {st.window_side}  groups {groups}  expansion {st.expansion}  "
              f"params {stage_params}")
    flops = estimate_flops(cfg)
    print(f"total params {total} ({total / 1e6:.1f}M)")
    print(f"forward MACs at {cfg.image_side}^2: {flops['total'] / 1e9:.2f}G")
    return 0


def cmd_cost(resolved):
    from .complexity import analytic_params, count_params, estimate_flops

    model = _build(resolved)
    cfg = model.config
    per_path, total = count_params(model)
    flops = estimate_flops(cfg)
    stages = []
    for i, st in enumerate(cfg.stages):
        n = st.window_side ** 2
        gating = cfg.stage_gating_config(i)
        ap = analytic_params(cfg.gating_kind, st.dim, st.expansion, n, gating.groups)
        stage_params = sum(v for k, v in per_path.items() if k.startswith(f"stages.{i}."))
        fl = flops["stages"][i]
        stages.append({
            "stage": i, "params": stage_params, "flops": fl["flops"],
            "breakdown": {
                "params": {**ap.breakdown,
                           "norm": stage_params - st.depth * ap.total},
                "flops": fl["breakdown"],
            },
        })
    report = {
        "variant": cfg.variant,
        "image_side": cfg.image_side,
        "gating": cfg.gating_kind.value,
        "total_params": total,
        "total_flops": flops["total"],
        "stem_flops": flops["stem"],
        "head_flops": flops["head"],
        "stages": stages,
        "flop_convention": "one multiply-accumulate = one unit; elementwise, "
                           "softmax and normalization work excluded",
    }
    out = resolved["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "cost.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


def cmd_gradcheck(resolved):
    import numpy as np
    from . import tensor as T
    from .gating import GatingConfig, GatingKind, GatingUnit
    from .gradcheck import category_groups, gradcheck, gradcheck_directional
    from .positional import CovarianceForm
    from .tensor import Tensor
    from .training import SyntheticDataset

    failures = 0

    def report(label, res):
        nonlocal failures
        status = "PASS" if res.ok else "FAIL"
        if not res.ok:
            failures += 1
        print(f"{status} {label} max_rel_err={res.max_rel_err:.3e} checked={res.checked}")

    kinds = [GatingKind(resolved["gating"])] if resolved.get("gating") else list(GatingKind)
    forms = [CovarianceForm(resolved["form"])] if resolved.get("form") else \
        [CovarianceForm.GAMMA_GRAMIAN, CovarianceForm.GAMMA_RAW, CovarianceForm.ALPHA_I]
    rng = np.random.default_rng(resolved["seed"])

    for kind in kinds:
        kind_forms = forms if kind is GatingKind.GGQPE else [CovarianceForm.GAMMA_GRAMIAN]
        for form in kind_forms:
            frozen_opts = [False, True]
            if form is CovarianceForm.ALPHA_I:
                frozen_opts = [True]
            if kind is not GatingKind.GGQPE:
                frozen_opts = [False]
            for frozen in frozen_opts:
                groups = 2 if kind in (GatingKind.GLRPE, GatingKind.GGQPE) else 1
                cfg = GatingConfig(kind=kind, window_side=3, groups=groups,
                                   covariance_form=form, delta_frozen=frozen,
                                   use_bias=True)
                unit = GatingUnit(cfg, 8, rng=np.random.default_rng(17), dtype=np.float64)
                x = Tensor(rng.standard_normal((2, 9, 8)))
                w = rng.standard_normal((2, 9, 4))

                def fn():
                    return T.weighted_sum(unit.forward(x), w)

                res = gradcheck(fn, unit.parameters())
                report(f"unit kind={kind.value} form={form.value} frozen_delta={frozen}", res)

    for kind in kinds:
        model = _build({**resolved, "gating": kind.value, "variant": "MICRO"},
                       dtype=np.float64)
        ds = SyntheticDataset(per_class=2, seed=resolved["seed"])
        x = Tensor(ds.images[:1].astype(np.float64))
        w = rng.standard_normal((1, model.config.num_classes))

        def fn():
            return T.weighted_sum(model.forward(x), w)

        params = model.parameters()
        res = gradcheck_directional(fn, params, groups=category_groups(params), rng=rng)
        report(f"model MICRO kind={kind.value}", res)

    print("gradcheck:", "all passed" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


def cmd_attn(resolved):
    from .analysis import export_attention_maps

    model = _load_or_build(resolved)
    layers = resolved.get("layers")
    groups = resolved.get("groups")
    layers = [int(v) for v in layers.split(",")] if isinstance(layers, str) else layers
    groups = [int(v) for v in groups.split(",")] if isinstance(groups, str) else groups
    try:
        files = export_attention_maps(model, int(resolved.get("query", 0)),
                                      os.path.join(resolved["out"], "attn"),
                                      layers=layers, groups=groups)
    except IndexError as err:  # a selection out of range, raised before any write
        raise ConfigError(str(err))
    for f in files:
        print(f)
    return 0


def cmd_bias(resolved):
    from .analysis import export_bias_maps

    model = _load_or_build(resolved)
    files = export_bias_maps(model, os.path.join(resolved["out"], "bias"))
    if not files:
        print("no layers carry a position bias; nothing exported")
    for f in files:
        print(f)
    return 0


def cmd_nonlocality(resolved):
    from .analysis import model_non_locality

    model = _load_or_build(resolved)
    entries = model_non_locality(model)
    payload = [{"layer": e.layer, "value": e.value,
                "included_groups": e.included_groups,
                "excluded_groups": e.excluded_groups} for e in entries]
    out = resolved["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "nonlocality.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for row in payload:
        val = "n/a" if row["value"] is None else f"{row['value']:.6f}"
        print(f"{row['layer']}: g={val} included={row['included_groups']} "
              f"excluded={row['excluded_groups']}")
    return 0


def cmd_train(resolved):
    from .model import save_checkpoint
    from .training import train_loop

    model = _build(resolved)
    ds = _dataset(resolved)
    cfg = _train_config(resolved)
    out = resolved["out"]
    history = train_loop(model, ds, cfg, out_dir=out)
    save_checkpoint(model, os.path.join(out, "model.pmlp"))
    last = history[-1]
    print(f"final epoch {last['epoch']}: loss {last['loss']:.4f} "
          f"accuracy {last['accuracy']:.4f}")
    return 0


def cmd_eval(resolved):
    from .training import evaluate

    model = _load_or_build(resolved)
    ds = _dataset(resolved)
    out = evaluate(model, ds, batch_size=resolved["batch_size"])
    print(f"top-1 accuracy {out['accuracy']:.4f}  loss {out['loss']:.4f}")
    return 0


def cmd_save(resolved):
    from .model import save_checkpoint

    path = resolved.get("checkpoint") or os.path.join(resolved["out"], "model.pmlp")
    model = _build(resolved)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_checkpoint(model, path)
    print(path)
    return 0


def cmd_load(resolved):
    from .complexity import count_params
    from .model import load_checkpoint

    path = resolved.get("checkpoint")
    if not path:
        raise ConfigError("load needs --checkpoint")
    model = load_checkpoint(path)
    _, total = count_params(model)
    print(f"loaded {model.config.variant} ({total} parameters, "
          f"{len(model.parameters())} tensors) from {path}")
    return 0


_COMMANDS = {
    "describe": cmd_describe,
    "cost": cmd_cost,
    "gradcheck": cmd_gradcheck,
    "attn": cmd_attn,
    "bias": cmd_bias,
    "nonlocality": cmd_nonlocality,
    "train": cmd_train,
    "eval": cmd_eval,
    "save": cmd_save,
    "load": cmd_load,
}


def main(argv=None):
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _resolve(args)
        _validate(resolved)
        _echo_config(resolved, resolved["out"])
        code = _COMMANDS[args.command](resolved)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        code = 2
    except FileNotFoundError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        code = 3
    except Exception as err:  # noqa: BLE001 - map module errors to exit codes
        from .model import CheckpointError

        if isinstance(err, CheckpointError):
            print(f"i/o error: {err}", file=sys.stderr)
            code = 3
        elif isinstance(err, (ValueError, KeyError)):
            print(f"configuration error: {err}", file=sys.stderr)
            code = 2
        else:
            raise
    return code


if __name__ == "__main__":
    sys.exit(main())
