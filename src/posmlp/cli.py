"""Command-line interface.

One process per command; subcommands cover model inspection (describe,
cost), verification (gradcheck), analysis exports (attn, bias,
nonlocality), training and evaluation, and checkpoint round-trips (save,
load).  Settings come from an optional JSON config file with flag
overrides winning.  The file's keys are the flags' dest names, each holding
the type its flag parses to; every command that returns echoes the fully
resolved configuration into its output directory, and that echo is itself
a valid config file.  A command that raises writes no echo.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 I/O error,
4 a training run that diverged (a non-finite loss).
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import tensor as T
from .analysis import export_attention_maps, export_bias_maps, model_non_locality
from .complexity import analytic_params, count_params, estimate_flops, reconcile_blocks
from .gating import GatingConfig, GatingKind, GatingUnit
from .gradcheck import category_groups, gradcheck, gradcheck_directional
from .model import (CheckpointError, build_model, load_checkpoint, save_checkpoint,
                    variant_config)
from .positional import CovarianceForm, ZeroDraws
from .tensor import Tensor
from .training import (SyntheticDataset, TrainConfig, evaluate, ingest_cifar_binary,
                       train_loop)


class ConfigError(Exception):
    pass


_BOOL_KEYS = ("use_ape", "delta_frozen", "use_bias", "pre_norm_on_x1", "split_channels")
_LIST_KEYS = ("windows", "layers", "groups")  # a config file may also give integer lists
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


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
    p.add_argument("--out", help="output directory (default posmlp_out)")


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
            p.add_argument("--query", type=int, help="query token index (default 0)")
            p.add_argument("--layers", help="flat block indices, comma separated")
            p.add_argument("--groups", help="group indices, comma separated")
        if "checkpoint" in extra:
            p.add_argument("--checkpoint", help="checkpoint file path")
    return parser


def _config_types(parser):
    """Every command's flag dests, each mapped to the type its flag parses to."""
    types = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                types.update(_config_types(sub))
        elif action.option_strings and action.dest not in ("help", "config"):
            types[action.dest] = bool if action.nargs == 0 else action.type or str
    return types


def _has_type(val, want):
    """Whether a JSON value has a flag's type: an int counts as a number, a bool as no int."""
    if want is float:
        return isinstance(val, (int, float)) and not isinstance(val, bool)
    return isinstance(val, want) and (want is bool or not isinstance(val, bool))


def _read_config(path, types):
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}")
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(file_cfg) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, val in file_cfg.items():
        if key in _LIST_KEYS and isinstance(val, list):
            ok = all(_has_type(v, int) for v in val)
        else:
            ok = _has_type(val, types[key])
        if not ok:
            also = " or a list of integers" if key in _LIST_KEYS else ""
            raise ConfigError(f"{key} must be {_TYPE_NAMES[types[key]]}{also}, got {val!r}")
    return file_cfg


def _resolve(args, types):
    """defaults <- config file <- explicit flags; returns one flat dict."""
    resolved = {"variant": "MICRO", "dataset": "synthetic", "per_class": 64,
                "out": "posmlp_out", **{f.name: f.default for f in fields(TrainConfig)}}
    if "query" in args:
        resolved["query"] = 0
    if args.config:
        resolved.update(_read_config(args.config, types))
    resolved.update({k: v for k, v in vars(args).items() if k in types and v is not None})
    return resolved


def _int_list(key, val):
    """A comma-separated flag value as integers; a config file's list passes through."""
    if not isinstance(val, str):
        return val
    try:
        return [int(v) for v in val.split(",")]
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers, got {val!r}")


def _model_config(resolved):
    fields_of = {"gating": "gating_kind", "combine": "combine", "form": "covariance_form",
                 **{key: key for key in _BOOL_KEYS}}
    kw = {field: resolved[key] for key, field in fields_of.items() if key in resolved}
    return variant_config(resolved["variant"], image_side=resolved.get("image_side"),
                          num_classes=resolved.get("num_classes"),
                          windows=_int_list("windows", resolved.get("windows")), **kw)


def _validate(resolved):
    """Build the model and training configs; refuse settings that cannot run.

    Runs before anything is written.
    """
    cfg = _model_config(resolved)
    train = TrainConfig(**{f.name: resolved[f.name] for f in fields(TrainConfig)})
    kind = resolved["dataset"]
    if kind not in ("synthetic", "cifar"):
        raise ConfigError(f"unknown dataset {kind!r} (synthetic or cifar)")
    if kind == "synthetic" and resolved["per_class"] < 1:
        raise ConfigError("per_class must be at least 1 for the synthetic dataset "
                          "(0 gives an empty dataset)")
    if kind == "cifar" and not resolved.get("data_path"):
        raise ConfigError("dataset 'cifar' needs --data-path")
    return cfg, train


def _echo_config(resolved, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        json.dump(resolved, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _build(cfg, seed, dtype=np.float32):
    return build_model(cfg, rng=np.random.default_rng(seed), dtype=dtype)


def _load_or_build(resolved, cfg, seed):
    path = resolved.get("checkpoint")
    if path:
        return load_checkpoint(path)
    return _build(cfg, seed)


def _dataset(resolved):
    if resolved["dataset"] == "synthetic":
        return SyntheticDataset(per_class=resolved["per_class"], seed=resolved["seed"])
    return ingest_cifar_binary(resolved["data_path"].split(","))


def _count(cfg):
    """A structure-only build of ``cfg``, its parameter total and each stage's count."""
    model = build_model(cfg, rng=ZeroDraws())  # no random draws: only counts are read
    per_path, total = count_params(model)
    stage_params = [sum(v for k, v in per_path.items() if k.startswith(f"stages.{i}."))
                    for i in range(len(cfg.stages))]
    return model, total, stage_params


# -- commands -----------------------------------------------------------------------


def cmd_describe(resolved, cfg, train):
    _, total, stage_params = _count(cfg)
    print(f"variant {cfg.variant}  input {cfg.image_side}^2  classes {cfg.num_classes}")
    print(f"gating {cfg.gating_kind.value}  combine {cfg.combine.value}  "
          f"form {cfg.covariance_form.value}")
    sides = cfg.feature_sides()
    for i, st in enumerate(cfg.stages):
        groups = cfg.stage_gating_config(i).groups
        print(f"stage {i + 1}: {sides[i]}x{sides[i]} map  dim {st.dim}  depth {st.depth}  "
              f"window {st.window_side}  groups {groups}  expansion {st.expansion}  "
              f"params {stage_params[i]}")
    flops = estimate_flops(cfg)
    print(f"total params {total} ({total / 1e6:.1f}M)")
    print(f"forward MACs at {cfg.image_side}^2: {flops['total'] / 1e9:.2f}G")
    return 0


def cmd_cost(resolved, cfg, train):
    model, total, stage_params = _count(cfg)
    blocks = reconcile_blocks(model)
    flops = estimate_flops(cfg)
    stages = []
    for i, st in enumerate(cfg.stages):
        gating = cfg.stage_gating_config(i)
        ap = analytic_params(cfg.gating_kind, st.dim, st.expansion, st.window_side ** 2,
                             gating.groups)
        rows = [b for b in blocks if b["stage"] == i]
        fl = flops["stages"][i]
        stages.append({
            "stage": i, "params": stage_params[i], "flops": fl["flops"],
            "breakdown": {
                # stage totals that sum to its params: the closed-form terms, the
                # norm affines they exclude, and the counted units minus the closed
                # forms (a lookup table's 3 per group, a bias the unit lacks)
                "params": {**{k: st.depth * v for k, v in ap.breakdown.items()},
                           "norm": stage_params[i] - sum(b["counted"] for b in rows),
                           "closed_form_correction": -sum(b["residual"] for b in rows)},
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


def cmd_gradcheck(resolved, cfg, train):
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
    rng = np.random.default_rng(train.seed)
    # every MICRO config first, so a setting MICRO refuses fails before any check
    micros = [_model_config({**resolved, "gating": kind.value, "variant": "MICRO"})
              for kind in kinds]

    for kind in kinds:
        quadratic = kind is GatingKind.GGQPE  # the only kind with a form and a centre
        for form in forms if quadratic else [CovarianceForm.GAMMA_GRAMIAN]:
            for frozen in (False, True) if quadratic else (False,):
                try:
                    unit_cfg = GatingConfig(kind=kind, window_side=3,
                                            groups=2 if kind.grouped else 1,
                                            covariance_form=form, delta_frozen=frozen,
                                            use_bias=True)
                except ValueError:  # a combination the unit refuses
                    continue
                unit = GatingUnit(unit_cfg, 8, rng=np.random.default_rng(17),
                                  dtype=np.float64)
                x = Tensor(rng.standard_normal((2, 9, 8)))
                w = rng.standard_normal((2, 9, 4))

                def fn():
                    return T.weighted_sum(unit.forward(x), w)

                res = gradcheck(fn, unit.parameters())
                report(f"unit kind={kind.value} form={form.value} frozen_delta={frozen}", res)

    for kind, micro in zip(kinds, micros):
        model = _build(micro, train.seed, dtype=np.float64)
        ds = SyntheticDataset(per_class=2, seed=train.seed)
        x = Tensor(ds.images[:1].astype(np.float64))
        w = rng.standard_normal((1, model.config.num_classes))

        def fn():
            return T.weighted_sum(model.forward(x), w)

        params = model.parameters()
        res = gradcheck_directional(fn, params, groups=category_groups(params), rng=rng)
        report(f"model MICRO kind={kind.value}", res)

    print("gradcheck:", "all passed" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


def cmd_attn(resolved, cfg, train):
    model = _load_or_build(resolved, cfg, train.seed)
    try:
        files = export_attention_maps(model, resolved["query"],
                                      os.path.join(resolved["out"], "attn"),
                                      layers=_int_list("layers", resolved.get("layers")),
                                      groups=_int_list("groups", resolved.get("groups")))
    except IndexError as err:  # a selection out of range, raised before any write
        raise ConfigError(str(err))
    for f in files:
        print(f)
    return 0


def cmd_bias(resolved, cfg, train):
    model = _load_or_build(resolved, cfg, train.seed)
    files = export_bias_maps(model, os.path.join(resolved["out"], "bias"))
    if not files:
        print("no layers carry a position bias; nothing exported")
    for f in files:
        print(f)
    return 0


def cmd_nonlocality(resolved, cfg, train):
    model = _load_or_build(resolved, cfg, train.seed)
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


def cmd_train(resolved, cfg, train):
    model = _build(cfg, train.seed)
    out = resolved["out"]
    history = train_loop(model, _dataset(resolved), train, out_dir=out)
    save_checkpoint(model, os.path.join(out, "model.pmlp"))
    last = history[-1]
    print(f"final epoch {last['epoch']}: loss {last['loss']:.4f} "
          f"accuracy {last['accuracy']:.4f}")
    return 0


def cmd_eval(resolved, cfg, train):
    model = _load_or_build(resolved, cfg, train.seed)
    out = evaluate(model, _dataset(resolved), batch_size=train.batch_size)
    print(f"top-1 accuracy {out['accuracy']:.4f}  loss {out['loss']:.4f}")
    return 0


def cmd_save(resolved, cfg, train):
    path = resolved.get("checkpoint") or os.path.join(resolved["out"], "model.pmlp")
    model = _build(cfg, train.seed)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_checkpoint(model, path)
    print(path)
    return 0


def cmd_load(resolved, cfg, train):
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _resolve(args, _config_types(parser))
        cfg, train = _validate(resolved)
        code = _COMMANDS[args.command](resolved, cfg, train)
        _echo_config(resolved, resolved["out"])
    except (ConfigError, ValueError, KeyError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        code = 2
    except (OSError, CheckpointError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        code = 3
    except FloatingPointError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        code = 4
    return code


if __name__ == "__main__":
    sys.exit(main())
