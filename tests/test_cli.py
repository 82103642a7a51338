import json
import os
import subprocess
import sys

import numpy as np
import pytest

from posmlp import cli
from posmlp import tensor as T
from posmlp.analysis import read_map_csv


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_describe_tiny(tmp_path, capsys):
    code, out, _ = run(capsys, "describe", "--variant", "T", "--out", str(tmp_path))
    assert code == 0
    assert "dim 96" in out and "dim 192" in out and "dim 384" in out and "dim 768" in out
    assert "depth 18" in out and "window 7" in out
    assert "20.9M" in out


def test_describe_unknown_variant_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run(capsys, "describe", "--variant", "XXL", "--out", str(out))
    assert code == 2
    assert "MICRO" in err and "T" in err
    assert not out.exists()


def test_invalid_config_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run(capsys, "train", "--per-class", "-1", "--out", str(out))
    assert code == 2
    assert "per_class" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, config, key", [
    (["--weight-decay", "nan"], None, "weight_decay"),
    (["--lr-init", "inf"], None, "lr_init"),
    (["--lr-min", "nan"], None, "lr_min"),
    (["--weight-decay", "-1"], None, "weight_decay"),
    ([], '{"weight_decay": null}', "weight_decay"),
    ([], '{"weight_decay": 1e400}', "weight_decay"),
    ([], '{"lr_init": "0.1"}', "lr_init"),
    ([], '{"lr_min": true}', "lr_min"),
    (["--per-class", "0"], None, "per_class"),
    ([], '{"data_path": 5}', "data_path"),
    ([], '{"epochs": 2.5}', "epochs"),
    ([], '{"seed": -1}', "seed"),
])
def test_bad_training_setting_exits_2_and_writes_nothing(tmp_path, capsys, flags, config, key):
    out = tmp_path / "out"
    argv = ["train", "--variant", "MICRO", "--epochs", "1", *flags, "--out", str(out)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("configuration error:") and key in err
    assert not out.exists()


def test_empty_dataset_is_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--per-class", "0", "--epochs", "1",
                       "--out", str(tmp_path / "train"))
    assert code == 2
    assert "empty dataset" in err and "Traceback" not in err
    code, _, err = run(capsys, "eval", "--per-class", "0", "--out", str(tmp_path / "eval"))
    assert code == 2
    assert "empty dataset" in err


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["describe", "--variant", "T", "--frobnicate"])
    assert exc.value.code == 2


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cost", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--variant", "--gating", "--form", "--use-bias", "--windows", "--out"):
        assert flag in out


def test_cost_micro_schema(tmp_path, capsys):
    code, out, _ = run(capsys, "cost", "--variant", "MICRO", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "cost.json").read_text())
    assert report["variant"] == "MICRO"
    assert len(report["stages"]) == 4
    for st in report["stages"]:
        assert {"stage", "params", "flops", "breakdown"} <= set(st)
    assert report["total_params"] > 0 and report["total_flops"] > 0
    assert (tmp_path / "resolved_config.json").exists()


def test_cost_tiny_rounds_to_published_budget(tmp_path, capsys):
    code, out, _ = run(capsys, "cost", "--variant", "T", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "cost.json").read_text())
    assert round(report["total_params"] / 1e6) == 21
    assert abs(report["total_flops"] / 5.2e9 - 1) < 0.1


def test_gradcheck_single_kind_passes(tmp_path, capsys):
    code, out, _ = run(capsys, "gradcheck", "--gating", "ggqpe", "--form", "gramian",
                       "--out", str(tmp_path))
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "model MICRO kind=ggqpe" in out


def test_attn_and_bias_exports(tmp_path, capsys):
    code, out, _ = run(capsys, "attn", "--variant", "MICRO", "--query", "2",
                       "--layers", "0", "--groups", "0,1", "--out", str(tmp_path))
    assert code == 0
    files = [l for l in out.splitlines() if l.endswith((".csv", ".pgm"))]
    assert len(files) == 4
    grid = read_map_csv(files[0])
    assert grid.shape == (8, 8)

    code, out, _ = run(capsys, "bias", "--variant", "MICRO", "--out", str(tmp_path))
    assert code == 0
    assert any("bias.csv" in l for l in out.splitlines())


def test_bias_empty_report_is_success(tmp_path, capsys):
    code, out, _ = run(capsys, "bias", "--variant", "MICRO", "--no-use-bias",
                       "--out", str(tmp_path))
    assert code == 0
    assert "nothing exported" in out


def test_nonlocality_report(tmp_path, capsys):
    code, out, _ = run(capsys, "nonlocality", "--variant", "MICRO", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "nonlocality.json").read_text())
    assert len(payload) == 5
    assert all("layer" in row and "excluded_groups" in row for row in payload)


def test_train_eval_save_load_cycle(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    code, out, _ = run(capsys, "train", "--variant", "MICRO", "--dataset", "synthetic",
                       "--epochs", "2", "--batch-size", "16", "--per-class", "8",
                       "--seed", "3", "--out", out_dir)
    assert code == 0
    assert "final epoch 1" in out
    assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
    assert os.path.exists(os.path.join(out_dir, "model.pmlp"))
    resolved = json.loads(open(os.path.join(out_dir, "resolved_config.json")).read())
    assert resolved["epochs"] == 2 and resolved["variant"] == "MICRO"

    code, out, _ = run(capsys, "eval", "--variant", "MICRO", "--dataset", "synthetic",
                       "--per-class", "8", "--seed", "3",
                       "--checkpoint", os.path.join(out_dir, "model.pmlp"),
                       "--out", str(tmp_path / "eval"))
    assert code == 0
    assert "top-1 accuracy" in out

    code, out, _ = run(capsys, "load", "--checkpoint", os.path.join(out_dir, "model.pmlp"),
                       "--out", str(tmp_path / "load"))
    assert code == 0
    assert "loaded MICRO" in out


def test_diverging_training_run_exits_4_and_writes_nothing(tmp_path, capsys):
    T.set_checked(False)  # the training loop's own loss check must stop the run
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(capsys, "train", "--variant", "MICRO", "--epochs", "3",
                           "--lr-init", "10000", "--out", str(out))
    assert code == 4
    assert "numerical error" in err and "epoch 0, step " in err
    for name in ("model.pmlp", "metrics.csv", "resolved_config.json"):
        assert not (out / name).exists()


def test_eval_on_binary_dataset_fixture(tmp_path, capsys):
    from posmlp.training import write_cifar_binary

    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(8, 32, 32, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=8).astype(np.uint8)
    data = tmp_path / "batch.bin"
    write_cifar_binary(data, images, labels)
    code, out, _ = run(capsys, "eval", "--variant", "MICRO", "--num-classes", "10",
                       "--dataset", "cifar", "--data-path", str(data),
                       "--out", str(tmp_path))
    assert code == 0
    assert "top-1 accuracy" in out


def test_cifar_missing_path_is_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "--variant", "MICRO", "--dataset", "cifar",
                       "--out", str(tmp_path))
    assert code == 2
    assert "data-path" in err


def test_save_then_load(tmp_path, capsys):
    ckpt = str(tmp_path / "m.pmlp")
    code, out, _ = run(capsys, "save", "--variant", "MICRO", "--checkpoint", ckpt,
                       "--out", str(tmp_path))
    assert code == 0 and os.path.exists(ckpt)
    code, out, _ = run(capsys, "load", "--checkpoint", ckpt, "--out", str(tmp_path))
    assert code == 0


def test_load_without_checkpoint_is_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "load", "--out", str(tmp_path))
    assert code == 2
    assert not list(tmp_path.iterdir())  # not even resolved_config.json


def test_nonlocality_of_a_lookup_kind_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run(capsys, "nonlocality", "--gating", "lrpe", "--out", str(out))
    assert code == 2
    assert err.startswith("configuration error:") and "quadratic" in err
    assert not out.exists()


def test_gradcheck_with_windows_micro_refuses_checks_nothing(tmp_path, capsys):
    # the model checks run at MICRO sizes, which T's windows do not fit
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "gradcheck", "--variant", "T", "--windows", "14,14,14,7",
                            "--out", str(out))
    assert code == 2
    assert stdout == "" and err.startswith("configuration error:")
    assert not out.exists()


def test_load_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "load", "--checkpoint", str(tmp_path / "nope.pmlp"),
                       "--out", str(tmp_path))
    assert code == 3


@pytest.mark.parametrize("command", ["load", "eval"])
def test_checkpoint_directory_is_io_error(tmp_path, capsys, command):
    ckpt = tmp_path / "a_directory"
    ckpt.mkdir()
    code, _, err = run(capsys, command, "--checkpoint", str(ckpt), "--out", str(tmp_path))
    assert code == 3
    assert err.startswith("i/o error:") and err.count("\n") == 1
    assert "a_directory" in err


def test_load_corrupt_config_is_io_error(tmp_path, capsys):
    ckpt = tmp_path / "m.pmlp"
    assert run(capsys, "save", "--variant", "MICRO", "--checkpoint", str(ckpt),
               "--out", str(tmp_path))[0] == 0
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob.replace(b'"image_side"', b'"image+side"'))
    code, _, err = run(capsys, "load", "--checkpoint", str(ckpt), "--out", str(tmp_path))
    assert code == 3 and "__config__" in err
    at = blob.find(b"variant")
    ckpt.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])  # not utf-8
    code, _, err = run(capsys, "load", "--checkpoint", str(ckpt), "--out", str(tmp_path))
    assert code == 3 and "__config__" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("command", ["load", "eval", "attn"])
def test_non_finite_checkpoint_is_io_error(tmp_path, capsys, command, bad):
    ckpt = tmp_path / "m.pmlp"
    assert run(capsys, "save", "--variant", "MICRO", "--checkpoint", str(ckpt),
               "--out", str(tmp_path))[0] == 0
    blob = bytearray(ckpt.read_bytes())
    # head.bias is a rank-1 float32 record: dtype tag, rank, one extent, data.
    at = blob.find(b"head.bias") + len(b"head.bias") + 2 + 4
    blob[at:at + 4] = np.float32(bad).tobytes()
    ckpt.write_bytes(bytes(blob))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--checkpoint", str(ckpt), "--out", str(out))
    assert code == 3 and stdout == ""
    assert err.startswith("i/o error:") and "'head.bias'" in err and "non-finite" in err
    assert not out.exists() or not any(out.iterdir())


def test_attn_missing_checkpoint_is_io_error(tmp_path, capsys):
    # a mistyped checkpoint path must not silently export a fresh model
    code, _, err = run(capsys, "attn", "--variant", "MICRO",
                       "--checkpoint", str(tmp_path / "nope.pmlp"),
                       "--out", str(tmp_path))
    assert code == 3
    assert "nope.pmlp" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "MICRO", "use_bias": False, "seed": 9}))
    code, out, _ = run(capsys, "bias", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert code == 0
    assert "nothing exported" in out  # file value applies
    code, out, _ = run(capsys, "bias", "--config", str(cfg), "--use-bias",
                       "--out", str(tmp_path / "b"))
    assert code == 0
    assert any("bias.csv" in l for l in out.splitlines())  # flag wins


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"varaint": "MICRO"}))
    code, _, err = run(capsys, "describe", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "varaint" in err


@pytest.mark.parametrize("flags, config", [
    (["--windows", "14,14"], None),
    (["--windows", "8,4,2,1,9"], None),
    ([], {"windows": [8, 4, 2]}),
    ([], {"windows": []}),
    ([], {"windows": 14}),
    ([], {"windows": [8, 4, 2, True]}),
    ([], {"image_side": "224"}),
    ([], {"num_classes": 4.0}),
    ([], {"variant": 5}),
    ([], {"gating": 3}),
    ([], {"use_ape": "no"}),
    ([], {"use_bias": 1}),
    (["--gating", "lrpe", "--no-pre-norm-on-x1"], None),
    (["--form", "alpha_i"], None),
    (["--image-side", "36"], None),
    ([], {"out": 5}),
    ([], {"layers": 5}),
    ([], {"checkpoint": 5}),
    ([], {"windows": "8,x,2,1"}),
    ([], [1, 2]),
])
def test_bad_model_setting_exits_2_and_writes_nothing(tmp_path, capsys, flags, config):
    out = tmp_path / "out"
    argv = ["describe", *flags, "--out", str(out)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("side, reason", [
    ("30", "image side 30 must be divisible by 4"),
    ("8", "stage 1: feature side 1 is odd; the merge halves it"),
])
def test_a_too_small_image_side_exits_2_with_the_configs_reason(tmp_path, capsys, side, reason):
    out = tmp_path / "out"
    code, _, err = run(capsys, "describe", "--variant", "MICRO", "--image-side", side,
                       "--out", str(out))
    assert code == 2
    assert err.strip() == f"configuration error: {reason}"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--query", "999"], ["--query", "-1"], ["--query", "2"], ["--layers", "99"],
    ["--layers", "0,99"], ["--layers", "-1"], ["--groups", "99"], ["--groups", "0,-1"],
])
def test_attn_bad_selection_exits_2_before_any_map(tmp_path, capsys, flags):
    # --query 2 is in range for the first blocks but not for the 1x1 last window
    code, out, err = run(capsys, "attn", "--variant", "MICRO", *flags, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("configuration error:") and len(err.splitlines()) == 1
    assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("*.pgm"))
    assert not list(tmp_path.iterdir())  # not even resolved_config.json


def test_reproducible_outputs(tmp_path, capsys):
    for d in ("r1", "r2"):
        code, _, _ = run(capsys, "attn", "--variant", "MICRO", "--seed", "5",
                         "--layers", "0", "--out", str(tmp_path / d))
        assert code == 0
    f1 = sorted((tmp_path / "r1" / "attn").iterdir())
    f2 = sorted((tmp_path / "r2" / "attn").iterdir())
    assert [p.name for p in f1] == [p.name for p in f2]
    for a, b in zip(f1, f2):
        assert a.read_bytes() == b.read_bytes()
    for d in ("c1", "c2"):
        code, _, _ = run(capsys, "cost", "--variant", "MICRO", "--seed", "5",
                         "--out", str(tmp_path / d))
        assert code == 0
    assert (tmp_path / "c1" / "cost.json").read_bytes() == \
        (tmp_path / "c2" / "cost.json").read_bytes()


@pytest.mark.parametrize("argv", [
    ["describe", "--variant", "T", "--windows", "14,14,14,7", "--no-use-bias"],
    ["cost", "--gating", "glrpe", "--seed", "4"],
    ["attn", "--query", "2", "--layers", "0", "--groups", "0,1"],
    ["train", "--epochs", "1", "--batch-size", "16", "--per-class", "4", "--lr-init", "1e-3"],
    ["eval", "--per-class", "2", "--num-classes", "4"],
])
def test_resolved_config_is_a_valid_config(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, first, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    echoed = (out / "resolved_config.json").read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(echoed)
    code, again, _ = run(capsys, argv[0], "--config", str(cfg))
    assert code == 0 and again == first
    assert (out / "resolved_config.json").read_bytes() == echoed


@pytest.mark.parametrize("gating", ["sgu", "lrpe_m", "lrpe", "glrpe", "ggqpe"])
def test_cost_norm_is_the_counted_norm_affines(tmp_path, capsys, gating):
    from posmlp.complexity import count_params
    from posmlp.model import build_model, variant_config
    from posmlp.positional import ZeroDraws

    code, _, _ = run(capsys, "cost", "--gating", gating, "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "cost.json").read_text())
    per_path, _ = count_params(build_model(variant_config("MICRO", gating_kind=gating),
                                           rng=ZeroDraws()))
    for st in report["stages"]:
        params = st["breakdown"]["params"]
        norm = sum(v for k, v in per_path.items()
                   if k.startswith(f"stages.{st['stage']}.") and ".norm." in k)
        assert params["norm"] == norm
        assert sum(params.values()) == st["params"]


def test_entry_point_in_a_fresh_process(tmp_path):
    # in-process tests import every module before main runs; a new process
    # catches an import-order fault in the package or the CLI module
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    (tmp_path / "bad.json").write_text('{"data_path": 5}')
    for extra, want in [([], 0), (["--config", "bad.json"], 2)]:
        proc = subprocess.run([sys.executable, "-m", "posmlp.cli", "describe",
                               "--variant", "MICRO", *extra],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == want, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
