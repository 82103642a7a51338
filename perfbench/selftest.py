"""Fast self-test of the benchmark harness (a few seconds on 2 CPUs).

    python3 perfbench/selftest.py

Checks ``BENCHMARK.json`` against the harness's schema, that every metric it
names is printed, runs each workload's code path at desk-toy size, untraced
and traced, and checks that the entry point refuses to run without the
posmlp sources.  Exits non-zero on the first failure.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_schema(bench, harness):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, sorted(bench)
    assert 1 <= len(bench["paths"]) <= 16
    for p in bench["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/"), p
        assert os.path.isdir(os.path.join(run.ROOT, p)), p
    cmd = bench["command"]
    assert 1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd)
    assert any(c.startswith(bench["paths"][0] + "/") for c in cmd[1:]), cmd
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]), w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "duplicate names"
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) <= 64 * 1024

    assert {w["name"] for w in bench["workloads"]} <= set(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(harness.PER_LAYER)


def check_smoke(harness, import_s):
    w = harness.WORKLOADS
    # Same code paths at desk-toy size.
    tiny = {
        "micro_train": replace(w["micro_train"], batch=8, epochs=1, per_class=4,
                               min_accuracy=0.0),
        "t224_infer": replace(w["t224_infer"], variant="MICRO", image_side=32, num_classes=4),
        "t224_train": replace(w["t224_train"], variant="MICRO", image_side=32, num_classes=4),
    }
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            result, lines, _, _ = run.measure(workload, 0, 0.01, trace, import_s,
                                              specs=tiny)
            names = harness.PER_LAYER if trace else harness.END_TO_END
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, lines)
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [n for n, _, _ in names]
            printed = {line.split()[0] for line in lines if not line.startswith("#")}
            for name, unit, _ in names:
                entry = result["metrics"][name]
                assert entry["unit"] == unit and math.isfinite(entry["value"]), (name, entry)
                assert name in printed, f"{name} not printed for {workload}"
            json.dumps(result)
            print(f"ok  {workload} trace={trace}: {result['attempted']} attempted", flush=True)


def check_refuses_without_sources():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "micro_train", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the posmlp sources", flush=True)


def main():
    import_s = run.prepare()
    import harness

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        check_schema(json.load(fh), harness)
    print("ok  BENCHMARK.json schema and metric names", flush=True)
    check_smoke(harness, import_s)
    check_refuses_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
