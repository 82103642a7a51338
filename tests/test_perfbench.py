"""The benchmark's own self-test passes against the library as it stands.

``perfbench/selftest.py`` checks ``BENCHMARK.json`` against the harness and
runs every workload's code path at toy size, untraced and traced, so a
library change that breaks a workload fails here rather than in a
benchmark run.  It runs in a copy of the benchmark scripts, the sources and
``BENCHMARK.json`` under ``tmp_path``, because the benchmark writes its
reports under ``perfbench/out/`` of the tree it runs in.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("selftest passed"), proc.stdout[-2000:]
