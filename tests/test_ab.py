"""``tools/ab.py`` driven on a scratch repository whose ``perfbench/run.py`` is a stub.

The stub prints fixed JSON results, one value per run and side in order, and
logs which side ran; the driver's alternation, spreads, ratios and pair counts
are checked against them, and the checkout gains only its ``BENCH_<sha>.json``.
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

STUB = '''import json
import sys

with open({log!r}, "a+") as fh:
    fh.seek(0)
    n = sum(line.strip() == {side!r} for line in fh)
    fh.write({side!r} + "\\n")
if {fail!r}:
    sys.exit("stub failed")
step = {values!r}[n]
args = sys.argv[1:]
print("# run " + json.dumps({{"workload": args[args.index("--workload") + 1], "side": {side!r},
                             "seconds": args[args.index("--seconds") + 1]}}))
print(json.dumps({{"correct": True, "attempted": 3, "failed": n % 2,
                  "metrics": {{"step_ms_p50": {{"value": step, "unit": "ms"}},
                              "img_per_s": {{"value": 1000.0 / step, "unit": "1/s"}},
                              "extra": {{"value": 1.0, "unit": "count"}}}}}}))
'''

BENCHMARK = {"run_seconds": 2, "end_to_end": [{"name": "step_ms_p50", "better": "lower"},
                                              {"name": "img_per_s", "better": "higher"}]}


def load_ab(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("posmlp_tools_ab", TOOLS / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                           *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


def commit_stub(repo, log, side, values, fail=False):
    (repo / "perfbench").mkdir(exist_ok=True)
    (repo / "perfbench" / "run.py").write_text(
        STUB.format(log=str(log), side=side, values=values, fail=fail))
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", side)
    return git(repo, "rev-parse", "HEAD")


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    repo, temp = tmp_path / "repo", tmp_path / "temp"
    repo.mkdir()
    temp.mkdir()
    git(repo, "init", "-q")
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return repo, temp, tmp_path / "log"


def test_ab_alternates_the_sides_and_counts_the_pairs_each_won(monkeypatch, scratch):
    repo, temp, log = scratch
    base = commit_stub(repo, log, "base", [100.0, 110.0, 120.0])
    head = commit_stub(repo, log, "head", [90.0, 95.0, 130.0])
    ab = load_ab(monkeypatch)
    out = repo / f"BENCH_{head[:12]}.json"
    assert ab.main(["--base", "HEAD~1", "--workload", "w1", "--pairs", "3"],
                   root=str(repo)) == str(out)

    assert log.read_text().split() == ["base", "head", "head", "base", "base", "head"]
    report = json.loads(out.read_text())
    assert report["base"] == {"rev": "HEAD~1", "sha": base}
    assert report["head"] == {"sha": head}
    assert (report["pairs"], report["seed"], report["seconds"]) == (3, 11, 2)
    w = report["workloads"]["w1"]
    step = w["metrics"]["step_ms_p50"]
    assert step["base"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert step["head"] == {"median": 95.0, "q1": 92.5, "q3": 112.5}
    assert step["ratios"] == pytest.approx([0.9, 95 / 110, 130 / 120])
    assert (step["better"], step["head_won"], step["pairs"], step["unit"]) == ("lower", 2, 3, "ms")
    rate = w["metrics"]["img_per_s"]
    assert (rate["better"], rate["head_won"]) == ("higher", 2)
    assert w["metrics"]["extra"]["head_won"] is None
    assert w["operations"] == {"base": {"failed": 1, "attempted": 9},
                               "head": {"failed": 1, "attempted": 9}}
    assert [(r["pair"], r["side"], r["first"]) for r in w["runs"]] == [
        (0, "base", True), (0, "head", False), (1, "head", True), (1, "base", False),
        (2, "base", True), (2, "head", False)]
    # Every run lasts BENCHMARK.json's run_seconds.
    assert all(r["record"] == {"workload": "w1", "side": r["side"], "seconds": "2"}
               for r in w["runs"])
    # Only the report was written into the checkout, and the base tree is gone.
    assert git(repo, "status", "--porcelain", "--ignored") == f"?? {out.name}"
    assert list(temp.iterdir()) == []


def test_ab_stops_at_a_failed_run_and_removes_the_base_tree(monkeypatch, scratch):
    repo, temp, log = scratch
    commit_stub(repo, log, "base", [100.0])
    commit_stub(repo, log, "head", [90.0], fail=True)
    ab = load_ab(monkeypatch)
    with pytest.raises(SystemExit, match="stub failed"):
        ab.main(["--base", "HEAD~1", "--workload", "w1", "--pairs", "1"], root=str(repo))
    assert git(repo, "status", "--porcelain", "--ignored") == ""
    assert list(temp.iterdir()) == []


def test_ab_refuses_tracked_files_that_differ_from_head(monkeypatch, scratch):
    # The report names HEAD's sha, so the head side must run HEAD's code.
    repo, temp, log = scratch
    commit_stub(repo, log, "base", [100.0])
    commit_stub(repo, log, "head", [90.0])
    (repo / "perfbench" / "run.py").write_text("raise SystemExit('uncommitted')\n")
    ab = load_ab(monkeypatch)
    with pytest.raises(SystemExit, match="differ from HEAD"):
        ab.main(["--base", "HEAD~1", "--workload", "w1", "--pairs", "1"], root=str(repo))
    assert not log.exists() and list(temp.iterdir()) == []
