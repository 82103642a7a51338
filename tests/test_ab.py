"""``tools/ab.py`` driven on a scratch repository whose ``perfbench/run.py`` is a stub.

The stub prints fixed JSON results, one value per metric, run and side in
order, and logs which side ran and in which directory; ab.py's
alternation, spreads, ratios, pair counts and verdicts are checked against
them.  No run happens in the checkout, every extracted tree is removed,
and the checkout gains only its ``BENCH_<sha>.json``.
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
import os
import sys

with open({log!r}, "a+") as fh:
    fh.seek(0)
    n = sum(line.split("\\t")[0] == {side!r} for line in fh)
    fh.write({side!r} + "\\t" + os.getcwd() + "\\n")
if {fail!r}:
    sys.exit("stub failed")
args = sys.argv[1:]
print("# run " + json.dumps({{"workload": args[args.index("--workload") + 1], "side": {side!r},
                             "seconds": args[args.index("--seconds") + 1]}}))
metrics = {{name: {{"value": values[n], "unit": "ms"}} for name, values in {values!r}.items()}}
metrics["extra"] = {{"value": 1.0, "unit": "count"}}
print(json.dumps({{"correct": True, "attempted": 3, "failed": n % 2, "metrics": metrics}}))
'''

BENCHMARK = {"run_seconds": 2,
             "end_to_end": [{"name": "step_ms_p50", "better": "lower", "bound": 0.25},
                            {"name": "img_per_s", "better": "higher", "bound": 0.25}]}


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


def steps(values):
    """Stub metrics from step times: the step time and the images per second it gives."""
    return {"step_ms_p50": values, "img_per_s": [1000.0 / v for v in values]}


def logged(log):
    """``(side, working directory)`` of every stub run, in order."""
    return [tuple(line.split("\t")) for line in log.read_text().splitlines()]


def trees_by_side(log, temp):
    """The directories each side ran in; each was a tree directly in ``temp`` and is gone."""
    trees = {}
    for side, cwd in logged(log):
        trees.setdefault(side, set()).add(cwd)
        assert Path(cwd).parent == temp.resolve() and not Path(cwd).exists(), cwd
    return trees


def commit_stub(repo, log, side, values, fail=False, benchmark=BENCHMARK):
    (repo / "perfbench").mkdir(exist_ok=True)
    (repo / "perfbench" / "run.py").write_text(
        STUB.format(log=str(log), side=side, values=values, fail=fail))
    (repo / "BENCHMARK.json").write_text(json.dumps(benchmark))
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
    base = commit_stub(repo, log, "base", steps([100.0, 110.0, 120.0]))
    head = commit_stub(repo, log, "head", steps([90.0, 95.0, 130.0]))
    ab = load_ab(monkeypatch)
    out = repo / f"BENCH_{head[:12]}.json"
    assert ab.main(["--base", "HEAD~1", "--workload", "w1", "--pairs", "3"],
                   root=str(repo)) == str(out)

    assert [side for side, _ in logged(log)] == ["base", "head", "head", "base", "base", "head"]
    # One extraction per side; no run happened in the checkout.
    trees = trees_by_side(log, temp)
    assert len(trees["base"]) == len(trees["head"]) == 1 and trees["base"] != trees["head"]
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
    # Three pairs are too few for a gain; the spread is inside the bound.
    assert step["verdict"] == rate["verdict"] == "within bound"
    assert w["metrics"]["extra"]["head_won"] is None and "verdict" not in w["metrics"]["extra"]
    assert report["aa"] == {}
    assert w["operations"] == {"base": {"failed": 1, "attempted": 9},
                               "head": {"failed": 1, "attempted": 9}}
    assert [(r["pair"], r["side"], r["first"]) for r in w["runs"]] == [
        (0, "base", True), (0, "head", False), (1, "head", True), (1, "base", False),
        (2, "base", True), (2, "head", False)]
    # Every run lasts BENCHMARK.json's run_seconds.
    assert all(r["record"] == {"workload": "w1", "side": r["side"], "seconds": "2"}
               for r in w["runs"])
    # Only the report was written into the checkout, and both trees are gone.
    assert git(repo, "status", "--porcelain", "--ignored") == f"?? {out.name}"
    assert list(temp.iterdir()) == []


def test_ab_stops_at_a_failed_run_and_removes_both_trees(monkeypatch, scratch):
    repo, temp, log = scratch
    commit_stub(repo, log, "base", steps([100.0]))
    commit_stub(repo, log, "head", steps([90.0]), fail=True)
    ab = load_ab(monkeypatch)
    with pytest.raises(SystemExit, match="stub failed"):
        ab.main(["--base", "HEAD~1", "--workload", "w1", "--pairs", "1"], root=str(repo))
    assert [side for side, _ in logged(log)] == ["base", "head"]
    trees_by_side(log, temp)
    assert git(repo, "status", "--porcelain", "--ignored") == ""
    assert list(temp.iterdir()) == []


def test_extract_waits_for_git_archive_when_tar_fails(monkeypatch, scratch):
    repo, temp, log = scratch
    commit_stub(repo, log, "head", steps([90.0]))
    ab = load_ab(monkeypatch)
    started, popen = [], subprocess.Popen

    def recorded(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recorded)
    with pytest.raises(SystemExit, match="tar -x of HEAD"):
        ab.extract(str(repo), "HEAD", str(temp / "missing"))
    # git archive and tar both ran, and both were waited for.
    assert len(started) == 2 and all(p.returncode is not None for p in started)
    assert list(temp.iterdir()) == []


def test_ab_refuses_tracked_files_that_differ_from_head(monkeypatch, scratch):
    # The report names HEAD's sha, so the head side must run HEAD's code.
    repo, temp, log = scratch
    commit_stub(repo, log, "base", steps([100.0]))
    commit_stub(repo, log, "head", steps([90.0]))
    (repo / "perfbench" / "run.py").write_text("raise SystemExit('uncommitted')\n")
    ab = load_ab(monkeypatch)
    with pytest.raises(SystemExit, match="differ from HEAD"):
        ab.main(["--base", "HEAD~1", "--workload", "w1", "--pairs", "1"], root=str(repo))
    assert not log.exists() and list(temp.iterdir()) == []


VERDICTS = {"run_seconds": 2,
            "end_to_end": [{"name": "fast", "better": "lower", "bound": 0.25},
                           {"name": "slow", "better": "lower", "bound": 0.1},
                           {"name": "noisy", "better": "lower", "bound": 0.1},
                           {"name": "flat", "better": "higher", "bound": 0.25}],
            "per_layer": [{"name": "extra", "better": "lower"}]}


def test_ab_gives_each_end_to_end_metric_a_verdict_and_runs_aa_pairs(monkeypatch, scratch):
    repo, temp, log = scratch
    commit_stub(repo, log, "base", {"fast": [100.0] * 10, "slow": [100.0] * 10,
                                    "noisy": [50.0, 150.0] * 5, "flat": [10.0] * 10},
                benchmark=VERDICTS)
    # The head's first ten runs are its side of the base/head pairs; the
    # A/A pairs run HEAD's stub on both sides, reading the constant rest.
    head = commit_stub(repo, log, "head", {"fast": [90.0] * 9 + [101.0] + [90.0] * 20,
                                           "slow": [120.0] * 30, "noisy": [100.0] * 30,
                                           "flat": [9.9] * 30},
                       benchmark=VERDICTS)
    ab = load_ab(monkeypatch)
    out = ab.main(["--base", "HEAD~1", "--workload", "w1", "--aa", "w1", "--pairs", "10"],
                  root=str(repo))
    assert out == str(repo / f"BENCH_{head[:12]}.json")
    report = json.loads((repo / out).read_text())
    metrics = report["workloads"]["w1"]["metrics"]
    # fast: 9 of 10 pairs won by more than the base's zero spread
    assert (metrics["fast"]["head_won"], metrics["fast"]["verdict"]) == (9, "gain")
    # slow: 20% worse against a 10% bound
    assert metrics["slow"]["verdict"] == "worse"
    # noisy: the base's quartiles lie 100% apart, wider than its 10% bound
    assert metrics["noisy"]["base"] == {"median": 100.0, "q1": 50.0, "q3": 150.0}
    assert metrics["noisy"]["verdict"] == "unresolved"
    # flat: 1% worse, inside its 25% bound
    assert (metrics["flat"]["head_won"], metrics["flat"]["verdict"]) == (0, "within bound")
    assert "verdict" not in metrics["extra"]

    assert [side for side, _ in logged(log)] == ["base", "head", "head", "base"] * 5 + \
        ["head"] * 20
    # The A/A pairs run HEAD's stub in the base/head pairs' HEAD tree, as
    # their head side, and in a second extraction of HEAD, as their base
    # side; no run happened in the checkout.
    trees = trees_by_side(log, temp)
    head_tree = {cwd for side, cwd in logged(log)[:20] if side == "head"}
    assert len(trees["base"]) == len(head_tree) == 1 and len(trees["head"]) == 2
    assert [cwd in head_tree for _, cwd in logged(log)[20:]] == [False, True, True, False] * 5
    aa = report["aa"]["w1"]
    assert [(r["pair"], r["side"]) for r in aa["runs"][:4]] == [
        (0, "base"), (0, "head"), (1, "head"), (1, "base")]
    assert {r["record"]["side"] for r in aa["runs"]} == {"head"}
    assert all(m["ratios"] == [1.0] * 10 for m in aa["metrics"].values())
    assert {m["verdict"] for m in aa["metrics"].values() if "verdict" in m} == {"within bound"}
    assert git(repo, "status", "--porcelain", "--ignored") == f"?? {Path(out).name}"
    assert list(temp.iterdir()) == []
