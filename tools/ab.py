"""Paired A/B runs of the benchmark: a base revision against this checkout.

    python3 tools/ab.py --base REV --workload t224_infer --workload t224_train --pairs 10 \
        [--aa t224_infer]

Extracts REV with ``git archive`` into a temporary directory outside the
checkout and runs each side's own ``perfbench/run.py`` (``--trace 0``) in
its own tree, one run per side and pair.  The side that runs first
alternates from pair to pair, base first in pair 0, so a drift of the
host's speed falls on both sides alike.  Each run's last output line is
its JSON result.  Every run lasts the ``run_seconds`` of the checkout's
``BENCHMARK.json``, which also gives each metric's better direction.  The
checkout's tracked files must match its HEAD, so that the head's numbers
belong to one commit.  Writes ``BENCH_<sha>.json`` at the checkout's root,
where sha is HEAD, holding per workload and metric each side's median and
quartiles, the head/base ratio of each pair and the number of pairs the
head won, and every run's record and result.  A run that fails or prints
no JSON result stops the driver.

Each end-to-end metric, one with a ``bound`` in ``BENCHMARK.json``, also
gets a verdict, the first of these that holds:

- ``gain``: at least ten pairs, the head won at least nine tenths of them,
  and the medians differ in the head's favour by more than the base's
  inter-quartile distance;
- ``worse``: the head's median is worse than the base's by more than the
  bound, a fraction of the base's median;
- ``unresolved``: the base's inter-quartile distance exceeds the bound;
- ``within bound``: otherwise.

``--aa W`` also runs W's pairs of HEAD against a second extraction of HEAD,
in the same way, and stores them under ``aa``: the noise floor of the file's
own runs, against which its base/head differences can be read.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(root, rev, into):
    """The tree of ``rev`` written into directory ``into``, from the local repository only."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=root,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def run_side(tree, workload, seed, seconds):
    """One benchmark run in ``tree``: ``(run record, JSON result, wall seconds)``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-10:])
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} failed "
                         f"(exit {proc.returncode}):\n{tail}")
    record = next((json.loads(line[len("# run "):]) for line in lines
                   if line.startswith("# run {")), None)
    return record, result, wall


def spread(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def rules(spec):
    """Metric name -> (better direction, bound or None) from a BENCHMARK.json's metric lists."""
    return {m["name"]: (m["better"], m.get("bound")) for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])}


def verdict(base, head, won, pairs, better, bound):
    """``gain``, ``worse``, ``unresolved`` or ``within bound``: the module docstring's rule."""
    worse_by = head["median"] - base["median"]
    if better == "higher":
        worse_by = -worse_by
    iqr = base["q3"] - base["q1"]
    allowed = bound * abs(base["median"])
    if pairs >= 10 and won >= 0.9 * pairs and -worse_by > iqr:
        return "gain"
    if worse_by > allowed:
        return "worse"
    if iqr > allowed:
        return "unresolved"
    return "within bound"


def summarize(runs, spec_rules):
    """Per metric: each side's spread, the head/base ratio of each pair, the pairs head won
    and, for an end-to-end metric, the verdict."""
    base = [r for r in runs if r["side"] == "base"]
    head = [r for r in runs if r["side"] == "head"]
    out = {}
    for name, cell in head[0]["result"]["metrics"].items():
        b = [r["result"]["metrics"][name]["value"] for r in base]
        h = [r["result"]["metrics"][name]["value"] for r in head]
        ratios = [hv / bv if bv else None for hv, bv in zip(h, b)]
        way, bound = spec_rules.get(name, (None, None))
        won = None
        if way is not None:
            won = sum((hv < bv) if way == "lower" else (hv > bv) for hv, bv in zip(h, b))
        out[name] = {"unit": cell["unit"], "better": way, "base": spread(b), "head": spread(h),
                     "ratios": ratios, "head_won": won, "pairs": len(h)}
        if bound is not None:
            out[name]["verdict"] = verdict(out[name]["base"], out[name]["head"], won, len(h),
                                           way, bound)
    return out


def failures(runs):
    """Failed and attempted operations per side, summed over the runs."""
    return {side: {key: sum(r["result"][key] for r in runs if r["side"] == side)
                   for key in ("failed", "attempted")} for side in ("base", "head")}


def compare(root, base_tree, workload, pairs, seed, seconds, spec_rules, log=print):
    """``pairs`` alternating runs of each side; returns the workload's summary and runs."""
    runs = []
    for i in range(pairs):
        order = (("base", base_tree), ("head", root))
        for first, (side, tree) in zip((True, False), order if i % 2 == 0 else order[::-1]):
            record, result, wall = run_side(tree, workload, seed, seconds)
            runs.append({"pair": i, "side": side, "first": first, "wall_s": wall,
                         "record": record, "result": result})
            log(f"{workload} pair {i} {side}: failed {result['failed']}/{result['attempted']}, "
                f"{wall:.1f} s")
    metrics = summarize(runs, spec_rules)
    for name, m in metrics.items():
        if "verdict" in m:
            log(f"{workload} {name}: base {m['base']['median']:.4g}, head "
                f"{m['head']['median']:.4g}, head won {m['head_won']}/{m['pairs']}: "
                f"{m['verdict']}")
    return {"metrics": metrics, "operations": failures(runs), "runs": runs}


def main(argv=None, root=ROOT):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--aa", action="append", default=[], metavar="WORKLOAD",
                        help="also run HEAD against a second extraction of HEAD on WORKLOAD")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if git(root, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit("error: tracked files differ from HEAD; commit them first")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    base_sha = git(root, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    head_sha = git(root, "rev-parse", "HEAD")
    out = os.path.join(root, f"BENCH_{head_sha[:12]}.json")
    report = {"base": {"rev": args.base, "sha": base_sha}, "head": {"sha": head_sha},
              "pairs": args.pairs, "seed": args.seed, "seconds": seconds, "workloads": {},
              "aa": {}}
    trees = []
    try:
        for key, sha, workloads in (("workloads", base_sha, args.workload),
                                    ("aa", head_sha, args.aa)):
            if not workloads:
                continue
            trees.append(tempfile.mkdtemp(prefix="ab-base-"))
            extract(root, sha, trees[-1])
            for workload in workloads:
                report[key][workload] = compare(root, trees[-1], workload, args.pairs,
                                                args.seed, seconds, rules(spec))
    finally:
        for tree in trees:
            shutil.rmtree(tree, ignore_errors=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return out


if __name__ == "__main__":
    main()
