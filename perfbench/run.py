"""posmlp benchmark entry point.

    python3 perfbench/run.py --workload t224_infer --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Prints a human-readable report (run
record, then one line per metric with its unit and sample count) and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Reports and spans are written under
``perfbench/out/``.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def prepare():
    """Cap BLAS pools at the usable CPUs and import posmlp from this checkout.

    Returns the import time in seconds.  Must run before numpy is imported.
    """
    if not os.path.isfile(os.path.join(SRC, "posmlp", "__init__.py")):
        raise SystemExit(f"error: no posmlp sources under {SRC}; run from a full checkout")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import posmlp.training  # numpy and scipy load with it
    import posmlp.complexity  # noqa: F401  (timed with the rest)
    import_s = time.perf_counter() - t0
    if not os.path.abspath(posmlp.training.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: posmlp imported from {posmlp.training.__file__}, not {SRC}")
    return import_s


def measure(workload, seed, seconds, trace, import_s, specs=None):
    """Run one workload; returns ``(result, report_lines, report_dict, tracer)``."""
    import harness

    specs = specs or harness.WORKLOADS
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        checks, metrics, notes, extras, tracer = harness.run(
            specs[workload], seed, seconds, trace, scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    names = harness.PER_LAYER if trace else harness.END_TO_END
    record = harness.run_record(workload, seed, seconds, trace, ROOT)
    if trace:
        record["trace_overhead_frac"] = metrics["trace.overhead_frac"]
    lines = [f"# run {json.dumps(record, sort_keys=True)}"]
    for name, unit, _ in names:
        lines.append(f"{name:40s} {metrics[name]:>14.6g} {unit:7s} {notes.get(name, '')}")
    frac = checks.failed / checks.attempted
    lines.append(f"{'failed_frac':40s} {frac:>14.6g} {'ratio':7s} "
                 f"{checks.failed}/{checks.attempted} iterations and checks")
    for what in checks.failures:
        lines.append(f"# FAILED: {what}")
    if "accounting" in notes:
        lines.append(f"# self-time share of traced root spans: {json.dumps(notes['accounting'])}")
    if "mac_reconciliation" in extras:
        lines.append(f"# MAC reconciliation: {json.dumps(extras['mac_reconciliation'])}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in names},
    }
    report = {"run": record, "result": result, "notes": notes, "failures": checks.failures,
              **extras}
    return result, lines, report, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = prepare()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, lines, report, tracer = measure(args.workload, args.seed, args.seconds, args.trace,
                                           import_s)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
