"""Benchmark of grdcalc: four seeded workloads, timed from outside the package.

    python3 perfbench/run.py --workload pieri-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
One run repeats the workload's pass, each in a fresh interpreter
(``worker.py``), one at a time (a closed loop with one client), until
``--seconds`` have passed; the time metrics are taken over the item times
of every pass, pooled.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics; traced and untraced
passes then alternate, and ``trace.slowdown`` compares them.  The last line
of stdout is one JSON object; the full record of the run goes to
``perfbench/out/``.  ``--smoke`` runs every workload at a tiny size and
checks that every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 11
# Every run holds at least two passes (see measure).
MIN_PASSES = 2
CLI_TIMEOUT_S = 1.5
# The time metrics are scaled to the speed at which worker.kernel takes this
# long.  On a 2-vCPU x86-64 VM (Xeon at 2.1 GHz) shared with other load it
# took from 0.3 to 0.55 ms, as the load of the host came and went.
REFERENCE_KERNEL_S = 0.0005
# An item's time is scaled by the kernel samples taken this close to it.
NEAR_S = 0.5
WORKER_TIMEOUT_S = 150
# After the timed import, the child times the calibration kernel, so that
# the import is scaled by the speed of the moment it ran in.
SETUP_CODE = ("import sys, time; t = time.perf_counter(); import grdcalc.cli; "
              "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import worker; "
              "print(t, worker.kernel_time())")

END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
COUNT = "count"
PER_LAYER_UNITS = {
    "schubert.pieri.busy_s": "s", "schubert.pieri.self_s": "s",
    "schubert.pieri.multiplies": COUNT, "schubert.pieri.terms_total": COUNT,
    "schubert.pieri.terms_peak": COUNT, "schubert.closed.busy_s": "s",
    "invariants.count.calls": COUNT, "invariants.count.calls_per_item": "count/item",
    "invariants.count.busy_s": "s",
    "linalg.solve.busy_s": "s", "linalg.solve.self_s": "s", "linalg.solve.calls": COUNT,
    "linalg.solve.cells": COUNT, "linalg.solve.bits_max": "bits",
    "linalg.solve.distinct_ratio": "ratio",
    "families.busy_s": "s", "pushforward.assemble.self_s": "s",
    "pushforward.closed.busy_s": "s", "pushforward.closed.self_s": "s",
    "pushforward.closed.calls": COUNT, "pushforward.closed.coeffs_built": COUNT,
    "slope.coeff_use_ratio": "ratio",
    "picard.class_ops.calls": COUNT, "picard.class_ops.busy_s": "s",
    "picard.class_ops.self_s": "s",
    "slope.report.self_s": "s", "slope.report.bits_max": "bits",
    "exact.ratfunc.busy_s": "s",
    "cli.process_s": "s", "cli.main.busy_s": "s", "cli.tracebacks": COUNT,
    "cli.wrong_exit": COUNT, "cli.timeouts": COUNT,
    "trace.slowdown": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(runs: int) -> list[list[float]]:
    """Seconds to import grdcalc.cli, each time in a fresh interpreter, and the kernel's time.

    The clock starts inside the child, so interpreter start and ``site``
    (which may import third-party packages through .pth files) are excluded.
    """
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import of grdcalc.cli failed:\n{proc.stderr[-2000:]}")
        samples.append([float(x) for x in proc.stdout.split()])
    return samples


def run_pass(workload: str, items: list, trace: bool, spans_path=None) -> dict:
    job = {"workload": workload, "items": items, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None, "timeout_s": CLI_TIMEOUT_S}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed on {workload}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def scaled_times(p: dict) -> list[float]:
    """Each item time of a pass, at the speed where the kernel takes REFERENCE_KERNEL_S.

    The speed is the median kernel time within NEAR_S of the item, or over
    the whole pass if no sample lies that close.
    """
    ends = [end for end, _ in p["kernel_s"]]
    out = []
    for row in p["items"]:
        secs, start = row[2], row[4]
        near = p["kernel_s"][bisect_left(ends, start - NEAR_S):
                             bisect_right(ends, start + secs + NEAR_S)] or p["kernel_s"]
        out.append(secs * REFERENCE_KERNEL_S / statistics.median(k for _, k in near))
    return out


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment(seed: int) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.splitlines()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            setup_runs: int = SETUP_RUNS) -> dict:
    items = workloads.generate(workload, seed, size)
    OUT.mkdir(parents=True, exist_ok=True)
    measure_setup(1)  # writes the bytecode cache of a fresh checkout
    setup: list[list[float]] = []  # [import seconds, kernel seconds]
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    passes = []  # (traced, worker result), every pass on the same items
    start = time.perf_counter()
    while True:
        # One set-up sample per pass spreads them over the run, so their
        # median does not hang on one quiet or busy moment of the machine.
        setup += measure_setup(1)
        traced = trace and len(passes) % 2 == 0
        dump = spans_path if traced and not passes else None
        passes.append((traced, run_pass(workload, items, traced, dump)))
        elapsed = time.perf_counter() - start
        # Stop at the pass boundary nearest to the end of the run.
        if (len(passes) >= MIN_PASSES and not (trace and len(passes) % 2)
                and elapsed + elapsed / len(passes) / 2 >= seconds):
            break
    setup += measure_setup(max(0, setup_runs - len(setup)))
    # The samples are every item time of every pass of one kind, pooled.
    pooled = {t: [row[2] for tt, p in passes if tt == t for row in p["items"]]
              for t in (False, True)}
    samples = pooled[False]
    # The speed the machine gives a process drifts in phases of seconds to
    # minutes, and a phase moves every time in it alike, the program's and
    # the calibration kernel's.  The kernel, timed between the items of each
    # pass, measures that speed, and the times are scaled by it to the speed
    # at which the kernel takes REFERENCE_KERNEL_S: an item's by the samples
    # near it, a set-up sample by the kernel timed right after it.
    scales = [REFERENCE_KERNEL_S / statistics.median(k for _, k in p["kernel_s"])
              for _, p in passes]
    scaled = [x for t, p in passes if not t for x in scaled_times(p)]
    setup_scaled = [x * REFERENCE_KERNEL_S / k for x, k in setup]

    def rate(times):
        return len(times) / sum(times)

    if trace:
        fastest = min((p for t, p in passes if t),
                      key=lambda p: sum(row[2] for row in p["items"]))
        metrics = {name: fastest["layers"][name]
                   for name in PER_LAYER_UNITS if name != "trace.slowdown"}
        metrics["trace.slowdown"] = rate(pooled[False]) / rate(pooled[True])
        units = PER_LAYER_UNITS
    else:
        metrics = {"items_per_s": rate(scaled),
                   "item_p50_ms": statistics.median(scaled) * 1000,
                   "item_p90_ms": p90(scaled) * 1000,
                   "setup_s": statistics.median(setup_scaled),
                   "peak_rss_mb": statistics.median(p["peak_rss_mb"] for _, p in passes)}
        units = END_TO_END_UNITS
    rows = [row for _, p in passes for row in p["items"]]
    verdicts = [row[3] for row in rows]
    failures: dict[str, int] = {}
    for v in verdicts:
        if v is not None:
            kind = v.split(":", 1)[0]
            failures[kind] = failures.get(kind, 0) + 1
    by_g: dict[int, list[float]] = {}
    for traced, p in passes:
        for row in p["items"]:
            if row[1] is not None and not traced:
                by_g.setdefault(row[1], []).append(row[2])
    record = {
        "workload": workload, "trace": int(trace), "size": size,
        "environment": environment(seed),
        "input_set": workloads.describe(items),
        "passes": {"untraced": sum(not t for t, _ in passes),
                   "traced": sum(t for t, _ in passes)},
        "pass_seconds": [sum(row[2] for row in p["items"]) for _, p in passes],
        "item_seconds": [[row[2] for row in p["items"]] for _, p in passes],
        "samples": len(samples),
        "failed_frac": sum(failures.values()) / len(verdicts),
        "failures": failures,
        "failed_items": [{"pass": i, "id": row[0], "argv": items[row[0]].get("argv"),
                          "verdict": row[3]}
                         for i, (_, p) in enumerate(passes) for row in p["items"] if row[3]],
        "setup_samples_s": [x for x, _ in setup],
        "setup_kernel_s": [k for _, k in setup],
        "scales": scales,
        "kernel_s": [p["kernel_s"] for _, p in passes],
        "item_starts": [[row[4] for row in p["items"]] for _, p in passes],
        "as_measured": {"items_per_s": rate(samples),
                        "item_p50_ms": statistics.median(samples) * 1000,
                        "item_p90_ms": p90(samples) * 1000,
                        "setup_s": statistics.median(x for x, _ in setup)},
        "median_ms_by_g": {g: statistics.median(v) * 1000 for g, v in sorted(by_g.items())},
        "spans_file": str(spans_path.relative_to(ROOT)) if trace else None,
    }
    result = {"correct": "wrong_value" not in verdicts, "attempted": len(verdicts),
              "failed": len(verdicts) - verdicts.count(None),
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    record["result"] = result
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = measure(workload, 0, 0, trace, size="smoke", setup_runs=1)
            result = record["result"]
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if emitted != wanted:
                problems.append(f"{workload} trace={int(trace)}: emitted {emitted}, "
                                f"BENCHMARK.json wants {wanted}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={int(trace)}: {result}")
            print(f"smoke {workload} trace={int(trace)}: {result['attempted']} items, "
                  f"{result['failed']} failed {record['failures']}")
    for p in problems:
        print("smoke problem:", p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed"}))
    return 1 if problems else 0


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and print its metrics by name, with their units."""
    record = measure(workload, seed, seconds, trace)
    result = record["result"]
    env, inputs = record["environment"], record["input_set"]
    print(f"# {workload} seed={seed} trace={int(trace)} python={env['python']} "
          f"nproc={env['nproc']} commit={env['commit']} src_sha256={env['src_sha256'][:12]}")
    print(f"# input set: {inputs['count']} items per pass, g {inputs['g_min']}..{inputs['g_max']}; "
          f"passes {record['passes']}; {record['samples']} samples (every item time of every untraced pass)")
    print(f"# failed_frac {record['failed_frac']:.4f} ({result['failed']}/{result['attempted']}) "
          f"{record['failures']}")
    scales = record["scales"]
    print(f"# times scaled to a calibration kernel of {REFERENCE_KERNEL_S * 1000:g} ms, by "
          f"{min(scales):.4f}..{max(scales):.4f} over the passes; as measured "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["as_measured"].items()))
    for name, m in result["metrics"].items():
        print(f"{workload}  {name:36s} {m['value']:>16.6g} {m['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "grdcalc" / "__init__.py").is_file():
        print(f"perfbench: no grdcalc source under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = {w: report(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads.WORKLOADS}
        print(json.dumps(results))
    else:
        print(json.dumps(report(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
