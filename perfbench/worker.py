"""One timed pass of one workload, in a fresh interpreter.

Reads ``{"workload", "items", "trace", "spans_path", "timeout_s"}`` as JSON
on stdin and prints one JSON object with each item's time and verdict, the
peak resident memory, the times of the calibration kernel, and with tracing
on the per-layer metrics.  Only the call into grdcalc is timed; every check
runs after it and compares with ``reference``, or with a route of the
program that the item does not time.

A fresh interpreter per pass matters: ``schubert._zeta_progress`` is an
unbounded module-level cache, and a second pass in the same process would
time the cache instead of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
import workloads

ROOT = Path.cwd()
CLI_CODE = "import sys; from grdcalc.cli import main; sys.exit(main())"
TRACEBACK = "Traceback (most recent call last)"
CALIBRATE_EVERY_S = 0.02


def kernel() -> Fraction:
    """A fixed piece of Fraction arithmetic from the standard library, no grdcalc code.

    grdcalc spends its time in the same kind of work, so the kernel's time
    follows the speed the machine gives to this process at the moment.  Its
    temporaries are freed at once, so it leaves the garbage collector's
    counts as it found them and moves no collection of the timed calls.
    """
    acc = Fraction(0)
    for i in range(1, 64):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, i + 7)
    return acc


def kernel_time(runs: int = 5) -> float:
    """Median time of a few runs of the kernel, one after another."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibration:
    """Times the kernel between items, at most once per CALIBRATE_EVERY_S.

    Each sample is ``[end, seconds]`` on the clock the items are timed by.
    """

    def __init__(self):
        self.samples: list[list[float]] = []
        self.last = float("-inf")

    def __call__(self) -> None:
        if time.perf_counter() - self.last < CALIBRATE_EVERY_S:
            return
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.samples.append([self.last, self.last - start])


def import_program() -> None:
    """Import grdcalc, and refuse any copy but the one in src/ of the checkout."""
    import grdcalc
    src = ROOT / "src"
    if Path(grdcalc.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"grdcalc imported from {grdcalc.__file__}, not from {src}")


def pieri_pass(items, run_item):
    from grdcalc import schubert

    def call(it):
        shape = schubert.GrassShape(it["r"], it["d"])
        return (schubert.special_power_integral(shape, it["k"], it["b"]),
                schubert.zeta_power_integral_pieri(shape, it["k"], it["b"]))

    def check(it, out):
        if it["k"] == it["g"] and not any(it["b"]):
            expected = reference.castelnuovo(it["g"], it["r"], it["d"])
        else:
            expected = reference.schubert_integral(it["r"], it["d"], it["k"], it["b"])
        return None if out[0] == out[1] == expected else "wrong_value"

    return [run_item(it, call, check) for it in items]


def assembly_pass(items, run_item):
    from grdcalc import pushforward
    from grdcalc.families import ClassLabel

    def call(it):
        return pushforward.solve_from_families(it["g"], it["r"], it["d"], ClassLabel(it["label"]))

    def check(it, out):
        closed = pushforward.closed_form(it["g"], it["r"], it["d"], ClassLabel(it["label"]))
        return None if out.as_divisor_class(it["g"]) == closed else "wrong_value"

    return [run_item(it, call, check) for it in items]


def slope_pass(items, run_item):
    from grdcalc import slope

    def call(it):
        if it["kind"] == "symbolic":
            return slope.symbolic_gap_identity()
        return slope.slope_report(it["g"], it["r"], it["d"])

    def check(it, out):
        if it["kind"] == "symbolic":
            return None if out is True else "wrong_value"
        expected = reference.slope_expected(it["g"], it["r"], it["d"])
        if any(getattr(out, key) != value for key, value in expected.items()):
            return "wrong_value"
        if it["m"] is not None and out.gap != reference.m_family_gap(it["m"]):
            return "wrong_value"
        return None

    return [run_item(it, call, check) for it in items]


def cli_verdict(it, code, stdout: bytes, stderr: str):
    """None if the query behaved as expected, else the kind of failure."""
    if TRACEBACK in stderr:
        return "traceback"
    expect = it["expect"]
    if expect["exit"] == 0:
        if code != 0:
            return "wrong_exit"
        return None if reference.digest(stdout) == expect["stdout"] else "wrong_value"
    if code == 1:
        return None if re.search(expect["stderr"], stderr) and not stdout else "no_cause"
    if code == 0 and expect["or_value"] is not None:
        try:
            value = json.loads(stdout).get("value")
        except ValueError:
            value = None
        return None if value == expect["or_value"] else "wrong_exit"
    return "wrong_exit"


def cli_pass(items, timeout_s, tracer, calibrate):
    """Each item is one grdcalc process; with tracing, also main(argv) in-process."""
    config = ROOT / workloads.BAD_CONFIG
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(workloads.BAD_CONFIG_TEXT)
    from grdcalc.cli import main
    results, process_s = [], 0.0
    for it in items:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_CODE, *it["argv"]],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=timeout_s)
            verdict = cli_verdict(it, proc.returncode, out, err.decode(errors="replace"))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            verdict = "timeout"
        seconds = time.perf_counter() - start
        results.append([it["id"], it["g"], seconds, verdict, start])
        calibrate()
        if tracer and verdict != "timeout":
            process_s += seconds
            tracer.begin_item(it["id"])
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(it["argv"])
            except (Exception, SystemExit):
                pass  # the process run above already recorded this failure
            finally:
                tracer.end_item()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return results, peak_kb, process_s


def main() -> int:
    job = json.load(sys.stdin)
    workload, items = job["workload"], job["items"]
    import_program()
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    extra = {"cli.process_s": 0.0, "cli.tracebacks": 0, "cli.wrong_exit": 0, "cli.timeouts": 0}
    calibrate = Calibration()
    calibrate()
    if workload == "cli-queries":
        results, peak_kb, process_s = cli_pass(items, job["timeout_s"], tracer, calibrate)
        if tracer:
            verdicts = [r[3] for r in results]
            extra = {"cli.process_s": process_s,
                     "cli.tracebacks": verdicts.count("traceback"),
                     "cli.wrong_exit": verdicts.count("wrong_exit"),
                     "cli.timeouts": verdicts.count("timeout")}
    else:
        def run_item(it, call, check):
            if tracer:
                tracer.begin_item(it["id"])
            start = time.perf_counter()
            try:
                out = call(it)
            except Exception as exc:
                error = f"error: {type(exc).__name__}: {exc}"
            else:
                error = None
            seconds = time.perf_counter() - start
            if tracer:
                tracer.end_item()
            verdict = error or check(it, out)
            calibrate()
            return [it["id"], it.get("g"), seconds, verdict, start]

        run = {"pieri-sweep": pieri_pass, "assembly-sweep": assembly_pass,
               "slope-sweep": slope_pass}[workload]
        results = run(items, run_item)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {"items": results, "peak_rss_mb": peak_kb / 1024, "kernel_s": calibrate.samples}
    if tracer:
        payload["layers"] = {**tracer.summary(len(items)), **extra}
        if job.get("spans_path"):
            tracer.dump(job["spans_path"], [r[:3] for r in results])
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
