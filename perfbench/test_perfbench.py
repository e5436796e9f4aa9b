"""The benchmark's own test: the smoke mode runs every workload at a tiny size.

The smoke mode fails unless every metric named in BENCHMARK.json is emitted
with its unit, the tracer wraps every binding of every layer function, and
every result is correct.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok"}
