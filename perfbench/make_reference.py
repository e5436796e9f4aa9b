"""Regenerate cli_reference.json: the stdout digest of every valid cli query.

Run from the root of the repository as ``python3 perfbench/make_reference.py``.
Each query of ``workloads.cli_universe()`` goes through ``grdcalc.cli.main``
in-process; queries that do not exit 0 are left out of the table.  Rerun
only when the universe changes, on a commit whose output is trusted: the
table is what later versions of the program are checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from grdcalc.cli import main  # noqa: E402


def build() -> dict:
    table = {}
    for argv in workloads.cli_universe():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code == 0:
            table[" ".join(argv)] = reference.digest(out.getvalue().encode())
    return table


if __name__ == "__main__":
    table = build()
    reference.CLI_REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} queries written to {reference.CLI_REFERENCE}")
