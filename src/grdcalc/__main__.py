"""``python -m grdcalc``: the ``grdcalc`` command, run by package name."""

import sys

from .cli import main

# The guard keeps a plain import of grdcalc.__main__ (a package walk imports
# every module) from running the command line.
if __name__ == "__main__":
    sys.exit(main())
