"""Set-up time of a fresh interpreter: ``import ehl`` plus one request.

Usage: python3 bench/setup_probe.py SRC_DIR CLI_ARG...

Prints one JSON object with the request's exit code and the seconds from
just before ``import ehl`` to the end of the request.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
src, *argv = sys.argv[1:]
sys.path.insert(0, src)
import ehl  # noqa: E402,F401
from ehl.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = main(argv)
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - t0}))
