"""Run the resgraph CLI as ``python -m resgraph`` does, with every public
function traced.  Output and exit code are the CLI's own; one extra last
line on stderr, after ``TRACE_PREFIX``, carries the timings as JSON.

The package is imported before anything else, so that its import time
reads as it does for ``python -m resgraph``."""

import time

FIRST = time.monotonic()

import sys  # noqa: E402

import resgraph.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402

from spans import TRACE_PREFIX, Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
begun = time.monotonic()
code = resgraph.cli.main(sys.argv[1:])
ended = time.monotonic()
sys.stdout.flush()
trace = {"first": FIRST, "import_s": IMPORTED - FIRST, "main_s": ended - begun, "summary": tracer.collect()}
sys.stderr.write(TRACE_PREFIX + json.dumps(trace) + "\n")
sys.exit(code)
