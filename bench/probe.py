"""Set-up probe: start the interpreter, import the CLI module (and with it
the whole package) and read every shipped catalog graph, then print one
line of timestamps and exit.  ``run.py`` times it from outside."""

import time

FIRST = time.monotonic()

import sys  # noqa: E402

import resgraph.cli  # noqa: E402,F401

IMPORTED = time.monotonic()

import json  # noqa: E402

from resgraph.dualgraph import catalog_names, load_catalog_graph  # noqa: E402

for name in catalog_names():
    load_catalog_graph(name)

sys.stdout.write(json.dumps({"first": FIRST, "import_s": IMPORTED - FIRST, "ready": time.monotonic()}) + "\n")
sys.stdout.flush()
