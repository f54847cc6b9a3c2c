"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports kljnsim and its CLI, parses the given config file and solves its
scheme, then prints one JSON line with ``time.monotonic()`` stamps.  The
parent takes its own ``time.monotonic()`` before starting this process; on
Linux both read the same system-wide clock, so the difference is the set-up
time of a fresh interpreter including its start.

    python3 bench/probe.py CONFIG        (with src/ on PYTHONPATH)
"""

import json
import sys
import time

import kljnsim  # noqa: F401  (the import is what is being timed)
from kljnsim import cli

import_done = time.monotonic()
with open(sys.argv[1], encoding="utf-8") as fh:
    text = fh.read()
t0 = time.monotonic()
config = cli.parse_config(text)
t1 = time.monotonic()
cli.build_scheme(config)
t2 = time.monotonic()
print(json.dumps({"import_done": import_done, "parse_s": t1 - t0, "build_s": t2 - t1,
                  "ready": t2}))
