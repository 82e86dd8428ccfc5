"""Fresh-interpreter set-up probe for one admflux config.

Times ``import admflux``, ``cli.load_config`` and ``catalog.build`` in a new
interpreter and prints them as one JSON line.  Run it with ``src`` on
``PYTHONPATH``: ``python perfbench/probe_setup.py CONFIG``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import admflux  # noqa: E402  (the import is what is timed)
from admflux import catalog, cli  # noqa: E402

t1 = time.perf_counter()
cfg = cli.load_config(sys.argv[1])
t2 = time.perf_counter()
catalog.build(cfg.metric)
t3 = time.perf_counter()
print(json.dumps({
    "admflux_file": admflux.__file__,
    "import_s": t1 - t0,
    "load_config_s": t2 - t1,
    "build_s": t3 - t2,
    "setup_s": t3 - t0,
}))
