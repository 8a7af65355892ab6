"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 bench/setup_probe.py <workload> <seed>

Imports ``ugp`` from ``src/``, builds the workload's inputs as the
timed run does, then prints one JSON line (the moment the first op
could run) and exits.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ugp  # noqa: E402,F401

loaded = perf_counter()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), HERE / "out").close()
print(json.dumps({"load_s": perf_counter() - loaded}), flush=True)
