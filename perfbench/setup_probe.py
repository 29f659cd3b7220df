"""Time verisemble's set-up in a fresh process and print it in seconds.

Set-up is ``import verisemble`` plus ``load_config`` plus
``build_stage_models``, which loads and validates the weight containers.
numpy is imported first, outside the timed part, because its import time is
not the program's. Usage: ``python3 perfbench/setup_probe.py CONFIG``, run
from the root of a checkout.
"""

import sys
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401

sys.path.insert(0, str(Path.cwd() / "src"))
start = perf_counter()
import verisemble  # noqa: E402

verisemble.build_stage_models(verisemble.load_config(sys.argv[1]))
print(repr(perf_counter() - start))
