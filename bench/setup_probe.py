"""Time one user set-up in a fresh interpreter: import, parse the config, build the detector.

    python3 bench/setup_probe.py <src-dir> <config.ini>

Prints the elapsed seconds.  The clock starts before the package import, so
the numpy/scipy imports it pulls in are counted.
"""

import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
from qcdetect import cli  # noqa: E402

cli.build_detector(cli.load_config(sys.argv[2]))
print(perf_counter() - start)
