#!/usr/bin/env python3
"""Record the reference checksums and OC values that bench/run.py checks against.

    python3 bench/record.py

For every workload and each of the SEED_SETS master seeds, runs the command
once and stores the SHA-256 of its per-replication ``stopped`` and ``nu``
arrays and its OC summary values with their standard errors.  Re-record only when the benchmark itself changes; a
change to the program is checked against the recorded values, not recorded.
"""

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import SCALES, SEED_SETS, WORKLOADS


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    cli = run.import_checkout()
    table = {}
    run.SCRATCH_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.SCRATCH_DIR))
    try:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]
            for scale in SCALES:
                entries = table.setdefault(name, {}).setdefault(scale, {})
                for seed in range(SEED_SETS):
                    ini_path = scratch / "run.ini"
                    ini_path.write_text(workload.ini(seed, scale))
                    job = run.Job(cli, workload.command, ini_path, scratch)
                    op = job.run()
                    values = run.read_outputs(job, op)
                    entries[str(seed)] = {"stopped_sha256": op.stopped_sha256, "oc": values}
                    print(f"{name} {scale} seed {seed}: {op.wall_s:.2f} s", file=sys.stderr)
        run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
