"""The benchmark's patch points still exist in the package.

``bench/`` wraps package functions and methods by name.  Installing its
tracer and its record capture looks every one of them up, so a deletion or a
rename fails here in well under a second, without running a workload.
"""

import contextlib
from pathlib import Path

from qcdetect import cli, montecarlo

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_and_record_capture_install(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer, capture_records

    original = montecarlo.simulate_runs
    # the CLI holds its own binding, which both hooks patch alongside montecarlo's
    assert cli.simulate_runs is original
    with contextlib.ExitStack() as stack:
        capture_records(stack, [])
        Tracer().install(stack)
        assert cli.simulate_runs is montecarlo.simulate_runs
        assert montecarlo.simulate_runs is not original
    assert cli.simulate_runs is montecarlo.simulate_runs is original
