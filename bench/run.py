#!/usr/bin/env python3
"""qcdetect benchmark: run one workload through the CLI and print its metrics.

    python3 bench/run.py --workload simulate-rec-n6 --seed 0 --seconds 25 --trace 0

Each operation is one in-process call of ``qcdetect.cli.main`` on a config the
benchmark generated from ``--seed``, with ``--out`` into a scratch directory
inside the checkout.  Every operation's outputs are checked (see
``read_outputs`` and ``Verdict``).  ``--trace 0`` repeats the command for
``--seconds`` and reports the end-to-end metrics as medians scaled to a
reference host speed (see ``HostClock``); ``--trace 1``
pairs an untraced run with a traced one (plus a traced workers=1 replay for
multi-worker workloads) and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is the run report.

The package is imported from ``src/`` of the checkout this file sits in; the
benchmark refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import LAYERS, Tracer, capture_records
from workloads import DEFAULT_SEED, SCALES, WORKLOADS, ini_sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
TRACE_DIR = ROOT / ".bench_out"
SCRATCH_DIR = ROOT / ".bench_tmp"

MIN_ITERATIONS = 3
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 60
#: OC summary values must lie within this many standard errors of the reference.
OC_TOLERANCE_SE = 3.0
#: Time of ``calibrate()`` on the reference host speed; every reported time is
#: scaled to the host running the kernel this fast (see HostClock).
CAL_REFERENCE_S = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, reference or workload)."""


def import_checkout():
    """Import qcdetect from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "qcdetect" / "__init__.py").is_file():
        raise BenchError(f"no qcdetect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcdetect
    from qcdetect import cli

    if Path(qcdetect.__file__).resolve().parent != (SRC / "qcdetect").resolve():
        raise BenchError(f"qcdetect resolved to {qcdetect.__file__}, not this checkout")
    return cli


# -- one CLI operation -------------------------------------------------------------


@dataclass
class Operation:
    code: int = -1
    wall_s: float = math.nan
    cpu_s: float = math.nan
    stdout: str = ""
    error: str = ""  # traceback when the command raised
    records: list = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def stopped_sha256(self) -> str:
        """SHA-256 over every pass's per-replication ``stopped`` then ``nu`` arrays."""
        digest = hashlib.sha256()
        for rec in self.records:
            digest.update(rec.stopped.astype("<i8").tobytes())
            digest.update(rec.nu.astype("<i8").tobytes())
        return digest.hexdigest()


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Job:
    """One workload at one seed: its generated config and where its outputs go."""

    cli: object
    command: str
    ini_path: Path
    out_dir: Path
    config: object = field(init=False)  # the RunConfig the CLI parses from ini_path

    def __post_init__(self):
        self.config = self.cli.load_config(str(self.ini_path))

    @property
    def out(self) -> Path:
        return self.out_dir / ("oc.csv" if self.command == "oc-sweep" else "run")

    @property
    def requested(self) -> int:
        """Replications requested per command: R, times the alpha levels of a sweep."""
        return self.config.mc.replications * max(1, len(self.config.sweep.alphas))

    @property
    def engine(self) -> str:
        return "recursion" if self.config.detector.window_m1 is None else "window"

    def run(self, *, trace: bool = False, workers: int | None = None) -> Operation:
        """One in-process CLI command; ``workers`` overrides the config (replays only)."""
        argv = [self.command, "--config", str(self.ini_path), "--out", str(self.out)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        op = Operation()
        buffer = io.StringIO()
        with contextlib.ExitStack() as stack:
            capture_records(stack, op.records)
            if trace:
                op.tracer = Tracer()
                op.tracer.install(stack)
            cpu0 = _cpu_now()
            start = perf_counter()
            with contextlib.redirect_stdout(buffer):
                try:
                    op.code = self.cli.main(argv)
                except Exception:  # a crash is a failed operation, not the end of the benchmark
                    op.error = traceback.format_exc()
            op.wall_s = perf_counter() - start
            op.cpu_s = _cpu_now() - cpu0
        op.stdout = buffer.getvalue()
        return op


# -- output checks -------------------------------------------------------------------


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / (n - 1)) if n > 1 else math.nan


def read_outputs(job: Job, op: Operation) -> dict:
    """Parse and cross-check the command's files; return its OC values as {name: (value, se)}.

    Raises ``ValueError`` on any malformed or inconsistent output.
    """
    if op.error:
        raise ValueError(f"command raised:\n{op.error}")
    if op.code != 0:
        raise ValueError(f"exit code {op.code}")
    reps, alphas = job.config.mc.replications, job.config.sweep.alphas
    if len(op.records) != (2 * len(alphas) if alphas else 1):
        raise ValueError(f"{len(op.records)} simulation passes")
    if job.command == "simulate":
        summary = json.loads(job.out.with_suffix(".json").read_text())
        if json.loads(op.stdout) != summary:
            raise ValueError("stdout summary differs from the JSON file")
        with open(job.out.with_suffix(".csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["replication"]) for r in rows] != list(range(reps)):
            raise ValueError("CSV replication column is not 0..R-1")
        stopped = [-1 if r["stopped_at"] == "" else int(r["stopped_at"]) for r in rows]
        nu = [int(r["nu"]) for r in rows]
        if stopped != op.records[0].stopped.tolist() or nu != op.records[0].nu.tolist():
            raise ValueError("CSV stopping times differ from the simulated records")
        pfa = sum(1 for s, n in zip(stopped, nu) if 1 <= s <= n) / reps
        if summary["replications"] != reps or not math.isclose(
            summary["pfa_estimate"], pfa, rel_tol=1e-12, abs_tol=1e-15
        ):
            raise ValueError("summary does not match the per-replication CSV")
        delay = summary["delay_moments"]["1"]
        return {"pfa": (pfa, _binomial_se(pfa, reps)), "delay_r1": (delay["mean"], delay["stderr"])}
    text = job.out.read_bytes().decode()  # keep the CSV's CRLF line ends for the comparison
    if text != op.stdout:
        raise ValueError("stdout table differs from the CSV file")
    rows = list(csv.DictReader(io.StringIO(text)))
    if [float(r["alpha"]) for r in rows] != list(alphas):
        raise ValueError("sweep rows do not follow the alpha grid")
    values = {}
    for row in rows:
        for key in row:
            if not math.isfinite(float(row[key])):
                raise ValueError(f"non-finite {key} at alpha={row['alpha']}")
        tag = row["alpha"]
        values[f"pfa@{tag}"] = (float(row["pfa_est"]), float(row["pfa_se"]))
        values[f"delay_r1@{tag}"] = (float(row["delay_r1"]), float(row["delay_se_r1"]))
    return values


def oc_deviations(values: dict, reference: dict) -> list[str]:
    """OC values farther than OC_TOLERANCE_SE standard errors from the reference."""
    bad = []
    for name, (ref_value, ref_se) in reference.items():
        value, se = values[name]
        allowed = OC_TOLERANCE_SE * max(ref_se, se)
        if not abs(value - ref_value) <= allowed and value != ref_value:
            bad.append(f"{name}={value!r} (reference {ref_value!r} +/- {allowed:.3g})")
    return bad


@dataclass
class Verdict:
    """Operation counts and the checks of one benchmark run."""

    reference: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first_sha: str | None = None  # stopping-time checksum of the first untraced operation

    def check(self, job: Job, op: Operation) -> None:
        self.attempted += 1
        try:
            values = read_outputs(job, op)
        except (ValueError, KeyError, OSError) as exc:
            self.failed += 1
            self.problems.append(f"bad output: {exc}")
            return
        bad = oc_deviations(values, self.reference["oc"])
        if bad:
            self.failed += 1
            self.problems.append("OC outside tolerance: " + "; ".join(bad))

    def repeat(self, sha: str) -> None:
        """Every repeat of one seed must stop at the same times."""
        if self.first_sha is None:
            self.first_sha = sha
        self.require(sha == self.first_sha, "stopping times changed between repeats of one seed")

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)


# -- run report ----------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcdetect").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_report(job: Job, workload, seed: int, scale: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workload": workload.name,
        "seed": seed,
        "master_seed": workload.master_seed(seed),
        "scale": scale,
        "engine": job.engine,
        "replications": job.config.mc.replications,
        "workers": job.config.mc.workers,
        "ini_sha256": {w.name: ini_sha256(w.ini(seed, scale)) for w in WORKLOADS.values()},
    }


# -- measurement ---------------------------------------------------------------------


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


_CAL_RNG = np.random.default_rng(20180723)
_CAL_STATE = _CAL_RNG.standard_normal((256, 63, 2))
_CAL_DATA = _CAL_RNG.standard_normal((300, 256, 6))


def calibrate(cpus: list[int] | None = None) -> float:
    """Seconds taken by a fixed kernel of the program's kinds of work.

    Log-add-exp over a recursion-sized state, cumulative sums over an
    increments-sized array and a pure-Python loop; it calls nothing in the
    package, so a change to the program cannot move it.  With ``cpus`` the
    kernel runs pinned to each of them in turn and the mean is returned.
    """
    if cpus:
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(calibrate())
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(times)
    start = perf_counter()
    state = _CAL_STATE.copy()
    for _ in range(40):
        state = np.logaddexp(state, _CAL_STATE) - 0.5
    for _ in range(3):
        _CAL_DATA.cumsum(axis=0)
    total = 0
    for i in range(200_000):
        total += i * i
    return perf_counter() - start


class HostClock:
    """Scales a run's timings to the reference host speed.

    The shared host runs the same code up to ~80% slower for seconds to minutes
    at a time, and the guest cannot see it.  The calibration kernel runs after
    every timing; the run's scale factor is CAL_REFERENCE_S over the median of
    the kernel times.  One factor per run follows the host between runs
    without adding the kernel's own jitter to every timing.

    A command with several workers runs on as many CPUs, and the host slows
    each CPU separately, so then the kernel runs on each of those CPUs.
    """

    def __init__(self, workers: int):
        self.cpus = sorted(os.sched_getaffinity(0))[:workers] if workers > 1 else None
        calibrate()  # the first call after start-up runs cold
        self.cal_s = [calibrate(self.cpus)]

    def tick(self) -> None:
        """Call right after each timing."""
        self.cal_s.append(calibrate(self.cpus))

    @property
    def factor(self) -> float:
        return CAL_REFERENCE_S / statistics.median(self.cal_s)


def measure_setup(ini_path: Path, clock: HostClock) -> list[float]:
    """Import + config parse + detector build, each in a fresh interpreter.

    The benchmark has already imported the package, so its bytecode is cached.
    """
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(ini_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
        clock.tick()
    return times


def end_to_end(job: Job, seconds: float, verdict: Verdict, samples: dict) -> dict:
    """Repeat the command for ``seconds`` (at least MIN_ITERATIONS times).

    ``samples`` gets every raw timing, every calibration time and the run's
    scale factor; the reported times are scaled medians.
    """
    walls, cpus = samples.setdefault("wall_s", []), samples.setdefault("cpu_s", [])
    clock = HostClock(job.config.mc.workers)
    start = perf_counter()
    while len(walls) < MIN_ITERATIONS or perf_counter() - start < seconds:
        op = job.run()
        clock.tick()
        verdict.check(job, op)
        verdict.repeat(op.stopped_sha256)
        walls.append(op.wall_s)
        cpus.append(op.cpu_s)
    peak = _peak_rss_mb()
    setup = samples["setup_s"] = measure_setup(job.ini_path, clock)
    samples["cal_s"] = clock.cal_s
    k = samples["factor"] = clock.factor
    wall = statistics.median(walls) * k
    return {
        "wall_s": wall,
        "reps_per_s": job.requested / wall,
        "cpu_s": statistics.median(cpus) * k,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup) * k,
    }


def layer_metrics(untraced: Operation, traced: Operation, replay: Operation, workers: int,
                  sha_match: bool) -> dict:
    """Per-layer metrics of one trace iteration; ``replay`` is the workers=1 traced run."""
    t = replay.tracer
    s = t.summary()
    inc, own, calls, layer_self = s["inclusive"], s["self"], s["calls"], s["layer_self"]
    fanout = 0.0
    if workers > 1:
        parallel = traced.tracer.summary()["inclusive"].get("montecarlo.simulate_runs", 0.0)
        fanout = parallel - inc.get("montecarlo.simulate_runs", 0.0) / workers
    rows = t.counts["row_steps"]
    censored = sum(int((r.stopped < 0).sum()) for r in replay.records)
    total = sum(r.stopped.size for r in replay.records)
    metrics = {
        "model.rng_s": inc.get("model.rng", 0.0),
        "model.rng_calls": calls.get("model.rng", 0),
        "scenarios.generate_s": inc.get("scenarios.generate", 0.0),
        "scenarios.generate_calls": calls.get("scenarios.generate", 0),
        "scenarios.increments_s": inc.get("scenarios.increments", 0.0),
        "scenarios.increments_mb": t.maxima["increments_bytes"] / 1e6,
        "statistics.advance_s": inc.get("statistics.advance", 0.0),
        "statistics.advance_calls": calls.get("statistics.advance", 0),
        "statistics.readout_s": inc.get("statistics.readout", 0.0),
        "statistics.row_steps": int(rows),
        "statistics.useful_row_steps": int(t.counts["useful_row_steps"]),
        "statistics.useful_frac": t.counts["useful_row_steps"] / rows if rows else math.nan,
        "statistics.subsets": int(t.maxima["subsets"]),
        "statistics.state_mb": t.maxima["state_bytes"] / 1e6,
        "likelihood.esp_terms": int(t.counts["esp_terms"]),
        "detectors.reduce_s": own.get("detectors.stopping_times", 0.0),
        "montecarlo.simulate_runs_s": inc.get("montecarlo.simulate_runs", 0.0),
        "montecarlo.passes": calls.get("montecarlo.simulate_runs", 0),
        "montecarlo.fanout_s": fanout,
        "montecarlo.censored_frac": censored / total if total else math.nan,
        "montecarlo.stopped_sha_match": int(sha_match),
        "cli.config_s": inc.get("cli.config", 0.0),
        "cli.build_s": inc.get("cli.build", 0.0),
        "cli.write_s": inc.get("cli.write", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    # the catch-all cli.main span's own time is what no other span covers
    covered = sum(layer_self.values()) - own.get("cli.main", 0.0)
    metrics["trace.coverage_frac"] = covered / replay.wall_s
    return metrics


def per_layer(job: Job, seconds: float, verdict: Verdict) -> tuple[dict, Tracer]:
    """Trace iterations until ``seconds`` pass; medians of times, counts of the last one."""
    workers = job.config.mc.workers
    samples = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        untraced = job.run()
        traced = job.run(trace=True)
        ops = [untraced, traced]
        if workers > 1:
            ops.append(job.run(trace=True, workers=1))
        replay = ops[-1]
        for op in ops:
            verdict.check(job, op)
        sha = untraced.stopped_sha256
        verdict.require(traced.stopped_sha256 == sha, "traced stopping times differ from untraced")
        verdict.require(replay.stopped_sha256 == sha and replay.stdout == untraced.stdout,
                        "workers=1 replay differs from the configured-workers run")
        verdict.repeat(sha)
        samples.append(layer_metrics(untraced, traced, replay, workers,
                                     sha == verdict.reference["stopped_sha256"]))
    # times vary between iterations and are reported as medians; counts repeat exactly
    last = samples[-1]
    return {name: statistics.median(s[name] for s in samples) if name.endswith(("_s", "_frac"))
            else last[name] for name in last}, replay.tracer


# -- entry point ---------------------------------------------------------------------


def load_reference(workload, scale: str, master_seed: int) -> dict:
    try:
        table = json.loads(REFERENCE.read_text())
        return table[workload.name][scale][str(master_seed)]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference for {workload.name}/{scale}/seed {master_seed}: {exc}")


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'smoke' runs a tiny replication count (benchmark self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_checkout()
        verdict = Verdict(load_reference(workload, args.scale, workload.master_seed(args.seed)))
        units = declared_units()
    except (BenchError, ImportError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("QCD_WORKERS", None)  # the generated config alone sets the worker count
    SCRATCH_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH_DIR))
    try:
        # warm lazy imports with one tiny, unchecked run before anything is timed
        (scratch / "warmup.ini").write_text(workload.ini(args.seed, "smoke"))
        Job(cli, workload.command, scratch / "warmup.ini", scratch).run()
        ini_path = scratch / f"{workload.name}.ini"
        ini_path.write_text(workload.ini(args.seed, args.scale))
        job = Job(cli, workload.command, ini_path, scratch)
        report = run_report(job, workload, args.seed, args.scale)
        if args.trace:
            values, tracer = per_layer(job, args.seconds, verdict)
        else:
            report["samples"] = {}
            values = end_to_end(job, args.seconds, verdict, report["samples"])
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        report["stopped_sha256"] = verdict.first_sha
        report["reference_sha_match"] = verdict.first_sha == verdict.reference["stopped_sha256"]
        report["problems"] = verdict.problems
        if args.trace:
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.dump(str(TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"), report)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_DIR.rmdir()
    for problem in verdict.problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = not verdict.problems
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
