"""Configuration-driven command line front end.

Subcommands: ``calibrate`` (thresholds from a false-alarm or cost target),
``simulate`` (per-replication CSV plus a JSON summary), ``oc-sweep``
(operating characteristics across a grid of false-alarm levels), and
``verify`` (the oracle self-check suites).

Configs are INI-style key/value sections; outputs are CSV (RFC-4180 quoting,
header row, floats serialized so they parse back bit-exactly) and JSON.  Exit
codes: 0 success, 2 configuration error, 3 verification failure, 4 infeasible
horizon.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import io
import json
import math
import os
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields

from .detectors import (
    Detector,
    calibration,
    check_moment_order,
    d_constant,
    delay_tail_rate,
    level_formula,
    threshold_cost,
)
from .likelihood import SubsetWeights
from .model import ChangeSpec, GeometricPrior, PointMassPrior, PolynomialTailPrior, PriorSpec
from .montecarlo import (
    InfeasibleHorizonError,
    MCConfig,
    asymptotic_ratio_sweep,
    simulate_runs,
    span_rows,
)
from .scenarios import (
    ARChannelSpec,
    FixedChangeSampler,
    MixtureChannelSpec,
    PriorNuSampler,
    Scenario,
)
from .statistics import GridSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_HORIZON = 4


class ConfigError(ValueError):
    """A run configuration could not be parsed or cross-validated."""


# -- configuration schema ---------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSection:
    kind: str
    streams: int
    sigma: tuple[float, ...]
    theta: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...] = ((),)
    signal: tuple[tuple[float, ...], ...] = ((1.0,),)
    beta_mix: tuple[float, ...] = (0.5,)
    mu1: tuple[float, ...] = (1.0,)
    mu2: tuple[float, ...] = (0.0,)


@dataclass(frozen=True)
class PriorSection:
    kind: str
    rho: float = 0.1
    beta: float = 2.0
    q: float = 0.0
    k0: int = 0


@dataclass(frozen=True)
class ChangeSection:
    nu: str          # integer literal or "prior"
    subset: tuple[int, ...]
    theta: tuple[float, ...] | None = None


@dataclass(frozen=True)
class GridSection:
    theta_points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...] | None = None
    p: tuple[float, ...] = (1.0,)
    K: int | None = None


@dataclass(frozen=True)
class DetectorSection:
    kind: str
    threshold: float | None = None
    alpha: float | None = None
    cost_c: float | None = None
    cost_r: float = 1.0
    window_m1: int | None = None
    window_m0: int = 0
    omega: float = 0.0

    def __post_init__(self):
        check_moment_order(self.cost_r)


@dataclass(frozen=True)
class MCSection:
    replications: int
    master_seed: int = 0
    horizon: int = 100
    workers: int = 1
    moments: tuple[int, ...] = (1,)

    def __post_init__(self):
        for r in self.moments:
            check_moment_order(r)


@dataclass(frozen=True)
class SweepSection:
    alphas: tuple[float, ...]
    r: int = 1

    def __post_init__(self):
        check_moment_order(self.r)


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The sections of a run, in the order ``serialize_config`` writes them."""

    scenario: ScenarioSection
    prior: PriorSection
    change: ChangeSection | None = None
    grid: GridSection
    detector: DetectorSection
    mc: MCSection
    sweep: SweepSection = SweepSection(alphas=())


def _parse_numbers(text: str, kind=float) -> tuple:
    """A comma- or space-separated list of numbers, each read by ``kind``; never empty."""
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(kind(p) for p in parts)


def _parse_rows(text: str) -> tuple[tuple[float, ...], ...]:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    if not rows:
        raise ValueError("expected ';'-separated rows of numbers")
    return tuple(_parse_numbers(row) for row in rows)


def _fmt_floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _fmt_ints(values) -> str:
    return ", ".join(str(int(v)) for v in values)


def _fmt_rows(rows) -> str:
    return "; ".join(_fmt_floats(row) for row in rows if row)


#: (parse, format) for each type a section field may have
_CODECS = {
    str: (str, str),
    int: (int, str),
    float: (float, lambda value: repr(float(value))),
    tuple[int, ...]: (lambda text: _parse_numbers(text, int), _fmt_ints),
    tuple[float, ...]: (_parse_numbers, _fmt_floats),
    tuple[tuple[float, ...], ...]: (_parse_rows, _fmt_rows),
}


def _fields(cls) -> dict:
    """``name -> (type, default)`` of a dataclass's fields, in declaration order.

    ``X | None`` reads as ``X``; a field without a default has ``MISSING``.
    """
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        hint = hints[f.name]
        if isinstance(hint, types.UnionType):
            (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        out[f.name] = (hint, f.default)
    return out


#: ``section -> (class, default, {key: (default, parse, format)})``, derived once
#: from the dataclasses.  A section or key without a default is required.
_SCHEMA = {
    name: (cls, default, {key: (d, *_CODECS[hint]) for key, (hint, d) in _fields(cls).items()})
    for name, (cls, default) in _fields(RunConfig).items()
}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (K vs k)
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return parse_config(parser)
    except configparser.Error as exc:
        # no section header, a duplicate key, a stray '%'; some messages span lines
        raise ConfigError(" ".join(str(exc).split()))


def parse_config(parser: configparser.ConfigParser) -> RunConfig:
    sections = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown config section [{name}]")
        cls, _, keys = _SCHEMA[name]
        values = {}
        for key, raw in parser.items(name):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            parse = keys[key][1]
            try:
                values[key] = parse(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for [{name}] {key} = {raw!r}: {exc}")
        missing = sorted(k for k, (d, _, _) in keys.items() if d is MISSING and k not in values)
        if missing:
            raise ConfigError(f"missing required key(s) {missing} in section [{name}]")
        try:
            sections[name] = cls(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid section [{name}]: {exc}")
    for name, (_, default, _) in _SCHEMA.items():
        if default is MISSING and name not in sections:
            raise ConfigError(f"missing required config section [{name}]")
    return RunConfig(**sections)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parsing it back yields an identical RunConfig."""
    out = io.StringIO()
    for name, (_, default, keys) in _SCHEMA.items():
        section = getattr(config, name)
        if section == default:
            continue
        out.write(f"[{name}]\n")
        for key, (_, _, fmt) in keys.items():
            value = getattr(section, key)
            text = "" if value is None else fmt(value)
            if text:  # None and empty tuples fall back to the default on reload
                out.write(f"{key} = {text}\n")
        out.write("\n")
    return out.getvalue()


# -- builders ---------------------------------------------------------------------


@contextlib.contextmanager
def _invalid(what: str | None = None):
    """Report a ValueError raised inside as a config error, about ``what`` if given."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}" if what else str(exc))


def _broadcast(values, n: int, what: str):
    if len(values) == 1:
        return tuple(values) * n
    if len(values) != n:
        raise ConfigError(f"{what} needs 1 or {n} entries, got {len(values)}")
    return tuple(values)


def build_scenario(section: ScenarioSection) -> Scenario:
    n = section.streams
    if n < 1:
        raise ConfigError(f"streams must be >= 1, got {n}")
    sigma = _broadcast(section.sigma, n, "scenario sigma")
    theta = _broadcast(section.theta, n, "scenario theta")
    with _invalid("[scenario]"):
        if section.kind == "ar":
            coeffs = _broadcast(section.coeffs, n, "scenario coeffs")
            signal = _broadcast(section.signal, n, "scenario signal")
            return Scenario(tuple(
                ARChannelSpec(coeffs=coeffs[i], sigma=sigma[i], signal=signal[i], theta=theta[i])
                for i in range(n)
            ))
        if section.kind == "mixture":
            beta_mix = _broadcast(section.beta_mix, n, "beta_mix")
            mu1 = _broadcast(section.mu1, n, "mu1")
            mu2 = _broadcast(section.mu2, n, "mu2")
            return Scenario(tuple(
                MixtureChannelSpec(
                    beta_mix=beta_mix[i], mu1=mu1[i], mu2=mu2[i], sigma=sigma[i], theta=theta[i]
                )
                for i in range(n)
            ))
    raise ConfigError(f"unknown scenario kind {section.kind!r}")


def build_prior(section: PriorSection) -> PriorSpec:
    with _invalid("prior"):
        if section.kind == "geometric":
            return GeometricPrior(section.rho, q=section.q)
        if section.kind == "polynomial-tail":
            return PolynomialTailPrior(section.beta, q=section.q)
        if section.kind == "point-mass":
            return PointMassPrior(section.k0, q=section.q)
    raise ConfigError(f"unknown prior kind {section.kind!r}")


def build_grid(section: GridSection, n_streams: int) -> GridSpec:
    rows = tuple(_broadcast(row, n_streams, "grid point") for row in section.theta_points)
    weights = section.weights
    if weights is None:
        weights = (1.0 / len(rows),) * len(rows)
    with _invalid("grid"):
        return GridSpec(theta_points=rows, weights=weights)


def build_weights(section: GridSection, n_streams: int) -> SubsetWeights:
    p = _broadcast(section.p, n_streams, "stream weights p")
    K = section.K if section.K is not None else n_streams
    with _invalid("subset weights"):
        return SubsetWeights(p=p, K=K)


def build_change(section: ChangeSection | None, scenario: Scenario, horizon: int):
    """The sampler of the change on 0-based streams, checked before any simulation.

    A fixed change must happen inside the ``horizon``.  ``nu = prior`` is
    checked as ``nu = 0``: every replication then draws its own change point,
    and its ``ChangeSpec`` makes the same checks.  A given ``theta`` must pass
    each affected channel's own rule, the one its ``kl_rate`` enforces.
    """
    if section is None:
        raise ConfigError("this command needs a [change] section")
    subset0 = tuple(i - 1 for i in section.subset)  # config uses 1-based streams
    if any(i < 0 or i >= scenario.n_streams for i in subset0):
        raise ConfigError(
            f"change subset {section.subset} outside streams 1..{scenario.n_streams}"
        )
    try:
        nu = 0 if section.nu == "prior" else int(section.nu)
    except ValueError:
        raise ConfigError(f"change nu must be an integer or 'prior', got {section.nu!r}")
    with _invalid("change"):
        change = ChangeSpec(nu, subset0, section.theta)
        for i, theta in zip(change.subset, change.theta or ()):
            scenario.channels[i].kl_rate(theta)  # the channel's own rule on its parameter
        if section.nu == "prior":
            return PriorNuSampler(change.subset, change.theta)
        sampler = FixedChangeSampler(change)
        sampler.check_horizon(horizon)
    return sampler


def build_detector(config: RunConfig) -> Detector:
    """The statistic of ``config``, one build of each part; ``calibrate`` adds the threshold."""
    section = config.detector
    prior = build_prior(config.prior)
    scenario = build_scenario(config.scenario)
    grid = build_grid(config.grid, scenario.n_streams)
    weights = build_weights(config.grid, scenario.n_streams)
    with _invalid("detector"):
        return Detector(
            section.kind, scenario, prior, grid, weights,
            window_m1=section.window_m1, window_m0=section.window_m0, omega=section.omega,
        )


def calibrate(config: RunConfig) -> tuple[Detector, dict]:
    """The statistic of ``config`` and the report of its threshold, ``threshold_A``.

    ``[detector]`` gives the threshold, or a false-alarm level ``alpha`` or a
    delay cost ``cost_c`` that it is calibrated from inside
    ``detectors.calibration``.  The threshold is then checked against the rule
    and prior by ``Detector.log_level``.
    """
    section = config.detector
    targets = [k for k in ("threshold", "alpha", "cost_c") if getattr(section, k) is not None]
    if len(targets) > 1:
        raise ConfigError(f"[detector] sets {' and '.join(targets)}; give only one of them")
    if not targets:
        raise ConfigError("detector section needs one of: threshold, alpha, cost_c")
    detector = build_detector(config)
    a, target, formula = section.threshold, "explicit", "threshold as given"
    if section.alpha is not None:
        with _invalid():
            a = detector.threshold(section.alpha)
        target, formula = f"alpha={section.alpha!r}", level_formula(section.kind)
    if section.cost_c is not None:
        with _invalid(), calibration():
            mu = delay_tail_rate(section.kind, detector.prior)
            rates = detector.scenario.kl_per_stream(detector.grid.points)
            d = d_constant(detector.weights, detector.grid, rates, mu, section.cost_r)
            a = threshold_cost(section.cost_c, section.cost_r, d)
        target = f"c={section.cost_c!r}, r={section.cost_r!r}"
        formula = f"r * D * A * (log A)^(r-1) = 1/c with D = {d!r}"
    with _invalid("detector"):
        detector.log_level(a)
    report = {"kind": section.kind, "threshold_A": a, "target": target, "formula": formula}
    return detector, report


def build_mc(config: RunConfig, seed: int | None, workers: int | None) -> MCConfig:
    section = config.mc
    with _invalid("mc section"):
        return MCConfig(
            replications=section.replications,
            master_seed=section.master_seed if seed is None else seed,
            horizon=section.horizon,
            workers=section.workers if workers is None else workers,
        )


def check_span_memory(detector: Detector, mc: MCConfig) -> None:
    """A horizon whose single replication exceeds the span memory budget, before simulating."""
    with _invalid("[mc] horizon"):
        span_rows(detector, mc.horizon)


# -- commands ---------------------------------------------------------------------


def check_out(out: str | None) -> None:
    """An ``--out`` path whose directory does not exist, before any work."""
    folder = os.path.dirname(out) if out else ""
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"--out {out!r}: directory {folder!r} does not exist")


def _write(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``; a failed write is a config error naming ``--out``."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out file {path!r}: {exc.strerror or exc}")


def _emit(text: str, out: str | None) -> None:
    """Print a command's text and write the same bytes to ``out``, if given."""
    print(text, end="")
    if out:
        _write(out, text)


def _json_number(value: float) -> float | None:
    """JSON has no NaN or infinity: a moment that is not finite is ``null``."""
    return value if math.isfinite(value) else None


def cmd_calibrate(config: RunConfig, out: str | None) -> int:
    _, report = calibrate(config)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)
    return EXIT_OK


def cmd_simulate(config: RunConfig, out: str | None, seed: int | None, workers: int | None) -> int:
    detector, report = calibrate(config)
    mc = build_mc(config, seed, workers)
    sampler = build_change(config.change, detector.scenario, mc.horizon)
    check_span_memory(detector, mc)
    with _invalid():  # increments that overflow show only as the runs are stepped
        records = simulate_runs(detector, report["threshold_A"], mc, sampler)
    moments = {str(r): records.delay_moment(r) for r in config.mc.moments}
    summary = {
        "replications": mc.replications,
        "censored_fraction": records.censored_fraction,
        "pfa_estimate": float(records.false_alarm.mean()),
        "delay_moments": {
            r: {"mean": _json_number(est.mean), "stderr": _json_number(est.stderr),
                "n_effective": est.n_effective}
            for r, est in moments.items()
        },
    }
    if out:
        columns = (records.nu, records.stopped, records.censored, records.detected)
        rows = [
            {"replication": rep, "nu": nu, "stopped_at": "" if censored else stopped,
             "censored": int(censored), "delay": stopped - nu if detected else ""}
            for rep, (nu, stopped, censored, detected)
            in enumerate(zip(*(column.tolist() for column in columns)))
        ]
        _write(out + ".csv", _csv_text(rows))
    _emit(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n",
          out and out + ".json")
    return EXIT_OK


def cmd_oc_sweep(config: RunConfig, out: str | None, seed: int | None, workers: int | None) -> int:
    if not config.sweep.alphas:
        raise ConfigError("oc-sweep needs a [sweep] section with an alphas grid")
    mc = build_mc(config, seed, workers)
    # the statistic every level shares; the sweep calibrates and checks every
    # level, then I + mu, before anything is simulated
    detector = build_detector(config)
    sampler = build_change(config.change, detector.scenario, mc.horizon)
    if not isinstance(sampler, PriorNuSampler):
        raise ConfigError("oc-sweep draws nu from the prior; set [change] nu = prior")
    check_span_memory(detector, mc)
    # a level or I + mu the sweep refuses, or increments that overflow mid-run
    with _invalid():
        rows = asymptotic_ratio_sweep(
            detector, config.sweep.alphas, config.sweep.r, mc, sampler.subset, sampler.theta
        )
    names = {"delay_moment": f"delay_r{config.sweep.r}", "delay_se": f"delay_se_r{config.sweep.r}"}
    _emit(_csv_text([{names.get(k, k): v for k, v in asdict(row).items()} for row in rows]), out)
    return EXIT_OK


def _csv_text(table: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(table[0].keys()))
    writer.writeheader()
    for row in table:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    return buffer.getvalue()


def cmd_verify(suites: list[str], seed: int, as_json: bool = False) -> int:
    """Run the oracle suites; one line per check, as text or as a JSON object."""
    from . import verify  # its oracles import scipy, which no other command needs

    with _invalid():  # an unknown suite or a negative seed, found before any check runs
        results = verify.run_suites(suites if suites else None, seed=seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        if as_json:
            print(json.dumps(
                {"suite": r.suite, "name": r.name, "passed": bool(r.passed), "detail": r.detail}
            ))
        else:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.suite}/{r.name}: {r.detail}")
    if as_json:
        print(json.dumps({"checks": len(results), "failed": len(failed)}))
    elif not failed:
        print(f"all {len(results)} checks passed")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# -- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdetect",
        description="Multistream Bayesian quickest change detection harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("calibrate", "simulate", "oc-sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", default=None, help="output path (prefix for simulate)")
        if name != "calibrate":
            p.add_argument("--seed", type=int, default=None, help="override master seed")
            p.add_argument("--workers", type=int, default=None, help="worker processes")
    v = sub.add_parser("verify")
    v.add_argument("suites", nargs="*", default=None, help="suite names (default: all)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", action="store_true",
                   help="one JSON object per check, then the counts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suites, args.seed, args.json)
        check_out(args.out)
        config = load_config(args.config)
        if args.command == "calibrate":
            return cmd_calibrate(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.seed, args.workers)
        return cmd_oc_sweep(config, args.out, args.seed, args.workers)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleHorizonError as exc:
        print(f"infeasible horizon: {exc}", file=sys.stderr)
        return EXIT_HORIZON


if __name__ == "__main__":
    sys.exit(main())
