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
import csv
import io
import json
import os
import sys
import types
import typing
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .detectors import (
    SHIRYAEV_MIXTURE,
    Detector,
    DetectorConfig,
    threshold_cost,
    threshold_shiryaev,
    threshold_sr,
)
from .info import InfoNumbers, d_constant
from .likelihood import SubsetWeights
from .model import ChangeSpec, PriorSpec
from .montecarlo import (
    FixedChangeSampler,
    InfeasibleHorizonError,
    MCConfig,
    PriorNuSampler,
    _delay_estimate,
    asymptotic_ratio_sweep,
    estimate_pfa,
    simulate_runs,
)
from .scenarios import ARChannelSpec, MixtureChannelSpec, Scenario
from .statistics import GridSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_HORIZON = 4

WORKERS_ENV = "QCD_WORKERS"


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


@dataclass(frozen=True)
class MCSection:
    replications: int
    master_seed: int = 0
    horizon: int = 100
    workers: int = 1
    moments: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class SweepSection:
    alphas: tuple[float, ...]
    r: int = 1


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


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError(f"expected numbers, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for chunk in text.split(",") for p in chunk.split())


def _parse_rows(text: str) -> tuple[tuple[float, ...], ...]:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    if not rows:
        raise ConfigError(f"expected ';'-separated rows of numbers, got {text!r}")
    return tuple(_parse_floats(row) for row in rows)


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
    tuple[int, ...]: (_parse_ints, _fmt_ints),
    tuple[float, ...]: (_parse_floats, _fmt_floats),
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
            except ConfigError:
                raise
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
    try:
        if section.kind == "ar":
            coeffs = section.coeffs if len(section.coeffs) != 1 else section.coeffs * n
            signal = section.signal if len(section.signal) != 1 else section.signal * n
            if len(coeffs) != n or len(signal) != n:
                raise ConfigError("coeffs/signal need 1 or streams rows")
            channels = tuple(
                ARChannelSpec(coeffs=coeffs[i], sigma=sigma[i], signal=signal[i], theta=theta[i])
                for i in range(n)
            )
        elif section.kind == "mixture":
            beta_mix = _broadcast(section.beta_mix, n, "beta_mix")
            mu1 = _broadcast(section.mu1, n, "mu1")
            mu2 = _broadcast(section.mu2, n, "mu2")
            channels = tuple(
                MixtureChannelSpec(
                    beta_mix=beta_mix[i], mu1=mu1[i], mu2=mu2[i], sigma=sigma[i], theta=theta[i]
                )
                for i in range(n)
            )
        else:
            raise ConfigError(f"unknown scenario kind {section.kind!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}")
    return Scenario(channels)


def build_prior(section: PriorSection) -> PriorSpec:
    try:
        if section.kind == "geometric":
            return PriorSpec.geometric(rho=section.rho, q=section.q)
        if section.kind == "polynomial-tail":
            return PriorSpec.polynomial_tail(beta=section.beta, q=section.q)
        if section.kind == "point-mass":
            return PriorSpec.point_mass(k0=section.k0, q=section.q)
    except ValueError as exc:
        raise ConfigError(f"invalid prior: {exc}")
    raise ConfigError(f"unknown prior kind {section.kind!r}")


def build_grid(section: GridSection, n_streams: int) -> GridSpec:
    rows = tuple(
        row if len(row) == n_streams else _broadcast(row, n_streams, "grid point")
        for row in section.theta_points
    )
    weights = section.weights
    if weights is None:
        weights = (1.0 / len(rows),) * len(rows)
    try:
        return GridSpec(theta_points=rows, weights=weights)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}")


def build_weights(section: GridSection, n_streams: int) -> SubsetWeights:
    p = _broadcast(section.p, n_streams, "stream weights p")
    K = section.K if section.K is not None else n_streams
    try:
        return SubsetWeights(p=p, K=K)
    except ValueError as exc:
        raise ConfigError(f"invalid subset weights: {exc}")


def build_change(section: ChangeSection | None, scenario: Scenario) -> ChangeSpec:
    """The change on 0-based streams, checked before any simulation.

    ``nu = prior`` gives ``nu = 0`` here: every replication then draws its own
    change point, and its ``ChangeSpec`` makes the same checks.
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
    try:
        return ChangeSpec(nu, subset0, section.theta)
    except ValueError as exc:
        raise ConfigError(f"invalid change: {exc}")


@dataclass(frozen=True)
class CalibrationReport:
    kind: str
    threshold_A: float
    target: str
    formula: str


def calibrate_threshold(config: RunConfig) -> CalibrationReport:
    section = config.detector
    prior = build_prior(config.prior)
    if section.threshold is not None:
        return CalibrationReport(section.kind, section.threshold, "explicit", "threshold as given")
    shiryaev = section.kind == SHIRYAEV_MIXTURE
    try:
        if section.alpha is not None:
            if shiryaev:
                a = threshold_shiryaev(section.alpha, q=prior.q)
                return CalibrationReport(
                    section.kind, a, f"alpha={section.alpha!r}", "A = (1 - alpha) / alpha"
                )
            a = threshold_sr(section.alpha, section.omega, prior)
            return CalibrationReport(
                section.kind,
                a,
                f"alpha={section.alpha!r}",
                "A = (omega * b + mean(nu)) / alpha",
            )
        if section.cost_c is not None:
            scenario = build_scenario(config.scenario)
            grid = build_grid(config.grid, scenario.n_streams)
            weights = build_weights(config.grid, scenario.n_streams)
            mu = prior.tail_rate if shiryaev else 0.0
            info = InfoNumbers.for_scenario(scenario, grid, mu=mu)
            d = d_constant(weights, grid, info, section.cost_r)
            a = threshold_cost(section.cost_c, section.cost_r, d)
            return CalibrationReport(
                section.kind,
                a,
                f"c={section.cost_c!r}, r={section.cost_r!r}",
                f"r * D * A * (log A)^(r-1) = 1/c with D = {d!r}",
            )
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"calibration failed: {exc}")
    raise ConfigError("detector section needs one of: threshold, alpha, cost_c")


def build_detector(config: RunConfig, threshold: float | None = None) -> Detector:
    if threshold is None:
        threshold = calibrate_threshold(config).threshold_A
    section = config.detector
    scenario = build_scenario(config.scenario)
    prior = build_prior(config.prior)
    grid = build_grid(config.grid, scenario.n_streams)
    weights = build_weights(config.grid, scenario.n_streams)
    try:
        det_config = DetectorConfig(
            kind=section.kind,
            threshold_A=threshold,
            window_m1=section.window_m1,
            window_m0=section.window_m0,
            head_start_omega=section.omega,
        )
        return Detector(det_config, scenario, prior, grid, weights)
    except ValueError as exc:
        raise ConfigError(f"invalid detector: {exc}")


def build_mc(config: RunConfig, seed: int | None, workers: int | None) -> MCConfig:
    section = config.mc
    try:
        return MCConfig(
            replications=section.replications,
            master_seed=section.master_seed if seed is None else seed,
            horizon=section.horizon,
            workers=section.workers if workers is None else workers,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid mc section: {exc}")


# -- commands ---------------------------------------------------------------------


def cmd_calibrate(config: RunConfig, out: str | None) -> int:
    report = calibrate_threshold(config)
    # constructing the detector cross-validates threshold against prior and grid
    build_detector(config, threshold=report.threshold_A)
    payload = {
        "kind": report.kind,
        "threshold_A": report.threshold_A,
        "target": report.target,
        "formula": report.formula,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_simulate(config: RunConfig, out: str | None, seed: int | None, workers: int | None) -> int:
    detector = build_detector(config)
    mc = build_mc(config, seed, workers)
    change = build_change(config.change, detector.scenario)
    if config.change.nu == "prior":
        sampler = PriorNuSampler(change.subset, change.theta)
    else:
        sampler = FixedChangeSampler(change)
    records = simulate_runs(detector, mc, sampler)

    rows = []
    for rep in range(mc.replications):
        stopped = int(records.stopped[rep])
        nu_r = int(records.nu[rep])
        censored = stopped < 0
        rows.append(
            {
                "replication": rep,
                "nu": nu_r,
                "stopped_at": "" if censored else stopped,
                "censored": int(censored),
                "delay": "" if censored or stopped <= nu_r else stopped - nu_r,
            }
        )
    false_alarm = (records.stopped >= 1) & (records.stopped <= records.nu)
    summary = {
        "replications": mc.replications,
        "censored_fraction": float(np.mean(records.censored)),
        "pfa_estimate": float(np.mean(false_alarm)),
        "delay_moments": {},
    }
    for r in config.mc.moments:
        est = _delay_estimate(records, r)
        summary["delay_moments"][str(r)] = {
            "mean": est.mean,
            "stderr": est.stderr,
            "n_effective": est.n_effective,
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if out:
        with open(out + ".csv", "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["replication", "nu", "stopped_at", "censored", "delay"]
            )
            writer.writeheader()
            writer.writerows(rows)
        with open(out + ".json", "w") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_oc_sweep(config: RunConfig, out: str | None, seed: int | None, workers: int | None) -> int:
    if not config.sweep.alphas:
        raise ConfigError("oc-sweep needs a [sweep] section with an alphas grid")
    scenario = build_scenario(config.scenario)
    prior = build_prior(config.prior)
    mc = build_mc(config, seed, workers)
    change = build_change(config.change, scenario)
    subset = change.subset
    theta = change.theta if change.theta is not None else scenario.nominal_theta(subset)
    mu = prior.tail_rate if config.detector.kind == SHIRYAEV_MIXTURE else 0.0
    info_rate = float(
        sum(scenario.channels[i].kl_rate(t) for i, t in zip(subset, theta))
    )
    # every level is calibrated and checked before anything is simulated
    detectors = {
        alpha: build_detector(
            replace(config, detector=replace(config.detector, threshold=None, alpha=alpha))
        )
        for alpha in config.sweep.alphas
    }
    rows = asymptotic_ratio_sweep(
        detectors.__getitem__, config.sweep.alphas, config.sweep.r, mc, subset, theta,
        info_rate, mu,
    )
    table = []
    for row in rows:
        pfa = estimate_pfa(detectors[row.alpha], mc, alpha=row.alpha)
        table.append(
            {
                "alpha": row.alpha,
                "threshold_A": row.threshold_A,
                "pfa_est": pfa.mean,
                "pfa_se": pfa.stderr,
                f"delay_r{config.sweep.r}": row.delay_moment,
                f"delay_se_r{config.sweep.r}": row.delay_se,
                "first_order": row.first_order,
                "ratio": row.ratio,
                "ratio_se": row.ratio_se,
                "censored_fraction": row.censored_fraction,
            }
        )
    text = _csv_text(table)
    print(text, end="")
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _csv_text(table: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(table[0].keys()))
    writer.writeheader()
    for row in table:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    return buffer.getvalue()


def cmd_verify(suites: list[str], seed: int) -> int:
    from . import verify  # its oracles import scipy, which no other command needs

    results = verify.run_suites(suites if suites else None, seed=seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.suite}/{r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
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
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output path (prefix for simulate)")
    v = sub.add_parser("verify")
    v.add_argument("suites", nargs="*", default=None, help="suite names (default: all)")
    v.add_argument("--seed", type=int, default=0)
    return parser


def _default_workers(value: int | None) -> int | None:
    if value is not None:
        return value
    env = os.environ.get(WORKERS_ENV)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suites, args.seed)
        config = load_config(args.config)
        workers = _default_workers(args.workers)
        if args.command == "calibrate":
            return cmd_calibrate(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.seed, workers)
        if args.command == "oc-sweep":
            return cmd_oc_sweep(config, args.out, args.seed, workers)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleHorizonError as exc:
        print(f"infeasible horizon: {exc}", file=sys.stderr)
        return EXIT_HORIZON


if __name__ == "__main__":
    sys.exit(main())
