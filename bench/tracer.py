"""In-memory spans around the calls the CLI makes into each qcdetect module.

The tracer patches module and class attributes of the imported package for the
duration of one traced run and restores them afterwards; no file of the
package changes.  A span is ``(name, start, end, parent)``; its layer is the
part of the name before the first dot.  A layer's self time is the duration of
its spans minus the time their direct child spans cover.

Counts that the layers do not report themselves are derived at the same
boundaries from argument and result shapes: row-steps from the data and
stopping times of ``Detector.stopping_times``, state sizes from the
``DetectorState`` after its first step, and log-add-exp operations from the
input shape of ``log_elementary_symmetric``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections import defaultdict
from time import perf_counter
from unittest import mock

import numpy as np

LAYERS = ("model", "scenarios", "likelihood", "statistics", "detectors", "montecarlo", "cli")


def patch(stack: contextlib.ExitStack, owner, attr, value) -> None:
    """Replace ``owner.attr`` with ``value`` until ``stack`` closes."""
    stack.enter_context(mock.patch.object(owner, attr, value, create=True))


def capture_records(stack: contextlib.ExitStack, sink: list) -> None:
    """Append every ``RunRecords`` that ``simulate_runs`` returns to ``sink``.

    This is output capture, not tracing: it is installed on untraced runs too,
    because ``oc-sweep`` writes no per-replication arrays.
    """
    from qcdetect import cli, montecarlo

    original = montecarlo.simulate_runs

    @functools.wraps(original)
    def simulate_runs(*args, **kwargs):
        records = original(*args, **kwargs)
        sink.append(records)
        return records

    patch(stack, montecarlo, "simulate_runs", simulate_runs)
    patch(stack, cli, "simulate_runs", simulate_runs)


class Tracer:
    """Records spans for one traced CLI run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------------

    def _begin(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid: int, parent: int, name: str, start: float) -> None:
        self.spans[sid] = (name, start, perf_counter(), parent)
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` derives counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._begin()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid, parent, name, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self, stack: contextlib.ExitStack) -> None:
        from qcdetect import cli, detectors, likelihood, montecarlo, scenarios, statistics

        def method(cls, attr, name, after=None):
            patch(stack, cls, attr, self.wrap(name, cls.__dict__[attr], after))

        def function(module, attr, name, after=None, also=()):
            wrapped = self.wrap(name, getattr(module, attr), after)
            patch(stack, module, attr, wrapped)
            for other in also:
                patch(stack, other, attr, wrapped)

        # model: per-replication generator construction (montecarlo's binding)
        function(montecarlo, "replication_rng", "model.rng")
        # scenarios
        method(scenarios.Scenario, "generate", "scenarios.generate")
        method(scenarios.Scenario, "log_lr_increments", "scenarios.increments", self._after_increments)
        # likelihood: the elementary-symmetric DP, as bound in both callers' modules
        esp_statistics = self.wrap("likelihood.esp", statistics.log_elementary_symmetric, self._after_esp)
        esp_likelihood = self.wrap("likelihood.esp", likelihood.log_elementary_symmetric, self._after_esp)
        patch(stack, statistics, "log_elementary_symmetric", esp_statistics)
        patch(stack, likelihood, "log_elementary_symmetric", esp_likelihood)
        # statistics
        method(statistics.DetectorState, "advance", "statistics.advance", self._after_advance)
        method(statistics.DetectorState, "log_shiryaev", "statistics.readout")
        method(statistics.DetectorState, "log_sr", "statistics.readout")
        # detectors
        method(detectors.Detector, "stopping_times", "detectors.stopping_times", self._after_stopping)
        method(detectors.Detector, "log_trajectories", "detectors.log_trajectories")
        # montecarlo (the CLI holds its own binding of simulate_runs)
        function(montecarlo, "simulate_runs", "montecarlo.simulate_runs", also=(cli,))
        for attr in ("estimate_pfa", "estimate_bayes_delay", "asymptotic_ratio_sweep"):
            function(montecarlo, attr, "montecarlo.estimate",
                     also=(cli,) if attr in cli.__dict__ else ())
        # cli
        function(cli, "main", "cli.main")
        function(cli, "load_config", "cli.config")
        function(cli, "build_detector", "cli.build")
        patch(stack, cli, "open", self._traced_open)

    @contextlib.contextmanager
    def _traced_open(self, *args, **kwargs):
        """``open`` as the cli module sees it: one span per output file, open to close."""
        sid, parent = self._begin()
        start = perf_counter()
        try:
            with open(*args, **kwargs) as fh:
                yield fh
        finally:
            self._end(sid, parent, "cli.write", start)

    # -- derived counts ----------------------------------------------------------

    def _after_increments(self, args, kwargs, result):
        self.maxima["increments_bytes"] = max(self.maxima["increments_bytes"], result.nbytes)

    def _after_esp(self, args, kwargs, result):
        log_values = np.asarray(args[0] if args else kwargs["log_values"])
        n, k = log_values.shape[-1], args[1] if len(args) > 1 else kwargs["K"]
        elements = math.prod(log_values.shape[:-1])
        self.counts["esp_terms"] += elements * sum(min(i + 1, k) for i in range(n))

    def _after_advance(self, args, kwargs, result):
        state = args[0]
        if state.n != 1:
            return
        basis = state.basis
        points = basis.grid.n_points
        if state.window_m1 is None:
            cells = state.n_reps * basis.n_subsets * points
        else:
            cells = state.n_reps * (state.window_m1 + 1) * points * basis.weights.n_streams
        self.maxima["state_bytes"] = max(self.maxima["state_bytes"], 8 * cells)
        self.maxima["subsets"] = max(self.maxima["subsets"], basis.n_subsets)

    def _after_stopping(self, args, kwargs, result):
        n_reps, horizon = np.shape(args[1] if len(args) > 1 else kwargs["data"])[:2]
        stopped = np.asarray(result)
        self.counts["row_steps"] += n_reps * horizon
        self.counts["useful_row_steps"] += int(np.where(stopped > 0, stopped, horizon).sum())

    # -- reduction ----------------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive and self time per span name, call counts, and self time per layer."""
        spans = self.spans
        child_time = defaultdict(float)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for sid, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, _ = span
            inclusive[name] += end - start
            own[name] += end - start - child_time[sid]
            calls[name] += 1
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in own.items():
            layer_self[name.split(".", 1)[0]] += value
        return {"inclusive": dict(inclusive), "self": dict(own), "calls": dict(calls),
                "layer_self": layer_self}

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"report": header,
                       "spans": [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                                 for i, s in enumerate(self.spans) if s is not None]}, fh)
