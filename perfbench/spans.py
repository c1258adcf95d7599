"""Span and counter recorder for the traced run.

The recorder wraps districtvote functions at every name they are bound
under, from outside the package: several functions are imported by name
into other modules, so patching only the defining module would miss the
calls. Mechanism objects are never wrapped (``claimed_bound`` dispatches on
rule types); the rule classes' ``select_*`` methods are patched instead.

Spans stay in memory while the workload runs and are written out when it
ends; only the first ``SPAN_LIMIT`` closed spans are kept, while self times
and counters cover every call. A layer's self time is its span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import districtvote
from districtvote import adversarial, cli, distortion, instances, mechanisms, rules

#: Spans kept for the span file: a few operations' worth, whatever the run length.
SPAN_LIMIT = 100_000

#: Per-layer metrics: (name, unit, better, what it measures, end-to-end
#: metrics it should move, workloads it should move them on). ``_us`` times
#: are self time per trial (one ``evaluate`` call, which is one trial of a
#: sweep or one step of a climb); ``_s`` times and counts are per operation
#: (one verify-bounds call, one sweep call or one climb).
LAYER_METRICS = (
    ("distortion.trial_rng_us", "us", "lower", "_trial_rng",
     "wall_s, evals_per_s", "verify-default, sweep-wide (not hill-climb)"),
    ("distortion.generate_self_us", "us", "lower",
     "random_instance minus the build inside it",
     "wall_s, evals_per_s", "verify-default, sweep-wide (not hill-climb)"),
    ("distortion.evaluate_self_us", "us", "lower",
     "evaluate minus run and cost_vector", "all", "all three"),
    ("distortion.loop_self_us", "us", "lower",
     "sweep / hill_climb loop minus the calls it makes", "all", "all three"),
    ("distortion.trials", "count", "higher", "evaluate calls", "none (context)", "-"),
    ("distortion.infinite_ratios", "count", "lower", "infinite ratios",
     "none (context)", "-"),
    ("distortion.zero_cost_optima", "count", "lower", "optima of cost 0",
     "none (context)", "-"),
    ("distortion.worst_updates", "count", "lower",
     "evaluations beating every earlier ratio of their sweep or climb",
     "none (context)", "-"),
    ("instances.build_us", "us", "lower",
     "build_line_instance, build_euclidean_instance, _line_instance_from_ids",
     "evals_per_s, wall_s", "all three; largest share on hill-climb"),
    ("instances.build_calls", "count", "lower", "instance builds",
     "evals_per_s, wall_s", "all three; largest share on hill-climb"),
    ("instances.profile_us", "us", "lower", "ordinal_profile",
     "evals_per_s, wall_s", "all three"),
    ("instances.restrict_us", "us", "lower", "OrdinalProfile.restrict",
     "evals_per_s, wall_s", "verify-default, sweep-wide"),
    ("instances.restrict_calls", "count", "lower", "OrdinalProfile.restrict calls",
     "evals_per_s, wall_s", "verify-default, sweep-wide"),
    ("mechanisms.run_self_us", "us", "lower",
     "run minus the profile, restrict and rule calls",
     "evals_per_s, wall_s", "all three"),
    ("mechanisms.parse_s", "s", "lower", "parse_mechanism minus property checks",
     "wall_s", "verify-default (others parse once in set-up)"),
    ("mechanisms.parse_calls", "count", "lower", "parse_mechanism calls",
     "wall_s", "verify-default (others parse once in set-up)"),
    ("rules.in_us", "us", "lower", "in-rule select_* minus plurality matching",
     "evals_per_s, wall_s", "all three"),
    ("rules.in_calls", "count", "lower", "in-rule select_* calls",
     "evals_per_s, wall_s", "all three"),
    ("rules.over_us", "us", "lower", "over-rule select_* minus plurality matching",
     "evals_per_s, wall_s", "all three"),
    ("rules.over_calls", "count", "lower", "over-rule select_* calls",
     "evals_per_s, wall_s", "all three"),
    ("rules.pm_us", "us", "lower", "plurality_matching_rule",
     "evals_per_s, wall_s", "sweep-wide most, verify-default (not hill-climb)"),
    ("rules.pm_calls", "count", "lower", "plurality_matching_rule calls",
     "evals_per_s, wall_s", "sweep-wide most, verify-default (not hill-climb)"),
    ("rules.pm_candidates_tried", "count", "lower",
     "mean of the winner's index among profile.candidates() + 1",
     "evals_per_s, wall_s", "sweep-wide most, verify-default (not hill-climb)"),
    ("rules.pm_useful_ratio", "ratio", "higher",
     "plurality matching calls / candidates tried",
     "evals_per_s, wall_s", "sweep-wide most, verify-default (not hill-climb)"),
    ("rules.pm_voters_mean", "count", "lower", "voters per plurality matching call",
     "none (sizes the rewrite)", "-"),
    ("rules.pm_classes_mean", "count", "lower",
     "distinct top choices per plurality matching call",
     "none (sizes the rewrite)", "-"),
    ("rules.pm_classes_max", "count", "lower",
     "most distinct top choices in one plurality matching call",
     "none (sizes the rewrite)", "-"),
    ("objectives.cost_vector_us", "us", "lower", "cost_vector",
     "evals_per_s, wall_s", "all three"),
    ("objectives.property_checks_s", "s", "lower", "run_property_checks",
     "wall_s", "verify-default only"),
    ("objectives.property_check_calls", "count", "lower", "run_property_checks calls",
     "wall_s", "verify-default only"),
    ("adversarial.certify_s", "s", "lower", "certify_details, whole call",
     "wall_s", "verify-default only"),
    ("adversarial.certify_rows", "count", "higher", "certify_details calls",
     "wall_s", "verify-default only"),
    ("adversarial.export_s", "s", "lower", "export_family, whole call",
     "wall_s", "verify-default only"),
    ("cli.cells", "count", "higher", "sweep calls made by run_verify_bounds",
     "wall_s", "verify-default"),
    ("cli.cell_s_p50", "s", "lower", "median sweep cell, whole call",
     "wall_s", "verify-default"),
    ("cli.cell_s_max", "s", "lower", "slowest sweep cell, whole call",
     "wall_s", "verify-default; sum/max caps what cell parallelism can give"),
    ("cli.cell_s_sum", "s", "lower", "all sweep cells, whole calls",
     "wall_s", "verify-default; sum/max caps what cell parallelism can give"),
    ("cli.io_s", "s", "lower", "save_instance and the CSV formatting",
     "wall_s", "verify-default"),
    ("trace.overhead_frac", "ratio", "lower",
     "traced operation time over untraced, minus 1", "none", "all three"),
)


class Recorder:
    """Keeps spans and counters in memory while patched functions run."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self.self_time: defaultdict = defaultdict(float)
        self.total_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.cell_seconds: list[float] = []
        self.pm_voters: list[int] = []
        self.pm_classes: list[int] = []
        self._stack: list[list] = []      # open spans: [id, name, child time]
        self._ids = itertools.count()
        self._best: float | None = None   # best ratio of the enclosing loop
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack, spans, ids = self._stack, self.spans, self._ids

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            label = name(stack) if callable(name) else name
            frame = [next(ids), label, 0.0]   # id, name, child time
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.self_time[label] += end - start - frame[2]
                self.total_time[label] += end - start
                self.calls[label] += 1
                if len(spans) < SPAN_LIMIT:
                    spans.append((frame[0], stack[-1][0] if stack else None,
                                  label, start, end))
            if after is not None:
                after(result, end - start, *args, **kwargs)
            if stack:
                # the caller's self time excludes this call and the tracer's
                # own work around it, hooks included
                stack[-1][2] += time.perf_counter() - entered
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self) -> None:
        """Wrap every binding site the three workloads call through."""
        loop = self._loop_span
        self.patch(districtvote, "sweep", "distortion.loop", loop)
        self.patch(districtvote, "hill_climb", "distortion.loop", loop)
        self.patch(cli, "sweep", "distortion.loop", self._cell)
        self.patch(distortion, "_trial_rng", "distortion.trial_rng")
        self.patch(distortion, "random_instance", "distortion.generate")
        for owner in (distortion, adversarial):
            self.patch(owner, "evaluate", "distortion.evaluate", self._evaluated)
        for owner, attr in ((distortion, "build_line_instance"),
                            (distortion, "build_euclidean_instance"),
                            (distortion, "_line_instance_from_ids"),
                            (adversarial, "build_line_instance"),
                            (mechanisms, "build_line_instance")):
            self.patch(owner, attr, "instances.build")
        self.patch(instances, "ordinal_profile", "instances.profile")
        self.patch(instances.OrdinalProfile, "restrict", "instances.restrict")
        self.patch(distortion, "run", "mechanisms.run")
        self.patch(mechanisms, "_select_in", "mechanisms.select_in")
        self.patch(cli, "parse_mechanism", "mechanisms.parse")
        self.patch(mechanisms, "run_property_checks", "objectives.property_checks")
        self.patch(distortion, "cost_vector", "objectives.cost_vector")
        self.patch(rules, "plurality_matching_rule", "rules.pm", self._pm)
        for cls in (rules.OptimalRule, rules.MedianLineRule,
                    rules.PluralityMatchingRule, rules.DictatorRule,
                    mechanisms.ArbitraryOverRule, mechanisms.LeftmostRepRule,
                    mechanisms.ThresholdSelectRule):
            for attr in ("select_ordinal", "select_cardinal"):
                if attr in vars(cls):
                    self.patch(cls, attr, _rule_step)
        self.patch(cli, "certify_details", "adversarial.certify")
        self.patch(cli, "export_family", "adversarial.export")
        self.patch(cli, "save_instance", "cli.io")
        self.patch(cli, "rows_to_csv", "cli.io")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counters, computed after the span has closed --------------------------

    def _loop_span(self, result, duration, *args, **kwargs):
        self._best = None

    def _cell(self, result, duration, *args, **kwargs):
        self._best = None
        self.cell_seconds.append(duration)

    def _evaluated(self, report, duration, *args, **kwargs):
        self.counts["infinite_ratios"] += report.infinite
        self.counts["zero_cost_optima"] += report.optimal_cost == 0.0
        in_loop = any(frame[1] == "distortion.loop" for frame in self._stack)
        if in_loop and (self._best is None or report.ratio > self._best):
            self.counts["worst_updates"] += 1
            self._best = report.ratio

    def _pm(self, winner, duration, profile):
        tried = int(np.searchsorted(profile.candidates(), winner)) + 1
        self.counts["pm_candidates_tried"] += tried
        self.pm_voters.append(profile.num_voters)
        self.pm_classes.append(len(np.unique(profile.tops)))

    # -- results ----------------------------------------------------------------

    def metrics(self, operations: int, overhead_frac: float) -> dict:
        """Every per-layer metric, normalised per trial or per operation."""
        trials = self.calls["distortion.evaluate"]
        st, calls = self.self_time, self.calls

        def per_trial_us(*names):
            return sum(st[n] for n in names) / trials * 1e6 if trials else 0.0

        def per_op(value):
            return value / operations

        pm_calls = calls["rules.pm"]
        tried = self.counts["pm_candidates_tried"]
        cells = self.cell_seconds
        values = {
            "distortion.trial_rng_us": per_trial_us("distortion.trial_rng"),
            "distortion.generate_self_us": per_trial_us("distortion.generate"),
            "distortion.evaluate_self_us": per_trial_us("distortion.evaluate"),
            "distortion.loop_self_us": per_trial_us("distortion.loop"),
            "distortion.trials": per_op(trials),
            "distortion.infinite_ratios": per_op(self.counts["infinite_ratios"]),
            "distortion.zero_cost_optima": per_op(self.counts["zero_cost_optima"]),
            "distortion.worst_updates": per_op(self.counts["worst_updates"]),
            "instances.build_us": per_trial_us("instances.build"),
            "instances.build_calls": per_op(calls["instances.build"]),
            "instances.profile_us": per_trial_us("instances.profile"),
            "instances.restrict_us": per_trial_us("instances.restrict"),
            "instances.restrict_calls": per_op(calls["instances.restrict"]),
            "mechanisms.run_self_us": per_trial_us("mechanisms.run",
                                                   "mechanisms.select_in"),
            "mechanisms.parse_s": per_op(st["mechanisms.parse"]),
            "mechanisms.parse_calls": per_op(calls["mechanisms.parse"]),
            "rules.in_us": per_trial_us("rules.in"),
            "rules.in_calls": per_op(calls["rules.in"]),
            "rules.over_us": per_trial_us("rules.over"),
            "rules.over_calls": per_op(calls["rules.over"]),
            "rules.pm_us": per_trial_us("rules.pm"),
            "rules.pm_calls": per_op(pm_calls),
            "rules.pm_candidates_tried": tried / pm_calls if pm_calls else 0.0,
            "rules.pm_useful_ratio": pm_calls / tried if tried else 0.0,
            "rules.pm_voters_mean": _mean(self.pm_voters),
            "rules.pm_classes_mean": _mean(self.pm_classes),
            "rules.pm_classes_max": max(self.pm_classes, default=0),
            "objectives.cost_vector_us": per_trial_us("objectives.cost_vector"),
            "objectives.property_checks_s": per_op(st["objectives.property_checks"]),
            "objectives.property_check_calls":
                per_op(calls["objectives.property_checks"]),
            "adversarial.certify_s": per_op(self.total_time["adversarial.certify"]),
            "adversarial.certify_rows": per_op(calls["adversarial.certify"]),
            "adversarial.export_s": per_op(self.total_time["adversarial.export"]),
            "cli.cells": per_op(len(cells)),
            "cli.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "cli.cell_s_max": max(cells, default=0.0),
            "cli.cell_s_sum": per_op(sum(cells)),
            "cli.io_s": per_op(st["cli.io"]),
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit, *_ in LAYER_METRICS}

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, parent id, name, start s, end s."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _rule_step(stack) -> str:
    """In-rule when called from the in-district step, over-rule otherwise."""
    return ("rules.in" if stack and stack[-1][1] == "mechanisms.select_in"
            else "rules.over")


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
