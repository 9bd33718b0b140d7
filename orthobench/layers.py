"""Per-layer metrics from the spans that trace_entry.py writes.

A span's self time is its duration minus the time its child spans cover.
Counts are divided by the ops of the traced run (commands for cli and match,
trials for noise-study), so runs of different length compare.  Medians are
upper medians, so each is one measured call: cli writes one large and one
small scene per cycle, and the mean of those two would describe neither.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SOLVERS = ("solve_p3f3", "solve_p3f4", "solve_p4f3")
MATCH_SIZES = (4, 5, 6, 8)
RESIDUAL = "two_frame.collinearity_residual_4pt"


class LayerStats:
    """Accumulates spans op by op, keeping per-name aggregates only."""

    def __init__(self):
        self.self_ns = defaultdict(list)     # name -> self time per call
        self.errors = defaultdict(int)       # name -> calls that raised
        self.no_solution = defaultdict(int)  # name -> calls that raised NoSolutionError
        self.attrs = defaultdict(lambda: defaultdict(float))   # name -> summed attrs
        self.bytes = defaultdict(list)       # name -> bytes per call
        self.match_ns = defaultdict(list)    # n -> match_points inclusive time
        self.residual_in_match = 0
        self.assignments = 0

    def add_op(self, spans):
        by_id = {s[0]: s for s in spans}
        child_ns = defaultdict(int)
        for _, parent, _, start, end, _, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for span_id, parent, name, start, end, error, attrs in spans:
            self.self_ns[name].append(end - start - child_ns[span_id])
            if error:
                self.errors[name] += 1
                self.no_solution[name] += error == "NoSolutionError"
            for key, value in (attrs or {}).items():
                self.attrs[name][key] += value
            if attrs and "bytes" in attrs:
                self.bytes[name].append(attrs["bytes"])
            if name == "two_frame.match_points" and attrs:
                n = attrs["n"]
                self.match_ns[n].append(end - start)
                self.assignments += n * (n - 1) * (n - 2) * (n - 3)
            if name == RESIDUAL and self._under(by_id, parent, "two_frame.match_points"):
                self.residual_in_match += 1

    @staticmethod
    def _under(by_id, parent, name) -> bool:
        while parent is not None:
            if by_id[parent][2] == name:
                return True
            parent = by_id[parent][1]
        return False

    def calls(self, name) -> int:
        return len(self.self_ns.get(name, ()))

    def table(self, units: int) -> dict:
        """Count, raised errors and self time of every span name."""
        return {name: {"calls": len(ns), "calls_per_op": len(ns) / units,
                       "errors": self.errors[name],
                       "self_us_median": statistics.median_high(ns) / 1e3,
                       "self_ms_total": sum(ns) / 1e6}
                for name, ns in sorted(self.self_ns.items())}

    def metrics(self, units: int, overhead_pct: float) -> dict:
        """{name: (value, unit, reached)} for every per-layer metric."""
        out = {}

        def median(key, values, scale, unit):
            out[key] = ((statistics.median_high(values) / scale, unit, True) if values
                        else (0, unit, False))

        def self_time(key, name, scale, unit):
            median(key, self.self_ns.get(name), scale, unit)

        def per_op(key, count, reached):
            out[key] = (count / units, "1/op", reached)

        def ratio(key, num, den, unit="ratio"):
            out[key] = (num / den, unit, True) if den else (0, unit, False)

        self_time("python.start_ms", "python.start", 1e6, "ms")
        self_time("cli.import_ms", "cli.import", 1e6, "ms")
        self_time("cli.self_ms", "cli.main", 1e6, "ms")
        for fn in ("frames_from_csv", "frames_to_csv"):
            name = "io_files." + fn
            self_time(name + ".ms", name, 1e6, "ms")
            median(name + ".kb", self.bytes.get(name), 1024, "KiB")
        for fn in ("scene_to_json", "report_to_json"):
            self_time(f"io_files.{fn}.ms", "io_files." + fn, 1e6, "ms")
        for name in ("geometry.projected_sq_distances", "scene_sim.gen_scene"):
            per_op(name + ".calls", self.calls(name), self.calls(name) > 0)
        for name in ("geometry.projected_sq_distances", "scene_sim.gen_scene",
                     "scene_sim.render", "scene_sim.add_noise"):
            self_time(name + ".us", name, 1e3, "us")
        candidates = feasible = 0
        for fn in SOLVERS:
            name = "solvers." + fn
            per_op(name + ".calls", self.calls(name), self.calls(name) > 0)
            self_time(name + ".us", name, 1e3, "us")
            per_op(name + ".failed", self.errors[name], self.calls(name) > 0)
            candidates += self.attrs[name]["candidates"]
            feasible += self.attrs[name]["feasible"]
        p3f3 = "solvers.solve_p3f3"
        ratio(p3f3 + ".candidates_per_call", self.attrs[p3f3]["candidates"],
              self.calls(p3f3) - self.errors[p3f3], "1/call")
        ratio("solvers.feasible_ratio", feasible, candidates)
        for n in MATCH_SIZES:
            median(f"two_frame.match_points.ms_n{n}", self.match_ns.get(n), 1e6, "ms")
        per_op("two_frame.match_points.assignments", self.assignments, self.assignments > 0)
        residuals = self.calls(RESIDUAL)
        per_op(RESIDUAL + ".calls", residuals, residuals > 0)
        self_time(RESIDUAL + ".us", RESIDUAL, 1e3, "us")
        ratio(RESIDUAL + ".calls_per_assignment", self.residual_in_match,
              self.assignments, "1/assignment")
        ratio(RESIDUAL + ".ok_ratio", residuals - self.no_solution[RESIDUAL], residuals)
        for fn in ("rigidity_score", "base_interpretation_from_frames", "ambiguity_family"):
            self_time(f"two_frame.{fn}.us", "two_frame." + fn, 1e3, "us")
        calls = self.calls("two_frame.residual_5pt")
        per_op("two_frame.residual_5pt.calls", calls, calls > 0)
        out["trace.overhead_pct"] = (overhead_pct, "%", True)
        return out
