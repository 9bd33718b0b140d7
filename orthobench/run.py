"""Benchmark of the orthosfm command-line program.

    python3 orthobench/run.py --workload cli --seed 1 --seconds 35 --trace 0

Runs one workload (cli, noise-study or match; ``all`` runs the three in turn)
as a closed loop with one client: each op is a real ``python -m orthosfm.cli``
subprocess, interpreter start-up included, started only after the previous one
ended, and checked against ground truth generated at set-up from --seed.  Set-up
(input generation plus one warm-up command) is repeated three times and its
median reported as setup_s.

With --trace 0 the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics, the metrics being the end-to-end
ones of BENCHMARK.json.  With --trace 1 every op runs twice, alternately
untraced and through trace_entry.py, the metrics are the per-layer ones, and the
gap between the two is reported as trace.overhead_pct.  The environment, the
per-kind latencies, the span file and the per-layer summary are written under
.orthobench/ in the checkout.  --smoke runs one cycle of each workload at tiny
size.  On cli, the known-defect probe (recover p3f3 at scale 1e-3, which the
program mostly refuses) runs after set-up and outside the timed loop; its
refusals are reported apart from ``failed``.  See NOTES.md for what each metric
measures and which layer moves it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads
from layers import LayerStats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".orthobench"
TRACE_ENTRY = Path(__file__).resolve().parent / "trace_entry.py"
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60
PROBE_MODE, PROBE_SCALE = workloads.DEFECT_CASE
PROBE_METRIC = f"solvers.solve_{PROBE_MODE}.refused_at_scale_{PROBE_SCALE:g}"


class Sample:
    """One op's measurement: wall and cpu time of its process, its peak
    resident set, and its checked outcome."""

    def __init__(self, op, cycle, wall_ns, usage, verdict, traced):
        self.kind, self.units, self.cycle, self.traced = op.kind, op.units, cycle, traced
        self.wall_s = wall_ns / 1e9
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024   # ru_maxrss is in KiB on Linux
        self.verdict = verdict


class Runner:
    """Starts ops as subprocesses of the program under test."""

    def __init__(self, work: Path, stats: LayerStats | None = None, spans_out=None):
        """Traced ops add their spans to ``stats`` and write them to ``spans_out``."""
        self.work = work
        self.stats = stats
        self.spans_out = spans_out
        self.n_ops = 0
        self.env = {k: v for k, v in os.environ.items() if k != "ORTHOSFM_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, op, cycle: int = 0, traced: bool = False) -> Sample:
        self.n_ops += 1
        out_path, err_path = self.work / "op.stdout", self.work / "op.stderr"
        spans_path = self.work / "op.spans.json"
        with open(out_path, "w+", encoding="utf-8") as out, \
                open(err_path, "w+", encoding="utf-8") as err:
            start = time.monotonic_ns()
            if traced:
                prefix = [sys.executable, str(TRACE_ENTRY), str(spans_path),
                          str(self.n_ops), str(start), "--"]
            else:
                prefix = [sys.executable, "-m", "orthosfm.cli"]
            proc = subprocess.Popen(prefix + op.argv, stdout=out, stderr=err,
                                    cwd=self.work, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall_ns = time.monotonic_ns() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            outcome = workloads.Outcome(proc.returncode, out.read(), err.read())
        try:
            verdict = op.check(outcome)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            verdict = workloads.Verdict(failed=op.units,
                                        wrong=f"{op.kind}: unreadable output ({exc!r})")
        if traced:
            self._collect_spans(spans_path)
        return Sample(op, cycle, wall_ns, usage, verdict, traced)

    def _collect_spans(self, path: Path):
        if not path.exists():
            return
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        self.stats.add_op(doc["spans"])
        for span_id, parent, name, start, end, error, attrs in doc["spans"]:
            self.spans_out.write(json.dumps(
                {"op": doc["op"], "id": span_id, "parent": parent, "name": name,
                 "start_ns": start, "end_ns": end, "error": error, "attrs": attrs}) + "\n")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"sha": git_out("rev-parse", "HEAD") or None,
               "dirty": bool(git_out("status", "--porcelain"))}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "git": git,
            "loadavg_before": list(os.getloadavg())}


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(samples, setup_s: float) -> dict:
    """Throughput and cpu time are medians over cycles, so that one scene
    far costlier than the rest moves them no more than one cycle's worth."""
    cycles: dict = {}
    for s in samples:
        cycles.setdefault(s.cycle, []).append(s)
    units = [sum(s.units for s in c) for c in cycles.values()]
    wall = [sum(s.wall_s for s in c) for c in cycles.values()]
    cpu = [sum(s.cpu_s for s in c) for c in cycles.values()]
    latencies_ms = [s.wall_s * 1e3 for s in samples]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(u / w for u, w in zip(units, wall)), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (quantile(latencies_ms, 0.9), "ms"),
        "cpu_ms_per_op": (statistics.median(1e3 * c / u for c, u in zip(cpu, units)), "ms"),
        "peak_rss_mb": (max(s.rss_mib for s in samples), "MiB"),
    }


def by_kind(samples) -> dict:
    kinds: dict = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s)
    return {kind: {"n": len(group),
                   "latency_p50_ms": statistics.median(s.wall_s * 1e3 for s in group),
                   "failed": sum(s.verdict.failed for s in group),
                   "units": sum(s.units for s in group)}
            for kind, group in sorted(kinds.items())}


def setup(name: str, seed: int, work: Path, size, repeats: int):
    """Generate the inputs and run one warm-up command, ``repeats`` times;
    returns the workload and the median set-up time."""
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        shutil.rmtree(work, ignore_errors=True)
        workload = workloads.Workload(name, seed, work, size)
        Runner(work).run(workload.cycle(0)[0])
        times.append(time.monotonic() - start)
    return workload, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    size = workloads.SMOKE if smoke else workloads.FULL
    run_dir = OUT / f"{name}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    env = environment()
    workload, setup_s = setup(name, seed, work, size, 1 if smoke else SETUP_REPEATS)
    probe = [Runner(work).run(op).verdict for op in workload.probe]

    samples = []
    cycle = 0
    spans_path = run_dir / "spans.jsonl" if trace else os.devnull
    with open(spans_path, "w", encoding="utf-8") as spans_out:
        runner = Runner(work, LayerStats() if trace else None, spans_out)
        start = time.monotonic()
        while True:
            for op in workload.cycle(cycle):
                # alternate which side runs first, so drift hits both alike
                order = (False, True) if cycle % 2 == 0 else (True, False)
                for traced in (order if trace else (False,)):
                    samples.append(runner.run(op, cycle, traced))
            cycle += 1
            if smoke or time.monotonic() - start >= seconds:
                break
    elapsed = time.monotonic() - start
    env["loadavg_after"] = list(os.getloadavg())

    plain = [s for s in samples if not s.traced]
    wrong = [v.wrong for v in probe + [s.verdict for s in samples] if v.wrong]
    attempted = sum(s.units for s in samples)
    failed = sum(s.verdict.failed for s in samples)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "environment": env, "cycles": cycle, "elapsed_s": elapsed,
        "commands": len(samples), "correct": not wrong, "wrong": wrong[:20],
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end(plain, setup_s).items()},
        "by_kind": by_kind(plain),
    }
    if probe:
        result["defect_probe"] = {
            "case": f"recover {PROBE_MODE} at scale {PROBE_SCALE:g}",
            "scenes": len(probe), "refused": sum(v.failed for v in probe)}
    if name == "noise-study":
        failures: dict = {}
        for s in plain:
            row = failures.setdefault(s.kind, [0] * len(workloads.NOISE_LEVELS))
            failures[s.kind] = [a + b for a, b in zip(row, s.verdict.extra.get("failures", row))]
        result["noise_failures"] = {"levels": list(workloads.NOISE_LEVELS),
                                    "trials_per_level": sum(s.units for s in plain) //
                                    len(workloads.NOISE_LEVELS) // len(failures),
                                    "failures": failures}
        first = [s.verdict.extra["p95_at_0.01"] for s in plain[:3]
                 if "p95_at_0.01" in s.verdict.extra]
        result["rel_error_p95"] = max(first) if len(first) == 3 else None
    if trace:
        traced = [s for s in samples if s.traced]
        overhead = 100.0 * (sum(s.wall_s for s in traced) / sum(s.wall_s for s in plain) - 1)
        units = sum(s.units for s in traced)
        layer = runner.stats.metrics(units, overhead)
        refused = result.get("defect_probe", {}).get("refused", 0)
        layer[PROBE_METRIC] = (refused / len(probe) if probe else 0, "ratio", bool(probe))
        result["per_layer"] = {k: {"value": v, "unit": u, "reached": r}
                               for k, (v, u, r) in layer.items()}
        result["spans_by_name"] = runner.stats.table(units)
        (run_dir / "layers.json").write_text(
            json.dumps({k: result[k] for k in ("workload", "seed", "per_layer",
                                                "spans_by_name")}, indent=2) + "\n",
            encoding="utf-8")
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n",
                                         encoding="utf-8")
    return result


def print_result(result: dict):
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{result['commands']} commands in {result['cycles']} cycles, "
          f"{result['elapsed_s']:.1f} s, correct={result['correct']}")
    env = result["environment"]
    print(f"   python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}, git {env['git']['sha']} dirty={env['git']['dirty']}, "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    for key, metric in result["end_to_end"].items():
        print(f"   {key:<24} {metric['value']:>14.6g} {metric['unit']}")
    print(f"   {'error_rate':<24} {result['error_rate']:>14.6g} "
          f"({result['failed']} of {result['attempted']} ops failed)")
    if "defect_probe" in result:
        probe = result["defect_probe"]
        print(f"   known defect, untimed: {probe['case']} refused on {probe['refused']} "
              f"of {probe['scenes']} scenes")
    if "noise_failures" in result:
        study = result["noise_failures"]
        for kind, row in study["failures"].items():
            print(f"   {kind} solver failures at levels {','.join(study['levels'])}: "
                  f"{row} of {study['trials_per_level']} trials each")
    if "rel_error_p95" in result:
        print(f"   {'rel_error_p95':<24} {result['rel_error_p95']!r:>14}")
    for kind, row in result["by_kind"].items():
        print(f"   kind {kind:<22} n={row['n']:<4} p50 {row['latency_p50_ms']:9.2f} ms"
              f"  failed {row['failed']}/{row['units']}")
    for key, metric in result.get("per_layer", {}).items():
        shown = (f"{metric['value']:>14.6g} {metric['unit']}" if metric["reached"]
                 else f"{'not reached':>14} ({metric['unit']})")
        print(f"   {key:<56} {shown}")
    for text in result["wrong"]:
        print(f"   WRONG: {text}")


def summary_line(results, prefix: bool) -> dict:
    metrics = {}
    for result in results:
        section = result["per_layer"] if result["trace"] else result["end_to_end"]
        for key, metric in section.items():
            name = f"{result['workload']}.{key}" if prefix else key
            metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle at tiny size, to check names and outputs")
    args = parser.parse_args(argv)
    if not (SRC / "orthosfm" / "cli.py").is_file():
        print(f"error: no orthosfm sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    args.smoke))
        print_result(results[-1])
    print(json.dumps(summary_line(results, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
