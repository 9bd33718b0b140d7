"""Summarize orthobench runs of two commits as one before/after record.

    python3 tools/bench_summary.py --label 6 \
        --before parent/*.json --after change/*.json > BENCH_6.json

Each file is a result.json written by ``orthobench/run.py`` (under
``.orthobench/<workload>-trace<N>/``; copy it away after each run, because
the next run of that workload overwrites it).  Untraced runs are grouped by
workload and by hundred of their seed, so a recheck on seeds 101-110 stays
apart from seeds 1-10.  For every group and every end-to-end metric of
BENCHMARK.json the record holds the median and quartiles of each side,
over the runs paired by seed how many pairs the after side won, and two
verdicts: gain_rule_met (at least 9 in 10 pairs won, ties counting for
neither, and a median gain larger than the before side's interquartile
range) and beyond_bound (the median worse by more than the metric's bound).
Traced runs give each side's median of every per-layer metric, or "not
reached".  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _end_to_end(before, after, spec):
    by_seed = {r["seed"]: r for r in before}
    pairs = [(by_seed[r["seed"]], r) for r in after if r["seed"] in by_seed]
    metrics = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old = [r["end_to_end"][name]["value"] for r in before]
        new = [r["end_to_end"][name]["value"] for r in after]
        gains = [sign * (b["end_to_end"][name]["value"] - a["end_to_end"][name]["value"])
                 for a, b in pairs]
        old_spread, new_spread = _spread(old), _spread(new)
        change = new_spread["median"] / old_spread["median"] - 1.0
        won = sum(g > 0 for g in gains)
        exceeds = (sign * (new_spread["median"] - old_spread["median"])
                   > old_spread["q3"] - old_spread["q1"])
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "before": old_spread, "after": new_spread,
            "relative_change": change,
            "pairs": {"won": won, "lost": sum(g < 0 for g in gains),
                      "tied": sum(g == 0 for g in gains)},
            "median_gain_exceeds_before_iqr": exceeds,
            "gain_rule_met": bool(gains) and 10 * won >= 9 * len(gains) and exceeds,
            "beyond_bound": -sign * change > metric["bound"],
        }
    return metrics


def _per_layer(runs):
    names = {}
    for r in runs:
        for name, metric in r["per_layer"].items():
            names.setdefault(name, []).append(metric["value"] if metric["reached"] else None)
    return {name: (statistics.median(v) if None not in v else "not reached")
            for name, v in names.items()}


def _side(runs):
    return {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs)}


def summarize(label, before, after, spec) -> dict:
    groups = {}
    for side, runs in (("before", before), ("after", after)):
        for r in runs:
            key = (r["workload"], r["trace"], 0 if r["trace"] else r["seed"] // 100)
            groups.setdefault(key, {"before": [], "after": []})[side].append(r)
    machine = {k: v for k, v in (before or after)[0]["environment"].items()
               if k in ("python", "numpy", "nproc", "cpu_model", "platform")}
    record = {"label": label, "machine": machine, "groups": {}}
    for (workload, trace, _), sides in sorted(groups.items()):
        old, new = sides["before"], sides["after"]
        seeds = sorted({r["seed"] for r in old + new})
        name = f"{workload}{' traced' if trace else ''} seeds {seeds[0]}-{seeds[-1]}"
        if not old or not new:
            raise SystemExit(f"error: {name} has runs on one side only")
        entry = {"before": _side(old), "after": _side(new)}
        if trace:
            entry["per_layer"] = {"before": _per_layer(old), "after": _per_layer(new)}
        else:
            entry["end_to_end"] = _end_to_end(old, new, spec)
        record["groups"][name] = entry
    return record


def _load(paths) -> list:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the change, e.g. its number")
    parser.add_argument("--before", nargs="+", required=True, help="result.json files")
    parser.add_argument("--after", nargs="+", required=True, help="result.json files")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    record = summarize(args.label, _load(args.before), _load(args.after), spec)
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
