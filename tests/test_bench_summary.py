"""tools/bench_summary.py on made-up result.json files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}


def result(seed, ops, p50, trace=0, per_layer=None):
    run = {"workload": "noise-study", "seed": seed, "trace": trace, "failed": 0,
           "correct": True, "environment": {"nproc": 2},
           "end_to_end": {"ops_per_s": {"value": ops}, "latency_p50_ms": {"value": p50}}}
    if per_layer is not None:
        run["per_layer"] = per_layer
    return run


def test_pairs_by_seed_and_groups_by_hundred():
    before = [result(s, 10.0 + s % 100, 100.0) for s in (1, 2, 3, 101)]
    after = [result(s, 20.0, 100.0 - s) for s in (1, 2, 3, 101)] + [result(4, 1.0, 1.0)]
    record = bench_summary.summarize("x", before, after, SPEC)
    group = record["groups"]["noise-study seeds 1-4"]
    assert group["before"]["runs"] == 3 and group["after"]["seeds"] == [1, 2, 3, 4]
    ops = group["end_to_end"]["ops_per_s"]
    assert ops["pairs"] == {"won": 3, "lost": 0, "tied": 0}
    assert ops["before"] == {"median": 12.0, "q1": 11.5, "q3": 12.5}
    assert ops["median_gain_exceeds_before_iqr"]
    p50 = group["end_to_end"]["latency_p50_ms"]
    assert p50["pairs"]["won"] == 3 and p50["relative_change"] == pytest.approx(97.5 / 100 - 1)
    assert record["groups"]["noise-study seeds 101-101"]["end_to_end"]["ops_per_s"]["pairs"]["won"] == 1


def test_gain_rule_and_bound():
    # ops_per_s: 9 of 10 pairs won by far more than the before IQR;
    # latency_p50_ms: 30% worse against a bound of 25%
    before = [result(s, 10.0 + s / 10, 100.0) for s in range(1, 11)]
    after = [result(s, 9.0 if s == 1 else 20.0, 130.0) for s in range(1, 11)]
    metrics = bench_summary.summarize("x", before, after, SPEC)["groups"][
        "noise-study seeds 1-10"]["end_to_end"]
    ops, p50 = metrics["ops_per_s"], metrics["latency_p50_ms"]
    assert ops["pairs"]["won"] == 9 and ops["gain_rule_met"] and not ops["beyond_bound"]
    assert p50["beyond_bound"] and not p50["gain_rule_met"]
    # 8 of 10 pairs won misses the rule however large the gain; a gain the
    # before IQR covers misses it however many pairs are won
    after[1] = result(2, 9.0, 100.0)
    eight = bench_summary.summarize("x", before, after, SPEC)["groups"][
        "noise-study seeds 1-10"]["end_to_end"]
    assert eight["ops_per_s"]["pairs"]["won"] == 8 and not eight["ops_per_s"]["gain_rule_met"]
    close = [result(s, 10.0 + s / 10 + 0.05, 80.0) for s in range(1, 11)]
    near = bench_summary.summarize("x", before, close, SPEC)["groups"][
        "noise-study seeds 1-10"]["end_to_end"]
    assert near["ops_per_s"]["pairs"]["won"] == 10 and not near["ops_per_s"]["gain_rule_met"]
    assert near["latency_p50_ms"]["gain_rule_met"] and not near["latency_p50_ms"]["beyond_bound"]


def test_traced_runs_report_unreached_spans(tmp_path, capsys):
    layers = [{"a.us": {"value": 5.0, "reached": True}, "b.us": {"value": 0, "reached": False}},
              {"a.us": {"value": 2.0, "reached": True}, "b.us": {"value": 3.0, "reached": True}}]
    paths = []
    for side, layer in zip(("before", "after"), layers):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(result(11, 1.0, 1.0, trace=1, per_layer=layer)))
        paths.append(str(path))
    assert bench_summary.main(["--label", "t", "--before", paths[0], "--after", paths[1]]) == 0
    per_layer = json.loads(capsys.readouterr().out)["groups"]["noise-study traced seeds 11-11"]["per_layer"]
    assert per_layer == {"before": {"a.us": 5.0, "b.us": "not reached"},
                         "after": {"a.us": 2.0, "b.us": 3.0}}
