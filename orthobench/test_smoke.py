"""Smoke tests of the benchmark: every workload at tiny size.

    python3 -m pytest -q orthobench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "orthobench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_follows_the_format():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "orthobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


@pytest.mark.parametrize("workload", ("cli", "match"))
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    def files(seed, where):
        workloads.Workload(workload, seed, where, workloads.SMOKE)
        return {p.name: p.read_bytes() for p in where.iterdir()}

    assert files(5, tmp_path / "a") == files(5, tmp_path / "b")
    assert files(5, tmp_path / "a") != files(6, tmp_path / "c")


def _recover_check(tmp_path):
    ops = workloads.Workload("cli", 1, tmp_path, workloads.SMOKE).cycle(0)
    return next(op for op in ops if op.kind == "recover-p3f4-1")


def test_checks_separate_refusals_from_wrong_answers(tmp_path):
    op = _recover_check(tmp_path)
    degenerate = op.check(workloads.Outcome(3, '{"status": "degenerate"}', ""))
    assert degenerate.failed == 1 and degenerate.wrong is None
    report = {"candidates": [{"lengths_sq": {"a_sq": 1.0, "b_sq": 1.0, "c_sq": 1.0},
                              "feasible": True}]}
    assert op.check(workloads.Outcome(0, json.dumps(report), "")).wrong
    assert op.check(workloads.Outcome(1, "", "Traceback (most recent call last)")).wrong
    assert op.check(workloads.Outcome(-9, "", "")).wrong


def test_non_rigid_pair_must_be_refused():
    accepted = workloads.Outcome(0, '{"assignment": {}}', "")
    refused = workloads.Outcome(2, '{"status": "no_consistent_assignment"}', "")
    assert workloads._check_non_rigid(accepted).wrong
    verdict = workloads._check_non_rigid(refused)
    assert verdict.failed == 0 and verdict.wrong is None


def test_known_defect_runs_outside_the_timed_loop(tmp_path):
    wl = workloads.Workload("cli", 1, tmp_path, workloads.SMOKE)
    mode, scale = workloads.DEFECT_CASE
    kind = f"recover-{mode}-{scale:g}"
    assert kind not in {op.kind for op in wl.cycle(0)}
    assert [op.kind for op in wl.probe] == [kind]


def test_noise_study_counts_only_noise_free_failures():
    check = workloads._check_noise_study(5)
    header = "level,trials,failures,median_rel_error,mean_rel_error,p95_rel_error\n"

    def study(failures):
        return workloads.Outcome(0, header + "".join(
            f"{level},5,{f},1e-16,1e-16,1e-16\n"
            for level, f in zip(workloads.NOISE_LEVELS, failures)), "")

    noisy = check(study([0, 1, 2, 3]))
    assert noisy.failed == 0 and noisy.wrong is None
    assert noisy.extra["failures"] == [0, 1, 2, 3]
    assert check(study([1, 0, 0, 0])).failed == 1
