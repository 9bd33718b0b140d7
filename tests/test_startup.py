"""What importing the package and the CLI does to a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orthosfm

ROOT = Path(__file__).resolve().parent.parent

# every name the package root exported when it imported its submodules eagerly
EAGER_EXPORTS = (
    "AmbiguityMember", "Assignment", "BatchResult", "Candidate", "DofBalance",
    "FrameObservation", "Interpretation", "MatchReport", "NoiseSpec", "Point3",
    "RecoveryResult", "RigidMotion", "Scene", "TetraDistances", "TriangleDistances",
    "add_noise", "ambiguity_family", "apply_motion", "b_of_c_coeffs",
    "base_interpretation_from_frames", "collinearity_residual_4pt", "dof_balance",
    "embed_depths", "eq1_residual", "errors", "feasibility_check", "gen_body", "gen_motion",
    "gen_scene", "geometry", "interpretation_from_scene", "match_points",
    "projected_sq_distances", "reference_ambiguity_scene", "render", "residual_5pt",
    "rigidity_score", "scene_sim", "solve_b_given_c", "solve_batch", "solve_p3f3",
    "solve_p3f4", "solve_p4f3", "solvers", "subseed", "two_frame")

# prints what the import left behind; /proc/self/task holds one entry per thread
PROBE = """
import json, os, sys
before = dict(os.environ)
import {module}
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None
print(json.dumps({{"numpy": "numpy" in sys.modules, "environ_unchanged": dict(os.environ) == before,
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "tasks": tasks}}))
"""


# runs one command and prints its exit code and the modules it left loaded
COMMAND_PROBE = """
import contextlib, io, json, sys
from orthosfm import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""


def fresh_run(code, **env):
    """Run code in a new interpreter whose environment has no
    OPENBLAS_NUM_THREADS unless env sets it; return what it printed as JSON."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), base.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**base, **env}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def fresh_import(module, **env):
    return fresh_run(PROBE.format(module=module), **env)


def test_package_import_loads_no_numpy_and_leaves_environment():
    got = fresh_import("orthosfm")
    assert not got["numpy"] and got["environ_unchanged"] and got["blas_threads"] is None


def test_cli_import_runs_one_blas_thread():
    got = fresh_import("orthosfm.cli")
    assert got["numpy"] and got["blas_threads"] == "1"
    if sys.platform.startswith("linux"):
        assert got["tasks"] == 1


def test_cli_keeps_callers_blas_threads():
    assert fresh_import("orthosfm.cli", OPENBLAS_NUM_THREADS="2")["blas_threads"] == "2"


def test_eager_exports_still_resolve():
    for name in EAGER_EXPORTS:
        namespace = {}
        exec(f"from orthosfm import {name}", namespace)
        assert namespace[name] is getattr(orthosfm, name), name
        assert name in orthosfm.__all__ and name in dir(orthosfm), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orthosfm.no_such_name  # noqa: B018


@pytest.fixture(scope="module")
def frames_files(tmp_path_factory):
    """A 3-point 4-frame file to recover from and a 5-point 2-frame file to match."""
    from orthosfm import cli

    tmp = tmp_path_factory.mktemp("frames")
    for name, points, frames in (("recover", 3, 4), ("match", 5, 2)):
        assert cli.main(["simulate", "--points", str(points), "--frames", str(frames),
                         "--seed", "3", "--out", str(tmp / name)]) == 0
    return {name: str(tmp / f"{name}.frames.csv") for name in ("recover", "match")}


# each command, and the layers it must not load
COMMANDS = {
    "noise-study": (["noise-study", "--trials", "3", "--levels", "0.01"],
                    ("orthosfm.two_frame", "orthosfm.io_files")),
    "dof": (["dof", "--points", "3", "--frames", "3"],
            ("orthosfm.two_frame", "orthosfm.io_files", "orthosfm.scene_sim")),
    "recover": (["recover", "{recover}"], ("orthosfm.two_frame", "orthosfm.scene_sim")),
    "simulate": (["simulate", "--points", "3", "--frames", "2", "--out", "{tmp}/scene"],
                 ("orthosfm.two_frame", "orthosfm.solvers")),
    "match": (["match", "--unlabeled", "{match}"], ("orthosfm.scene_sim", "orthosfm.solvers")),
    "match-labeled": (["match", "{match}"], ("orthosfm.scene_sim", "orthosfm.solvers")),
    "ambiguity": (["ambiguity", "{match}"], ("orthosfm.scene_sim", "orthosfm.solvers")),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_the_layers_it_runs(command, frames_files, tmp_path):
    argv, absent = COMMANDS[command]
    argv = [arg.format(tmp=tmp_path, **frames_files) for arg in argv]
    got = fresh_run(COMMAND_PROBE.format(argv=argv))
    assert got["code"] == 0
    assert not set(absent) & set(got["modules"])
