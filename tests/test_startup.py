"""What importing the package and the CLI does to a fresh process, and what
running the CLI as a program does that calling cli.main does not."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orthosfm

ROOT = Path(__file__).resolve().parent.parent

# every name the package root exported when it imported its submodules eagerly,
# less the per-point body types (AmbiguityMember, Point3, apply_motion) that
# bodies as arrays replaced, and the per-candidate and length types (Candidate,
# RecoveryResult, TriangleDistances, TetraDistances) and eq1_residual that
# lengths as arrays replaced, and the motion and noise types (RigidMotion,
# NoiseSpec) that motions as arrays and add_noise's level and seed replaced
EAGER_EXPORTS = (
    "BatchResult", "DofBalance",
    "FrameObservation", "Interpretation", "MatchReport",
    "Scene",
    "add_noise", "ambiguity_family", "b_of_c_coeffs",
    "base_interpretation_from_frames", "collinearity_residual_4pt", "dof_balance",
    "embed_depths", "errors", "feasibility_check", "gen_body", "gen_motion",
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


# runs one command and prints its exit code, the modules it left loaded, and
# the collector's state (enabled, frozen objects) after the import and after
# the command; printing at all shows that cli.main returned
COMMAND_PROBE = """
import contextlib, gc, io, json, sys
from orthosfm import cli
imported = [gc.isenabled(), gc.get_freeze_count()]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "modules": sorted(sys.modules),
                  "gc": [imported, [gc.isenabled(), gc.get_freeze_count()]]}}))
"""


def child_env(base):
    """base with this checkout's src first on PYTHONPATH."""
    return {**base, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), base.get("PYTHONPATH")) if p)}


def fresh_run(code, **env):
    """Run code in a new interpreter whose environment has no
    OPENBLAS_NUM_THREADS unless env sets it; return what it printed as JSON."""
    base = child_env({k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"})
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
    # np.median and np.percentile would load it to test for masked arrays
    assert "numpy.ma" not in got["modules"]


def test_library_use_leaves_the_collector_and_the_exit_alone():
    got = fresh_run(COMMAND_PROBE.format(argv=["dof", "--points", "3", "--frames", "3"]))
    assert got["code"] == 0
    assert got["gc"] == [[True, 0], [True, 0]]


# a report's timing_s differs from run to run
TIMING = re.compile(rb'"timing_s": [-+.0-9eE]+')


def run_program(argv, cwd, **kwargs):
    """python -m orthosfm.cli argv in a new process, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "orthosfm.cli", *argv],
                          cwd=cwd, env=child_env(dict(os.environ)), timeout=120, **kwargs)


def files_under(path):
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def run_both(argv, tmp_path, monkeypatch, capsysbinary):
    """Run argv as a program and through cli.main, each in its own empty
    directory; assert that both wrote the same stdout, stderr and files and
    ended with the same code, and return that code."""
    from orthosfm import cli

    program, library = tmp_path / "program", tmp_path / "library"
    program.mkdir()
    library.mkdir()
    proc = run_program(argv, program, capture_output=True)
    monkeypatch.chdir(library)
    capsysbinary.readouterr()
    code = cli.main(argv)
    out, err = capsysbinary.readouterr()
    assert proc.returncode == code, proc.stderr
    assert TIMING.sub(b"", proc.stdout) == TIMING.sub(b"", out)
    assert proc.stderr == err
    assert files_under(program) == files_under(library)
    return code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_program_writes_what_main_writes(command, frames_files, tmp_path, monkeypatch,
                                         capsysbinary):
    argv = [arg.format(tmp=".", **frames_files) for arg in COMMANDS[command][0]]
    assert run_both(argv, tmp_path, monkeypatch, capsysbinary) == 0


def non_rigid_pair():
    """A 4-point pair whose second frame moves each point off the rigid
    image: no assignment is rigid."""
    import numpy as np

    from orthosfm import geometry, scene_sim

    frame1, frame2 = scene_sim.render(scene_sim.gen_scene(4, 2, 5))
    shift = np.random.default_rng(0).uniform(0.3, 0.6, (4, 2))
    return [frame1, geometry.FrameObservation(frame2.labels, frame2.coords() + shift)]


@pytest.mark.parametrize("case, expected", [("malformed", 1), ("non-rigid", 2),
                                            ("collinear", 3)])
def test_exit_codes_survive_the_early_exit(case, expected, tmp_path, monkeypatch,
                                           capsysbinary):
    from conftest import collinear_gauge_pair
    from orthosfm import io_files

    frames = tmp_path / "frames.csv"
    if case == "malformed":
        argv = ["recover", "--mode", "p9f9", str(frames)]
    elif case == "non-rigid":
        frames.write_text(io_files.frames_to_csv(non_rigid_pair()), encoding="utf-8")
        argv = ["match", "--unlabeled", str(frames)]
    else:
        frames.write_text(io_files.frames_to_csv(collinear_gauge_pair(0)), encoding="utf-8")
        argv = ["match", str(frames)]
    assert run_both(argv, tmp_path, monkeypatch, capsysbinary) == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [["dof", "--points", "3", "--frames", "3"],
                                  ["noise-study", "--trials", "3", "--levels", "0.01"]])
def test_full_stdout_is_one_input_error(argv, buffered, tmp_path, monkeypatch):
    # buffered, the write succeeds and the final flush fails; unbuffered,
    # the write itself fails inside cli.main
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "w") as full:
        proc = run_program(argv, tmp_path, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "No space left" in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
@pytest.mark.parametrize("argv", [["dof", "--points", "3", "--frames", "3"],
                                  ["simulate", "--points", "3", "--frames", "2",
                                   "--out", "scene"]])
def test_closed_stdout_still_exits_0(argv, tmp_path):
    # with fd 1 closed, sys.stdout is None and print writes nothing
    proc = run_program(argv, tmp_path, stderr=subprocess.PIPE, text=True,
                       preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
@pytest.mark.parametrize("command", ["recover", "match", "noise-study", "ambiguity"])
def test_closed_stdout_drops_the_report_and_exits_0(command, frames_files, tmp_path):
    # each of these writes its report to stdout, which print skips when
    # sys.stdout is None
    argv = [arg.format(tmp=".", **frames_files) for arg in COMMANDS[command][0]]
    proc = run_program(argv, tmp_path, stderr=subprocess.PIPE, text=True,
                       preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
