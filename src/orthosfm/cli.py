"""Command-line interface.

Subcommands: recover, match, simulate, noise-study, ambiguity, dof.

Exit codes are a stable contract: 0 success, 1 input error, 2 no
solution/assignment, 3 degenerate input.  All randomized commands are
reproducible from --seed alone (env ORTHOSFM_SEED is the fallback).

numpy runs with one OpenBLAS thread unless OPENBLAS_NUM_THREADS is already
set: the systems solved here are far too small for BLAS to split, and an idle
worker thread only burns CPU.  Importing the library (``import orthosfm``)
leaves the environment alone; only this module sets the default.

Each command imports the layers it runs when it runs (only match and
ambiguity load two_frame; only recover and noise-study load solvers;
noise-study and dof load no io_files), and reaches their functions through
the module at call time, so a wrapped function is the one that runs.

Run as a program (``python -m orthosfm.cli``), each command is one short
process, and it acts as one.  The cyclic garbage collector is off while the
imports load; the import-time heap is then frozen (gc.freeze), so that no
later collection walks it again, and the collector is back on before the
command runs.  When the command returns, stdout and stderr are flushed, a
failed flush being an input error like any other failed write, and the
process ends with os._exit: the interpreter's teardown and final
collections are skipped.  Anything that buffers output of its own must be
flushed in _finish too, or it is lost.  Importing this module does none of
this: the collector and the exit are left alone.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time

if __name__ == "__main__":
    gc.disable()  # turned back on, over a frozen heap, once the imports are in

# before numpy loads: OpenBLAS reads this once, when it starts its pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .errors import (  # noqa: E402
    DegenerateBasisError,
    DegenerateEliminationError,
    InvalidInputError,
    NoConsistentAssignmentError,
    NoSolutionError,
    OrthoSfmError,
    SingularSystemError,
)
from .geometry import (  # noqa: E402
    DEFAULT_RIGIDITY_TOL,
    DEFAULT_TOL,
    check_tolerance,
    dof_balance,
    projected_sq_distances,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_DEGENERATE = 3


def _default_seed(value) -> int:
    """--seed if given, else ORTHOSFM_SEED if set, else 0.

    Raises InvalidInputError unless the seed is a non-negative integer.
    """
    source = "--seed"
    if value is None:
        source, value = "ORTHOSFM_SEED", os.environ.get("ORTHOSFM_SEED") or "0"
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise InvalidInputError(f"{source} must be a non-negative integer, got {value!r}")
    return seed


def _write(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")   # nothing when stdout is closed (None)


def _read_frames(path):
    from . import io_files

    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"frames file: not UTF-8 ({exc.reason})") from None
    return io_files.frames_from_csv(text)


def _pick_mode(n_points: int, n_frames: int) -> str:
    # prefer the linear solvers (unique solutions) when counts allow
    if n_points >= 4 and n_frames >= 3:
        return "p4f3"
    if n_points == 3 and n_frames >= 4:
        return "p3f4"
    if n_points == 3 and n_frames == 3:
        return "p3f3"
    raise InvalidInputError(
        f"no solver for {n_points} points over {n_frames} frames "
        "(two frames cannot determine structure)")


def cmd_recover(args) -> int:
    from . import io_files, solvers

    start = time.perf_counter()
    frames = _read_frames(args.frames_file)
    labels = frames[0].labels
    n_points, n_frames = len(labels), len(frames)
    mode = args.mode
    try:
        if mode == "auto":
            mode = _pick_mode(n_points, n_frames)
        use_points, use_frames = solvers.MODES[mode]
        sq = [projected_sq_distances(f, labels[:use_points]) for f in frames[:use_frames]]
        # looked up per call so a wrapped solver is the one that runs
        result = getattr(solvers, "solve_" + mode)(sq, tol=args.tol)
    except (DegenerateEliminationError, SingularSystemError) as exc:
        report = {
            "solver": mode,
            "status": "degenerate",
            "reason": str(exc),
        }
        _write(io_files.report_to_json(report), args.out)
        return EXIT_DEGENERATE

    balance = dof_balance(n_points, n_frames)
    names = (("a_sq", "b_sq", "c_sq") if mode != "p4f3"
             else ("a_sq", "b_sq", "c_sq", "d_sq", "f_sq", "g_sq"))
    report = {
        "solver": mode,
        "status": "ok" if result.feasible_candidates else "no_feasible_candidate",
        "dof": {
            "points": n_points,
            "frames": n_frames,
            "unknowns": balance.unknowns,
            "information": balance.information,
            "recoverable": balance.recoverable,
        },
        "used": {"points": list(labels[:use_points]), "frames": len(sq)},
        "candidates": [
            {
                "lengths_sq": dict(zip(names, c.lengths.as_tuple())),
                "feasible": c.feasible,
                "residuals": list(c.residuals),
            }
            for c in result.candidates
        ],
        "tolerance": args.tol,
        "timing_s": time.perf_counter() - start,
    }
    _write(io_files.report_to_json(report), args.out)
    return EXIT_OK if result.feasible_candidates else EXIT_NO_SOLUTION


def cmd_match(args) -> int:
    from . import io_files, two_frame

    start = time.perf_counter()
    # the labeled path compares the threshold here, not in two_frame
    check_tolerance("--threshold", args.threshold)
    frames = _read_frames(args.frames_file)
    if len(frames) != 2:
        raise InvalidInputError("match needs exactly 2 frames")
    frame1, frame2 = frames
    report = {"command": "match", "unlabeled": bool(args.unlabeled)}
    code = EXIT_OK
    try:
        if args.unlabeled:
            match = two_frame.match_points(
                frame1, frame2, rigidity_tol=args.threshold)
            report["assignment"] = {str(k): str(v) for k, v in match.full_assignment.items()}
            report["score"] = match.score
            report["best_residual"] = match.best_residual
            report["margin"] = match.margin
            report["n_scored"] = match.n_scored
            report["n_infeasible"] = sum(math.isinf(r) for _, r in match.ranking)
            report["ranking"] = [
                {"targets": list(targets), "residual": r}
                for targets, r in match.ranking
            ]
        else:
            labels = frame1.labels[:4]
            report["used"] = {"points": list(labels)}
            score = two_frame.rigidity_score(frame1, frame2, labels)
            consistent = score <= args.threshold * two_frame.pair_scale(frame1, frame2)
            report["rigidity_residual"] = score
            report["verdict"] = "consistent" if consistent else "inconsistent"
            if not consistent:
                code = EXIT_NO_SOLUTION
    except NoConsistentAssignmentError as exc:
        report["status"] = "no_consistent_assignment"
        report["reason"] = str(exc)
        code = EXIT_NO_SOLUTION
    except NoSolutionError as exc:
        # no assumed length admits a rigid reading: decisively inconsistent
        report["verdict"] = "inconsistent"
        report["reason"] = str(exc)
        code = EXIT_NO_SOLUTION
    except (DegenerateBasisError, DegenerateEliminationError) as exc:
        report["status"] = "degenerate"
        report["reason"] = str(exc)
        code = EXIT_DEGENERATE
    report["timing_s"] = time.perf_counter() - start
    _write(io_files.report_to_json(report), args.out)
    return code


def cmd_simulate(args) -> int:
    from . import io_files, scene_sim

    if args.points < 3 or args.frames < 2:
        raise InvalidInputError("need --points >= 3 and --frames >= 2")
    seed = _default_seed(args.seed)
    spec = scene_sim.NoiseSpec(level=args.noise, seed=scene_sim.subseed(seed, 10**6))
    scene = scene_sim.gen_scene(args.points, args.frames, seed)
    frames = scene_sim.render(scene)
    if spec.level > 0:
        frames = scene_sim.add_noise(frames, spec)
    prefix = args.out or f"scene_{seed}"
    with open(prefix + ".scene.json", "w", encoding="utf-8") as fh:
        fh.write(io_files.scene_to_json(scene))
    with open(prefix + ".frames.csv", "w", encoding="utf-8") as fh:
        fh.write(io_files.frames_to_csv(frames))
    print(f"wrote {prefix}.scene.json and {prefix}.frames.csv")
    return EXIT_OK


_STUDY_COLUMNS = ("level", "trials", "failures", "median_rel_error", "mean_rel_error",
                  "p95_rel_error", "failures_degenerate", "failures_no_candidate")


def cmd_noise_study(args) -> int:
    from . import scene_sim

    try:
        levels = [float(v) for v in args.levels.split(",") if v.strip()]
    except ValueError:
        raise InvalidInputError("--levels must be comma-separated numbers") from None
    seed = _default_seed(args.seed)
    rows = scene_sim.run_noise_study(args.mode, levels, args.trials, seed)
    lines = [",".join(_STUDY_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(row[col]) for col in _STUDY_COLUMNS))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_ambiguity(args) -> int:
    from . import two_frame

    frames = _read_frames(args.frames_file)
    if len(frames) != 2:
        raise InvalidInputError("ambiguity needs exactly 2 frames")
    frame1, frame2 = frames
    try:
        angles = [float(v) for v in args.angles.split(",") if v.strip()]
    except ValueError:
        raise InvalidInputError("--angles must be comma-separated radians") from None
    # ambiguity_family rejects these too, but past here a library error exits 2
    if not all(map(math.isfinite, angles)):
        raise InvalidInputError(f"--angles must be finite, got {args.angles}")
    try:
        base = two_frame.base_interpretation_from_frames(frame1, frame2)
        members = two_frame.ambiguity_family(frame1, frame2, base, angles)
    except (DegenerateBasisError, DegenerateEliminationError) as exc:
        print(f"error: degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NoSolutionError, OrthoSfmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    lines = ["angle,status,reproj_residual_frame1,reproj_residual_frame2,"
             "max_displacement," + ",".join(f"{lab}_z" for lab in base.labels)]
    for angle, member in members:
        if member is None:
            lines.append(f"{angle!r},parallel_rays,,,," + "," * (len(base.labels) - 1))
            continue
        r1, r2 = member.reprojection_residuals(frame1, frame2)
        # each point's displacement as np.linalg.norm rounds it on one point
        diff = member.points - base.points
        disp = float(np.sqrt(np.vecdot(diff, diff)).max())
        depths = ",".join(map(repr, member.points[:, 2].tolist()))
        lines.append(f"{angle!r},ok,{r1!r},{r2!r},{disp!r},{depths}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_dof(args) -> int:
    balance = dof_balance(args.points, args.frames)
    verdict = "recoverable" if balance.recoverable else "not recoverable"
    print(f"points={args.points} frames={args.frames} "
          f"unknowns={balance.unknowns} information={balance.information} "
          f"-> {verdict}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInputError: a malformed command line exits 1."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orthosfm",
        description="Recover rigid point-body geometry from orthographic multiframes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="recover squared 3D lengths from a frames file")
    p.add_argument("frames_file")
    p.add_argument("--mode", choices=["p3f3", "p3f4", "p4f3", "auto"], default="auto")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("match", help="match or rigidity-test points across 2 frames")
    p.add_argument("frames_file")
    p.add_argument("--unlabeled", action="store_true",
                   help="labels do not correspond; search assignments")
    p.add_argument("--threshold", type=float, default=DEFAULT_RIGIDITY_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("simulate", help="generate a ground-truth scene and frames")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output path prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("noise-study", help="Monte-Carlo error statistics vs noise level")
    p.add_argument("--mode", choices=["p3f3", "p3f4", "p4f3"], default="p3f4")
    p.add_argument("--levels", default="0.001,0.01,0.1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_noise_study)

    p = sub.add_parser("ambiguity", help="sample the two-frame ambiguity family")
    p.add_argument("frames_file")
    p.add_argument("--angles", default="0,0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ambiguity)

    p = sub.add_parser("dof", help="degrees-of-freedom recoverability balance")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.set_defaults(func=cmd_dof)
    return parser


def main(argv=None) -> int:
    """Run one command; an input error (a malformed command line, a bad value,
    an unreadable or unwritable file) prints "error: ..." to stderr and exits 1."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _finish(code: int):
    """End a one-shot run: flush stdout and stderr, then os._exit(code).

    A failed flush of stdout prints "error: ..." and exits 1, as a failed
    write does in main; a command that already exited 1 has printed its one
    error line (a failed write leaves its text buffered, so the flush fails
    again).  A closed stream (None) has nothing to flush.
    """
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_INPUT:
            print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    gc.freeze()
    gc.enable()
    _finish(main())
