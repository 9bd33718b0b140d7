"""Inputs, ground truth and output checks for the three benchmark workloads.

Every input is generated here from the workload seed with numpy alone, so the
program under test receives only files and argv, and the truth each output is
checked against does not come from the program's own simulator.

An op is one ``orthosfm`` command.  Its check returns a ``Verdict``:

* ``failed`` counts the op's units that did not give the right answer: a
  documented refusal (exit 1, 2 or 3 where 0 was due), a miss, or a
  noise-free ``noise-study`` trial the solver failed.  These make up
  ``error_rate``.  The ``failures`` column at the noisy levels is a result of
  the study, not a wrong answer, and is reported apart (``Verdict.extra``).
* ``wrong`` is set when the program claims something false: exit 0 with an
  answer that contradicts the truth, an undocumented exit code, or a
  traceback.  Any wrong op makes the run's ``correct`` false.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("cli", "noise-study", "match")
LABELS = ("P", "Q", "R", "T", "S", "U", "V", "W")
# canonical edge order of the CLI reports: PQ, QR, RP, then TR, TP, TQ
EDGES = ((0, 1), (1, 2), (2, 0), (3, 2), (3, 0), (3, 1))
DOCUMENTED_EXITS = (0, 1, 2, 3)
RECOVER_RTOL = 1e-6          # feasible candidate vs true squared lengths
LEVEL0_MEDIAN_MAX = 1e-9     # noise-study median relative error at level 0
REPROJ_RTOL = 1e-6           # ambiguity members and simulate frames
NOISE_LEVELS = ("0", "0.001", "0.01", "0.1")
SCALES = (1e-3, 1.0, 1e3)
# solve_p3f3 is not scale-invariant: at scale 1e-3 it refuses most scenes
# (exit 3).  That case runs outside the timed loop, as the known-defect probe,
# so that the loop holds only ops that a correct program passes.
DEFECT_CASE = ("p3f3", 1e-3)
PROBE_SCENES = 8
MODES = {"p3f3": (3, 3), "p3f4": (3, 4), "p4f3": (4, 3)}


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str


@dataclass
class Verdict:
    failed: int = 0
    wrong: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[Outcome], Verdict]
    units: int = 1


@dataclass(frozen=True)
class Size:
    """How much work one cycle of each workload holds."""

    variants: int = 16           # distinct scenes per op kind in cli and match
    recover_frames: int = 6000   # frames in the large file recover reads
    simulate_frames: int = 2000  # frames of the large scene simulate writes
    match_sizes: tuple = (4, 5, 6, 8)
    trials: int = 100            # noise-study trials per level


FULL = Size()
SMOKE = Size(variants=1, recover_frames=50, simulate_frames=50, match_sizes=(4, 5), trials=5)


# ---------------------------------------------------------------- scenes

def _rotation(rng) -> np.ndarray:
    """Uniform rotation, redrawn while it turns by under 0.1 rad or its axis
    lies within 0.1 of the viewing direction (such motions leave depth
    almost unobserved and no solver can recover from them)."""
    while True:
        q = rng.normal(size=4)
        w, x, y, z = q / np.linalg.norm(q)
        angle = 2.0 * math.acos(min(1.0, abs(w)))
        tilt = math.hypot(x, y) / max(math.sqrt(x * x + y * y + z * z), 1e-300)
        if angle >= 0.1 and tilt >= 0.1:
            return np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ])


def _body(n: int, rng) -> np.ndarray:
    """n points in the unit cube, redrawn until non-collinear (non-coplanar
    for four or more) with a 5% singular-value margin."""
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if sv[1] >= 0.05 * sv[0] and (n < 4 or sv[2] >= 0.05 * sv[0]):
            return pts


def _images(body: np.ndarray, n_frames: int, rng) -> list:
    """Orthographic images: frame 0 sees the body unmoved, every later frame
    after its own rotation and in-plane translation."""
    images = [body[:, :2].copy()]
    for _ in range(1, n_frames):
        rot = _rotation(rng)
        images.append((body @ rot.T)[:, :2] + rng.uniform(-1.0, 1.0, size=2))
    return images


def _sq_lengths(body: np.ndarray) -> np.ndarray:
    edges = EDGES[:3] if len(body) == 3 else EDGES
    return np.array([float(np.sum((body[i] - body[j]) ** 2)) for i, j in edges])


def _frames_csv(images, labels_per_frame=None) -> str:
    """Frames CSV; rows carry labels_per_frame[i], by default P, Q, R, ..."""
    lines = ["frame_index,label,x,y"]
    for idx, img in enumerate(images):
        labels = labels_per_frame[idx] if labels_per_frame else LABELS[:len(img)]
        lines.extend(f"{idx},{lab},{x!r},{y!r}"
                     for lab, (x, y) in zip(labels, img.tolist()))
    return "\n".join(lines) + "\n"


def _parse_frames(text: str) -> dict:
    """{frame_index: {label: (x, y)}} of a frames CSV."""
    frames: dict = {}
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        if row:
            frames.setdefault(int(row[0]), {})[row[1]] = (float(row[2]), float(row[3]))
    return frames


# ---------------------------------------------------------------- checks

def _contract(out: Outcome, expected: int = 0) -> Verdict | None:
    """Verdict for an op that did not exit as expected, else None."""
    if out.code not in DOCUMENTED_EXITS or "Traceback" in out.stderr:
        return Verdict(failed=1, wrong=f"exit {out.code}: {out.stderr.strip()[-200:]}")
    if out.code != expected:
        return Verdict(failed=1)
    return None


def _check_recover(truth: np.ndarray):
    def check(out: Outcome) -> Verdict:
        bad = _contract(out)
        if bad:
            return bad
        report = json.loads(out.stdout)
        for cand in report["candidates"]:
            got = np.array(list(cand["lengths_sq"].values()))
            if cand["feasible"] and len(got) == len(truth) and \
                    np.max(np.abs(got - truth) / truth) <= RECOVER_RTOL:
                return Verdict()
        return Verdict(failed=1, wrong="recover: no feasible candidate within "
                       f"{RECOVER_RTOL:g} of the true squared lengths")
    return check


def _check_match(relabel: dict):
    def check(out: Outcome) -> Verdict:
        bad = _contract(out)
        if bad:
            return bad
        got = json.loads(out.stdout)["assignment"]
        if got != relabel:
            return Verdict(failed=1, wrong=f"match: assignment {got} != truth {relabel}")
        return Verdict()
    return check


def _check_non_rigid(out: Outcome) -> Verdict:
    bad = _contract(out, expected=2)
    if bad and out.code == 0:
        return Verdict(failed=1, wrong="match: non-rigid pair accepted as rigid")
    return bad or Verdict()


def _check_rigidity(out: Outcome) -> Verdict:
    bad = _contract(out)
    if bad:
        return bad
    verdict = json.loads(out.stdout)["verdict"]
    if verdict != "consistent":
        return Verdict(failed=1, wrong=f"match: rigid pair judged {verdict}")
    return Verdict()


def _check_ambiguity(scale: float, n_angles: int):
    def check(out: Outcome) -> Verdict:
        bad = _contract(out)
        if bad:
            return bad
        rows = list(csv.reader(io.StringIO(out.stdout)))[1:]
        ok = [r for r in rows if r[1] == "ok"]
        worst = max((max(float(r[2]), float(r[3])) for r in ok), default=math.inf)
        if len(rows) != n_angles or not ok or worst > REPROJ_RTOL * scale:
            return Verdict(failed=1, wrong=f"ambiguity: {len(ok)} of {len(rows)} "
                           f"members, worst reprojection {worst:.3g}")
        return Verdict()
    return check


def _check_dof(points: int, frames: int):
    unknowns = -1 + 3 * points + 5 * (frames - 1)
    information = 2 * points * frames
    verdict = "recoverable" if unknowns <= information else "not recoverable"
    expected = (f"points={points} frames={frames} unknowns={unknowns} "
                f"information={information} -> {verdict}\n")

    def check(out: Outcome) -> Verdict:
        bad = _contract(out)
        if bad:
            return bad
        if out.stdout != expected:
            return Verdict(failed=1, wrong=f"dof: {out.stdout!r} != {expected!r}")
        return Verdict()
    return check


def _check_simulate(prefix: Path, points: int, frames: int, noise: float):
    """The frames file must be the scene file's bodies rendered by its own
    motions, within the stated multiplicative noise."""
    def check(out: Outcome) -> Verdict:
        bad = _contract(out)
        if bad:
            return bad
        scene = json.loads(Path(f"{prefix}.scene.json").read_text(encoding="utf-8"))
        images = _parse_frames(Path(f"{prefix}.frames.csv").read_text(encoding="utf-8"))
        labels = [p["label"] for p in scene["points"]]
        body = np.array([[p["x"], p["y"], p["z"]] for p in scene["points"]])
        worst = 0.0
        for idx, m in enumerate(scene["motions"]):
            clean = (body @ np.reshape(m["rotation"], (3, 3)).T)[:, :2] + (m["tx"], m["ty"])
            got = np.array([images[idx][lab] for lab in labels])
            worst = max(worst, float(np.max(
                np.abs(got - clean) - noise * np.abs(clean))))
        if len(labels) != points or len(images) != frames or \
                worst > REPROJ_RTOL * (1.0 + float(np.abs(body).max())):
            return Verdict(failed=1, wrong=f"simulate: {len(labels)} points, "
                           f"{len(images)} frames, worst deviation {worst:.3g}")
        return Verdict()
    return check


def _check_noise_study(trials: int):
    def check(out: Outcome) -> Verdict:
        bad = _contract(out)
        if bad:
            bad.failed = trials * len(NOISE_LEVELS)
            return bad
        rows = list(csv.DictReader(io.StringIO(out.stdout)))
        levels = [float(r["level"]) for r in rows]
        if levels != [float(v) for v in NOISE_LEVELS] or \
                any(int(r["trials"]) != trials for r in rows):
            return Verdict(failed=trials * len(NOISE_LEVELS),
                           wrong=f"noise-study: rows {levels}")
        verdict = Verdict(failed=int(rows[0]["failures"]),
                          extra={"p95_at_0.01": float(rows[2]["p95_rel_error"]),
                                 "failures": [int(r["failures"]) for r in rows]})
        median0 = float(rows[0]["median_rel_error"])
        if not median0 < LEVEL0_MEDIAN_MAX:
            verdict.wrong = f"noise-study: level-0 median error {median0:.3g}"
        return verdict
    return check


# ---------------------------------------------------------------- workloads

def _cli_variant(work: Path, rng, v: int, size: Size, large: Op):
    """The variant's ops, and its op of the known-defect case."""
    ops = []
    for mode, (n_points, n_frames) in MODES.items():
        body = _body(n_points, rng)
        images = _images(body, n_frames, rng)
        for scale in SCALES:
            path = work / f"recover-{mode}-{scale:g}-v{v}.csv"
            path.write_text(_frames_csv([img * scale for img in images]), encoding="utf-8")
            op = Op(f"recover-{mode}-{scale:g}", ["recover", str(path)],
                    _check_recover(_sq_lengths(body) * scale * scale))
            if (mode, scale) == DEFECT_CASE:
                probe = op
            else:
                ops.append(op)
    ops.append(large)

    seed = int(rng.integers(2**31))
    prefix = work / f"sim-large-v{v}"
    ops.append(Op("simulate-large",
                  ["simulate", "--points", "4", "--frames", str(size.simulate_frames),
                   "--seed", str(seed), "--out", str(prefix)],
                  _check_simulate(prefix, 4, size.simulate_frames, 0.0)))
    prefix = work / f"sim-small-v{v}"
    ops.append(Op("simulate-small",
                  ["simulate", "--points", "3", "--frames", "3", "--noise", "0.01",
                   "--seed", str(seed + 1), "--out", str(prefix)],
                  _check_simulate(prefix, 3, 3, 0.01)))

    path = work / f"rigidity-v{v}.csv"
    path.write_text(_frames_csv(_images(_body(4, rng), 2, rng)), encoding="utf-8")
    ops.append(Op("match-labeled", ["match", str(path)], _check_rigidity))

    path = work / f"ambiguity-v{v}.csv"
    images = _images(_body(3, rng), 2, rng)
    path.write_text(_frames_csv(images), encoding="utf-8")
    scale = max(float(np.abs(img).max()) for img in images)
    ops.append(Op("ambiguity", ["ambiguity", str(path)], _check_ambiguity(scale, 9)))

    points, frames = ((3, 3), (3, 4), (4, 3), (4, 2), (2, 2), (5, 2))[v % 6]
    ops.append(Op("dof", ["dof", "--points", str(points), "--frames", str(frames)],
                  _check_dof(points, frames)))
    return ops, probe


# The n = 8 match costs 1 to 4 s depending on the scene, a spread that a run
# with room for about eight of them cannot average out.  Its body and motion
# are therefore the same for every seed, which still sets the pair's labels,
# row order, in-plane pose and scale: none of these changes the matcher's work.
FIXED_GEOMETRY_SEED = {8: 2017}


def _posed(image: np.ndarray, scale: float, rng) -> np.ndarray:
    """The image after a turn about the viewing axis, a shift and a zoom:
    another view of the same rigid body."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    return scale * image @ np.array([[c, s], [-s, c]]) + rng.uniform(-1.0, 1.0, size=2)


def _shuffled_pair(n: int, rng, move_one: bool = False):
    """Two posed images of n points; the second frame's rows are shuffled
    and its labels permuted.  Returns the CSV text and the true relabeling."""
    geometry = (np.random.default_rng(FIXED_GEOMETRY_SEED[n])
                if n in FIXED_GEOMETRY_SEED else rng)
    first, second = _images(_body(n, geometry), 2, geometry)
    scale = rng.uniform(0.5, 2.0)
    first, second = _posed(first, scale, rng), _posed(second, scale, rng)
    if move_one:
        # one point leaves the body: shift it by half the image diameter
        second[n - 1] += 0.5 * float(np.ptp(second, axis=0).max()) * np.array([1.0, -1.0])
    labels2 = [LABELS[k] for k in rng.permutation(n)]
    order = rng.permutation(n)
    text = _frames_csv([first, second[order]],
                       [LABELS[:n], [labels2[i] for i in order]])
    return text, {LABELS[i]: labels2[i] for i in range(n)}


def _match_variant(work: Path, rng, v: int, size: Size) -> list:
    ops = []
    for n in size.match_sizes:
        text, relabel = _shuffled_pair(n, rng)
        path = work / f"match-n{n}-v{v}.csv"
        path.write_text(text, encoding="utf-8")
        ops.append(Op(f"match-n{n}", ["match", str(path), "--unlabeled"],
                      _check_match(relabel)))
    text, _ = _shuffled_pair(5, rng, move_one=True)
    path = work / f"match-nonrigid-v{v}.csv"
    path.write_text(text, encoding="utf-8")
    ops.append(Op("match-nonrigid-n5", ["match", str(path), "--unlabeled"],
                  _check_non_rigid))
    return ops


class Workload:
    """One workload's generated inputs: ``cycle(i)`` is the fixed list of
    ops the closed loop runs as its i-th cycle, and ``probe`` the untimed ops
    of the known-defect case (empty but for ``cli``)."""

    def __init__(self, name: str, seed: int, work: Path, size: Size):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.size = name, size
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, NAMES.index(name)])
        self._variants, self.probe = [], []
        if name == "cli":
            path = work / "recover-large.csv"
            body = _body(4, rng)
            path.write_text(_frames_csv(_images(body, size.recover_frames, rng)),
                            encoding="utf-8")
            large = Op("recover-large", ["recover", str(path)],
                       _check_recover(_sq_lengths(body)))
            for v in range(size.variants):
                ops, probe = _cli_variant(work, rng, v, size, large)
                self._variants.append(ops)
                self.probe.append(probe)
            self.probe = self.probe[:PROBE_SCENES]
        elif name == "match":
            self._variants = [_match_variant(work, rng, v, size)
                              for v in range(size.variants)]
        else:
            self._study_seed = int(rng.integers(2**31))

    def cycle(self, i: int) -> list:
        if self.name != "noise-study":
            return self._variants[i % len(self._variants)]
        trials = self.size.trials
        return [Op(f"noise-study-{mode}",
                   ["noise-study", "--mode", mode, "--levels", ",".join(NOISE_LEVELS),
                    "--trials", str(trials), "--seed", str(self._study_seed + i)],
                   _check_noise_study(trials), units=trials * len(NOISE_LEVELS))
                for mode in MODES]

