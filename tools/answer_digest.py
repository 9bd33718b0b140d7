"""Print one digest of the library's answers per layer, on fixed inputs.

    python3 tools/answer_digest.py > digest.txt

Each line reads ``layer count sha256``: how many calls the layer got and the
sha256 of the repr of every result, or of ``ErrorType: message`` when the
call raised, in call order.  Arrays enter as lists, so every float counts
with all its digits.  The layer ``two_frame.match_points.degenerate`` runs
the matcher on the near-degenerate pairs that ``tests/conftest.py``
generates and hashes its answers without their scores, which rounding
moves there; the ``solvers.solve_<mode>.degenerate`` layers run each solver
on that file's near-degenerate scenes, where the floors of the tolerance
table decide between an answer and a refusal.  ``two_frame.extreme_scale``
runs the two-frame functions on pairs in units from 1e-300 to 1e300, which
only a pair scaled before it is squared gets right.  ``two_frame.residual_4pt``
runs ``collinearity_residual_4pt`` on every ordering of rigid and moved
4-point pairs, at the policy's assumed length and at two given ones, 0.5
and 4 times the pair's squared diameter.  ``two_frame.near_rigid``
runs ``base_interpretation_from_frames`` and ``ambiguity_family`` on pairs
with one point moved by 1e-7, 5e-7 and 2e-6 of the pair's diameter, on
either side of the one reproduction bound.  The inputs are seeded
and fixed, and the source is the ``src`` directory next to this script, so
running the script of two checkouts and diffing the outputs shows which
layers answer differently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np  # noqa: E402

from orthosfm import geometry as geo  # noqa: E402
from orthosfm import scene_sim as sim  # noqa: E402
from orthosfm import solvers  # noqa: E402
from orthosfm import two_frame as tf  # noqa: E402
from orthosfm.errors import OrthoSfmError  # noqa: E402

from conftest import (  # noqa: E402
    coplanar_probe_pair,
    near_degenerate_pair,
    near_degenerate_scene,
    relabeled,
    scaled,
    shared_epipolar_pair,
    shifted,
    view_axis_pair,
)
from test_tolerance_table import off_by  # noqa: E402

SCALES = (1e-6, 1.0, 1e6)
EXTREME_SCALES = (1e-300, 1e-160, 1e160, 1e300)
# (kind, value) of near_degenerate_scene
NEAR_DEGENERATE = ([("tilt", t) for t in (0.0, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)]
                   + [("angle", a) for a in (0.0, 1e-9, 1e-6, 1e-3)]
                   + [("repeated", None), ("collinear", None)])
NOISE = sim.NoiseSpec(1e-2, seed=3)


def _plain(obj):
    """obj with dataclasses as (name, fields...) and arrays as lists."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (tuple, list)):
        return type(obj)(_plain(v) for v in obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


class Digest:
    def __init__(self):
        self.layers = {}

    def call(self, layer: str, fn, *args):
        """Record fn(*args) under layer and return its result (None if it
        raised)."""
        try:
            result = fn(*args)
            text = repr(_plain(result))
        except OrthoSfmError as exc:
            result, text = None, f"{type(exc).__name__}: {exc}"
        count, sha = self.layers.setdefault(layer, [0, hashlib.sha256()])
        self.layers[layer][0] = count + 1
        sha.update(text.encode() + b"\n")
        return result

    def lines(self) -> list:
        return [f"{layer} {count} {sha.hexdigest()}"
                for layer, (count, sha) in self.layers.items()]


def _relabeled(frame, seed: int):
    """The frame under a seeded permutation of its labels."""
    labels = list(frame.labels)
    return relabeled(frame, dict(zip(
        labels, np.random.default_rng(seed).permutation(labels).tolist())))


def _moved(frame, seed: int):
    """The frame with its last point shifted off the body."""
    rng = np.random.default_rng(seed + 500)
    return shifted(frame, frame.labels[-1],
                   rng.uniform(0.2, 0.5, 2) * rng.choice([-1.0, 1.0], 2))


def _pairs(n: int, seeds):
    """(seed, frame 1, frame 2) of gen_scene(n, 2, seed), rigid and moved."""
    for seed in seeds:
        frame1, frame2 = sim.render(sim.gen_scene(n, 2, seed))
        yield seed, frame1, frame2
        yield seed, frame1, _moved(frame2, seed)


def _match_answer(frame1, frame2):
    """match_points' answer without its scores: the full assignment, the
    winner's pairs, the scoring test and the ranking's target order."""
    report = tf.match_points(frame1, frame2)
    return (report.full_assignment, report.best, report.score,
            tuple(targets for targets, _ in report.ranking))


def _degenerate_pairs(n: int, seeds):
    """Frame pairs of the tests' near-degenerate generators: coplanar probes
    (planar body, lifted corner, and a tie at n >= 6), a rotation of 0,
    1e-9 or 1e-6 rad, planar and collinear bodies, axes tilted 0, 1e-6 or
    1e-2 off the view axis, and two points on one epipolar line."""
    for seed in seeds:
        yield coplanar_probe_pair(n, seed)[:2]
        yield coplanar_probe_pair(n, seed, planar=True)[:2]
        yield coplanar_probe_pair(n, seed, lift=1e-10)[:2]
        if n >= 6:
            yield coplanar_probe_pair(n, seed, tie=True)[:2]
        for kind in (0.0, 1e-9, 1e-6, "planar", "collinear"):
            yield near_degenerate_pair(kind, n, seed)[:2]
        for tilt in (0.0, 1e-6, 1e-2):
            yield view_axis_pair(n, seed, tilt)[:2]
        yield shared_epipolar_pair(seed, n)


def collect() -> Digest:
    d = Digest()
    for seed in range(40):
        for n, k in ((3, 2), (4, 3), (5, 4)):
            d.call("scene_sim.gen_scene", sim.gen_scene, n, k, seed)
    for mode in ("p3f3", "p3f4", "p4f3"):
        d.call("scene_sim.run_noise_study", sim.run_noise_study,
               mode, [0.0, 1e-3, 1e-2], 20, 7)

    for mode in ("p3f3", "p3f4", "p4f3"):
        n_points, n_frames = solvers.MODES[mode]
        solve = getattr(solvers, f"solve_{mode}")
        for seed in range(15):
            frames = sim.render(sim.gen_scene(n_points, n_frames, seed))
            for frames in (frames, sim.add_noise(frames, NOISE)):
                for s in SCALES:
                    sq = [geo.projected_sq_distances(scaled(f, s), f.labels) for f in frames]
                    d.call(f"solvers.solve_{mode}", solve, sq)
    for mode in ("p3f3", "p3f4", "p4f3"):
        solve = getattr(solvers, f"solve_{mode}")
        for kind, value in NEAR_DEGENERATE:
            for seed in range(10):
                frames, _ = near_degenerate_scene(mode, kind, value, seed)
                d.call(f"solvers.solve_{mode}.degenerate", solve, frames)

    for n in range(4, 9):
        for seed, frame1, frame2 in _pairs(n, range(8)):
            d.call("two_frame.match_points", tf.match_points,
                   frame1, _relabeled(frame2, seed))
    for n in (4, 5, 6):
        for frame1, frame2 in _degenerate_pairs(n, range(5)):
            d.call("two_frame.match_points.degenerate", _match_answer, frame1, frame2)
    for _, frame1, frame2 in _pairs(4, range(20)):
        d.call("two_frame.rigidity_score", tf.rigidity_score, frame1, frame2)
    for _, frame1, frame2 in _pairs(4, range(5)):
        diameter_sq = tf.pair_scale(frame1, frame2) ** 2
        for perm in itertools.permutations(frame2.labels):
            for c_sq in (None, 0.5 * diameter_sq, 4.0 * diameter_sq):
                d.call("two_frame.residual_4pt", tf.collinearity_residual_4pt,
                       frame1, frame2, tuple(zip(frame1.labels, perm)), c_sq)
    for _, frame1, frame2 in _pairs(5, range(20)):
        d.call("two_frame.residual_5pt", tf.residual_5pt, frame1, frame2)
    for n in (3, 4, 5):
        for _, frame1, frame2 in _pairs(n, range(10)):
            base = d.call("two_frame.base_interpretation_from_frames",
                          tf.base_interpretation_from_frames, frame1, frame2)
            if base is not None:
                d.call("two_frame.ambiguity_family", tf.ambiguity_family,
                       frame1, frame2, base, [0.0, 0.3, 1.0, 2.5])
    for s in EXTREME_SCALES:
        for n, fns in ((4, (tf.match_points, tf.rigidity_score,
                            tf.base_interpretation_from_frames)),
                       (5, (tf.match_points, tf.residual_5pt))):
            for seed, frame1, frame2 in _pairs(n, range(3)):
                for fn in fns:
                    d.call("two_frame.extreme_scale", fn, scaled(frame1, s),
                           scaled(_relabeled(frame2, seed) if fn is tf.match_points
                                   else frame2, s))
    for seed in range(10):
        frame1, frame2 = sim.render(sim.gen_scene(4, 2, seed))
        for fraction in (1e-7, 5e-7, 2e-6):
            frame2_off = off_by(frame1, frame2, "T", fraction)
            base = d.call("two_frame.near_rigid", tf.base_interpretation_from_frames,
                          frame1, frame2_off)
            if base is not None:
                d.call("two_frame.near_rigid", tf.ambiguity_family,
                       frame1, frame2_off, base, [0.0, 0.3, 1.0])
    return d


def main() -> int:
    for line in collect().lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
