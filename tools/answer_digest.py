"""Print one digest of the library's answers per layer, on fixed inputs.

    python3 tools/answer_digest.py > digest.txt

Each line reads ``layer count sha256``: how many calls the layer got and the
sha256 of the repr of every result, or of ``ErrorType: message`` when the
call raised, in call order.  Arrays enter as lists, so every float counts
with all its digits.  The inputs are seeded and fixed, and the source is
the ``src`` directory next to this script, so running the script of two
checkouts and diffing the outputs shows which layers answer differently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from orthosfm import geometry as geo  # noqa: E402
from orthosfm import scene_sim as sim  # noqa: E402
from orthosfm import solvers  # noqa: E402
from orthosfm import two_frame as tf  # noqa: E402
from orthosfm.errors import OrthoSfmError  # noqa: E402

SCALES = (1e-6, 1.0, 1e6)
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


def _scaled(frame, s: float):
    return geo.FrameObservation(tuple(
        (lab, geo.Point2(p.x * s, p.y * s)) for lab, p in frame.points))


def _relabeled(frame, seed: int):
    """The frame under a seeded permutation of its labels."""
    labels = list(frame.labels)
    relabel = dict(zip(labels, np.random.default_rng(seed).permutation(labels).tolist()))
    return geo.FrameObservation(tuple((relabel[lab], p) for lab, p in frame.points))


def _moved(frame, seed: int):
    """The frame with its last point shifted off the body."""
    rng = np.random.default_rng(seed + 500)
    shift = rng.uniform(0.2, 0.5, 2) * rng.choice([-1.0, 1.0], 2)
    *rest, (lab, p) = frame.points
    return geo.FrameObservation((*rest, (lab, geo.Point2(p.x + shift[0], p.y + shift[1]))))


def _pairs(n: int, seeds):
    """(seed, frame 1, frame 2) of gen_scene(n, 2, seed), rigid and moved."""
    for seed in seeds:
        frame1, frame2 = sim.render(sim.gen_scene(n, 2, seed))
        yield seed, frame1, frame2
        yield seed, frame1, _moved(frame2, seed)


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
                    sq = [geo.projected_sq_distances(_scaled(f, s), f.labels) for f in frames]
                    d.call(f"solvers.solve_{mode}", solve, sq)

    for n in range(4, 9):
        for seed, frame1, frame2 in _pairs(n, range(8)):
            d.call("two_frame.match_points", tf.match_points,
                   frame1, _relabeled(frame2, seed))
    for _, frame1, frame2 in _pairs(4, range(20)):
        d.call("two_frame.rigidity_score", tf.rigidity_score, frame1, frame2)
    for _, frame1, frame2 in _pairs(5, range(20)):
        d.call("two_frame.residual_5pt", tf.residual_5pt, frame1, frame2)
    for n in (3, 4, 5):
        for _, frame1, frame2 in _pairs(n, range(10)):
            base = d.call("two_frame.base_interpretation_from_frames",
                          tf.base_interpretation_from_frames, frame1, frame2)
            if base is not None:
                d.call("two_frame.ambiguity_family", tf.ambiguity_family,
                       frame1, frame2, base, [0.0, 0.3, 1.0, 2.5])
    return d


def main() -> int:
    for line in collect().lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
