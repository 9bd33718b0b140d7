"""File formats: JSON scene files, CSV frame files, JSON reports.

Scenes (ground truth) are nested, so JSON; frames are flat measurement
tables, so CSV.  All files are UTF-8.  Serialization round-trips bit-exact
on canonical forms because floats are written as shortest round-trip
decimals.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError
from .geometry import FrameObservation, Point2, Point3, RigidMotion

if TYPE_CHECKING:
    from .scene_sim import Scene


def scene_to_json(scene: Scene) -> str:
    doc = {
        "points": [
            {"label": str(lab), "x": p.x, "y": p.y, "z": p.z}
            for lab, p in scene.body
        ],
        "motions": [
            {
                "rotation": [float(v) for v in m.rotation.reshape(-1)],
                "tx": float(m.translation[0]),
                "ty": float(m.translation[1]),
            }
            for m in scene.motions
        ],
        "seed": scene.seed,
    }
    return json.dumps(doc, indent=2) + "\n"


def scene_from_json(text: str) -> Scene:
    # imported here so that reading and writing frames loads no simulator
    from .scene_sim import Scene

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"scene file: invalid JSON at line {exc.lineno}") from exc
    try:
        body = tuple(
            (entry["label"], Point3(float(entry["x"]), float(entry["y"]), float(entry["z"])))
            for entry in doc["points"]
        )
        motions = tuple(
            RigidMotion(
                np.array([float(v) for v in m["rotation"]]).reshape(3, 3),
                np.array([float(m["tx"]), float(m["ty"])]),
            )
            for m in doc["motions"]
        )
        seed = int(doc.get("seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"scene file: malformed field ({exc})") from exc
    return Scene(body=body, motions=motions, seed=seed)


def frames_to_csv(frames) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame_index", "label", "x", "y"])
    for idx, frame in enumerate(frames):
        for lab, pt in frame.points:
            writer.writerow([idx, lab, repr(pt.x), repr(pt.y)])
    return buf.getvalue()


def frames_from_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or [h.strip() for h in rows[0]] != ["frame_index", "label", "x", "y"]:
        raise InvalidInputError("frames file: line 1: expected header frame_index,label,x,y")
    by_frame: dict = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise InvalidInputError(f"frames file: line {lineno}: expected 4 columns")
        try:
            idx = int(row[0])
            x, y = float(row[2]), float(row[3])
        except ValueError as exc:
            raise InvalidInputError(f"frames file: line {lineno}: {exc}") from exc
        by_frame.setdefault(idx, []).append((row[1], Point2(x, y)))
    if not by_frame:
        raise InvalidInputError("frames file: no data rows")
    indices = sorted(by_frame)
    if indices != list(range(len(indices))):
        raise InvalidInputError("frames file: frame indices must be 0..k-1 without gaps")
    labels0 = [lab for lab, _ in by_frame[0]]
    frames = []
    for idx in indices:
        labels = [lab for lab, _ in by_frame[idx]]
        if sorted(labels) != sorted(labels0):
            raise InvalidInputError(
                f"frames file: frame {idx} labels differ from frame 0")
        frames.append(FrameObservation(tuple(by_frame[idx])))
    return frames


def report_to_json(report: dict) -> str:
    """Serialize a report dict preserving insertion order (stable keys)."""
    return json.dumps(report, indent=2) + "\n"
