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
from .geometry import FrameObservation

if TYPE_CHECKING:
    from .scene_sim import Scene


def scene_to_json(scene: Scene) -> str:
    """The scene as json.dumps(doc, indent=2) + "\n" writes it, but faster:
    that encoder's indent mode runs in pure Python."""
    points = [_json_block("{}", [f'"label": {json.dumps(str(lab))}', f'"x": {x!r}',
                                 f'"y": {y!r}', f'"z": {z!r}'], 4)
              for lab, (x, y, z) in zip(scene.labels, scene.points.tolist())]
    motions = [_json_block("{}", ['"rotation": ' + _json_block("[]", map(repr, rot), 6),
                                  f'"tx": {tx!r}', f'"ty": {ty!r}'], 4)
               for rot, (tx, ty) in zip(scene.rotations.reshape(-1, 9).tolist(),
                                        scene.translations.tolist())]
    return _json_block("{}", ['"points": ' + _json_block("[]", points, 2),
                              '"motions": ' + _json_block("[]", motions, 2),
                              f'"seed": {int(scene.seed)}'], 0) + "\n"


def _json_block(brackets: str, items, indent: int) -> str:
    """Encoded JSON values (or object members; a float is its repr) in
    brackets, laid out as json.dumps(indent=2) lays them out at indent."""
    sep = ",\n" + " " * (indent + 2)
    body = sep.join(items)
    return f"{brackets[0]}{sep[1:]}{body}\n{' ' * indent}{brackets[1]}" if body else brackets


def scene_from_json(text: str) -> Scene:
    # imported here so that reading and writing frames loads no simulator
    from .scene_sim import Scene

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"scene file: invalid JSON at line {exc.lineno}") from exc
    try:
        labels = [entry["label"] for entry in doc["points"]]
        points = [[float(entry[axis]) for axis in "xyz"] for entry in doc["points"]]
        motions = doc["motions"]
        rotations = np.reshape([[float(v) for v in m["rotation"]] for m in motions],
                               (len(motions), 3, 3))
        translations = np.reshape([[float(m["tx"]), float(m["ty"])] for m in motions],
                                  (len(motions), 2))
        seed = int(doc.get("seed", 0))
        return Scene(labels, points, rotations, translations, seed)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"scene file: malformed field ({exc})") from exc
    except InvalidInputError as exc:
        raise InvalidInputError(f"scene file: {exc}") from exc


def frames_to_csv(frames) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame_index", "label", "x", "y"])
    frames = list(frames)
    if frames:
        # whole columns at once; csv writes a float as its (round-trip) repr
        x, y = np.concatenate([f.coords() for f in frames]).T.tolist()
        writer.writerows(zip([i for i, f in enumerate(frames) for _ in f.labels],
                             [lab for f in frames for lab in f.labels], x, y))
    return buf.getvalue()


def frames_from_csv(text: str) -> list:
    """The frames of a frames file, every row checked: a parse error (csv's
    own included) or a non-finite coordinate names its line, a label fault
    its frame."""
    try:
        rows = list(reader := csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise InvalidInputError(f"frames file: line {reader.line_num}: {exc}") from None
    del reader   # and with it a copy of the text, which would raise the peak memory
    if not rows or [h.strip() for h in rows[0]] != ["frame_index", "label", "x", "y"]:
        raise InvalidInputError("frames file: line 1: expected header frame_index,label,x,y")
    data = [row for row in rows[1:] if row]
    if not data:
        raise InvalidInputError("frames file: no data rows")
    try:
        index, labels, xs, ys = zip(*data, strict=True)
        index = list(map(int, index))
        xy = np.array([list(map(float, xs)), list(map(float, ys))]).T
        if not np.isfinite(xy).all():
            raise ValueError
    except ValueError:
        raise _first_bad_line(rows) from None
    if min(index) < 0 or max(index) >= len(index) or not (counts := np.bincount(index)).all():
        raise InvalidInputError("frames file: frame indices must be 0..k-1 without gaps")
    order = np.argsort(index, kind="stable")
    ordered = [labels[i] for i in order.tolist()]
    ends = np.cumsum(counts).tolist()
    per_frame = [tuple(ordered[a:b]) for a, b in zip([0, *ends], ends)]
    first = sorted(per_frame[0])
    if any(sorted(labs) != first for labs in set(per_frame)):
        bad = next(i for i, labs in enumerate(per_frame) if sorted(labs) != first)
        raise InvalidInputError(f"frames file: frame {bad} labels differ from frame 0")
    return list(FrameObservation.stack(per_frame, xy[order].reshape(len(ends), -1, 2)))


def _first_bad_line(rows) -> InvalidInputError:
    """The error of the first data row that the parse rejected (error path only)."""
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            return InvalidInputError(f"frames file: line {lineno}: expected 4 columns")
        try:
            int(row[0])
            x, y = float(row[2]), float(row[3])
        except ValueError as exc:
            return InvalidInputError(f"frames file: line {lineno}: {exc}")
        if not np.isfinite((x, y)).all():
            return InvalidInputError(f"frames file: line {lineno}: non-finite coordinate")


def report_to_json(report: dict) -> str:
    """Serialize a report dict preserving insertion order (stable keys)."""
    return json.dumps(report, indent=2) + "\n"
