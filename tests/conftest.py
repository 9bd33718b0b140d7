"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest

from orthosfm import geometry as geo
from orthosfm import scene_sim as sim
from orthosfm import solvers as sol
from orthosfm import two_frame as tf

# The worked example used throughout: a triangle with squared edge lengths
# exactly (4, 9, 12.6878), i.e. a = 2, b = 3, c = 3.562 (to 4 digits).
GOLDEN_SQ = (4.0, 9.0, 12.6878)

# image scales for the unit-invariance sweeps
SCALE_SWEEP = [1e-12, 1e-8, 1.0, 1e4, 1e6, 1e8, 1e10]

TRIANGLE_PAIRS = (("P", "Q"), ("Q", "R"), ("R", "P"))
TETRA_PAIRS = TRIANGLE_PAIRS + (("T", "R"), ("T", "P"), ("T", "Q"))


def golden_body():
    """Planar embedding of the worked-example triangle, as labels and points."""
    a_sq, b_sq, c_sq = GOLDEN_SQ
    x = (a_sq + c_sq - b_sq) / (2.0 * math.sqrt(a_sq))
    y = math.sqrt(c_sq - x * x)
    return geo.checked_body("PQR", [(0.0, 0.0, 0.0), (math.sqrt(a_sq), 0.0, 0.0), (x, y, 0.0)])


def golden_scene(n_frames: int, seed: int = 42) -> sim.Scene:
    motions = [geo.RigidMotion.identity()]
    for j in range(1, n_frames):
        motions.append(sim.gen_motion(sim.subseed(seed, j)))
    return sim.Scene(*golden_body(), motions=tuple(motions), seed=seed)


def frames_sq(scene: sim.Scene, labels=None):
    """Projected squared distances of every rendered frame."""
    labels = labels or scene.labels
    return [geo.projected_sq_distances(f, labels) for f in sim.render(scene)]


def true_sq(scene: sim.Scene, pairs=TRIANGLE_PAIRS):
    return np.array([scene.true_sq_distance(a, b) for a, b in pairs])


def scaled(frame, s):
    """The frame with every image coordinate multiplied by s."""
    return geo.FrameObservation(frame.labels, frame.coords() * s)


def relabeled(frame, relabel):
    """The frame with each label that relabel maps renamed, its points kept."""
    return geo.FrameObservation([relabel.get(lab, lab) for lab in frame.labels], frame.coords())


def shifted(frame, label, delta):
    """The frame with the point of the given label moved by delta in (x, y)."""
    xy = frame.coords().copy()
    xy[frame.labels.index(label)] += delta
    return geo.FrameObservation(frame.labels, xy)


def observation_scale(frames):
    """Diameter of the observation set across frames."""
    return math.sqrt(max(f.scale_sq() for f in frames))


def view_axis_frames(n_points: int, n_frames: int, seed: int):
    """Exact frames of a random body whose later frames only turn about the
    view axis (by 0.3-1.2 rad) and shift in the image plane.

    Every frame then has the same projected distances, so the lengths cannot
    be recovered: a solver must call the input degenerate.
    """
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    image = (rng.normal(size=(n_points, 3)) @ rotation.T)[:, :2]
    frames = [image]
    for theta in rng.uniform(0.3, 1.2, n_frames - 1):
        turn = np.array([[math.cos(theta), math.sin(theta)],
                         [-math.sin(theta), math.cos(theta)]])
        frames.append(image @ turn + rng.uniform(-1.0, 1.0, 2))
    return [geo.FrameObservation("PQRT"[:n_points], frame) for frame in frames]


def view_axis_pair(n_points: int, seed: int, tilt: float = 0.0):
    """Two exact frames of a random n-point body: the second turned by
    0.3-1.2 rad about an axis tilted by `tilt` rad off the view axis, shifted
    in the image plane, and relabeled by a seeded permutation.

    At tilt 0 the motion has no depth term, so the affine epipolar direction
    is undefined and a matcher must call the pair degenerate.  Returns the
    two frames and the true relabeling.
    """
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    body = rng.normal(size=(n_points, 3)) @ rotation.T
    azimuth, theta = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 1.2)
    axis = np.array([math.sin(tilt) * math.cos(azimuth),
                     math.sin(tilt) * math.sin(azimuth), math.cos(tilt)])
    cross = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
    turn = np.eye(3) + math.sin(theta) * cross + (1.0 - math.cos(theta)) * (cross @ cross)
    images = (body[:, :2], (body @ turn.T)[:, :2] + rng.uniform(-1.0, 1.0, 2))
    labels = [f"L{i}" for i in range(n_points)]
    relabel = dict(zip(labels, (labels[i] for i in rng.permutation(n_points))))
    frame1, frame2 = (geo.FrameObservation(list(map(name, labels)), image)
                      for name, image in ((str, images[0]), (relabel.get, images[1])))
    return frame1, frame2, relabel


def collinear_gauge_pair(seed: int):
    """Two frames of four random normal points P, Q, R, T each, with R1 put
    on the line through P1 and Q1: no rigid reading has a frame-1 basis."""
    rng = np.random.default_rng(seed)
    pts1, pts2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    pts1[2] = pts1[0] + rng.uniform(-1.0, 2.0) * (pts1[1] - pts1[0])
    return geo.FrameObservation("PQRT", pts1), geo.FrameObservation("PQRT", pts2)


def shared_epipolar_pair(seed: int, n: int = 6):
    """Two exact frames of gen_body(n - 1, seed) plus an n-th point
    x_n = x_(n-1) + a*e_z + b*R^T e_z, R the rotation of gen_motion(seed + 1000)
    and a, b seeded in +-[0.5, 1.5].  In the first frame x_n sits off x_(n-1)
    by b times the image of R^T e_z, which the affine part of the motion maps
    along the second frame's epipolar direction; in the second frame it sits
    off x_(n-1) by a along that direction.  So both points' epipolar lines
    coincide and swapping their targets is just as rigid.  The second frame
    is relabeled by a seeded permutation."""
    motion = sim.gen_motion(seed + 1000)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
    body = sim.gen_body(n - 1, seed)[1]
    body = np.vstack([body, body[-1] + a * np.eye(3)[2] + b * motion.rotation[2]])
    images = (body[:, :2], (body @ motion.rotation.T)[:, :2] + motion.translation)
    labels = ["P", "Q", "R", "T", "S", "U", "V", "W"][:n]
    relabel = dict(zip(labels, rng.permutation(labels).tolist()))
    return [geo.FrameObservation(list(map(name, labels)), image)
            for name, image in ((str, images[0]), (relabel.get, images[1]))]


def coplanar_probe_pair(n, seed, planar=False, lift=0.0, tie=False):
    """Two exact frames of a body whose four outer points lie in one plane,
    but for the last one raised by lift, tilted by at most 0.5 rad from the
    image plane so that they are the probe quadruple; the other points sit
    over the quadrilateral's middle, off the plane unless planar.  The
    second frame follows gen_motion(seed) and is relabeled by a seeded
    permutation.  With tie the n-th point is
    instead x_n = x_(n-1) + a*e_z + b*R^T e_z, R the motion's rotation and
    a, b seeded in +-[0.1, 0.3]: it shares x_(n-1)'s epipolar line, as in
    shared_epipolar_pair, and stays inside the corners.  Returns the frames
    and the true relabeling."""
    rng = np.random.default_rng(seed)
    m = n - 1 if tie else n
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    inner = rng.uniform(-0.4, 0.4, (m - 4, 2))
    height = np.zeros(m - 4) if planar else rng.uniform(-0.5, 0.5, m - 4)
    body = np.column_stack([np.vstack([corners + rng.normal(0.0, 0.1, (4, 2)), inner]),
                            np.concatenate([[0.0, 0.0, 0.0, lift], height])])
    azimuth, tilt = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 0.5)
    axis = np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    body = body @ tf._axis_rotation(axis, tilt).T
    motion = sim.gen_motion(seed)
    if tie:
        a, b = rng.uniform(0.1, 0.3, 2) * rng.choice([-1.0, 1.0], 2)
        body = np.vstack([body, body[-1] + a * np.eye(3)[2] + b * motion.rotation[2]])
    images = (body[:, :2], (body @ motion.rotation.T)[:, :2] + motion.translation)
    labels = [f"L{i}" for i in range(n)]
    relabel = dict(zip(labels, (labels[i] for i in rng.permutation(n))))
    frame1, frame2 = (geo.FrameObservation(list(map(name, labels)), image)
                      for name, image in ((str, images[0]), (relabel.get, images[1])))
    return frame1, frame2, relabel


def near_degenerate_pair(kind, n, seed):
    """Two exact frames of an n-point body that matching can barely resolve,
    or not at all, the second relabeled by a seeded permutation.  kind is a
    rotation angle (a float: gen_body(n, seed) turned about a random axis by
    it), or "planar" or "collinear" (a random body in one plane or on one
    line, under gen_motion(seed)).  Returns the frames and the true
    relabeling."""
    rng = np.random.default_rng(seed)
    if isinstance(kind, float):
        body = sim.gen_body(n, seed)[1]
        axis = rng.normal(size=3)
        motion = geo.RigidMotion(tf._axis_rotation(axis / np.linalg.norm(axis), kind),
                                 rng.uniform(-1.0, 1.0, 2))
    else:
        if kind == "planar":
            body = np.column_stack([rng.uniform(-1.0, 1.0, (n, 2)), np.zeros(n)]) \
                @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
        else:
            body = rng.normal(size=3) + rng.uniform(-1.0, 1.0, (n, 1)) * rng.normal(size=3)
        motion = sim.gen_motion(seed)
    images = (body[:, :2], (body @ motion.rotation.T)[:, :2] + motion.translation)
    labels = [f"L{i}" for i in range(n)]
    relabel = dict(zip(labels, (labels[i] for i in rng.permutation(n))))
    frame1, frame2 = (geo.FrameObservation(list(map(name, labels)), image)
                      for name, image in ((str, images[0]), (relabel.get, images[1])))
    return frame1, frame2, relabel


def near_degenerate_scene(mode, kind, value, seed):
    """Exact frames of a random body that a solver mode can barely resolve,
    or not at all: (the frames' squared distances, the true squared
    lengths), both in the canonical edge order.  Every later frame turns by
    0.3-1.2 rad about an axis tilted by value off the view axis ("tilt"), or
    by value about a random axis ("angle"); "repeated" turns about random
    axes and repeats the second-to-last frame, and "collinear" puts the
    points on one line."""
    n_points, n_frames = sol.MODES[mode]
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        body = rng.normal(size=3) + rng.uniform(-1.0, 1.0, (n_points, 1)) * rng.normal(size=3)
    else:
        body = rng.normal(size=(n_points, 3))
    rotations = [np.eye(3)]
    for _ in range(n_frames - 1):
        axis, angle = rng.normal(size=3), rng.uniform(0.3, 1.2)
        axis /= np.linalg.norm(axis)
        if kind == "tilt":
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            axis = np.array([math.sin(value) * math.cos(azimuth),
                             math.sin(value) * math.sin(azimuth), math.cos(value)])
        elif kind == "angle":
            angle = value
        rotations.append(tf._axis_rotation(axis, angle))
    if kind == "repeated":
        rotations[-1] = rotations[-2]
    i, j = np.array(geo.TETRA_EDGES if n_points == 4 else geo.TRIANGLE_EDGES).T
    frames = [np.vecdot(d, d) for d in ((body @ rot.T)[i, :2] - (body @ rot.T)[j, :2]
                                        for rot in rotations)]
    return np.array(frames), np.vecdot(body[i] - body[j], body[i] - body[j])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
