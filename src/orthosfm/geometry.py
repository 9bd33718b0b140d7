"""The base layer of orthographic multiframe geometry: value types, the tolerance
table and the math the other layers share (the per-frame quartic identity
quad_coeffs, quadratic_roots, depth_pair, check_tolerance).

Conventions used throughout the library:

* The image plane is z = 0 and orthographic projection drops the z
  coordinate: (x, y, z) -> (x, y).  Depth translation is unobservable, so
  rigid motions carry an in-plane (2D) translation only.
* Squared lengths are the canonical representation; square roots are taken
  only at API edges.
* Triangle edge order is PQ, QR, RP (lengths a, b, c); a tetrahedron adds
  TR, TP, TQ (lengths d, f, g).
* A frame is a label tuple and a read-only (n, 2) array, made k frames at a
  time from one checked (k, n, 2) stack, or one at a time from labels and an
  (n, 2) array.  It is read one way, as an (m, 2) array in the order of the
  labels asked for (FrameObservation.coords).
* A body is a label tuple and a read-only (n, 3) array, checked once as a
  frame is (checked_body): a scene's or an interpretation's labels and points.
* A motion is a proper (3, 3) rotation and an in-plane (2,) translation; k
  motions are a read-only (k, 3, 3) and (k, 2) array pair, checked once
  (checked_motions): a scene's one per frame, an interpretation's one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InconsistentLengthsError, InvalidInputError, MissingLabelError

# The tolerance table: every threshold the library compares against, each on a
# dimensionless quantity.  Per entry: what it bounds, where (in brackets), and why.
# Slack per the largest squared length: of a length under its projection, a negative
# discriminant (solvers' tol default, embed_depths, two_frame).  5e6 ulps: above
# rounding, below any deficit.
DEFAULT_TOL = 1e-9
# Line distance per pair diameter (match_points, match --threshold default).  Rigid
# pairs score 1e-15, a point moved by 0.2 of the body 1e-2: room for noise between.
DEFAULT_RIGIDITY_TOL = 1e-6
# |R^T R - I| and |det R - 1| (check_motions): admits a rotation printed to 10 digits.
ORTHONORMALITY_TOL = 1e-9
# Ulps of the largest squared length in a difference of two (embed_depths' closure):
# a near-zero deficit's square root is known to sqrt(rounding) only.
_DEFICIT_ULPS = 64
# p3f3 |det| (solvers); an epipolar direction's length, a misfit to an affine map or
# isometry (two_frame's matcher).  Below sqrt(eps) p3f3 answers exact scenes wrong by
# percents, and exact pairs with a small depth term fit one map to rounding.
SQRT_EPS = 1e-8
# sigma_min / max(sigma_max, 1) of a linear difference system (solvers._solve_linear):
# rounding over it is 1e-6 of the answer; the 1 makes a noise matrix singular.
SINGULAR_TOL = 1e-10
# A unit-size zero: basis |det|, line length, singular value ratio, a^2 coefficient gap
# (two_frame); |2 sin(angle) axis| of a rotation (scene_sim: one floor at both sites,
# as one falls back to the other).  5000 ulps: above the rounding of unit-size sums.
DEGENERACY_EPS = 1e-12
# |leading coefficient| per the others' scale (quadratic_roots, every quadratic:
# linear at or below it): 50 ulps, a coefficient that vanished but for rounding.
LINEAR_EPS = 1e-14
# Sine of a motion's tilt off the view axis, a rotated ray's image length
# (ambiguity_family), and squared, |R[:2, 2]|^2 (_fit_interpretation): below it the
# family's axis carries rounding above 1e-7.
AXIS_EPS = 1e-9
# Worst image distance, in either frame, per pair diameter (two_frame._reproduces: base
# candidates in branch order, a given base, each family member).  The rigidity default's
# size: noise of a few 1e-7 passes, so the branch order, not the noise, picks the body.
REPROJECTION_BOUND = 1e-6

# Edge order conventions: consecutive label pairs measured by
# projected_sq_distances.  Index into the label list (P, Q, R[, T]).
TRIANGLE_EDGES = ((0, 1), (1, 2), (2, 0))                      # PQ, QR, RP
TETRA_EDGES = TRIANGLE_EDGES + ((3, 2), (3, 0), (3, 1))        # + TR, TP, TQ


def check_tolerance(name: str, value) -> None:
    """Raise InvalidInputError unless value is a finite number >= 0."""
    try:
        valid = math.isfinite(value) and value >= 0
    except TypeError:
        valid = False
    if not valid:
        raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")


def frame_constant(x: float, y: float, z: float) -> float:
    """x^2 + y^2 + z^2 - 2xy - 2xz - 2yz for one frame's squared lengths."""
    return x * x + y * y + z * z - 2.0 * (x * y + x * z + y * z)


def quad_coeffs(frame_sq) -> tuple:
    """Coefficients (coef_a, coef_b, coef_c, const) of one frame's sign-free
    quartic identity in the unknown squared lengths A, B, C:

      A^2 + B^2 + C^2 - 2AB - 2AC - 2BC
        + coef_a*A + coef_b*B + coef_c*C + const = 0

    Elementwise, so three array columns give arrays of coefficients."""
    x, y, z = frame_sq
    return 2.0 * (-x + y + z), 2.0 * (x - y + z), 2.0 * (x + y - z), frame_constant(x, y, z)


def quadratic_roots(q2, q1, q0, tol: float) -> tuple:
    """Real roots of q2 t^2 + q1 t + q0 = 0, elementwise over coefficient
    arrays: (..., 2) roots, ascending, and a mask of those that exist, each
    distinct root once.  An equation is linear when |q2| is within LINEAR_EPS of the others'
    scale, sqrt(max(q1^2, |4 q2 q0|)).  tol only clamps the discriminant: one
    within tol of that scale squared below zero is a double root, so
    squaring noise cannot empty the solution set.  The root of larger
    magnitude comes from the sum that cannot cancel, the other from the
    product of the roots, q0 / q2; each as Python's float arithmetic gives it.
    """
    q2, q1, q0 = (np.asarray(q, dtype=float) for q in (q2, q1, q0))
    with np.errstate(all="ignore"):
        square, product = q1 * q1, 4.0 * q2 * q0
        disc = square - product
        # max(q1^2, |4 q2 q0|) as Python takes it: a NaN product never wins
        coeff_scale = np.where(np.abs(product) > square, np.abs(product), square)
        linear = np.abs(q2) <= LINEAR_EPS * np.sqrt(coeff_scale)
        single = linear | (disc < 0.0)
        big = -(q1 + np.copysign(np.sqrt(disc), q1)) / 2.0
        first = np.where(linear, -q0 / q1, np.where(single, -q1 / (2.0 * q2), big / q2))
        second = np.where(big != 0.0, q0 / big, -q1 / q2 - big / q2)
        swap = ~single & (second < first)
        roots = np.stack([np.where(swap, second, first), np.where(swap, first, second)], -1)
        found = np.stack([np.where(linear, q1 != 0.0, ~(disc < 0.0) | (disc > -tol * coeff_scale)),
                          ~single & (second != first)], -1)
    return roots, found


def check_motions(rotations: np.ndarray, translations: np.ndarray) -> None:
    """Raise InvalidInputError unless every rotation of a stack is finite,
    orthonormal and proper (det +1) and every translation is finite."""
    if not (np.isfinite(rotations).all() and np.isfinite(translations).all()):
        raise InvalidInputError("non-finite motion")
    err = np.abs(np.swapaxes(rotations, -1, -2) @ rotations - np.eye(3)).max(initial=0.0)
    if err > ORTHONORMALITY_TOL:
        raise InvalidInputError(f"rotation not orthonormal (err={err:.3g})")
    if np.abs(np.linalg.det(rotations) - 1.0).max(initial=0.0) > ORTHONORMALITY_TOL:
        raise InvalidInputError("rotation must be proper (det +1)")


def checked_motions(rotations, translations) -> tuple:
    """A stack of k >= 0 rigid motions: read-only (k, 3, 3) rotations and
    (k, 2) in-plane translations as float arrays, checked once over the whole
    stack (check_motions)."""
    try:
        rot, tr = np.array(rotations, dtype=float), np.array(translations, dtype=float)
    except (TypeError, ValueError):
        rot = tr = None
    if rot is None or rot.shape[1:] != (3, 3) or tr.shape != (len(rot), 2):
        raise InvalidInputError("motions need a (k, 3, 3) rotation and a (k, 2) translation stack")
    check_motions(rot, tr)
    rot.flags.writeable = tr.flags.writeable = False
    return rot, tr


def _checked_points(labels_per_row, coords, dim: int, name: str, shape_error: str) -> tuple:
    """The label tuples and the read-only (k, n, dim) float array of k point
    sets, checked once over the whole stack: its shape (else shape_error), at
    least 3 points, finite coordinates and distinct labels in each row.
    name.format(i) names row i in an error ("frame {}" for frames, "body"
    for a body)."""
    labels = [tuple(labs) for labs in labels_per_row]
    try:
        xyz = np.array(coords, dtype=float)
    except (TypeError, ValueError):
        xyz = None
    if xyz is None or xyz.ndim != 3 or xyz.shape[2] != dim \
            or list(map(len, labels)) != [xyz.shape[1]] * len(xyz):
        raise InvalidInputError(shape_error)
    repeats = [labels.index(labs) for labs in set(labels) if len(set(labs)) < len(labs)]
    if repeats:
        raise InvalidInputError(f"{name.format(min(repeats))}: duplicate labels")
    if xyz.shape[1] < 3:
        raise InvalidInputError(f"{name.format(0)}: needs at least 3 points, has {xyz.shape[1]}")
    if not np.isfinite(xyz).all():
        raise InvalidInputError("non-finite coordinate")
    xyz.flags.writeable = False
    return labels, xyz


def checked_body(labels, points) -> tuple:
    """A body: its label tuple and a read-only (n, 3) float array of its
    points, one row per label, checked as a frame is (_checked_points)."""
    (labels,), (xyz,) = _checked_points(
        [labels], [points], 3, "body", "a body needs one label per point and an (n, 3) array")
    return labels, xyz


@dataclass(frozen=True, init=False, eq=False)
class FrameObservation:
    """Labeled 2D projections of the traced points within one frame: a label
    tuple and a read-only (n, 2) array of their (x, y), made one frame at a
    time by FrameObservation(labels, coords), checked as a one-row stack.
    Frames equal under == hash alike, -0.0 against 0.0 included.
    """

    labels: tuple
    _xy: np.ndarray

    def __init__(self, labels, coords):
        (frame,) = self.stack([labels], [coords])
        vars(self).update(vars(frame))

    @classmethod
    def stack(cls, labels_per_frame, coords) -> tuple:
        """One frame per row of a (k, n, 2) coordinate stack, labelled by the
        k label sequences, checked once over the whole stack (_checked_points)."""
        labels, xy = _checked_points(
            labels_per_frame, coords, 2, "frame {}",
            "FrameObservation.stack needs one label per point and a (k, n, 2) stack")
        frames = tuple(object.__new__(cls) for _ in labels)
        for frame, labs, rows in zip(frames, labels, xy):
            vars(frame).update(labels=labs, _xy=rows)
        return frames

    def __eq__(self, other):
        return isinstance(other, FrameObservation) and self.labels == other.labels \
            and np.array_equal(self._xy, other._xy)

    def __hash__(self):
        return hash((self.labels, tuple(self._xy.ravel().tolist())))

    def coords(self, labels=None) -> np.ndarray:
        """The (x, y) of the given labels, in their order, as an (m, 2)
        array; of every point, in frame order, when labels is None (the
        frame's own read-only array).

        Raises MissingLabelError when a label is absent from the frame.
        """
        if labels is None:
            return self._xy
        names, rows = self.labels, []
        for label in labels:
            try:
                rows.append(names.index(label))
            except ValueError:
                raise MissingLabelError(f"label {label!r} absent from frame") from None
        return self._xy[rows]

    def scale_sq(self) -> float:
        """Squared diameter of the observation set, computed on first use."""
        e, unit_sq = self.unit_scale_sq
        return unit_sq * 2.0 ** e * 2.0 ** e

    @cached_property
    def unit_scale_sq(self) -> tuple:
        """(e, s): the coordinate span lies in [2^(e-1), 2^e) (e clamped to
        the normal exponents), and s is the squared diameter of the
        coordinates times 2^-e.  That scaling is exact, so no square
        overflows or underflows, and in range s * 4^e is scale_sq bit for bit."""
        e = math.frexp(float(np.ptp(self._xy, axis=0).max()))[1]
        e = min(max(e, sys.float_info.min_exp), sys.float_info.max_exp - 1)
        diff = (self._xy[:, None] - self._xy[None]) * 2.0 ** -e
        # vecdot rounds each entry exactly as d @ d does on one difference d
        return e, float(np.vecdot(diff, diff).max())


@dataclass(frozen=True)
class DofBalance:
    """Unknown-vs-measurement count for p points over k frames."""

    unknowns: int
    information: int
    recoverable: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "recoverable", self.unknowns <= self.information)


def projected_sq_distances(frame: FrameObservation, labels) -> tuple:
    """Squared distances between consecutive label pairs in the canonical
    edge order: PQ, QR, RP for three labels, plus TR, TP, TQ for four.

    Raises MissingLabelError when a label is absent from the frame, and
    InvalidInputError when the largest overflows, or underflows while the
    points do not coincide: the distances then lack the relative precision
    every answer needs.
    """
    labels = tuple(labels)
    if len(labels) == 3:
        edges = TRIANGLE_EDGES
    elif len(labels) == 4:
        edges = TETRA_EDGES
    else:
        raise InvalidInputError("expected 3 or 4 labels")
    xy = frame.coords(labels).tolist()
    out = []
    for i, j in edges:
        dx, dy = xy[i][0] - xy[j][0], xy[i][1] - xy[j][1]
        out.append(dx * dx + dy * dy)
    top = max(out)
    if top == math.inf or (top < sys.float_info.min and xy != xy[:1] * len(xy)):
        raise InvalidInputError("squared distances outside the normal float range: rescale")
    return tuple(out)


def dof_balance(p: int, k: int) -> DofBalance:
    """Recoverability balance for p traced points over k frames.

    Unknowns: -1 + 3p + 5(k-1); measurements: 2kp.  Integer-exact.
    """
    if p < 1 or k < 1:
        raise InvalidInputError("need p >= 1 points and k >= 1 frames")
    return DofBalance(unknowns=-1 + 3 * p + 5 * (k - 1), information=2 * k * p)


def depth_pair(a_dep, b_dep, c_dep) -> tuple:
    """Depths (z_P, z_Q) over R, z_P >= 0, from the deficits of PQ, QR, RP;
    elementwise, so arrays of deficits give arrays of depths.

    z_P^2 = c_dep, z_Q^2 = b_dep, (z_P - z_Q)^2 = a_dep; the product
    z_P*z_Q = (c_dep + b_dep - a_dep)/2 fixes the relative sign.
    """
    z_p = np.sqrt(np.where(c_dep < 0.0, 0.0, c_dep))
    z_q = np.sqrt(np.where(b_dep < 0.0, 0.0, b_dep))
    return z_p, np.where(c_dep + b_dep - a_dep < 0.0, -z_q, z_q)


def embed_depths(true_sq, frame_sq):
    """Per-edge depth offsets consistent with one frame's projections.

    Given true squared lengths (a^2, b^2, c^2) and the frame's projected
    squared lengths, recovers (dz_PQ, dz_QR, dz_RP) -- the depth change
    across each edge -- as the signed square roots of the per-edge deficits,
    signed by depth_pair.  The three offsets must close to zero around the
    triangle; both reflection branches are returned, dz_PQ >= 0 first.

    Raises InconsistentLengthsError when the offsets do not close within
    tolerance, or when a projection exceeds its true length.
    """
    true_vals = tuple(true_sq)
    frame_vals = tuple(frame_sq)
    scale_sq = max(max(abs(v) for v in true_vals), max(abs(v) for v in frame_vals))
    deficits = [t - f for t, f in zip(true_vals, frame_vals)]
    for deficit in deficits:
        if deficit < -DEFAULT_TOL * scale_sq:
            raise InconsistentLengthsError(
                f"projected length exceeds true length (deficit {deficit:.3g})")
    z_p, z_q = (float(z) for z in depth_pair(*deficits))
    # the reflection in which the depth rises from P to Q
    sign = 1.0 if z_q - z_p >= 0.0 else -1.0
    branch = (math.sqrt(max(deficits[0], 0.0)), -sign * z_q, sign * z_p)
    closure = abs(sum(branch))
    if closure > 3.0 * math.sqrt(_DEFICIT_ULPS * sys.float_info.epsilon * scale_sq):
        raise InconsistentLengthsError(
            f"the depth offsets do not close the loop (gap {closure:.3g})")
    return branch, tuple(-x for x in branch)
