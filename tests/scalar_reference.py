"""The scalar paths that orthosfm's array code replaced, kept verbatim as the
tests' reference: the per-point body (Point3, apply_motion) that bodies as
(n, 3) arrays replaced, and the two-frame path that the array core of
orthosfm.two_frame replaced: the quadratic root routine, the depth-sign
routine, the biquadratic, the per-assignment triangle set-up (_TrianglePair)
and the 4-point residual, one assignment and one root at a time in Python
floats."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from orthosfm.errors import (
    DegenerateBasisError,
    DegenerateEliminationError,
    InvalidInputError,
    NoSolutionError,
)
from orthosfm.geometry import (
    DEFAULT_TOL,
    DEGENERACY_EPS,
    LINEAR_EPS,
    FrameObservation,
    check_tolerance,
    quad_coeffs,
)
from orthosfm.two_frame import C_START_FACTOR, BofCCoeffs, _pair_units


@dataclass(frozen=True)
class Point3:
    """A 3D scene point; z is depth, orthogonal to the image plane."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise InvalidInputError(f"non-finite Point3 ({self.x}, {self.y}, {self.z})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def apply_motion(rotation: np.ndarray, translation: np.ndarray, p: Point3) -> Point3:
    """Rotate and translate a point; translation acts in the image plane only."""
    v = rotation @ p.as_array()
    return Point3(v[0] + translation[0], v[1] + translation[1], v[2])


def solve_quadratic(q2: float, q1: float, q0: float, tol: float):
    """Real roots of q2 t^2 + q1 t + q0 = 0, ascending, each once.

    The equation is linear when |q2| is within LINEAR_EPS of the others'
    scale, sqrt(max(q1^2, |4 q2 q0|)).  tol only clamps the discriminant: one
    within tol of that scale squared below zero is a double root, so
    squaring noise cannot empty the solution set.  The root of larger
    magnitude comes from the sum that cannot cancel, the other from the
    product of the roots, q0 / q2.
    """
    coeff_scale = max(q1 * q1, abs(4.0 * q2 * q0))
    if abs(q2) <= LINEAR_EPS * math.sqrt(coeff_scale):
        return () if q1 == 0.0 else (-q0 / q1,)
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        return (-q1 / (2.0 * q2),) if disc > -tol * coeff_scale else ()
    big = -(q1 + math.copysign(math.sqrt(disc), q1)) / 2.0
    roots = (big / q2, q0 / big if big else -q1 / q2 - big / q2)
    return tuple(sorted(set(roots)))


def depth_pair(a_dep: float, b_dep: float, c_dep: float) -> tuple:
    """Depths (z_P, z_Q) over R, z_P >= 0, from the deficits of PQ, QR, RP.

    z_P^2 = c_dep, z_Q^2 = b_dep, (z_P - z_Q)^2 = a_dep; the product
    z_P*z_Q = (c_dep + b_dep - a_dep)/2 fixes the relative sign.
    """
    z_p = math.sqrt(max(c_dep, 0.0))
    z_q = math.sqrt(max(b_dep, 0.0))
    if (c_dep + b_dep - a_dep) < 0.0:
        z_q = -z_q
    return z_p, z_q



def b_of_c_coeffs(frame1_sq, frame2_sq) -> BofCCoeffs:
    """Eliminate a^2 between the two frames' quartic identities.

    Each identity is quadratic in a^2 with a unit leading coefficient, so
    their difference is linear in a^2; solving and substituting back gives
    a relation quadratic in both b^2 and c^2.

    Raises DegenerateEliminationError when the a^2 coefficients of the two
    frames coincide (identical frames, or a motion leaving the edge
    deficits equal).
    """
    (a1, b1, c1, k1), (a2, b2, c2, k2) = quad_coeffs(frame1_sq), quad_coeffs(frame2_sq)
    denom = a1 - a2
    magnitude = max(abs(v) for f in (frame1_sq, frame2_sq) for v in f)
    if abs(denom) <= DEGENERACY_EPS * magnitude:
        raise DegenerateEliminationError("a^2 coefficients coincide between frames")
    p = -(b1 - b2) / denom
    q = -(c1 - c2) / denom
    r = -(k1 - k2) / denom
    return BofCCoeffs(
        f_b2=(1.0 - p) ** 2,
        f_c2=(1.0 - q) ** 2,
        f_cb=2.0 * (p * q - p - q - 1.0),
        f_b=2.0 * p * r - 2.0 * r + b1 + a1 * p,
        f_c=2.0 * q * r - 2.0 * r + c1 + a1 * q,
        f_Cst=r * r + k1 + a1 * r,
        p=p, q=q, r=r,
    )


def solve_b_given_c(coeffs: BofCCoeffs, c_sq: float) -> tuple:
    """Non-negative roots b^2 of the biquadratic for an assumed c^2, ascending
    (geometry.solve_quadratic's roots).  Its thresholds assume coefficients
    from frames of unit size, as every caller in the package passes.

    Raises NoSolutionError when there is no real root: the discriminant is
    decisively negative (the assumed c is below the feasible range and must
    be increased), or the equation is degenerate.  InvalidInputError unless
    c_sq is finite and >= 0.
    """
    check_tolerance("c_sq", c_sq)
    lin = c_sq * coeffs.f_cb + coeffs.f_b
    const = c_sq * coeffs.f_c + c_sq * c_sq * coeffs.f_c2 + coeffs.f_Cst
    roots = solve_quadratic(coeffs.f_b2, lin, const, DEFAULT_TOL)
    if not roots:
        raise NoSolutionError("no real root b^2 for assumed c")
    return tuple(b for b in roots if b >= 0.0)


def _line_distance(px, py, ax, ay, bx, by) -> float:
    """Distance of (px, py) to the line through (ax, ay) and (bx, by), or to
    (ax, ay) when the two are closer than DEGENERACY_EPS."""
    dx, dy = bx - ax, by - ay
    nd = math.hypot(dx, dy)
    if nd < DEGENERACY_EPS:
        return math.hypot(px - ax, py - ay)
    return abs(dx * (py - ay) - dy * (px - ax)) / nd


@dataclass(frozen=True)
class Assignment:
    """An ordered bijection of four probe labels into second-frame labels."""

    pairs: tuple   # ((p1,p2), (q1,q2), (r1,r2), (t1,t2))

    def __post_init__(self):
        pairs = tuple(tuple(p) for p in self.pairs)
        targets = [b for _, b in pairs]
        if len(set(targets)) != len(targets):
            raise InvalidInputError("assignment must be injective")
        object.__setattr__(self, "pairs", pairs)

    @property
    def source_labels(self) -> tuple:
        return tuple(a for a, _ in self.pairs)

    @property
    def target_labels(self) -> tuple:
        return tuple(b for _, b in self.pairs)

    def as_dict(self) -> dict:
        return dict(self.pairs)


def _unit_triangle(frame: FrameObservation, labels, unit: float, scale: float):
    """The labels' (x, y) times unit and divided by scale (see _pair_units),
    the squared projections of PQ, QR, RP so scaled, and the squared
    projection of RP times unit^2."""
    xy = frame.coords(labels) * unit
    d = xy[:3] - xy[[1, 2, 0]]   # PQ, QR, RP
    sq = np.vecdot(d, d)
    return (xy / scale).tolist(), tuple((sq / (scale * scale)).tolist()), float(sq[2])


class _TrianglePair:
    """An assignment's points in both frames divided once by the pair's scale,
    and what the triangle P, Q, R gives in those units, all in Python floats
    read from the frames' tables.  Assumed lengths must dominate their
    projections up to DEFAULT_TOL."""

    def __init__(self, frame1, frame2, labels1, labels2):
        self.unit, unit_scale = _pair_units(frame1, frame2)
        self.scale = unit_scale / self.unit
        self.pts1, self.sq1, rp1 = _unit_triangle(frame1, labels1, self.unit, unit_scale)
        self.pts2, self.sq2, rp2 = _unit_triangle(frame2, labels2, self.unit, unit_scale)
        self.coeffs = b_of_c_coeffs(self.sq1, self.sq2)
        (px, py), (qx, qy), (rx, ry) = self.pts1[:3]
        # det [RP RQ] over frame 1: the z component of RP x RQ at any depths
        self.det1 = (px - rx) * (qy - ry) - (py - ry) * (qx - rx)
        self.minima = tuple(max(s) - DEFAULT_TOL for s in zip(self.sq1, self.sq2))
        # the policy's c^2, formed in units of 1 / unit and then divided
        self.diameter_sq = unit_scale * unit_scale
        c_start = C_START_FACTOR ** 2 * max(rp1, rp2) or unit_scale ** 2
        self.c_start = c_start / self.diameter_sq

    def unit_c_sq(self, c_sq: float) -> float:
        """An assumed c^2 in caller units, in the pair's units."""
        return c_sq * self.unit * self.unit / self.diameter_sq

    def roots(self, c_sq: float) -> tuple:
        """The b^2 roots at a unit c^2 whose lengths (a^2, b^2, c^2) are no
        shorter than the minima, ascending: the admissible roots."""
        try:
            roots = solve_b_given_c(self.coeffs, c_sq)
        except NoSolutionError:
            return ()
        min_a, min_b, min_c = self.minima
        return tuple(b_sq for b_sq in roots
                     if not (self.coeffs.a_sq_of(b_sq, c_sq) < min_a
                             or b_sq < min_b or c_sq < min_c))

    def assumed_length(self) -> tuple:
        """The assumed-length policy: (c_start, its admissible b^2 roots),
        c_start being 1.5^2 times RP's longer squared projection (the pair's
        squared diameter if both are zero).  Raises NoSolutionError when
        c_start admits no root.

        No other length needs a try, as c_start is admissible whenever any
        length is.  In exact arithmetic, with c1 and c2 RP's squared
        projections in frames 1 and 2:
        - A root admissible at c^2 is a reading of the triangle in both
          frames with |RP|^2 = c^2, and back: its lengths dominate both
          frames' projections and satisfy both quartic identities, so each
          frame sees a triangle with those sides, and the two are congruent
          (up to the second frame's reflection, which negates its depths).
        - In a reading, the second view's direction d is not e_z: a turn
          about e_z keeps every projection, and b_of_c_coeffs has raised
          DegenerateEliminationError.  Let n be the unit normal of the plane
          Pi of e_z and d, which lies in both image planes, and u, w the unit
          vectors of Pi normal to e_z and d.  RP's parts g = n.RP, dh = u.RP
          and dw = w.RP are read from the images: c1 = g^2 + dh^2 and
          c2 = g^2 + dw^2.
        - Turning d within Pi to the angle phi in (0, pi) from e_z, with
          each depth set to keep its w-offset, keeps both images
          (ambiguity_family's rotation) and gives RP the depth difference
          f(phi) = (dh*cos(phi) - dw) / sin(phi): |RP|^2 = c1 + f(phi)^2.
        - f is continuous, |f| -> inf at one end of (0, pi) or both unless
          dh = dw = 0, and inf f^2 = max(0, dw^2 - dh^2) (f = 0 at
          cos(phi) = dw/dh, else f is extremal at cos(phi) = dh/dw).  So
          |RP|^2 takes every value in (max(c1, c2), inf), or only c1 = c2
          when dh = dw = 0.  As c_start > max(c1, c2), no length above it is
          admissible unless it is.
        The factor 1.5^2 keeps c_start far from the ray's end, where
        rounding and the DEFAULT_TOL slack could decide.
        """
        roots = self.roots(self.c_start)
        if not roots:
            raise NoSolutionError("no feasible assumed length found for assignment")
        return self.c_start, roots

    def depths(self, b_sq: float, c_sq: float) -> tuple:
        """(z_P, z_Q) over frame 1 and over frame 2 for a root b^2 at c^2."""
        a_sq = self.coeffs.a_sq_of(b_sq, c_sq)
        return tuple(depth_pair(a_sq - a, b_sq - b, c_sq - c)
                     for a, b, c in (self.sq1, self.sq2))


def collinearity_residual_4pt(frame1: FrameObservation, frame2: FrameObservation,
                              assignment: Assignment, c_sq: float | None = None) -> float:
    """Distance of the fourth point's second-frame image to its predicted line.

    The first three correspondences (P, Q, R) plus an assumed squared length
    c^2 = |RP|^2 fix a two-frame triangle interpretation.  The fourth
    point's first-frame ray is expressed through two reference points: T_a
    in the plane RPQ and T_b shifted along RP x RQ by the frame pair's
    scale.  Mapping both into the second frame predicts a line that must
    contain T2.  The minimum over the two b-branches and the second frame's
    reflection branches is returned.  With c_sq None the assumed length
    follows the policy of _TrianglePair.assumed_length.

    Raises InvalidInputError unless c_sq is None or finite and >= 0; then
    DegenerateBasisError for nearly collinear P1, Q1, R1; then
    NoSolutionError when the assumed c (or, under the policy, every c)
    admits no triangle, or InvalidInputError when c_sq overflows in the
    pair's units.
    """
    if c_sq is not None:
        check_tolerance("c_sq", c_sq)
    pair = _TrianglePair(frame1, frame2, assignment.source_labels,
                         assignment.target_labels)
    det1 = pair.det1
    if abs(det1) < DEGENERACY_EPS:
        raise DegenerateBasisError("P1, Q1, R1 nearly collinear")
    if c_sq is None:
        c_sq, roots = pair.assumed_length()
    else:
        c_sq = pair.unit_c_sq(c_sq)
        roots = pair.roots(c_sq)
        if not roots:
            raise NoSolutionError("no b^2 root dominating the projections for assumed c")
    (p1x, p1y), (q1x, q1y), (r1x, r1y), (t1x, t1y) = pair.pts1
    (p2x, p2y), (q2x, q2y), (r2x, r2y), (t2x, t2y) = pair.pts2
    # RP (u) and RQ (v) over each frame, the basis; RT (w) over frame 1
    u1x, u1y, v1x, v1y = p1x - r1x, p1y - r1y, q1x - r1x, q1y - r1y
    u2x, u2y, v2x, v2y = p2x - r2x, p2y - r2y, q2x - r2x, q2y - r2y
    w1x, w1y = t1x - r1x, t1y - r1y
    # T_a's coordinates in the frame-1 basis by Cramer's rule, mapped to frame 2
    sa, ta = (w1x * v1y - w1y * v1x) / det1, (u1x * w1y - u1y * w1x) / det1
    t2ax, t2ay = r2x + sa * u2x + ta * v2x, r2y + sa * u2y + ta * v2y

    best = None
    for b_sq in roots:
        (zp1, zq1), (zp2, zq2) = pair.depths(b_sq, c_sq)
        # unit normal of RP x RQ over frame 1; its norm is at least |det1|
        n1x, n1y = u1y * zq1 - zp1 * v1y, zp1 * v1x - u1x * zq1
        n1_norm = math.hypot(n1x, n1y, det1)
        wbx, wby = w1x - n1x / n1_norm, w1y - n1y / n1_norm
        sb, tb = (wbx * v1y - wby * v1x) / det1, (u1x * wby - u1y * wbx) / det1
        for flip in (1.0, -1.0):
            zp, zq = flip * zp2, flip * zq2
            n2x, n2y = u2y * zq - zp * v2y, zp * v2x - u2x * zq
            n2_norm = math.hypot(n2x, n2y, u2x * v2y - u2y * v2x)
            if n2_norm < DEGENERACY_EPS:
                continue
            t2bx = r2x + sb * u2x + tb * v2x + n2x / n2_norm
            t2by = r2y + sb * u2y + tb * v2y + n2y / n2_norm
            dist = _line_distance(t2x, t2y, t2ax, t2ay, t2bx, t2by)
            if best is None or dist < best:
                best = dist
    if best is None:
        raise NoSolutionError("assumed c infeasible for every branch")
    return best * pair.scale
