"""Everything recoverable (and provably unrecoverable) from exactly two frames.

Two frames never determine a rigid body's 3D structure: a one-parameter
family of distinct interpretations reprojects exactly onto both images
(ambiguity_family constructs it).  What the leftover information does
support is point identification: with four points, three correspondences
predict a line in the second frame that the fourth point's image must lie
on.  The distance to that line (collinearity_residual_4pt) scores
candidate assignments (match_points) or, with known labels, serves as a
rigidity test (rigidity_score).  For a rigid pair that distance is zero at
every admissible assumed length |RP|^2, so one is enough: 1.5x the longest
projection when it admits a triangle, else one probe between consecutive
zeros of a few quadratics in |RP|^2 decides in O(1) whether any larger
length does (_assumed_length).  Each assignment is set up once, and its
depths come from geometry.depth_pair.  Five points make the prediction
fully linear (residual_5pt): orthography drops the depth from
x2 = A*x1 + r*z1 + t, which leaves one affine epipolar equation per
correspondence.  match_points ranks all probe assignments, by the 4-point
residual at n = 4 and for n >= 5 in one batched closed-form pass over those
equations (_affine_epipolar), and walks the ranking the same way at every
n: only the assignments it reaches get the 4-point test.  Four probes
that fit one affine map (coplanar in 3D) fix no epipolar direction; a
further correspondence fixes it (_planar_direction).  One routine
(_line_tables) measures every line distance that the ranking, the tie
test and the refusal compare.  Images that one 2D
isometry maps onto each other (a turn about the view axis, no depth term),
a collinear frame, and two points on one epipolar line (they swap as
rigidly as they match) are refused as degenerate.  Each function reads a
frame's coordinates once, as one (n, 2) array (FrameObservation.coords),
and divides them once by the frame pair's scale (_pair_scale), so every
threshold here is dimensionless.
The thresholds are named once, in the table below, and none of them is a
parameter: match_points' rigidity_tol is the one tolerance a caller sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBasisError,
    DegenerateEliminationError,
    InconsistentLengthsError,
    InvalidInputError,
    NoConsistentAssignmentError,
    NoSolutionError,
)
from .geometry import (
    DEFAULT_TOL,
    FrameObservation,
    Point3,
    RigidMotion,
    apply_motion,
    depth_pair,
    project,
)
from .solvers import _solve_quadratic, check_tolerance, quad_coeffs

# Assumed-length policy for the 4-point scorer: |RP| is assumed 1.5x its
# longest projection whenever that admits a triangle (see _assumed_length).
C_START_FACTOR = 1.5

DEFAULT_RIGIDITY_TOL = 1e-6     # relative to the observation diameter

# Thresholds on points divided by the pair's scale.  DEFAULT_TOL is the slack
# of a b^2 root's discriminant and of its lengths over their projections.
DEGENERACY_EPS = 1e-12    # zero below: basis |det|, |RP x RQ|, line, a^2 coefficient gap
LINEAR_EPS = 1e-14        # zero below: b^2 leading coefficient per the others' scale
AXIS_EPS = 1e-9           # zero below: ambiguity axis, rotated ray direction
DEPTH_AXIS_EPS = 1e-18    # zero below: |rotated depth axis in the image|^2
BASE_REPROJECTION = 100 * DEFAULT_TOL   # worst reprojection of a base ambiguity_family takes
EXACT_REPROJECTION = 10 * DEFAULT_TOL   # ... of a base candidate returned at once
REPROJECTION_BOUND = 1e-6               # ... of any other fit, member or base candidate kept
AFFINE_RANK_EPS = 1e-8    # zero below: epipolar direction; congruent below: misfit to an isometry


@dataclass(frozen=True)
class BofCCoeffs:
    """Coefficients of the two-frame biquadratic linking b^2 and c^2.

    With B = b^2 and C = c^2 the relation reads
      B^2*f_b2 + B*(C*f_cb + f_b) + (C*f_c + C^2*f_c2 + f_Cst) = 0.
    """

    f_cb: float
    f_c: float
    f_b: float
    f_Cst: float
    f_b2: float
    f_c2: float

    def evaluate(self, b_sq: float, c_sq: float) -> float:
        return (b_sq * b_sq * self.f_b2
                + b_sq * (c_sq * self.f_cb + self.f_b)
                + c_sq * self.f_c + c_sq * c_sq * self.f_c2 + self.f_Cst)

    def a_sq_of(self, b_sq: float, c_sq: float) -> float:
        """Back-substituted a^2 from the eliminated linear relation."""
        return self.p * b_sq + self.q * c_sq + self.r

    # affine coefficients of the eliminated a^2 = p*B + q*C + r
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0


def b_of_c_coeffs(frame1_sq, frame2_sq) -> BofCCoeffs:
    """Eliminate a^2 between the two frames' quartic identities.

    Each identity is quadratic in a^2 with a unit leading coefficient, so
    their difference is linear in a^2; solving and substituting back gives
    a relation quadratic in both b^2 and c^2.

    Raises DegenerateEliminationError when the a^2 coefficients of the two
    frames coincide (identical frames, or a motion leaving the edge
    deficits equal).
    """
    q1, q2 = quad_coeffs(frame1_sq), quad_coeffs(frame2_sq)
    denom = q1.coef_a - q2.coef_a
    magnitude = max(abs(v) for f in (frame1_sq, frame2_sq) for v in f)
    if abs(denom) <= DEGENERACY_EPS * magnitude:
        raise DegenerateEliminationError("a^2 coefficients coincide between frames")
    p = -(q1.coef_b - q2.coef_b) / denom
    q = -(q1.coef_c - q2.coef_c) / denom
    r = -(q1.const - q2.const) / denom
    return BofCCoeffs(
        f_b2=(1.0 - p) ** 2,
        f_c2=(1.0 - q) ** 2,
        f_cb=2.0 * (p * q - p - q - 1.0),
        f_b=2.0 * p * r - 2.0 * r + q1.coef_b + q1.coef_a * p,
        f_c=2.0 * q * r - 2.0 * r + q1.coef_c + q1.coef_a * q,
        f_Cst=r * r + q1.const + q1.coef_a * r,
        p=p, q=q, r=r,
    )


def solve_b_given_c(coeffs: BofCCoeffs, c_sq: float) -> tuple:
    """Non-negative roots b^2 of the biquadratic for an assumed c^2.

    The thresholds assume coefficients from frames of unit size, as every
    caller in the package passes.  solvers._solve_quadratic is no substitute:
    its tol-relative linear test would take a large assumed c as linear.

    Raises NoSolutionError when the discriminant is decisively negative
    (the assumed c is below the feasible range and must be increased).
    """
    if c_sq < 0:
        raise InvalidInputError("c_sq must be non-negative")
    lin = c_sq * coeffs.f_cb + coeffs.f_b
    const = c_sq * coeffs.f_c + c_sq * c_sq * coeffs.f_c2 + coeffs.f_Cst
    lead = coeffs.f_b2
    coeff_scale = max(lin * lin, abs(4.0 * lead * const))
    if abs(lead) <= LINEAR_EPS * math.sqrt(coeff_scale):
        if lin == 0.0:
            raise NoSolutionError("degenerate biquadratic")
        roots = (-const / lin,)
    else:
        disc = lin * lin - 4.0 * lead * const
        if disc < 0.0:
            if disc > -DEFAULT_TOL * coeff_scale:
                roots = (-lin / (2.0 * lead),)
            else:
                raise NoSolutionError("negative discriminant for assumed c")
        else:
            # the root of larger magnitude from the sum that cannot cancel,
            # the other from the product of the roots, const / lead
            half = -(lin + math.copysign(math.sqrt(disc), lin)) / 2.0
            roots = (half / lead, const / half) if half else (0.0,)
    return tuple(sorted(b for b in roots if b >= 0.0))


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


def _pair_scale(frame1: FrameObservation, frame2: FrameObservation) -> float:
    """The larger observation diameter of a frame pair (1 if it is zero)."""
    return math.sqrt(max(frame1.scale_sq(), frame2.scale_sq())) or 1.0


def _unit_triangle(frame: FrameObservation, labels, scale: float):
    """The labels' (x, y) divided by scale, the squared projections of PQ,
    QR, RP divided by scale^2, and the squared projection of RP in the
    frame's units, rounded as scale_sq rounds it."""
    xy = frame.coords(labels)
    d = xy[:3] - xy[[1, 2, 0]]   # PQ, QR, RP
    sq = np.vecdot(d, d)
    return (xy / scale).tolist(), tuple((sq / (scale * scale)).tolist()), float(sq[2])


def _admissible_roots(coeffs: BofCCoeffs, minima: tuple, c_sq: float) -> tuple:
    """The b^2 roots at a unit c^2 whose lengths (a^2, b^2, c^2) are no
    shorter than minima, in ascending order."""
    try:
        roots = solve_b_given_c(coeffs, c_sq)
    except NoSolutionError:
        return ()
    min_a, min_b, min_c = minima
    return tuple(b_sq for b_sq in roots
                 if not (coeffs.a_sq_of(b_sq, c_sq) < min_a
                         or b_sq < min_b or c_sq < min_c))


def _length_boundaries(coeffs: BofCCoeffs, minima: tuple) -> tuple:
    """Every unit c^2 at which the admissible b^2 roots can change.

    The roots move continuously with c^2, so a root enters or leaves the
    admissible set only where it appears (the discriminant in b^2 vanishes),
    escapes to infinity (the b^2 leading coefficient does not depend on c^2,
    so only where the linear one vanishes and the equation is linear), or
    crosses b^2 = max(min_b, 0) or a^2 = min_a.  Each is a zero of a
    quadratic in c^2.  The c^2 minimum never binds above the policy's start.
    Not included: the c^2 where solve_b_given_c's tolerances switch (a
    slightly negative discriminant kept as a double root, a leading
    coefficient below LINEAR_EPS of the others taken as zero): the first lies
    within rounding of a discriminant zero, the second occurs only in
    near-linear biquadratics.
    """
    k = coeffs
    min_a, min_b, _ = minima
    b_min = max(min_b, 0.0)
    quadratics = [
        # discriminant of the biquadratic in b^2
        (k.f_cb * k.f_cb - 4.0 * k.f_b2 * k.f_c2,
         2.0 * k.f_cb * k.f_b - 4.0 * k.f_b2 * k.f_c,
         k.f_b * k.f_b - 4.0 * k.f_b2 * k.f_Cst),
        # the biquadratic at b^2 = b_min
        (k.f_c2, k.f_c + k.f_cb * b_min,
         k.f_b2 * b_min * b_min + k.f_b * b_min + k.f_Cst),
        # the linear coefficient
        (0.0, k.f_cb, k.f_b),
    ]
    if min_a > -math.inf:
        # times p^2 on the line p*b^2 = u - q*c^2 where a^2 = min_a
        p, q, u = k.p, k.q, min_a - k.r
        quadratics.append((
            k.f_b2 * q * q - p * k.f_cb * q + p * p * k.f_c2,
            -2.0 * k.f_b2 * u * q + p * (k.f_cb * u - k.f_b * q) + p * p * k.f_c,
            k.f_b2 * u * u + p * k.f_b * u + p * p * k.f_Cst))
    # with no tolerance: the exact zeros, a degree drop only at a zero coefficient
    return tuple(z for quad in quadratics for z in _solve_quadratic(*quad, 0.0))


def _assumed_length(coeffs: BofCCoeffs, minima: tuple, c_start: float):
    """The assumed-length policy: (unit c^2, its admissible b^2 roots).

    c^2 is c_start whenever it admits a root.  Otherwise admissibility is
    constant between consecutive _length_boundaries above c_start, so one
    probe in each such interval decides it: the midpoint of the first
    admissible interval is taken, or twice its lower end when it is
    unbounded.  Raises NoSolutionError when no c^2 >= c_start is admissible.
    """
    roots = _admissible_roots(coeffs, minima, c_start)
    if roots:
        return c_start, roots
    ends = sorted({z for z in _length_boundaries(coeffs, minima) if c_start < z < math.inf})
    probes = [(lo + hi) / 2.0 for lo, hi in zip([c_start] + ends, ends)]
    probes.append(2.0 * (ends[-1] if ends else c_start))
    for c_sq in probes:
        roots = _admissible_roots(coeffs, minima, c_sq)
        if roots:
            return c_sq, roots
    raise NoSolutionError("no feasible assumed length found for assignment")


class _TrianglePair:
    """An assignment's points in both frames divided once by the pair's scale,
    and what the triangle P, Q, R gives in those units, all in Python floats
    read from the frames' tables.  Assumed lengths must dominate their
    projections up to DEFAULT_TOL, except when P1, Q1, R1 are nearly
    collinear (det1 is None): then every length passes, so that the residual
    raises DegenerateBasisError."""

    def __init__(self, frame1, frame2, labels1, labels2):
        self.scale = _pair_scale(frame1, frame2)
        self.pts1, self.sq1, rp1 = _unit_triangle(frame1, labels1, self.scale)
        self.pts2, self.sq2, rp2 = _unit_triangle(frame2, labels2, self.scale)
        self.coeffs = b_of_c_coeffs(self.sq1, self.sq2)
        (px, py), (qx, qy), (rx, ry) = self.pts1[:3]
        # det [RP RQ] over frame 1: the z component of RP x RQ at any depths
        self.det1 = (px - rx) * (qy - ry) - (py - ry) * (qx - rx)
        if abs(self.det1) < DEGENERACY_EPS:
            self.det1 = None
            self.minima = (-math.inf,) * 3
        else:
            self.minima = tuple(max(s) - DEFAULT_TOL for s in zip(self.sq1, self.sq2))
        # the policy's first c^2, formed in caller units and then divided
        c_start = C_START_FACTOR ** 2 * max(rp1, rp2) or self.scale ** 2
        self.c_start = self.unit_c_sq(c_start)

    def unit_c_sq(self, c_sq: float) -> float:
        """An assumed c^2 in caller units, in the pair's units."""
        return c_sq / (self.scale * self.scale)

    def roots(self, c_sq: float) -> tuple:
        """The admissible b^2 roots at a unit c^2, ascending."""
        return _admissible_roots(self.coeffs, self.minima, c_sq)

    def assumed_length(self) -> tuple:
        """(unit c^2, roots) under the assumed-length policy."""
        return _assumed_length(self.coeffs, self.minima, self.c_start)

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
    follows the policy of _assumed_length.

    Raises DegenerateBasisError for collinear P, Q, R and NoSolutionError
    when the assumed c (or, under the policy, every c) admits no triangle.
    """
    pair = _TrianglePair(frame1, frame2, assignment.source_labels,
                         assignment.target_labels)
    if c_sq is None:
        c_sq, roots = pair.assumed_length()
    else:
        c_sq = pair.unit_c_sq(c_sq)
        roots = pair.roots(c_sq)
        if not roots:
            raise NoSolutionError("no b^2 root dominating the projections for assumed c")
    det1 = pair.det1
    if det1 is None:
        raise DegenerateBasisError("P1, Q1, R1 nearly collinear")
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


@dataclass(frozen=True)
class MatchReport:
    """The scored assignments of two unlabeled frames and the winner.

    Every ordered assignment of the four probe labels (best.source_labels)
    into the second frame is scored by the test that score names, and
    ranking lists them as (target labels, score) in the frames' units,
    ascending, ties by target labels:
      "collinearity_4pt" (n = 4): the fourth probe's distance to the line
        its three partners predict, inf when no assumed length admits the
        assignment (collinearity_residual_4pt);
      "affine_epipolar" (n >= 5): over the points outside the probe, the
        worst distance from a point's nearest unused target to its epipolar
        line under the affine motion the probes fix, inf when that line is
        undefined.  When the probes' correspondences fit one affine map
        (coplanar probes) the line's direction comes from one further
        correspondence (_planar_direction), and a body whose points all
        fit the map scores their distances to it.
    best is the winning probe assignment (see match_points) and
    best_residual its score: the first in the ranking whose full assignment
    is one-to-one and whose probe quadruple passes the 4-point test (at
    n = 4 the first in the ranking); no point may then have two targets on
    its epipolar line.
    """

    ranking: tuple          # of (target labels, score), ascending
    best: Assignment
    best_residual: float
    margin: float           # the best other assignment's score minus best_residual
    n_scored: int
    full_assignment: dict   # all labels
    score: str              # "collinearity_4pt" or "affine_epipolar"


def _probe_labels(frame: FrameObservation) -> tuple:
    """Four probe points; for n > 4 the quadruple maximizing the area of its
    convex hull, for a well-conditioned RP x RQ basis."""
    labels = frame.labels
    if len(labels) == 4:
        return labels
    quads = list(itertools.combinations(range(len(labels)), 4))
    # each quad's three pairings into two triangles, as closed polygons
    rings = frame.coords()[np.array(quads)[:, [[0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]]]]
    nxt = np.roll(rings, -1, axis=2)
    cross = rings[..., 0] * nxt[..., 1] - nxt[..., 0] * rings[..., 1]
    # the shoelace sum term by term, and the first quad of largest area
    area = np.abs(((cross[..., 0] + cross[..., 1]) + cross[..., 2]) + cross[..., 3]) / 2.0
    best = int(np.fmax.reduce(area, axis=1, initial=0.0).argmax())
    return tuple(labels[i] for i in quads[best])


def _unit_points(frame: FrameObservation, labels, scale: float) -> np.ndarray:
    """The labels' (x, y) less the frame's centroid, divided by scale.

    Raises DegenerateBasisError when the frame's points lie on one line:
    then no image basis exists for the line prediction.
    """
    pts = frame.coords(labels)
    pts = (pts - pts.mean(axis=0)) / scale
    spread = np.linalg.svd(pts, compute_uv=False)
    if spread[1] <= DEGENERACY_EPS * spread[0]:
        raise DegenerateBasisError("every point of a frame lies on one line")
    return pts


def _affine_epipolar(probe1: np.ndarray, pts2: np.ndarray, perms: np.ndarray) -> tuple:
    """Per assignment, the affine map and the epipolar direction that its
    four probe correspondences fix, in closed form.

    Orthography gives x2 = A*x1 + r*z1 + t.  With q the unit affine
    dependency of the four first-frame probes (q^T [x1, y1, 1] = 0), the
    targets give q^T x2 = r * (q^T z1): an (N, 2) direction parallel to r,
    along which every epipolar line runs.  The least-squares map
    [x2, y2] = [x1, y1, 1] @ M, (N, 3, 2), misses the motion's affine part
    only along r, so each point's line passes through its prediction
    under M.  A direction no longer than AFFINE_RANK_EPS means the targets
    keep the probes' dependency: the four pairs fit one affine map
    (coplanar probes, or a motion without a depth term) and fix no
    direction.
    """
    design = np.column_stack([probe1, np.ones(len(probe1))])
    dependency = np.linalg.svd(design.T)[2][-1]
    targets = pts2[perms]
    maps = np.einsum("ij,njk->nik", np.linalg.pinv(design), targets)
    return maps, np.einsum("i,nij->nj", dependency, targets)


def _line_tables(maps: np.ndarray, direction: np.ndarray, pts1: np.ndarray,
                 pts2: np.ndarray) -> np.ndarray:
    """Every line distance the matcher compares, as one (N, len(pts1),
    len(pts2)) array: per assignment (row of maps and direction), each
    second-frame point's distance (last axis) to each first-frame point's
    epipolar line (middle axis), the line through the point's prediction
    under the map along the direction.  Where the direction is exactly zero
    the distance is to the prediction itself: then the correspondences fit
    the map and fix no line."""
    pred = pts1 @ maps[:, :2] + maps[:, None, 2]
    length = np.hypot(direction[:, 0], direction[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = direction[:, ::-1] * (np.array([-1.0, 1.0]) / length[:, None])
        table = (normal @ pts2.T)[:, None] - np.einsum("nj,nmj->nm", normal, pred)[..., None]
    np.abs(table, out=table)
    zero = length == 0.0
    if zero.any():
        offset = pts2 - pred[zero, :, None]
        table[zero] = np.hypot(offset[..., 0], offset[..., 1])
    return table


def _nearest(table: np.ndarray, perms: np.ndarray) -> tuple:
    """Per assignment (row of perms) and first-frame point of a line table:
    the distance of its nearest second-frame point outside the assignment's
    targets, and that point's index, each an (N, len(pts1)) array.  The
    targets' columns of table are overwritten with inf."""
    np.put_along_axis(table, perms[:, None], np.inf, axis=2)
    return table.min(axis=2), table.argmin(axis=2)


def _planar_direction(fit_map: np.ndarray, rest1: np.ndarray, pts2: np.ndarray,
                      targets: np.ndarray) -> tuple:
    """The epipolar direction of an assignment whose probe correspondences
    fit one affine map [x2, y2] = [x1, y1, 1] @ fit_map and so fix none.

    Orthography moves each other point off the map's prediction by r*h, r
    the motion's depth direction and h the point's height over the probes'
    plane, so one further correspondence fixes the direction: that of the
    point farthest from every prediction, tried with each unused target.
    Returns (direction, fit): the unit direction that brings every point's
    nearest unused target closer to its line than that point comes to any
    prediction, or zero when none does; and per point of rest1 its nearest
    unused target's distance to its prediction.  A body whose points all
    fit the map to within AFFINE_RANK_EPS gets zero: no point lies far
    enough off the plane to give a direction.
    """
    zero = np.zeros(2)
    fit = _nearest(_line_tables(fit_map[None], zero[None], rest1, pts2), targets[None])[0][0]
    if fit.max(initial=0.0) <= AFFINE_RANK_EPS:
        return zero, fit
    pivot = int(fit.argmax())
    offset = np.delete(pts2, targets, axis=0) - (rest1[pivot] @ fit_map[:2] + fit_map[2])
    length = np.hypot(offset[:, 0], offset[:, 1])
    dirs = offset[length > 0.0] / length[length > 0.0, None]
    tables = _line_tables(np.broadcast_to(fit_map, (len(dirs), 3, 2)), dirs, rest1, pts2)
    worst = _nearest(tables, np.broadcast_to(targets, (len(dirs), 4)))[0].max(axis=1)
    if len(worst) and worst.min() < fit[pivot]:
        return dirs[int(worst.argmin())], fit
    return zero, fit


def _check_depth_term(probe, perm_labels, coplanar, maps, fits):
    """Raise DegenerateBasisError when an assignment whose probes fit one
    affine map (coplanar: its indices; maps, fits: theirs) maps every
    point by one 2D isometry to within AFFINE_RANK_EPS: the images are
    congruent, so the motion shows no depth term (a turn about the view
    axis) and no epipolar direction exists.  A map that is not an isometry
    is a planar probe quadruple (or body) under a motion with a depth term.
    The sqrt-rounding bound, not rigidity_tol, keeps answering exact pairs
    whose depth term is small but resolvable."""
    stretch = np.abs(np.linalg.svd(maps[:, :2], compute_uv=False) - 1.0).max(axis=1)
    for k, misfit, fit in zip(coplanar.tolist(), stretch.tolist(), fits):
        if max(misfit, fit.max(initial=0.0)) <= AFFINE_RANK_EPS:
            raise DegenerateBasisError(
                f"probe assignment {dict(zip(probe, perm_labels[k]))} maps every point "
                "by one 2D isometry, a motion without a depth term: epipolar "
                "direction undefined")


def match_points(frame1: FrameObservation, frame2: FrameObservation,
                 rigidity_tol: float = DEFAULT_RIGIDITY_TOL) -> MatchReport:
    """Recover the point-to-point correspondence between two frames of one
    rigid body with unknown identities.

    Four probe points are chosen in the first frame and each of the
    n(n-1)(n-2)(n-3) ordered assignments of them into the second frame is
    scored (see MatchReport): for n = 4 by the 4-point line prediction, for
    n >= 5 in one batched pass by the affine epipolar lines the probes fix.
    The ranking is then walked in order: the first assignment whose
    nearest-target extension is one-to-one and whose probe quadruple passes
    the 4-point test wins (the affine test alone admits non-rigid affine
    motions; at n = 4 both hold for every assignment the score admits).
    The first score above rigidity_tol ends the walk, with a refusal when
    nothing passed.  For n >= 5 it names the worst point of the best-ranked
    assignment whose probe quadruple passes: for a rigid probe quadruple,
    the point that left the body.  For n = 4 it gives the best residual.

    Raises DegenerateBasisError when a frame's points are collinear, the
    frames are congruent under some assignment (_check_depth_term), or the
    correspondence is ambiguous: under the winner a point has a second
    target within rigidity_tol of its epipolar line (two points on one
    epipolar line swap as rigidly as they match).  An assignment that
    fails only as not one-to-one is tested for this too, since rounding
    alone may have sent two tied points to one target.
    NoConsistentAssignmentError when no assignment passes within
    rigidity_tol of the pair's scale, and InvalidInputError unless
    rigidity_tol is finite and >= 0.
    """
    check_tolerance("rigidity_tol", rigidity_tol)
    labels1, labels2 = frame1.labels, frame2.labels
    n = len(labels1)
    if n != len(labels2):
        raise InvalidInputError("frames must have equal cardinality")
    if n < 4:
        raise InvalidInputError("matching needs at least 4 points")
    probe = _probe_labels(frame1)
    rest = [lab for lab in labels1 if lab not in probe]
    sources, targets = list(probe) + rest, sorted(labels2)
    scale = _pair_scale(frame1, frame2)
    pts1 = _unit_points(frame1, sources, scale)
    pts2 = _unit_points(frame2, targets, scale)
    # lexicographic in the sorted targets, so that a stable sort by score
    # leaves ties in target-label order
    perm_labels = list(itertools.permutations(targets, 4))
    perms = np.array(list(itertools.permutations(range(n), 4)))
    maps, direction = _affine_epipolar(pts1[:4], pts2, perms)
    coplanar = np.flatnonzero(np.hypot(direction[:, 0], direction[:, 1]) <= AFFINE_RANK_EPS)
    fits = []
    for k in coplanar.tolist():
        direction[k], fit = _planar_direction(maps[k], pts1[4:], pts2, perms[k])
        fits.append(fit)
    _check_depth_term(probe, perm_labels, coplanar, maps[coplanar], fits)
    dist, nearest = _nearest(_line_tables(maps, direction, pts1[4:], pts2), perms)

    def probe_map(k: int) -> dict:
        return dict(zip(probe, perm_labels[k]))

    @functools.cache
    def probe_residual(k: int) -> float:
        # the 4-point residual in the frames' units, inf when none exists
        try:
            return collinearity_residual_4pt(
                frame1, frame2, Assignment(tuple(zip(probe, perm_labels[k]))), None)
        except (NoSolutionError, DegenerateBasisError, DegenerateEliminationError):
            return math.inf

    if n == 4:
        # ranked in the frames' units: dividing first could tie two residuals
        residuals = np.array([probe_residual(k) for k in range(len(perms))])
        scores = residuals / scale
        order = np.argsort(residuals, kind="stable").tolist()
    else:
        scores = dist.max(axis=1)
        residuals = scores * scale
        order = np.argsort(scores, kind="stable").tolist()
    # the walk: the assignments within the threshold, best first
    pos = int(np.count_nonzero(scores <= rigidity_tol))

    def rigid_probe(k: int) -> bool:
        return probe_residual(k) / scale <= rigidity_tol

    def tied(k: int) -> list:
        # the first-frame points with two targets on their epipolar lines
        close = _line_tables(maps[k:k + 1], direction[k:k + 1], pts1, pts2)[0] <= rigidity_tol
        return np.flatnonzero(close.sum(axis=1) > 1).tolist()

    k = next((k for k in order[:pos]
              if (len(set(nearest[k].tolist())) == len(rest) or tied(k)) and rigid_probe(k)),
             None)
    if k is not None:
        shared = tied(k)
        if shared:
            raise DegenerateBasisError(
                f"point {sources[shared[0]]!r} has two targets within threshold "
                f"of its epipolar line under probe assignment {probe_map(k)}: points on one "
                "epipolar line make the correspondence ambiguous")
        best = Assignment(tuple(zip(probe, perm_labels[k])))
        full = best.as_dict()
        full.update((lab, targets[j]) for lab, j in zip(rest, nearest[k].tolist()))
        return MatchReport(
            ranking=tuple(zip((perm_labels[j] for j in order), residuals[order].tolist())),
            best=best, best_residual=float(residuals[k]),
            margin=float(np.delete(residuals, k).min() - residuals[k]),
            n_scored=len(perms), full_assignment=full,
            score="collinearity_4pt" if n == 4 else "affine_epipolar")
    if pos == len(order):
        raise NoConsistentAssignmentError(
            "no assignment within threshold has a rigid probe quadruple and a "
            "one-to-one extension")
    if n == 4:
        raise NoConsistentAssignmentError(
            f"best residual {scores[order[0]]:.3g} of the image scale exceeds threshold")
    named = next((j for j in order[pos:] if rigid_probe(j)), None)
    which = "best-ranked rigid probe assignment"
    if named is None:
        named, which = order[pos], "best-ranked probe assignment; none is rigid"
    worst = int(dist[named].argmax())
    raise NoConsistentAssignmentError(
        f"point {rest[worst]!r}: epipolar distance {dist[named, worst]:.3g} of the "
        f"image scale exceeds threshold ({which}: {probe_map(named)})")


def rigidity_score(frame1: FrameObservation, frame2: FrameObservation,
                   labels=None) -> float:
    """Collinearity residual under the identity assignment.

    Small means the four labeled points move as one rigid body between the
    frames; large means at least one point moves independently.
    """
    if labels is None:
        labels = frame1.labels[:4]
    labels = tuple(labels)
    if len(labels) != 4:
        raise InvalidInputError("rigidity_score needs exactly 4 labels")
    assignment = Assignment(tuple((lab, lab) for lab in labels))
    return collinearity_residual_4pt(frame1, frame2, assignment, None)


def residual_5pt(frame1: FrameObservation, frame2: FrameObservation,
                 labels=None) -> float:
    """Linear five-point consistency residual: the fifth point's distance,
    in the second frame, to the affine epipolar line that the first four
    correspondences fix (the matcher's construction, for one assignment).
    No quadratic is solved.

    Raises DegenerateBasisError when the four correspondences fit one affine
    map (P, Q, R, T coplanar, or a motion without a depth term), so they fix
    no line, or when a frame's five points lie on one line.
    """
    if labels is None:
        labels = frame1.labels[:5]
    labels = tuple(labels)
    if len(labels) != 5:
        raise InvalidInputError("residual_5pt needs exactly 5 labels")
    scale = _pair_scale(frame1, frame2)
    pts1, pts2 = (_unit_points(frame, labels, scale) for frame in (frame1, frame2))
    maps, direction = _affine_epipolar(pts1[:4], pts2, np.arange(4)[None])
    if math.hypot(*direction[0]) <= AFFINE_RANK_EPS:
        raise DegenerateBasisError(
            "P, Q, R, T fit one affine map: epipolar line undefined")
    return float(_line_tables(maps, direction, pts1[4:], pts2)[0, 0, 4]) * scale


@dataclass(frozen=True)
class Interpretation:
    """One consistent 3D reading of a two-frame observation pair: the body
    in first-frame coordinates plus the motion carrying it into the second
    frame."""

    points: tuple          # of (label, Point3)
    motion: RigidMotion

    def reprojection_residuals(self, frame1, frame2) -> tuple:
        """Max image distance to each frame's observed points."""
        labels = [lab for lab, _ in self.points]
        obs1, obs2 = (frame.coords(labels).tolist() for frame in (frame1, frame2))
        r1 = max(math.hypot(pt.x - x, pt.y - y) for (_, pt), (x, y) in zip(self.points, obs1))
        r2 = 0.0
        for (_, pt), (x, y) in zip(self.points, obs2):
            img = project(apply_motion(self.motion, pt))
            r2 = max(r2, math.hypot(img.x - x, img.y - y))
        return r1, r2


@dataclass(frozen=True)
class AmbiguityMember:
    """One member of the two-frame ambiguity family."""

    angle: float
    points: tuple          # of (label, Point3)
    motion: RigidMotion

    def as_interpretation(self) -> Interpretation:
        return Interpretation(self.points, self.motion)


def _axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def ambiguity_family(frame1: FrameObservation, frame2: FrameObservation,
                     base: Interpretation, angles) -> list:
    """Construct distinct 3D interpretations all reprojecting onto both frames.

    The second frame's projection rays, pulled back through the base
    motion, share a direction d.  Each plane spanned by a first-frame ray
    and its pulled-back partner is orthogonal to n = e_z x d; rotating the
    pulled-back ray bundle about the axis through the first base point
    along n keeps every ray inside its plane, so new intersections with
    the first-frame rays exist and yield a new consistent body.  Angle 0
    returns the base interpretation.

    Angles whose rotated rays become parallel to the first-frame rays are
    skipped (returned as members with points=None and a parallel flag).

    Raises DegenerateBasisError for in-plane motion (rays already parallel)
    and InvalidInputError for a non-finite angle.
    """
    angles = [float(angle) for angle in angles]
    for angle in angles:
        if not math.isfinite(angle):
            raise InvalidInputError(f"angles must be finite, got {angle!r}")
    res1, res2 = base.reprojection_residuals(frame1, frame2)
    scale = _pair_scale(frame1, frame2)
    if max(res1, res2) / scale > BASE_REPROJECTION:
        raise InvalidInputError(
            f"base interpretation does not reproduce the frames "
            f"(residuals {res1:.3g}, {res2:.3g})")
    rot = base.motion.rotation
    d = rot.T @ np.array([0.0, 0.0, 1.0])
    axis = np.cross(np.array([0.0, 0.0, 1.0]), d)
    axis_norm = np.linalg.norm(axis)
    if axis_norm < AXIS_EPS:
        raise DegenerateBasisError(
            "motion is in-plane: ambiguity axis undefined")
    axis /= axis_norm
    anchor = base.points[0][1].as_array()
    targets = frame1.coords([lab for lab, _ in base.points])

    members = []
    for angle in angles:
        spin = _axis_rotation(axis, angle)
        new_dir = spin @ d
        dir_xy = new_dir[:2]
        nd = np.linalg.norm(dir_xy)
        if nd < AXIS_EPS:
            members.append(AmbiguityMember(angle, None, None))
            continue
        new_points = []
        ok = True
        for (lab, pt), target in zip(base.points, targets):
            x = pt.as_array()
            moved = anchor + spin @ (x - anchor)
            s = float(dir_xy @ (target - moved[:2])) / float(dir_xy @ dir_xy)
            y = moved + s * new_dir
            if np.linalg.norm(y[:2] - target) / scale > REPROJECTION_BOUND:
                ok = False
                break
            new_points.append((lab, Point3(*map(float, y))))
        if not ok:
            members.append(AmbiguityMember(angle, None, None))
            continue
        new_rot = rot @ spin.T
        shift = rot @ anchor - new_rot @ anchor
        new_tr = base.motion.translation + shift[:2]
        members.append(AmbiguityMember(
            angle, tuple(new_points), RigidMotion(new_rot, new_tr)))
    return members


# A worked two-frame configuration with a strikingly non-unique structure:
# at REFERENCE_AMBIGUITY_ANGLE the family member moves Q and R several
# units in depth while both images stay pixel-identical.
REFERENCE_BODY = (
    ("P", Point3(0.0, 0.0, 0.0)),
    ("Q", Point3(2.0, -2.0, 3.46537)),
    ("R", Point3(5.0, 4.0, 0.68697)),
)
_REFERENCE_PHI = 2.7805551414450389    # azimuth of the pulled-back ray direction
_REFERENCE_TILT = 0.4                  # tilt of that direction from the view axis
REFERENCE_AMBIGUITY_ANGLE = 1.456756913094817
REFERENCE_ALTERNATE_DEPTHS = {"Q": 4.63902, "R": 4.37296}


def reference_ambiguity_scene():
    """The frozen demonstration scene for the two-frame ambiguity.

    Returns (body, motion): the 3-point body above and a rigid motion such
    that rotating the family by REFERENCE_AMBIGUITY_ANGLE yields a member
    whose Q and R depths are REFERENCE_ALTERNATE_DEPTHS while both frames
    reproject exactly.
    """
    d = np.array([
        math.sin(_REFERENCE_TILT) * math.cos(_REFERENCE_PHI),
        math.sin(_REFERENCE_TILT) * math.sin(_REFERENCE_PHI),
        math.cos(_REFERENCE_TILT),
    ])
    ez = np.array([0.0, 0.0, 1.0])
    axis = np.cross(d, ez)
    axis /= np.linalg.norm(axis)
    rot = _axis_rotation(axis, math.atan2(np.linalg.norm(np.cross(d, ez)), float(d @ ez)))
    return REFERENCE_BODY, RigidMotion(rot, np.zeros(2))


def interpretation_from_scene(scene) -> Interpretation:
    """Ground-truth interpretation of a simulated scene's first two frames."""
    if len(scene.motions) < 2:
        raise InvalidInputError("scene needs at least 2 frames")
    return Interpretation(points=scene.body, motion=scene.motions[1])


def base_interpretation_from_frames(frame1: FrameObservation,
                                    frame2: FrameObservation) -> Interpretation:
    """Construct some consistent 3D interpretation of two frames of a rigid
    body, using the first three points as the gauge triangle.

    The assumed |RP| follows the same deterministic policy as the matcher;
    the triangle is embedded in both frames, the proper rotation between
    the embeddings recovered, and any further points placed on their
    first-frame rays at the depth that reproduces the second frame.  At the
    policy's single c^2, the first candidate in order (b^2 ascending, then
    the second frame's reflection) that reproduces the frames to
    EXACT_REPROJECTION is returned: for a rigid pair every candidate at a
    feasible c is exact up to rounding, so choosing the smallest residual
    would let rounding, and with it the units, pick the body.

    Raises InconsistentLengthsError when no branch reproduces the frames
    (the two frames are not images of one rigid body).
    """
    labels = frame1.labels
    if len(labels) < 3:
        raise InvalidInputError("need at least 3 points")
    pair = _TrianglePair(frame1, frame2, labels[:3], labels[:3])
    img1, img2 = frame1.coords(), frame2.coords(labels)
    try:
        c_sq, roots = pair.assumed_length()
    except NoSolutionError:
        roots = ()
    best = None
    for b_sq in roots:
        (zp1, zq1), (zp2, zq2) = pair.depths(b_sq, c_sq)
        e1 = np.column_stack([pair.pts1, (zp1, zq1, 0.0)])
        for flip in (1.0, -1.0):
            e2 = np.column_stack([pair.pts2, (flip * zp2, flip * zq2, 0.0)])
            cand = _fit_interpretation(e1, e2, labels, img1, img2, pair.scale)
            if cand is None:
                continue
            if cand[0] < EXACT_REPROJECTION:
                return cand[1]
            if best is None or cand[0] < best[0]:
                best = cand
    if best is not None and best[0] < REPROJECTION_BOUND:
        return best[1]
    raise InconsistentLengthsError(
        "no rigid two-frame interpretation found for these observations")


def _fit_interpretation(e1: np.ndarray, e2: np.ndarray, labels, img1: np.ndarray,
                        img2: np.ndarray, scale: float):
    """Kabsch-fit a proper rotation e1 -> e2 and lift all frame points.

    e1 and e2 are triangle embeddings in units of scale, the frame pair's
    (_pair_scale); img1 and img2 hold the labels' (x, y) in each frame.
    Returns (worst reprojection residual in units of scale, Interpretation
    in the frames' units), or None when the fit misses e2.
    """
    cen1, cen2 = e1.mean(axis=0), e2.mean(axis=0)
    h = (e1 - cen1).T @ (e2 - cen2)
    u, _, vt = np.linalg.svd(h)
    det = np.linalg.det(vt.T @ u.T)
    rot = vt.T @ np.diag([1.0, 1.0, det]) @ u.T
    fit_err = np.abs(rot @ (e1 - cen1).T - (e2 - cen2).T).max()
    if fit_err > REPROJECTION_BOUND:
        return None
    translation = (cen2 - rot @ cen1)[:2]
    rxy = rot[:2, :]  # top 2x3 block maps lifted points to image xy
    col = rxy[:, 2]
    # the depth on each first-frame ray that lands on its second-frame image
    rhs = (img2 - img1 @ rxy[:, :2].T) / scale - translation
    z = rhs @ col / (col @ col) if col @ col > DEPTH_AXIS_EPS else np.zeros(len(labels))
    worst = float(np.linalg.norm(rhs - np.outer(z, col), axis=1).max())
    points = tuple((lab, Point3(x, y, depth * scale))
                   for lab, (x, y), depth in zip(labels, img1, z))
    return worst, Interpretation(points, RigidMotion(rot, translation * scale))
