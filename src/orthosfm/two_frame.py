"""Everything recoverable (and provably unrecoverable) from exactly two frames.

Two frames never determine a rigid body's 3D structure: a one-parameter
family of distinct interpretations reprojects exactly onto both images
(ambiguity_family constructs it).  What the leftover information does
support is point identification: with four points, three correspondences
predict a line in the second frame that the fourth point's image must lie
on.  The distance to that line scores candidate assignments (match_points)
or, with known labels, serves as a rigidity test (rigidity_score).  For a
rigid pair that distance is zero at every admissible assumed length |RP|^2,
so one is enough: 1.5x the longer projection, admissible whenever any
length is (_triangle_rows), and tried once a nearly collinear P1, Q1, R1
is refused.  One array core (_residual_rows) scores a stack of
assignments in one pass, from each one's biquadratic, which eliminates a^2
between the two frames' quartic identities (geometry.quad_coeffs), and
geometry's quadratic_roots and depth_pair, all shared with the solvers:
the layer builds on geometry alone and loads no solver.  Five points make
the prediction fully linear (residual_5pt): orthography drops the depth from
x2 = A*x1 + r*z1 + t, which leaves one affine epipolar equation per
correspondence.  match_points ranks all probe assignments, by the 4-point
residual at n = 4 and for n >= 5 in one batched closed-form pass over those
equations (_affine_epipolar), and walks the ranking the same way at every
n: the 4-point test scores what it reaches, in batches of 1, 2, 4, ...  Four probes
that fit one affine map (coplanar in 3D) fix no epipolar direction; a
further correspondence fixes it (_planar_direction).  One routine
(_line_tables) measures every line distance that the ranking, the tie
test and the refusal compare.  Images that one 2D
isometry maps onto each other (a turn about the view axis, no depth term),
a collinear frame, and two points on one epipolar line (they swap as
rigidly as they match) are refused as degenerate.  Each function reads a
frame's coordinates once, as one (n, 2) array (FrameObservation.coords),
and divides them once by the frame pair's scale, after an exact power of
two that keeps every square in range (_pair_units), so every threshold, each
from geometry's tolerance table, is dimensionless and the answer the same
from 1e-300 to 1e300.  None of them is a parameter: match_points'
rigidity_tol is the one a caller sets.
"""

from __future__ import annotations

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
    AXIS_EPS,
    DEFAULT_RIGIDITY_TOL,
    DEFAULT_TOL,
    DEGENERACY_EPS,
    REPROJECTION_BOUND,
    SQRT_EPS,
    FrameObservation,
    RigidMotion,
    check_tolerance,
    checked_body,
    depth_pair,
    quad_coeffs,
    quadratic_roots,
)

# Assumed-length policy for the 4-point scorer: |RP| is assumed 1.5x its
# longer projection once a collinear basis is refused (_triangle_rows).
C_START_FACTOR = 1.5


@dataclass(frozen=True)
class BofCCoeffs:
    """Coefficients of the two-frame biquadratic linking b^2 and c^2, each a
    float or, for the 4-point core, one array entry per row.

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

    def b_roots(self, c_sq) -> tuple:
        """The roots b^2 at c^2 (geometry.quadratic_roots), whose thresholds
        assume coefficients from frames of unit size, as the package's are."""
        lin = c_sq * self.f_cb + self.f_b
        const = c_sq * self.f_c + c_sq * c_sq * self.f_c2 + self.f_Cst
        return quadratic_roots(self.f_b2, lin, const, DEFAULT_TOL)

    # affine coefficients of the eliminated a^2 = p*B + q*C + r
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0


def _biquadratic(sq) -> tuple:
    """(coeffs, degenerate): b_of_c_coeffs elementwise, on an array of
    squared projections indexed [frame, edge, ...], and where the
    elimination is degenerate."""
    q = quad_coeffs(sq.swapaxes(0, 1))
    (a1, a2), (b1, b2), (c1, c2), (k1, k2) = q.coef_a, q.coef_b, q.coef_c, q.const
    denom = a1 - a2
    magnitude = np.abs(sq).max(axis=(0, 1))
    with np.errstate(all="ignore"):
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
        ), np.abs(denom) <= DEGENERACY_EPS * magnitude


def b_of_c_coeffs(frame1_sq, frame2_sq) -> BofCCoeffs:
    """Eliminate a^2 between the two frames' quartic identities.

    Each identity is quadratic in a^2 with a unit leading coefficient, so
    their difference is linear in a^2; solving and substituting back gives
    a relation quadratic in both b^2 and c^2.

    Raises DegenerateEliminationError when the a^2 coefficients of the two
    frames coincide (identical frames, or a motion leaving the edge
    deficits equal).
    """
    coeffs, degenerate = _biquadratic(np.array([frame1_sq, frame2_sq], dtype=float))
    if degenerate:
        _raise(_ELIMINATION)
    return coeffs


def solve_b_given_c(coeffs: BofCCoeffs, c_sq: float) -> tuple:
    """Non-negative roots b^2 of the biquadratic for an assumed c^2, ascending
    (BofCCoeffs.b_roots).

    Raises NoSolutionError when there is no real root: the discriminant is
    decisively negative (the assumed c is below the feasible range and must
    be increased), or the equation is degenerate.  InvalidInputError unless
    c_sq is finite and >= 0.
    """
    check_tolerance("c_sq", c_sq)
    roots, found = coeffs.b_roots(c_sq)
    if not found.any():
        raise NoSolutionError("no real root b^2 for assumed c")
    return tuple(b for b in roots[found].tolist() if b >= 0.0)


def _pair_units(frame1: FrameObservation, frame2: FrameObservation) -> tuple:
    """(unit, scale): the power of two 2^-e of the frame with the wider
    coordinate span (FrameObservation.unit_scale_sq), and the pair's larger
    observation diameter times it (1 if it is zero).  Scaling by a power of
    two is exact, so squares taken after it neither overflow nor underflow,
    and in range every ratio is the one the frames' own units give."""
    (e1, sq1), (e2, sq2) = frame1.unit_scale_sq, frame2.unit_scale_sq
    e = max(e1, e2)
    sq = max(math.ldexp(sq1, 2 * (e1 - e)), math.ldexp(sq2, 2 * (e2 - e)))
    return 2.0 ** -e, math.sqrt(sq) or 1.0


def pair_scale(frame1: FrameObservation, frame2: FrameObservation) -> float:
    """The larger observation diameter of a frame pair (1 if it is zero)."""
    unit, scale = _pair_units(frame1, frame2)
    return scale / unit


# Why a row of _residual_rows has no residual, by code (0: it has one), in
# the order the checks run, as the error collinearity_residual_4pt raises.
_ELIMINATION, _BASIS, _OVERFLOW, _NO_LENGTH, _NO_ROOT, _NO_BRANCH = range(1, 7)
_FAILURES = (
    None,
    (DegenerateEliminationError, "a^2 coefficients coincide between frames"),
    (DegenerateBasisError, "P1, Q1, R1 nearly collinear"),
    (InvalidInputError, "c_sq must be finite and >= 0, got inf"),
    (NoSolutionError, "no feasible assumed length found for assignment"),
    (NoSolutionError, "no b^2 root dominating the projections for assumed c"),
    (NoSolutionError, "assumed c infeasible for every branch"),
)


def _raise(failure: int) -> None:
    """Raise the error of a failure code of _residual_rows, if any."""
    if failure:
        raise _FAILURES[failure][0](_FAILURES[failure][1])


def _triangle_rows(xy: np.ndarray, scale: float, c_sq=None) -> tuple:
    """The triangle half of the 4-point core, per row of a (2, N, k, 2)
    stack of both frames' points, P, Q, R first, in the pair's units times
    its scale (see _pair_units), at c_sq = |RP|^2 / scale^2 for every row,
    or an (N, 1) column of one per row, or None for the policy's.  Returns
    which of each row's two b^2 roots, ascending, give lengths no shorter
    than their projections up to DEFAULT_TOL, (N, 2); their depths (z_P,
    z_Q) over R in each frame (depth_pair), (2, N, 2) each; and the rows
    whose elimination is degenerate (b_of_c_coeffs), (N,).

    The assumed-length policy takes c_start, 1.5^2 times RP's longer
    squared projection (the pair's squared diameter if both are zero).

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
    d = xy[:, :, :3] - xy[:, :, [1, 2, 0]]   # PQ, QR, RP
    sq = np.vecdot(d, d)                       # [frame, row, edge]
    if c_sq is None:
        c_sq = C_START_FACTOR ** 2 * sq[:, :, 2:].max(axis=0)
        c_sq = np.where(c_sq == 0.0, scale ** 2, c_sq) / (scale * scale)
    sq = sq / (scale * scale)
    coeffs, degenerate = _biquadratic(sq.transpose(0, 2, 1)[..., None])
    b_sq, found = (v[:, 0] for v in coeffs.b_roots(c_sq))   # (N, 2): a row's roots
    c_sq = np.broadcast_to(c_sq, b_sq.shape)
    with np.errstate(all="ignore"):
        lengths = np.array([coeffs.a_sq_of(b_sq, c_sq), b_sq, c_sq])   # [edge, row, root]
        shorter = lengths < (sq.max(axis=0) - DEFAULT_TOL).T[..., None]
        admissible = found & (b_sq >= 0.0) & ~shorter.any(axis=0)
        depths = depth_pair(*(lengths[:, None] - sq.transpose(2, 0, 1)[..., None]))
    return admissible, depths, degenerate[:, 0]


def _residual_rows(xy: np.ndarray, scale: float, c_sq=None) -> tuple:
    """The 4-point core: per row of a (2, N, 4, 2) stack of both frames'
    P, Q, R, T in the pair's units times its scale (see _pair_units), the
    residual in units of scale, inf where there is none, and the failure
    code (_FAILURES, 0 for none).  c_sq: as _triangle_rows takes it.

    P, Q, R and c^2 = |RP|^2 fix a two-frame triangle interpretation.  T's
    first-frame ray is expressed through two reference points, T_a in the
    plane RPQ and T_b shifted along RP x RQ by one unit; mapped into the
    second frame they predict a line that must contain T2.  The residual is
    T2's distance to it, the least over the admissible b^2 roots and the
    second frame's reflections (NaN if one is: a length whose square
    overflows).
    """
    with np.errstate(all="ignore"):
        admissible, (zp, zq), degenerate = _triangle_rows(xy, scale, c_sq)
        # x and y of each point over each frame, [frame, row] columns; RP
        # (u) and RQ (v), the basis, and RT (w)
        p, q, r, t = (xy / scale).transpose(2, 3, 0, 1)[..., None, None]
        (ux, uy), (vx, vy), (wx, wy), (rx, ry), (tx, ty) = p - r, q - r, t - r, r, t
        # det [RP RQ] over each frame: the z component of RP x RQ at any depths
        det = ux * vy - uy * vx
        # T_a's coordinates in the frame-1 basis by Cramer's rule, mapped to frame 2
        sa = (wx[0] * vy[0] - wy[0] * vx[0]) / det[0]
        ta = (ux[0] * wy[0] - uy[0] * wx[0]) / det[0]
        t2ax, t2ay = rx[1] + sa * ux[1] + ta * vx[1], ry[1] + sa * uy[1] + ta * vy[1]
        # per frame, root and reflection: the unit normal of RP x RQ, whose
        # norm is at least |det| (frame 1 keeps its reflection, the first)
        zp, zq = (z[..., None] * np.array([1.0, -1.0]) for z in (zp, zq))
        nx, ny = uy * zq - zp * vy, zp * vx - ux * zq
        norm = np.hypot(np.hypot(nx, ny), det)
        nx, ny = nx / norm, ny / norm
        # T_b's coordinates in the frame-1 basis, mapped to frame 2
        wbx, wby = wx[0] - nx[0, ..., :1], wy[0] - ny[0, ..., :1]
        sb, tb = (wbx * vy[0] - wby * vx[0]) / det[0], (ux[0] * wby - uy[0] * wbx) / det[0]
        t2bx = rx[1] + sb * ux[1] + tb * vx[1] + nx[1]
        t2by = ry[1] + sb * uy[1] + tb * vy[1] + ny[1]
        # T2's distance to the line through T2_a and T2_b, or to T2_a when
        # the two are closer than DEGENERACY_EPS
        dx, dy = t2bx - t2ax, t2by - t2ay
        nd = np.hypot(dx, dy)
        dist = np.where(nd < DEGENERACY_EPS, np.hypot(tx[1] - t2ax, ty[1] - t2ay),
                        np.abs(dx * (ty[1] - t2ay) - dy * (tx[1] - t2ax)) / nd)
        valid = admissible[..., None] & ~(norm[1] < DEGENERACY_EPS)
    best = np.where(valid, dist, np.inf).min(axis=(1, 2))
    failure = np.select(
        [degenerate, np.abs(det[0, :, 0, 0]) < DEGENERACY_EPS,
         ~np.isfinite(0.0 if c_sq is None else c_sq).reshape(-1), ~admissible.any(axis=1),
         ~valid.any(axis=(1, 2))],
        [_ELIMINATION, _BASIS, _OVERFLOW, _NO_LENGTH if c_sq is None else _NO_ROOT, _NO_BRANCH])
    return np.where(failure == 0, best, np.inf), failure


def collinearity_residual_4pt(frame1: FrameObservation, frame2: FrameObservation,
                              assignment, c_sq: float | None = None) -> float:
    """Distance of the fourth point's second-frame image to its predicted
    line, in the frames' units, for an assignment of four (label, target)
    pairs (P, Q, R, T) and an assumed squared length c^2 = |RP|^2, or the
    policy's for None: one row of the 4-point core (_residual_rows).

    Raises InvalidInputError unless the targets are distinct and c_sq is
    None or finite and >= 0; then
    DegenerateEliminationError when the frames' a^2 coefficients coincide;
    then DegenerateBasisError for nearly collinear P1, Q1, R1; then
    NoSolutionError when the assumed c (or, under the policy, every c)
    admits no triangle, or InvalidInputError when c_sq overflows in the
    pair's units.
    """
    pairs = tuple(tuple(pair) for pair in assignment)
    if len({target for _, target in pairs}) != len(pairs):
        raise InvalidInputError("assignment must be injective")
    if c_sq is not None:
        check_tolerance("c_sq", c_sq)
    unit, scale = _pair_units(frame1, frame2)
    xy = np.array([frame.coords(labels)[None] * unit
                   for frame, labels in zip((frame1, frame2), zip(*pairs))])
    if c_sq is not None:
        c_sq = c_sq * unit * unit / (scale * scale)
    residual, failure = _residual_rows(xy, scale, c_sq)
    _raise(int(failure[0]))
    return float(residual[0]) * (scale / unit)


@dataclass(frozen=True)
class MatchReport:
    """The scored assignments of two unlabeled frames and the winner.

    Every ordered assignment of the four probe labels (the first of each
    pair in best) into the second frame is scored by the test that score names, and
    ranking lists them as (target labels, score) in the frames' units,
    ascending, ties by target labels:
      "collinearity_4pt" (n = 4): the fourth probe's distance to the line
        its three partners predict, inf when no assumed length admits the
        assignment (the 4-point core, _residual_rows);
      "affine_epipolar" (n >= 5): over the points outside the probe, the
        worst distance from a point's nearest unused target to its epipolar
        line under the affine motion the probes fix, inf when that line is
        undefined.  When the probes' correspondences fit one affine map
        (coplanar probes) the line's direction comes from one further
        correspondence (_planar_direction), and a body whose points all
        fit the map scores their distances to it.
    best is the winning probe assignment as (label, target) pairs (see
    match_points) and
    best_residual its score: the first in the ranking whose full assignment
    is one-to-one and whose probe quadruple passes the 4-point test (at
    n = 4 the first in the ranking); no point may then have two targets on
    its epipolar line.
    """

    ranking: tuple          # of (target labels, score), ascending
    best: tuple             # of (probe label, target label)
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
    # each quad's three pairings into two triangles, as closed polygons, in
    # units where no product overflows or underflows (see _pair_units)
    xy = frame.coords() * 2.0 ** -frame.unit_scale_sq[0]
    rings = xy[np.array(quads)[:, [[0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]]]]
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
    under M.  A direction no longer than SQRT_EPS means the targets
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
    fit the map to within SQRT_EPS gets zero: no point lies far
    enough off the plane to give a direction.
    """
    zero = np.zeros(2)
    fit = _nearest(_line_tables(fit_map[None], zero[None], rest1, pts2), targets[None])[0][0]
    if fit.max(initial=0.0) <= SQRT_EPS:
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
    point by one 2D isometry to within SQRT_EPS: the images are
    congruent, so the motion shows no depth term (a turn about the view
    axis) and no epipolar direction exists.  A map that is not an isometry
    is a planar probe quadruple (or body) under a motion with a depth term."""
    stretch = np.abs(np.linalg.svd(maps[:, :2], compute_uv=False) - 1.0).max(axis=1)
    for k, misfit, fit in zip(coplanar.tolist(), stretch.tolist(), fits):
        if max(misfit, fit.max(initial=0.0)) <= SQRT_EPS:
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
    unit, unit_scale = _pair_units(frame1, frame2)
    scale = unit_scale / unit
    pts1 = _unit_points(frame1, sources, scale)
    pts2 = _unit_points(frame2, targets, scale)
    # lexicographic in the sorted targets, so that a stable sort by score
    # leaves ties in target-label order
    perm_labels = list(itertools.permutations(targets, 4))
    perms = np.array(list(itertools.permutations(range(n), 4)))
    maps, direction = _affine_epipolar(pts1[:4], pts2, perms)
    coplanar = np.flatnonzero(np.hypot(direction[:, 0], direction[:, 1]) <= SQRT_EPS)
    fits = []
    for k in coplanar.tolist():
        direction[k], fit = _planar_direction(maps[k], pts1[4:], pts2, perms[k])
        fits.append(fit)
    _check_depth_term(probe, perm_labels, coplanar, maps[coplanar], fits)
    dist, nearest = _nearest(_line_tables(maps, direction, pts1[4:], pts2), perms)

    def probe_map(k: int) -> dict:
        return dict(zip(probe, perm_labels[k]))

    def probe_residuals(rows: list) -> np.ndarray:
        # the 4-point residuals of these assignments in the frames' units,
        # inf where none exists
        xy = np.array([np.broadcast_to(frame1.coords(probe), (len(rows), 4, 2)),
                       frame2.coords(targets)[perms[rows]]])
        return _residual_rows(xy * unit, unit_scale)[0] * scale

    if n == 4:
        # ranked in the frames' units: dividing first could tie two residuals
        residuals = probe_residuals(list(range(len(perms))))
        scores = residuals / scale
        order = np.argsort(residuals, kind="stable").tolist()
    else:
        scores = dist.max(axis=1)
        residuals = scores * scale
        order = np.argsort(scores, kind="stable").tolist()
    # the walk: the assignments within the threshold, best first
    pos = int(np.count_nonzero(scores <= rigidity_tol))

    def first_rigid(candidates):
        # the first candidate whose probe quadruple passes the 4-point test,
        # or None; past n = 4 the candidates the walk reaches are scored in
        # batches of 1, 2, 4, ..., never twice as many as it reaches
        candidates, size = iter(candidates), 1
        while batch := list(itertools.islice(candidates, size)):
            found = (residuals[batch] if n == 4 else probe_residuals(batch)) / scale
            rigid = np.flatnonzero(found <= rigidity_tol).tolist()
            if rigid:
                return batch[rigid[0]]
            size *= 2
        return None

    def tied(k: int) -> list:
        # the first-frame points with two targets on their epipolar lines
        close = _line_tables(maps[k:k + 1], direction[k:k + 1], pts1, pts2)[0] <= rigidity_tol
        return np.flatnonzero(close.sum(axis=1) > 1).tolist()

    k = first_rigid(k for k in order[:pos]
                    if len(set(nearest[k].tolist())) == len(rest) or tied(k))
    if k is not None:
        shared = tied(k)
        if shared:
            raise DegenerateBasisError(
                f"point {sources[shared[0]]!r} has two targets within threshold "
                f"of its epipolar line under probe assignment {probe_map(k)}: points on one "
                "epipolar line make the correspondence ambiguous")
        best = tuple(zip(probe, perm_labels[k]))
        full = dict(best)
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
    named = first_rigid(order[pos:])
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
    return collinearity_residual_4pt(frame1, frame2, tuple(zip(labels, labels)), None)


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
    scale = pair_scale(frame1, frame2)
    pts1, pts2 = (_unit_points(frame, labels, scale) for frame in (frame1, frame2))
    maps, direction = _affine_epipolar(pts1[:4], pts2, np.arange(4)[None])
    if math.hypot(*direction[0]) <= SQRT_EPS:
        raise DegenerateBasisError(
            "P, Q, R, T fit one affine map: epipolar line undefined")
    return float(_line_tables(maps, direction, pts1[4:], pts2)[0, 0, 4]) * scale


@dataclass(frozen=True, eq=False)
class Interpretation:
    """One consistent 3D reading of a two-frame observation pair: the body
    in first-frame coordinates, as labels and an (n, 3) array of points
    (geometry.checked_body), plus the motion carrying it into the second
    frame.  Interpretations are equal when their fields are, arrays by value."""

    labels: tuple
    points: np.ndarray
    motion: RigidMotion

    def __post_init__(self):
        labels, points = checked_body(self.labels, self.points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "points", points)

    def __eq__(self, other):
        return isinstance(other, Interpretation) and self.labels == other.labels \
            and np.array_equal(self.points, other.points) and self.motion == other.motion

    def reprojection_residuals(self, frame1, frame2) -> tuple:
        """Max image distance to each frame's observed points, each a hypot of
        differences, so no square leaves the float range."""
        images = (self.points[:, :2],
                  self.points @ self.motion.rotation[:2].T + self.motion.translation)
        return tuple(float(np.hypot(*(img - frame.coords(self.labels)).T).max())
                     for img, frame in zip(images, (frame1, frame2)))


def _reproduces(interp: Interpretation, frame1, frame2, scale: float) -> bool:
    """The one reproduction rule: interp's worst image distance, in either
    frame, is within REPROJECTION_BOUND of the pair's diameter, scale."""
    return max(interp.reprojection_residuals(frame1, frame2)) / scale <= REPROJECTION_BOUND


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
    returns the base interpretation.  Each angle's body is one array pass,
    and each point keeps its frame-1 observation as its (x, y).

    Returns one (angle, Interpretation) pair per angle.  The base, and each
    member, must reproduce both frames by the one rule of _reproduces.  A
    member that does not, or whose rotated rays become parallel to the
    first-frame rays, is None.

    Raises DegenerateBasisError for in-plane motion (rays already parallel),
    and InvalidInputError for a non-finite angle or a base that does not
    reproduce the frames.
    """
    angles = [float(angle) for angle in angles]
    for angle in angles:
        if not math.isfinite(angle):
            raise InvalidInputError(f"angles must be finite, got {angle!r}")
    scale = pair_scale(frame1, frame2)
    if not _reproduces(base, frame1, frame2, scale):
        res1, res2 = base.reprojection_residuals(frame1, frame2)
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
    labels, body = base.labels, base.points
    anchor = body[0]
    targets = frame1.coords(labels)

    members = []
    for angle in angles:
        spin = _axis_rotation(axis, angle)
        new_dir = spin @ d
        dir_xy = new_dir[:2]
        if np.linalg.norm(dir_xy) < AXIS_EPS:
            members.append((angle, None))
            continue
        # each point where its first-frame ray meets the rotated bundle's
        # ray, written with its frame-1 observation as (x, y)
        moved = anchor + (body - anchor) @ spin.T
        s = (targets - moved[:, :2]) @ dir_xy / (dir_xy @ dir_xy)
        lifted = np.column_stack([targets, moved[:, 2] + s * new_dir[2]])
        new_rot = rot @ spin.T
        shift = rot @ anchor - new_rot @ anchor
        member = Interpretation(labels, lifted,
                                RigidMotion(new_rot, base.motion.translation + shift[:2]))
        members.append((angle, member if _reproduces(member, frame1, frame2, scale) else None))
    return members


# A worked two-frame configuration with a strikingly non-unique structure:
# at REFERENCE_AMBIGUITY_ANGLE the family member moves Q and R several
# units in depth while both images stay pixel-identical.
REFERENCE_BODY = checked_body(
    "PQR", [(0.0, 0.0, 0.0), (2.0, -2.0, 3.46537), (5.0, 4.0, 0.68697)])
_REFERENCE_PHI = 2.7805551414450389    # azimuth of the pulled-back ray direction
_REFERENCE_TILT = 0.4                  # tilt of that direction from the view axis
REFERENCE_AMBIGUITY_ANGLE = 1.456756913094817
REFERENCE_ALTERNATE_DEPTHS = {"Q": 4.63902, "R": 4.37296}


def reference_ambiguity_scene():
    """The frozen demonstration scene for the two-frame ambiguity.

    Returns (body, motion): the 3-point body above, as labels and points
    (geometry.checked_body), and a rigid motion such
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
    return Interpretation(scene.labels, scene.points, scene.motions[1])


def base_interpretation_from_frames(frame1: FrameObservation,
                                    frame2: FrameObservation) -> Interpretation:
    """Construct some consistent 3D interpretation of two frames of a rigid
    body, using the first three points as the gauge triangle.

    The assumed |RP| follows the same deterministic policy as the matcher;
    the triangle is embedded in both frames, the proper rotation between
    the embeddings recovered, and any further points placed on their
    first-frame rays at the depth that reproduces the second frame.  At the
    policy's single c^2, the first candidate in order (b^2 ascending, then
    the second frame's reflection) that reproduces the frames, by the one
    rule of _reproduces, is returned: for a rigid pair every candidate at a
    feasible c reproduces them, so choosing the smallest residual would let
    rounding, or noise within the bound, pick the body.

    Raises InconsistentLengthsError when no branch reproduces the frames
    (the two frames are not images of one rigid body).
    """
    labels = frame1.labels
    if len(labels) < 3:
        raise InvalidInputError("need at least 3 points")
    unit, unit_scale = _pair_units(frame1, frame2)
    xy = np.array([frame.coords(labels[:3])[None] * unit for frame in (frame1, frame2)])
    admissible, (zp, zq), degenerate = _triangle_rows(xy, unit_scale)
    if degenerate[0]:
        _raise(_ELIMINATION)
    pts1, pts2 = xy[:, 0] / unit_scale
    img1, img2, scale = frame1.coords(), frame2.coords(labels), unit_scale / unit
    for root in np.flatnonzero(admissible[0]).tolist():
        (zp1, zp2), (zq1, zq2) = zp[:, 0, root].tolist(), zq[:, 0, root].tolist()
        e1 = np.column_stack([pts1, (zp1, zq1, 0.0)])
        for flip in (1.0, -1.0):
            e2 = np.column_stack([pts2, (flip * zp2, flip * zq2, 0.0)])
            interp = _fit_interpretation(e1, e2, labels, img1, img2, scale)
            if _reproduces(interp, frame1, frame2, scale):
                return interp
    raise InconsistentLengthsError(
        "no rigid two-frame interpretation found for these observations")


def _fit_interpretation(e1: np.ndarray, e2: np.ndarray, labels, img1: np.ndarray,
                        img2: np.ndarray, scale: float) -> Interpretation:
    """Kabsch-fit a proper rotation e1 -> e2 and lift all frame points.

    e1 and e2 are triangle embeddings in units of scale, the frame pair's
    (pair_scale); img1 and img2 hold the labels' (x, y) in each frame.
    Each point keeps its frame-1 image and takes the depth on its ray that
    lands nearest its frame-2 image.  Returns the Interpretation in the
    frames' units; whether it reproduces them is the caller's test.
    """
    cen1, cen2 = e1.mean(axis=0), e2.mean(axis=0)
    h = (e1 - cen1).T @ (e2 - cen2)
    u, _, vt = np.linalg.svd(h)
    det = np.linalg.det(vt.T @ u.T)
    rot = vt.T @ np.diag([1.0, 1.0, det]) @ u.T
    translation = (cen2 - rot @ cen1)[:2]
    rxy = rot[:2, :]  # top 2x3 block maps lifted points to image xy
    col = rxy[:, 2]
    rhs = (img2 - img1 @ rxy[:, :2].T) / scale - translation
    z = rhs @ col / (col @ col) if col @ col > AXIS_EPS ** 2 else np.zeros(len(labels))
    return Interpretation(labels, np.column_stack([img1, z * scale]),
                          RigidMotion(rot, translation * scale))
