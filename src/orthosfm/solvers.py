"""Closed-form recovery of squared 3D lengths from projected squared lengths.

Every frame contributes one sign-free quartic identity per triangle of
edges.  Differencing the identities against a pivot frame cancels their
quadratic terms and leaves rows linear in the squared lengths;
_difference_system builds those rows for all three solvers:

* solve_p3f3 -- 3 points / 3 frames, the minimal case.  The two rows
  express a^2 and b^2 as affine functions of c^2; the pivot frame's
  identity then leaves a quadratic, so there can be 0, 1 or 2 candidates.
* solve_p3f4 -- 3 points / 4 frames: a 3x3 linear system.
* solve_p4f3 -- 4 points / 3 frames: three edge triples per frame pair
  give a 6x6 linear system in the six squared lengths.

Each solver first divides its input by the largest squared distance, so
every threshold below is dimensionless and the answer does not depend on
the units of the input.  All solvers consume per-frame projected squared
distances in the canonical edge order (see geometry) and return a
RecoveryResult whose candidates are flagged for physical feasibility
rather than silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEliminationError,
    InvalidInputError,
    SingularSystemError,
)
from .geometry import TetraDistances, TriangleDistances

# Triples of 6-vector indices (a,b,c,d,f,g) forming the tetrahedron's
# constrained triangles: (PQ,QT,TP), (TR,RQ,QT), (TR,RP,PT).
_TETRA_TRIPLES = ((0, 5, 4), (3, 1, 5), (3, 4, 2))
_TRIANGLE = ((0, 1, 2),)

# solver mode -> (points, frames) it reads
MODES = {"p3f3": (3, 3), "p3f4": (3, 4), "p4f3": (4, 3)}

# Dimensionless thresholds on normalized input (largest squared distance 1).
_DEGENERACY_TOL = 1e-12  # |det| of the solve_p3f3 elimination
_SINGULAR_TOL = 1e-10    # smallest / largest singular value of a linear system


def frame_constant(x: float, y: float, z: float) -> float:
    """x^2 + y^2 + z^2 - 2xy - 2xz - 2yz for one frame's squared lengths."""
    return x * x + y * y + z * z - 2.0 * (x * y + x * z + y * z)


@dataclass(frozen=True)
class QuadCoeffs3:
    """Per-frame coefficients of the sign-free quartic identity.

    The identity reads
      A^2 + B^2 + C^2 - 2AB - 2AC - 2BC
        + coef_a*A + coef_b*B + coef_c*C + const = 0
    in the unknown squared lengths A, B, C.
    """

    coef_a: float
    coef_b: float
    coef_c: float
    const: float


def quad_coeffs(frame_sq) -> QuadCoeffs3:
    x, y, z = frame_sq
    return QuadCoeffs3(
        coef_a=2.0 * (-x + y + z),
        coef_b=2.0 * (x - y + z),
        coef_c=2.0 * (x + y - z),
        const=frame_constant(x, y, z),
    )


def eq1_residual(lengths: TriangleDistances, frame_sq) -> float:
    """Value of the sign-free quartic identity for one frame.

    Zero iff the candidate squared lengths are consistent with the frame's
    projections (for some depth-sign assignment).  Computed in the deficit
    form u^2+v^2+w^2-2uv-2uw-2vw with u = a^2-a_i^2 etc., which is exact
    for planar frames.
    """
    u = lengths.a_sq - frame_sq[0]
    v = lengths.b_sq - frame_sq[1]
    w = lengths.c_sq - frame_sq[2]
    return frame_constant(u, v, w)


@dataclass(frozen=True)
class Candidate:
    """One recovered squared-length solution with diagnostics."""

    lengths: object          # TriangleDistances or TetraDistances
    feasible: bool
    residuals: tuple         # per-frame quartic-identity residuals

    @property
    def max_residual(self) -> float:
        return max(abs(r) for r in self.residuals)


@dataclass(frozen=True)
class RecoveryResult:
    """Candidate solutions sorted by max per-frame residual, ascending."""

    candidates: tuple

    @property
    def feasible_candidates(self) -> tuple:
        return tuple(c for c in self.candidates if c.feasible)

    @property
    def best(self):
        return self.candidates[0] if self.candidates else None


def feasibility_check(candidate, frames, tol: float = 1e-9) -> bool:
    """Physical feasibility: squared lengths non-negative and at least as
    long as their projections in every frame, within tolerance."""
    cand = tuple(candidate.as_tuple() if hasattr(candidate, "as_tuple") else candidate)
    slack = tol * max(abs(v) for f in frames for v in f)
    if any(v < -slack for v in cand):
        return False
    for frame in frames:
        for v, proj in zip(cand, frame):
            if v < proj - slack:
                return False
    return True


def _solve_quadratic(q2: float, q1: float, q0: float, tol: float):
    """Real roots of q2 t^2 + q1 t + q0 = 0, robust near double roots.

    A slightly negative discriminant (relative to the coefficient scale) is
    clamped to a double root so squaring noise cannot empty the solution set.
    """
    coeff_scale = max(q1 * q1, abs(4.0 * q2 * q0), 1e-300)
    if abs(q2) * math.sqrt(coeff_scale) < tol * coeff_scale or q2 == 0.0:
        # effectively linear
        if q1 == 0.0:
            return ()
        return (-q0 / q1,)
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        if disc > -tol * coeff_scale:
            return (-q1 / (2.0 * q2),)
        return ()
    sq = math.sqrt(disc)
    # Citardauq-stable split: avoid cancellation in the smaller root
    if q1 >= 0.0:
        big = -(q1 + sq) / 2.0
    else:
        big = -(q1 - sq) / 2.0
    roots = [big / q2]
    if big != 0.0:
        roots.append(q0 / big)
    else:
        roots.append(-q1 / q2 - roots[0])
    return tuple(sorted(set(roots)))


def _newton_polish(sol, frames, iterations: int = 3):
    """Newton-polish a (A, B, C) triple on the three per-frame identities."""
    coeffs = [quad_coeffs(f) for f in frames]

    def residuals(v):
        return [frame_constant(v[0] - f[0], v[1] - f[1], v[2] - f[2]) for f in frames]

    x = list(sol)
    r = residuals(x)
    for _ in range(iterations):
        a, b, c = x
        jac = [(2.0 * a - 2.0 * b - 2.0 * c + q.coef_a,
                2.0 * b - 2.0 * a - 2.0 * c + q.coef_b,
                2.0 * c - 2.0 * a - 2.0 * b + q.coef_c) for q in coeffs]
        try:
            step = np.linalg.solve(jac, [-v for v in r]).tolist()
        except np.linalg.LinAlgError:
            break
        x_new = [v + d for v, d in zip(x, step)]
        r_new = residuals(x_new)
        if max(map(abs, r_new)) >= max(map(abs, r)):
            break
        x, r = x_new, r_new
    return x


def _normalized(frames, shape, name):
    """Validate a solver's input and scale it to unit size.

    Returns the frames as lists of floats divided by the largest squared
    distance, and that scale.
    """
    try:
        arr = np.asarray(frames, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != shape:
        raise InvalidInputError(
            f"{name} needs {shape[0]} frames of {shape[1]} squared distances")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} input must be finite")
    scale = float(np.abs(arr).max()) or 1.0
    return (arr / scale).tolist(), scale


def _difference_system(norm, triples):
    """Rows M x = r of every later frame's identities minus the first frame's.

    Each edge triple's quartic identity has the same quadratic part in every
    frame, so the difference of two frames is linear in the squared lengths.
    One row per (later frame, triple); columns index the edges.
    """
    ref = [quad_coeffs([norm[0][k] for k in t]) for t in triples]
    mat = np.zeros(((len(norm) - 1) * len(triples), len(norm[0])))
    rhs = np.empty(len(mat))
    row = 0
    for frame in norm[1:]:
        for triple, q0 in zip(triples, ref):
            q = quad_coeffs([frame[k] for k in triple])
            mat[row, triple] = (q.coef_a - q0.coef_a, q.coef_b - q0.coef_b,
                                q.coef_c - q0.coef_c)
            rhs[row] = q0.const - q.const
            row += 1
    return mat, rhs


def _solve_linear(norm, triples):
    """Solve the square difference system.

    Raises SingularSystemError when its smallest singular value falls below
    _SINGULAR_TOL times its largest.
    """
    mat, rhs = _difference_system(norm, triples)
    sv = np.linalg.svd(mat, compute_uv=False)
    if not sv[-1] > _SINGULAR_TOL * sv[0]:
        raise SingularSystemError("frame-difference system is singular")
    return np.linalg.solve(mat, rhs).tolist()


def _triangle_candidate(sol, frames, tol) -> Candidate:
    lengths = TriangleDistances(*sol)
    residuals = tuple(eq1_residual(lengths, f) for f in frames)
    return Candidate(lengths, feasibility_check(lengths, frames, tol), residuals)


def solve_p3f3(frames, tol: float = 1e-9) -> RecoveryResult:
    """Recover a triangle's squared lengths from 3 frames (minimal case).

    The two difference rows against frame 1 express A = a^2 and B = b^2 as
    affine functions of C = c^2; substituting into frame 1's quartic
    identity leaves a quadratic in C.  Returns 0, 1 or 2 candidates,
    feasibility-flagged and sorted by max residual.

    Raises DegenerateEliminationError when the elimination is singular
    (collinear points, or frames identical up to in-plane motion).
    """
    norm, scale = _normalized(frames, (3, 3), "solve_p3f3")
    mat, rhs = _difference_system(norm, _TRIANGLE)
    (m_a1, m_b1, m_c1), (m_a2, m_b2, m_c2) = mat.tolist()
    r1, r2 = rhs.tolist()
    # pivot-independent: twice the area of the frames' (coef_a, coef_b) triangle
    det = m_a1 * m_b2 - m_a2 * m_b1
    if abs(det) < _DEGENERACY_TOL:
        raise DegenerateEliminationError("frame-difference elimination is singular")
    a_c = (m_c2 * m_b1 - m_c1 * m_b2) / det
    a0 = (r1 * m_b2 - r2 * m_b1) / det
    b_c = (m_a2 * m_c1 - m_a1 * m_c2) / det
    b0 = (m_a1 * r2 - m_a2 * r1) / det

    qp = quad_coeffs(norm[0])
    q2 = a_c * a_c + b_c * b_c + 1.0 - 2.0 * a_c * b_c - 2.0 * a_c - 2.0 * b_c
    q1 = (2.0 * a_c * a0 + 2.0 * b_c * b0 - 2.0 * (a_c * b0 + a0 * b_c)
          - 2.0 * (a0 + b0) + qp.coef_a * a_c + qp.coef_b * b_c + qp.coef_c)
    q0 = (a0 * a0 + b0 * b0 - 2.0 * a0 * b0 + qp.const
          + qp.coef_a * a0 + qp.coef_b * b0)

    candidates = []
    for c_sq in _solve_quadratic(q2, q1, q0, tol):
        polished = _newton_polish((a_c * c_sq + a0, b_c * c_sq + b0, c_sq), norm)
        candidates.append(_triangle_candidate([v * scale for v in polished], frames, tol))
    candidates.sort(key=lambda c: c.max_residual)
    return RecoveryResult(tuple(candidates))


def solve_p3f4(frames, tol: float = 1e-9) -> RecoveryResult:
    """Recover a triangle's squared lengths from 4 frames (linear case).

    Subtracting the first frame's quartic identity from each of the other
    three leaves a 3x3 linear system in (a^2, b^2, c^2) with at most one
    solution.

    Raises SingularSystemError for degenerate motion (e.g. repeated frames).
    """
    norm, scale = _normalized(frames, (4, 3), "solve_p3f4")
    sol = [v * scale for v in _solve_linear(norm, _TRIANGLE)]
    return RecoveryResult((_triangle_candidate(sol, frames, tol),))


def solve_p4f3(frames, tol: float = 1e-9) -> RecoveryResult:
    """Recover a tetrahedron's six squared lengths from 3 frames.

    Each frame constrains three edge triples -- (a,g,f), (d,b,g), (d,f,c) --
    through the quartic identity; differencing frames 2 and 3 against frame
    1 gives six equations linear in the six squared lengths.

    Raises SingularSystemError for degenerate motion or configurations.
    """
    norm, scale = _normalized(frames, (3, 6), "solve_p4f3")
    sol = [v * scale for v in _solve_linear(norm, _TETRA_TRIPLES)]
    residuals = []
    for frame in frames:
        worst = 0.0
        for triple in _TETRA_TRIPLES + _TRIANGLE:
            tri = TriangleDistances(*(sol[k] for k in triple))
            worst = max(worst, abs(eq1_residual(tri, [frame[k] for k in triple])))
        residuals.append(worst)
    lengths = TetraDistances(*sol)
    feasible = feasibility_check(lengths, frames, tol)
    return RecoveryResult((Candidate(lengths, feasible, tuple(residuals)),))
