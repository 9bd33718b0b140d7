"""Closed-form recovery of squared 3D lengths from projected squared lengths.

Every frame contributes one sign-free quartic identity per triangle of
edges (geometry.quad_coeffs).  Differencing the identities against a pivot
frame cancels their quadratic terms and leaves rows linear in the squared
lengths; _difference_system builds those rows for all three modes:

* p3f3 -- 3 points / 3 frames, the minimal case.  The two rows express
  a^2 and b^2 as affine functions of c^2; the pivot frame's identity then
  leaves a quadratic (geometry.quadratic_roots): 0, 1 or 2 candidates.
* p3f4 -- 3 points / 4 frames: a 3x3 linear system.
* p4f3 -- 4 points / 3 frames: three edge triples per frame pair give a
  6x6 linear system in the six squared lengths.

One batched core, solve_batch, solves a whole (N, k, e) stack of problems
of one mode: N problems of k frames of e projected squared distances in
the canonical edge order (see geometry).  It divides each problem by its
largest squared distance, so every threshold it compares (geometry's
tolerance table) is dimensionless and the answer does not depend on the
units of the input.  solve_p3f3, solve_p3f4 and solve_p4f3 run it on a
one-row stack and return its BatchResult, whose candidates are flagged for
physical feasibility rather than silently dropped.  Each row of a stack
gets exactly the floats it gets on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEliminationError,
    InvalidInputError,
    SingularSystemError,
)
from .geometry import (DEFAULT_TOL, SINGULAR_TOL, SQRT_EPS, check_tolerance, frame_constant,
                       quad_coeffs, quadratic_roots)

# Triples of 6-vector indices (a,b,c,d,f,g) forming the tetrahedron's
# constrained triangles: (PQ,QT,TP), (TR,RQ,QT), (TR,RP,PT).
_TETRA_TRIPLES = ((0, 5, 4), (3, 1, 5), (3, 4, 2))
_TRIANGLE = ((0, 1, 2),)

# solver mode -> (points, frames) it reads
MODES = {"p3f3": (3, 3), "p3f4": (3, 4), "p4f3": (4, 3)}


@dataclass(frozen=True)
class BatchResult:
    """Every candidate of a stack of N problems, flat, best first per problem.

    Candidate i is row i of lengths, feasible and residuals, and belongs to
    problem row[i]; rows ascend, and a row's candidates are sorted by max
    |residual|.  lengths holds squared lengths in geometry's edge order.
    degenerate[n] says problem n's system was degenerate (p3f3) or singular
    (p3f4, p4f3); such a problem has no candidates.
    """

    row: np.ndarray          # (M,) problem index
    lengths: np.ndarray      # (M, e) squared lengths, in the input's units
    feasible: np.ndarray     # (M,) bool
    residuals: np.ndarray    # (M, k) per-frame quartic-identity residuals
    degenerate: np.ndarray   # (N,) bool

    # orthobench's tracer counts a one-problem result's candidates by these
    @property
    def candidates(self) -> np.ndarray:
        """The (M, e) lengths, one row per candidate."""
        return self.lengths

    @property
    def feasible_candidates(self) -> np.ndarray:
        """The lengths of the feasible candidates."""
        return self.lengths[self.feasible]


def feasibility_check(candidate, frames, tol: float = DEFAULT_TOL):
    """Physical feasibility: squared lengths non-negative and at least as
    long as their projections in every frame, within tolerance.

    Takes one candidate's e squared lengths with its (k, e) frames, or
    stacks of shape (M, e) and (M, k, e) for one flag per candidate.
    """
    cand = np.asarray(candidate, dtype=float)
    frames = np.asarray(frames, dtype=float)
    slack = tol * np.abs(frames).max(axis=(-2, -1))[..., None]
    return ~((cand < -slack).any(axis=-1)
             | (cand[..., None, :] < frames - slack[..., None]).any(axis=(-2, -1)))


def _max_abs(rows):
    """Per row of an (M, k) array, max(abs(r) for r in row) as Python's max
    takes it: a later value replaces the running one only if it is greater,
    so a NaN never does."""
    mags = np.abs(rows).T
    top = mags[0]
    for v in mags[1:]:
        top = np.where(v > top, v, top)
    return top


def _columns(arr, triple=(0, 1, 2)):
    """Views of the three columns of arr's last axis named by triple, to
    unpack into quad_coeffs' or frame_constant's arguments."""
    return tuple(arr[..., k] for k in triple)


def _normalized(stack, shape, name, tol):
    """Validate a stack of solver inputs and scale each problem to unit size.

    Returns the (N,) + shape input as floats, the same divided by each
    problem's largest |squared distance| (1 for an all-zero problem), and
    those (N,) scales.
    """
    try:
        raw = np.asarray(stack, dtype=float)
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.ndim != 3 or raw.shape[1:] != shape:
        raise InvalidInputError(
            f"{name} needs {shape[0]} frames of {shape[1]} squared distances")
    if not np.isfinite(raw).all():
        raise InvalidInputError(f"{name} input must be finite")
    check_tolerance("tol", tol)
    scale = np.abs(raw).max(axis=(1, 2))
    scale = np.where(scale == 0, 1.0, scale)
    return raw, raw / scale[:, None, None], scale


def _difference_system(norm, triples):
    """Rows M x = r of every later frame's identities minus the first frame's,
    for each problem of an (N, k, e) stack: mat (N, rows, e), rhs (N, rows).

    Each edge triple's quartic identity has the same quadratic part in every
    frame, so the difference of two frames is linear in the squared lengths.
    One row per (later frame, triple); columns index the edges.
    """
    n, k, e = norm.shape
    ref = [quad_coeffs(_columns(norm[:, 0], t)) for t in triples]
    mat = np.zeros((n, (k - 1) * len(triples), e))
    rhs = np.empty(mat.shape[:2])
    row = 0
    for f in range(1, k):
        for triple, (ref_a, ref_b, ref_c, ref_const) in zip(triples, ref):
            coef_a, coef_b, coef_c, const = quad_coeffs(_columns(norm[:, f], triple))
            a, b, c = triple
            mat[:, row, a] = coef_a - ref_a
            mat[:, row, b] = coef_b - ref_b
            mat[:, row, c] = coef_c - ref_c
            rhs[:, row] = ref_const - const
            row += 1
    return mat, rhs


def _solve_linear(mat, rhs):
    """Solve each square difference system of a stack.

    A system is singular when its smallest singular value falls below
    SINGULAR_TOL times its largest, or times 1 when the largest is below 1.
    Returns the indices of the other problems, their (M, e) solutions, and
    the (N,) singular flags.
    """
    sv = np.linalg.svd(mat, compute_uv=False)
    singular = ~(sv[:, -1] > SINGULAR_TOL * np.maximum(sv[:, 0], 1.0))
    row = np.flatnonzero(~singular)
    return row, np.linalg.solve(mat[row], rhs[row, :, None])[..., 0], singular


def _solve_each(mats, rhs):
    """np.linalg.solve over a stack, and which systems it solved.

    A singular matrix makes numpy refuse the whole stack; the stack is then
    solved one system at a time, so only the singular ones fail (NaN rows).
    """
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0], np.ones(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        steps, ok = np.full(rhs.shape, np.nan), np.ones(len(mats), dtype=bool)
        for i in range(len(mats)):
            try:
                steps[i] = np.linalg.solve(mats[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                ok[i] = False
        return steps, ok


def _identity_values(sol, frames):
    """(M, k) quartic-identity values of (M, 3) triples on (M, k, 3) frames."""
    return frame_constant(*_columns(sol[:, None, :] - frames))


def _newton_polish(sol, frames, iterations: int = 3):
    """Newton-polish (M, 3) triples (A, B, C), each on the three identities
    of its own (3, 3) frames.

    A candidate stops at its first step whose Jacobian is singular or that
    does not lower its max |residual|; the others go on.
    """
    coefs = np.stack(quad_coeffs(_columns(frames))[:3], axis=-1)
    x = sol.copy()
    r = _identity_values(x, frames)
    active = np.arange(len(x))
    for _ in range(iterations):
        if not len(active):
            break
        a, b, c = x[active].T
        base = np.stack((2.0 * a - 2.0 * b - 2.0 * c,
                         2.0 * b - 2.0 * a - 2.0 * c,
                         2.0 * c - 2.0 * a - 2.0 * b), axis=-1)
        step, ok = _solve_each(base[:, None, :] + coefs[active], -r[active])
        x_new = x[active] + step
        r_new = _identity_values(x_new, frames[active])
        ok &= ~(_max_abs(r_new) >= _max_abs(r[active]))
        active = active[ok]
        x[active], r[active] = x_new[ok], r_new[ok]
    return x


def _eliminate_p3f3(mat, rhs, norm, tol):
    """The p3f3 closed form (see solve_p3f3) on a stack, each quadratic's
    roots Newton-polished.  Returns the candidates' problem indices, their
    normalized (M, 3) lengths, and the (N,) degenerate flags.
    """
    (m_a1, m_b1, _), (m_a2, m_b2, _) = mat.transpose(1, 2, 0)
    # pivot-independent: twice the area of the frames' (coef_a, coef_b) triangle
    det = m_a1 * m_b2 - m_a2 * m_b1
    degenerate = np.abs(det) < SQRT_EPS
    ok = np.flatnonzero(~degenerate)
    (m_a1, m_b1, m_c1), (m_a2, m_b2, m_c2) = mat[ok].transpose(1, 2, 0)
    r1, r2 = rhs[ok].T
    det = det[ok]
    a_c = (m_c2 * m_b1 - m_c1 * m_b2) / det
    a0 = (r1 * m_b2 - r2 * m_b1) / det
    b_c = (m_a2 * m_c1 - m_a1 * m_c2) / det
    b0 = (m_a1 * r2 - m_a2 * r1) / det

    p_a, p_b, p_c, p_const = quad_coeffs(_columns(norm[ok, 0]))
    q2 = a_c * a_c + b_c * b_c + 1.0 - 2.0 * a_c * b_c - 2.0 * a_c - 2.0 * b_c
    q1 = (2.0 * a_c * a0 + 2.0 * b_c * b0 - 2.0 * (a_c * b0 + a0 * b_c)
          - 2.0 * (a0 + b0) + p_a * a_c + p_b * b_c + p_c)
    q0 = (a0 * a0 + b0 * b0 - 2.0 * a0 * b0 + p_const
          + p_a * a0 + p_b * b0)

    roots, found = quadratic_roots(q2, q1, q0, tol)
    source, col = np.nonzero(found)
    c_sq = roots[source, col]
    start = np.stack((a_c[source] * c_sq + a0[source], b_c[source] * c_sq + b0[source], c_sq),
                     axis=-1)
    row = ok[source]
    return row, _newton_polish(start, norm[row]), degenerate


def _residuals(lengths, frames, triples):
    """(M, k) per-frame residuals: a triangle's signed identity value, or
    for a tetrahedron the largest |value| over its four faces, NaN when a
    face's value overflows to NaN."""
    if triples == _TRIANGLE:
        return _identity_values(lengths, frames)
    faces = [np.abs(_identity_values(lengths[:, list(t)], frames[..., list(t)]))
             for t in triples + _TRIANGLE]
    return np.maximum.reduce(faces)


def _by_max_residual(row, residuals):
    """Candidate order with each row's candidates sorted stably by max
    |residual|, as list.sort orders them.  A row has at most two candidates
    (p3f3's quadratic), which list.sort swaps iff the second key is smaller.
    """
    key = _max_abs(residuals)
    swap = np.flatnonzero((row[1:] == row[:-1]) & (key[1:] < key[:-1]))
    order = np.arange(len(row))
    order[swap], order[swap + 1] = swap + 1, swap
    return order


def solve_batch(mode: str, stack, tol: float = DEFAULT_TOL) -> BatchResult:
    """Solve an (N, k, e) stack of one mode's problems in one pass.

    Problem n's candidates, feasibility flags and residuals are exactly
    those solve_<mode>(stack[n], tol) returns; a problem solve_<mode> would
    refuse as degenerate or singular is flagged in degenerate instead.

    Raises InvalidInputError for an unknown mode, a stack of the wrong
    shape, non-finite input, or a tol that is not finite and >= 0.
    """
    if mode not in MODES:
        raise InvalidInputError(f"unknown solver mode {mode!r}")
    n_points, n_frames = MODES[mode]
    triples = _TETRA_TRIPLES if n_points == 4 else _TRIANGLE
    raw, norm, scale = _normalized(
        stack, (n_frames, 6 if n_points == 4 else 3), "solve_" + mode, tol)
    # huge input overflows to inf and nan silently, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        mat, rhs = _difference_system(norm, triples)
        if mode == "p3f3":
            row, sol, degenerate = _eliminate_p3f3(mat, rhs, norm, tol)
        else:
            row, sol, degenerate = _solve_linear(mat, rhs)
        lengths = sol * scale[row, None]
        residuals = _residuals(lengths, raw[row], triples)
        feasible = feasibility_check(lengths, raw[row], tol)
        order = _by_max_residual(row, residuals)
    return BatchResult(row[order], lengths[order], feasible[order], residuals[order],
                       degenerate)


def _solve_one(mode, frames, tol) -> BatchResult:
    """solve_batch on the one-row stack [frames]; a degenerate problem raises."""
    batch = solve_batch(mode, [frames], tol)
    if batch.degenerate[0]:
        if mode == "p3f3":
            raise DegenerateEliminationError("frame-difference elimination is singular")
        raise SingularSystemError("frame-difference system is singular")
    return batch


def solve_p3f3(frames, tol: float = DEFAULT_TOL) -> BatchResult:
    """Recover a triangle's squared lengths from 3 frames (minimal case).

    The two difference rows against frame 1 express A = a^2 and B = b^2 as
    affine functions of C = c^2; substituting into frame 1's quartic
    identity leaves a quadratic in C.  Returns 0, 1 or 2 candidates,
    feasibility-flagged and sorted by max residual: the rows of a one-problem
    BatchResult.

    Raises DegenerateEliminationError when the elimination is singular or
    nearly so (collinear points, frames identical up to in-plane motion, or
    close to either).
    """
    return _solve_one("p3f3", frames, tol)


def solve_p3f4(frames, tol: float = DEFAULT_TOL) -> BatchResult:
    """Recover a triangle's squared lengths from 4 frames (linear case).

    Subtracting the first frame's quartic identity from each of the other
    three leaves a 3x3 linear system in (a^2, b^2, c^2) with at most one
    solution.

    Raises SingularSystemError for degenerate motion (e.g. repeated frames).
    """
    return _solve_one("p3f4", frames, tol)


def solve_p4f3(frames, tol: float = DEFAULT_TOL) -> BatchResult:
    """Recover a tetrahedron's six squared lengths from 3 frames.

    Each frame constrains three edge triples -- (a,g,f), (d,b,g), (d,f,c) --
    through the quartic identity; differencing frames 2 and 3 against frame
    1 gives six equations linear in the six squared lengths.

    Raises SingularSystemError for degenerate motion or configurations.
    """
    return _solve_one("p4f3", frames, tol)
