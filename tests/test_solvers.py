import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosfm import geometry as geo
from orthosfm import solvers as sol
from orthosfm import scene_sim as sim
from orthosfm.errors import (
    DegenerateEliminationError,
    InvalidInputError,
    SingularSystemError,
)

from conftest import (
    GOLDEN_SQ,
    SCALE_SWEEP,
    TETRA_PAIRS,
    TRIANGLE_PAIRS,
    frames_sq,
    golden_scene,
    near_degenerate_scene,
    true_sq,
    view_axis_frames,
)
from scalar_reference import solve_quadratic

SOLVER_SHAPES = ((sol.solve_p3f3, 3, 3), (sol.solve_p3f4, 3, 4), (sol.solve_p4f3, 4, 3))
OFF_UNIT_SCALES = (1e-6, 1e-3, 1e3, 1e6)


def assert_roundtrip(solve, n_points, n_frames, scale):
    """Each of 200 seeded scenes, coordinates multiplied by `scale`, yields a
    feasible candidate within 1e-9 relative of the true squared lengths."""
    pairs = TETRA_PAIRS if n_points == 4 else TRIANGLE_PAIRS
    for seed in range(200):
        scene = sim.gen_scene(n_points, n_frames, seed)
        truth = true_sq(scene, pairs) * scale ** 2
        frames = [[v * scale ** 2 for v in f] for f in frames_sq(scene)]
        result = solve(frames)
        assert result.feasible_candidates, (seed, scale)
        err = min(np.abs(np.array(c.lengths.as_tuple()) - truth).max()
                  for c in result.feasible_candidates)
        assert err < 1e-9 * truth.max(), (seed, scale)


class TestFrameConstant:
    def test_hand_computed(self):
        # 1+4+9 - 2(2+3+6) = -8
        assert geo.frame_constant(1.0, 2.0, 3.0) == -8.0

    def test_zero_at_origin(self):
        assert geo.frame_constant(0.0, 0.0, 0.0) == 0.0

    def test_symmetric(self, rng):
        for _ in range(20):
            x, y, z = rng.normal(size=3)
            ref = geo.frame_constant(x, y, z)
            assert geo.frame_constant(y, z, x) == pytest.approx(ref, rel=1e-14)
            assert geo.frame_constant(z, x, y) == pytest.approx(ref, rel=1e-14)

    def test_factorization_oracle(self, rng):
        # x^2+y^2+z^2-2xy-2xz-2yz == (x+y+z)^2 - 4(xy+xz+yz)
        for _ in range(50):
            x, y, z = rng.normal(size=3)
            expect = (x + y + z) ** 2 - 4.0 * (x * y + x * z + y * z)
            assert geo.frame_constant(x, y, z) == pytest.approx(expect, abs=1e-12)


class TestQuadCoeffs:
    def test_hand_computed(self):
        q = geo.quad_coeffs((1.0, 2.0, 3.0))
        assert (q.coef_a, q.coef_b, q.coef_c, q.const) == (8.0, 4.0, 0.0, -8.0)

    def test_expanded_matches_deficit_form(self, rng):
        # The per-frame identity in expanded polynomial form must agree with
        # the deficit form used by eq1_residual.
        for _ in range(100):
            frame = tuple(rng.uniform(0.1, 5.0, size=3))
            cand = tuple(rng.uniform(0.1, 5.0, size=3))
            q = geo.quad_coeffs(frame)
            A, B, C = cand
            expanded = (A * A + B * B + C * C - 2 * A * B - 2 * A * C - 2 * B * C
                        + q.coef_a * A + q.coef_b * B + q.coef_c * C + q.const)
            deficit = sol.eq1_residual(geo.TriangleDistances(*cand), frame)
            assert expanded == pytest.approx(deficit, abs=1e-10)


class TestEq1Residual:
    def test_zero_for_planar_frame(self):
        tri = geo.TriangleDistances(*GOLDEN_SQ)
        assert sol.eq1_residual(tri, GOLDEN_SQ) == 0.0

    def test_zero_at_truth_simulated(self):
        for seed in range(50):
            scene = sim.gen_scene(3, 3, seed)
            tri = geo.TriangleDistances(*true_sq(scene))
            scale = max(tri.as_tuple())
            for frame in frames_sq(scene):
                assert abs(sol.eq1_residual(tri, frame)) < 1e-10 * scale ** 2

    def test_nonzero_off_truth(self):
        tri = geo.TriangleDistances(5.0, 9.0, 12.6878)
        assert abs(sol.eq1_residual(tri, GOLDEN_SQ)) >= 1.0


def quadratic_roots(q2, q1, q0, tol):
    """geometry.quadratic_roots on one equation, as a tuple like the reference's."""
    roots, found = geo.quadratic_roots(q2, q1, q0, tol)
    return tuple(roots[found].tolist())


class TestSolveQuadratic:
    def test_distinct_roots(self):
        roots = quadratic_roots(1.0, -5.0, 6.0, 1e-9)
        assert roots == pytest.approx((2.0, 3.0))

    def test_double_root(self):
        roots = quadratic_roots(1.0, -4.0, 4.0, 1e-9)
        assert all(r == pytest.approx(2.0) for r in roots)

    def test_negative_discriminant(self):
        assert quadratic_roots(1.0, 0.0, 1.0, 1e-9) == ()

    def test_tiny_negative_discriminant_clamped(self):
        # disc = -1e-14 relative to coefficient scale ~ 1: treated as double root
        roots = quadratic_roots(1.0, 2.0, 1.0 + 1e-15, 1e-9)
        assert roots == pytest.approx((-1.0,))

    def test_effectively_linear(self):
        roots = quadratic_roots(0.0, 2.0, -6.0, 1e-9)
        assert roots == (3.0,)

    def test_cancellation_stability(self):
        # roots 1e-8 and 1e8: naive formula loses the small root
        roots = sorted(quadratic_roots(1.0, -(1e8 + 1e-8), 1.0, 1e-12))
        assert roots[0] == pytest.approx(1e-8, rel=1e-9)
        assert roots[1] == pytest.approx(1e8, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300])
                                for _ in range(3)]), min_size=1, max_size=8),
           st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]))
    def test_same_roots_as_the_scalar_routine(self, rows, tol):
        # one batched call gives each equation the scalar reference's roots
        # with ==, also for exact double roots, clamped discriminants and
        # linear equations
        roots, found = geo.quadratic_roots(*np.array(rows).T, tol)
        for (q2, q1, q0), r, f in zip(rows, roots, found):
            assert tuple(r[f].tolist()) == solve_quadratic(q2, q1, q0, tol)

    def test_clamped_and_linear_rows_in_one_call(self):
        rows = [(1.0, 2.0, 1.0 + 1e-15), (0.0, 2.0, -6.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0),
                (1.0, -4.0, 4.0), (-1.0, 5e-324, 0.0)]
        roots, found = geo.quadratic_roots(*np.array(rows).T, 1e-9)
        assert [tuple(r[f].tolist()) for r, f in zip(roots, found)] \
            == [solve_quadratic(*row, 1e-9) for row in rows]


class TestFeasibility:
    def test_truth_is_feasible(self):
        scene = golden_scene(3)
        frames = frames_sq(scene)
        assert sol.feasibility_check(geo.TriangleDistances(*GOLDEN_SQ), frames)

    def test_negative_length_infeasible(self):
        assert not sol.feasibility_check((-1.0, 9.0, 12.0), [GOLDEN_SQ])

    def test_shorter_than_projection_infeasible(self):
        assert not sol.feasibility_check((3.0, 9.0, 12.6878), [GOLDEN_SQ])


class TestSolveP3F3:
    def test_golden_recovery(self):
        scene = golden_scene(3)
        result = sol.solve_p3f3(frames_sq(scene))
        best = result.feasible_candidates[0]
        got = np.array(best.lengths.as_tuple())
        assert np.abs(got - GOLDEN_SQ).max() < 1e-9 * max(GOLDEN_SQ)

    def test_roundtrip_seeded(self):
        assert_roundtrip(sol.solve_p3f3, 3, 3, 1.0)

    @pytest.mark.parametrize("scale", OFF_UNIT_SCALES)
    def test_roundtrip_seeded_at_scale(self, scale):
        assert_roundtrip(sol.solve_p3f3, 3, 3, scale)

    def test_candidate_residuals_small_at_solution(self):
        scene = golden_scene(3, seed=7)
        frames = frames_sq(scene)
        scale = max(v for f in frames for v in f)
        for cand in sol.solve_p3f3(frames).candidates:
            assert cand.max_residual < 1e-8 * scale ** 2

    def test_at_most_two_candidates(self):
        for seed in range(50):
            scene = sim.gen_scene(3, 3, seed)
            assert len(sol.solve_p3f3(frames_sq(scene)).candidates) <= 2

    def test_identical_frames_degenerate(self):
        with pytest.raises(DegenerateEliminationError):
            sol.solve_p3f3([GOLDEN_SQ, GOLDEN_SQ, GOLDEN_SQ])

    def test_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            sol.solve_p3f3([GOLDEN_SQ, GOLDEN_SQ])

    def test_pure_in_plane_motion_degenerate(self):
        # In-plane rotation leaves projected distances unchanged -> degenerate
        scene = golden_scene(1)
        motions = []
        for ang in (0.0, 0.5, 1.2):
            c, s = math.cos(ang), math.sin(ang)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            motions.append(geo.RigidMotion(rot, np.array([ang, -ang])))
        scene = sim.Scene(scene.labels, scene.points, motions=tuple(motions), seed=0)
        with pytest.raises(DegenerateEliminationError):
            sol.solve_p3f3(frames_sq(scene))


class TestSolveP3F4:
    def test_golden_recovery(self):
        scene = golden_scene(4)
        best = sol.solve_p3f4(frames_sq(scene)).best
        assert best.feasible
        got = np.array(best.lengths.as_tuple())
        assert np.abs(got - GOLDEN_SQ).max() < 1e-9 * max(GOLDEN_SQ)

    def test_unique_candidate(self):
        scene = golden_scene(4, seed=3)
        assert len(sol.solve_p3f4(frames_sq(scene)).candidates) == 1

    def test_roundtrip_seeded(self):
        assert_roundtrip(sol.solve_p3f4, 3, 4, 1.0)

    @pytest.mark.parametrize("scale", OFF_UNIT_SCALES)
    def test_roundtrip_seeded_at_scale(self, scale):
        assert_roundtrip(sol.solve_p3f4, 3, 4, scale)

    def test_repeated_frame_singular(self):
        scene = golden_scene(4)
        frames = frames_sq(scene)
        frames[2] = frames[1]
        with pytest.raises(SingularSystemError):
            sol.solve_p3f4(frames)

    def test_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            sol.solve_p3f4([GOLDEN_SQ] * 3)


class TestSolveP4F3:
    def test_roundtrip_seeded(self):
        assert_roundtrip(sol.solve_p4f3, 4, 3, 1.0)

    @pytest.mark.parametrize("scale", OFF_UNIT_SCALES)
    def test_roundtrip_seeded_at_scale(self, scale):
        assert_roundtrip(sol.solve_p4f3, 4, 3, scale)

    def test_residuals_cover_all_faces(self):
        scene = sim.gen_scene(4, 3, 11)
        best = sol.solve_p4f3(frames_sq(scene)).best
        assert len(best.residuals) == 3  # one per frame

    def test_repeated_frame_singular(self):
        scene = sim.gen_scene(4, 3, 5)
        frames = frames_sq(scene)
        frames[2] = frames[1]
        with pytest.raises(SingularSystemError):
            sol.solve_p4f3(frames)

    def test_overflowing_face_gives_nan_residuals(self):
        # image coordinates of order 1e80: every face identity overflows to
        # nan, which a residual of 0.0 would pass off as an exact fit
        scene = sim.gen_scene(4, 3, 5)
        frames = [[v * 1e160 for v in f] for f in frames_sq(scene)]
        (cand,) = sol.solve_p4f3(frames).candidates
        assert all(math.isnan(r) for r in cand.residuals), cand.residuals

    def test_wrong_shape(self):
        with pytest.raises(InvalidInputError):
            sol.solve_p4f3([GOLDEN_SQ] * 3)


class TestSolverInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solve, n_points, n_frames", SOLVER_SHAPES)
    def test_non_finite_rejected(self, solve, n_points, n_frames, bad):
        frames = [list(f) for f in frames_sq(sim.gen_scene(n_points, n_frames, 4))]
        frames[1][2] = bad
        with pytest.raises(InvalidInputError):
            solve(frames)

    @pytest.mark.parametrize("solve, n_points, n_frames", SOLVER_SHAPES)
    def test_ragged_input_rejected(self, solve, n_points, n_frames):
        frames = [list(f) for f in frames_sq(sim.gen_scene(n_points, n_frames, 4))]
        frames[0].pop()
        with pytest.raises(InvalidInputError):
            solve(frames)


# ------------------------------------------------------------------------------
# Reference: the scalar solvers that ran one problem at a time in Python floats
# before the batched core, kept here verbatim so the core is checked with ==.

def reference_feasibility_check(candidate, frames, tol=1e-9):
    cand = tuple(candidate.as_tuple() if hasattr(candidate, "as_tuple") else candidate)
    slack = tol * max(abs(v) for f in frames for v in f)
    if any(v < -slack for v in cand):
        return False
    for frame in frames:
        for v, proj in zip(cand, frame):
            if v < proj - slack:
                return False
    return True


def reference_newton_polish(sol_, frames, iterations=3):
    coeffs = [geo.quad_coeffs(f) for f in frames]

    def residuals(v):
        return [geo.frame_constant(v[0] - f[0], v[1] - f[1], v[2] - f[2]) for f in frames]

    x = list(sol_)
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


def reference_normalized(frames, shape, name):
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


def reference_difference_system(norm, triples):
    ref = [geo.quad_coeffs([norm[0][k] for k in t]) for t in triples]
    mat = np.zeros(((len(norm) - 1) * len(triples), len(norm[0])))
    rhs = np.empty(len(mat))
    row = 0
    for frame in norm[1:]:
        for triple, q0 in zip(triples, ref):
            q = geo.quad_coeffs([frame[k] for k in triple])
            mat[row, triple] = (q.coef_a - q0.coef_a, q.coef_b - q0.coef_b,
                                q.coef_c - q0.coef_c)
            rhs[row] = q0.const - q.const
            row += 1
    return mat, rhs


def reference_solve_linear(norm, triples):
    mat, rhs = reference_difference_system(norm, triples)
    sv = np.linalg.svd(mat, compute_uv=False)
    if not sv[-1] > 1e-10 * sv[0]:
        raise SingularSystemError("frame-difference system is singular")
    return np.linalg.solve(mat, rhs).tolist()


def reference_triangle_candidate(sol_, frames, tol):
    lengths = geo.TriangleDistances(*sol_)
    residuals = tuple(sol.eq1_residual(lengths, f) for f in frames)
    return sol.Candidate(lengths, reference_feasibility_check(lengths, frames, tol), residuals)


def reference_solve_p3f3(frames, tol=1e-9):
    norm, scale = reference_normalized(frames, (3, 3), "solve_p3f3")
    mat, rhs = reference_difference_system(norm, ((0, 1, 2),))
    (m_a1, m_b1, m_c1), (m_a2, m_b2, m_c2) = mat.tolist()
    r1, r2 = rhs.tolist()
    det = m_a1 * m_b2 - m_a2 * m_b1
    # the solver's refusal floor: below it the closed form is not compared
    if abs(det) < geo.SQRT_EPS:
        raise DegenerateEliminationError("frame-difference elimination is singular")
    a_c = (m_c2 * m_b1 - m_c1 * m_b2) / det
    a0 = (r1 * m_b2 - r2 * m_b1) / det
    b_c = (m_a2 * m_c1 - m_a1 * m_c2) / det
    b0 = (m_a1 * r2 - m_a2 * r1) / det

    qp = geo.quad_coeffs(norm[0])
    q2 = a_c * a_c + b_c * b_c + 1.0 - 2.0 * a_c * b_c - 2.0 * a_c - 2.0 * b_c
    q1 = (2.0 * a_c * a0 + 2.0 * b_c * b0 - 2.0 * (a_c * b0 + a0 * b_c)
          - 2.0 * (a0 + b0) + qp.coef_a * a_c + qp.coef_b * b_c + qp.coef_c)
    q0 = (a0 * a0 + b0 * b0 - 2.0 * a0 * b0 + qp.const
          + qp.coef_a * a0 + qp.coef_b * b0)

    candidates = []
    for c_sq in solve_quadratic(q2, q1, q0, tol):
        polished = reference_newton_polish((a_c * c_sq + a0, b_c * c_sq + b0, c_sq), norm)
        candidates.append(
            reference_triangle_candidate([v * scale for v in polished], frames, tol))
    candidates.sort(key=lambda c: c.max_residual)
    return sol.RecoveryResult(tuple(candidates))


def reference_solve_p3f4(frames, tol=1e-9):
    norm, scale = reference_normalized(frames, (4, 3), "solve_p3f4")
    sol_ = [v * scale for v in reference_solve_linear(norm, ((0, 1, 2),))]
    return sol.RecoveryResult((reference_triangle_candidate(sol_, frames, tol),))


def reference_solve_p4f3(frames, tol=1e-9):
    norm, scale = reference_normalized(frames, (3, 6), "solve_p4f3")
    sol_ = [v * scale for v in reference_solve_linear(norm, sol._TETRA_TRIPLES)]
    residuals = []
    for frame in frames:
        worst = 0.0
        for triple in sol._TETRA_TRIPLES + ((0, 1, 2),):
            tri = geo.TriangleDistances(*(sol_[k] for k in triple))
            face = abs(sol.eq1_residual(tri, [frame[k] for k in triple]))
            # a face that overflows to nan makes the frame's residual nan
            worst = face if math.isnan(face) else max(worst, face)
        residuals.append(worst)
    lengths = geo.TetraDistances(*sol_)
    feasible = reference_feasibility_check(lengths, frames, tol)
    return sol.RecoveryResult((sol.Candidate(lengths, feasible, tuple(residuals)),))


ADAPTERS = {"p3f3": (sol.solve_p3f3, reference_solve_p3f3),
            "p3f4": (sol.solve_p3f4, reference_solve_p3f4),
            "p4f3": (sol.solve_p4f3, reference_solve_p4f3)}


def outcome(solve, frames, tol=1e-9):
    """Everything a solver call shows: each candidate's lengths, feasible flag
    and residuals in order, or the exception type and message."""
    try:
        result = solve(frames, tol)
    except (InvalidInputError, DegenerateEliminationError, SingularSystemError) as exc:
        return type(exc), str(exc)
    for c in result.candidates:
        assert type(c.feasible) is bool and all(type(r) is float for r in c.residuals)
    return tuple((type(c.lengths), c.lengths.as_tuple(), c.feasible, c.residuals)
                 for c in result.candidates)


def seeded_frames(mode, seed, scale=1.0, level=0.0):
    n_points, n_frames = sol.MODES[mode]
    scene = sim.gen_scene(n_points, n_frames, seed)
    frames = sim.render(scene)
    if level:
        frames = sim.add_noise(frames, sim.NoiseSpec(level, seed=sim.subseed(seed, 1)))
    return [[v * scale ** 2 for v in geo.projected_sq_distances(f, scene.labels)]
            for f in frames]


class TestSameAsScalarSolvers:
    """The one-row adapters against the scalar reference above, with ==."""

    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_seeded_roundtrip_at_every_scale(self, mode):
        solve, reference = ADAPTERS[mode]
        for scale in sorted(set(SCALE_SWEEP) | set(OFF_UNIT_SCALES)):
            for seed in range(100):
                frames = seeded_frames(mode, seed, scale)
                assert outcome(solve, frames) == outcome(reference, frames), (seed, scale)

    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_noisy_scenes(self, mode):
        solve, reference = ADAPTERS[mode]
        counts = set()
        for level in (0.001, 0.003, 0.01, 0.03, 0.1):
            for seed in range(100):
                frames = seeded_frames(mode, seed, level=level)
                got = outcome(solve, frames)
                assert got == outcome(reference, frames), (seed, level)
                counts.add(len(got))
        # p3f3 meets scenes without a root as well as with two
        assert counts == ({0, 2} if mode == "p3f3" else {1}), counts

    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_refusals(self, mode):
        solve, reference = ADAPTERS[mode]
        n_points, n_frames = sol.MODES[mode]
        frames = seeded_frames(mode, 5)
        repeated = [list(f) for f in frames]
        repeated[2] = repeated[1]
        cases = [repeated, [[0.0] * len(frames[0])] * n_frames, frames[:-1],
                 [f[:-1] for f in frames], [[math.nan] + f[1:] for f in frames]]
        for frames_ in cases:
            got = outcome(solve, frames_)
            assert isinstance(got[0], type) and got == outcome(reference, frames_)
        for tol in (1e-12, 1e-6, 0.0):
            assert outcome(solve, frames, tol) == outcome(reference, frames, tol)

    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_overflowing_input(self, mode):
        # the identity of lengths near the float limit overflows to inf and
        # nan; repr tells nan and -0.0 apart where == cannot
        solve, reference = ADAPTERS[mode]
        n_points, n_frames = sol.MODES[mode]
        rng = np.random.default_rng(3)
        overflowed = 0
        for _ in range(300):
            frames = (rng.uniform(-1.0, 1.0, size=(n_frames, 6 if n_points == 4 else 3))
                      * 10.0 ** rng.integers(150, 308)).tolist()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = outcome(solve, frames)
            assert repr(got) == repr(outcome(reference, frames))
            overflowed += any(not math.isfinite(v * v)
                              for cand in got if len(cand) == 4 for v in cand[1])
        assert overflowed > 30, overflowed

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(sorted(sol.MODES)),
           values=st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18),
           exponent=st.integers(-30, 30))
    def test_random_finite_input(self, mode, values, exponent):
        solve, reference = ADAPTERS[mode]
        n_points, n_frames = sol.MODES[mode]
        edges = 6 if n_points == 4 else 3
        frames = (np.array(values[:n_frames * edges]).reshape(n_frames, edges)
                  * 10.0 ** exponent).tolist()
        assert outcome(solve, frames) == outcome(reference, frames)
        positive = [[abs(v) for v in f] for f in frames]
        assert outcome(solve, positive) == outcome(reference, positive)


def stack_rows(batch, n):
    """Problem n's part of a BatchResult, in outcome()'s form."""
    if batch.degenerate[n]:
        return "degenerate"
    keep = batch.row == n
    return tuple(zip(batch.lengths[keep].tolist(), batch.feasible[keep].tolist(),
                     batch.residuals[keep].tolist()))


def alone(solve, frames):
    try:
        result = solve(frames)
    except (DegenerateEliminationError, SingularSystemError):
        return "degenerate"
    return tuple((list(c.lengths.as_tuple()), c.feasible, list(c.residuals))
                 for c in result.candidates)


class TestStackEqualsRows:
    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_mixed_stack(self, mode):
        solve = ADAPTERS[mode][0]
        n_points, n_frames = sol.MODES[mode]
        stack = []
        for seed in range(40):
            frames = seeded_frames(mode, seed, level=(0.0, 0.01, 0.1)[seed % 3])
            if seed % 5 == 0:  # a repeated frame: degenerate or singular
                frames[2] = frames[1]
            stack.append(frames)
        stack.append([[0.0] * len(stack[0][0])] * n_frames)
        batch = sol.solve_batch(mode, stack)
        got = [stack_rows(batch, n) for n in range(len(stack))]
        assert got == [alone(solve, frames) for frames in stack]
        assert got.count("degenerate") >= 9
        counts = {len(rows) for rows in got if rows != "degenerate"}
        assert counts == ({0, 2} if mode == "p3f3" else {1}), counts
        assert np.all(np.diff(batch.row) >= 0)

    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_view_axis_motion_is_degenerate(self, mode):
        # every difference row is rounding noise, which a test of
        # sigma_min / sigma_max alone can pass as well conditioned
        n_points, n_frames = sol.MODES[mode]
        stack = [[geo.projected_sq_distances(f, "PQRT"[:n_points])
                  for f in view_axis_frames(n_points, n_frames, seed)]
                 for seed in range(300)]
        batch = sol.solve_batch(mode, stack)
        assert batch.degenerate.all() and batch.row.size == 0

    def test_singular_jacobian_stops_only_its_candidate(self):
        # identical frames make one candidate's Jacobian exactly singular
        frames = np.array([seeded_frames("p3f3", 3), [list(GOLDEN_SQ)] * 3])
        frames /= np.abs(frames).max(axis=(1, 2))[:, None, None]
        start = np.array([[0.5, 0.7, 0.9], [1.0, 2.0, 3.0]])
        got = sol._newton_polish(start, frames)
        for i in range(2):
            assert got[i].tolist() == reference_newton_polish(start[i].tolist(),
                                                              frames[i].tolist())
        assert got[1].tolist() == start[1].tolist()
        assert got[0].tolist() != start[0].tolist()

    def test_invalid_stack(self):
        with pytest.raises(InvalidInputError, match="unknown solver mode"):
            sol.solve_batch("p5f5", np.zeros((1, 3, 3)))
        with pytest.raises(InvalidInputError, match="needs 3 frames of 3"):
            sol.solve_batch("p3f3", np.zeros((3, 3)))
        with pytest.raises(InvalidInputError, match="finite"):
            sol.solve_batch("p3f3", np.full((2, 3, 3), math.inf))


class TestTolerance:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, "1e-9"])
    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_rejected(self, mode, tol):
        solve = ADAPTERS[mode][0]
        with pytest.raises(InvalidInputError, match="tol must be finite and >= 0"):
            solve(seeded_frames(mode, 4), tol)


# (kind, value) of near_degenerate_scene
NEAR_DEGENERATE = ([("tilt", t) for t in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)]
                   + [("angle", a) for a in (0.0, 1e-9, 1e-6, 1e-3)]
                   + [("repeated", None), ("collinear", None)])


class TestNearDegenerateScenes:
    @pytest.mark.parametrize("kind, value", NEAR_DEGENERATE)
    @pytest.mark.parametrize("mode", sorted(sol.MODES))
    def test_answered_right_or_refused(self, mode, kind, value):
        # exact input is refused as degenerate, gets no feasible candidate,
        # or gets a feasible one within 1e-4 of the largest true length:
        # never only confident wrong answers
        scenes = [near_degenerate_scene(mode, kind, value, seed) for seed in range(100)]
        batch = sol.solve_batch(mode, np.array([frames for frames, _ in scenes]))
        for n, (_, truth) in enumerate(scenes):
            feasible = batch.lengths[(batch.row == n) & batch.feasible]
            errors = np.abs(feasible - truth).max(axis=1, initial=0.0) / truth.max()
            assert batch.degenerate[n] or errors.size == 0 or errors.min() <= 1e-4, \
                (n, errors.tolist())
