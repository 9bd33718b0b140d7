import math

import numpy as np
import pytest

from orthosfm import geometry as geo
from orthosfm import solvers as sol
from orthosfm import scene_sim as sim
from orthosfm.errors import (
    DegenerateEliminationError,
    InvalidInputError,
    SingularSystemError,
)

from conftest import GOLDEN_SQ, TETRA_PAIRS, TRIANGLE_PAIRS, frames_sq, golden_scene, true_sq

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
        assert sol.frame_constant(1.0, 2.0, 3.0) == -8.0

    def test_zero_at_origin(self):
        assert sol.frame_constant(0.0, 0.0, 0.0) == 0.0

    def test_symmetric(self, rng):
        for _ in range(20):
            x, y, z = rng.normal(size=3)
            ref = sol.frame_constant(x, y, z)
            assert sol.frame_constant(y, z, x) == pytest.approx(ref, rel=1e-14)
            assert sol.frame_constant(z, x, y) == pytest.approx(ref, rel=1e-14)

    def test_factorization_oracle(self, rng):
        # x^2+y^2+z^2-2xy-2xz-2yz == (x+y+z)^2 - 4(xy+xz+yz)
        for _ in range(50):
            x, y, z = rng.normal(size=3)
            expect = (x + y + z) ** 2 - 4.0 * (x * y + x * z + y * z)
            assert sol.frame_constant(x, y, z) == pytest.approx(expect, abs=1e-12)


class TestQuadCoeffs:
    def test_hand_computed(self):
        q = sol.quad_coeffs((1.0, 2.0, 3.0))
        assert (q.coef_a, q.coef_b, q.coef_c, q.const) == (8.0, 4.0, 0.0, -8.0)

    def test_expanded_matches_deficit_form(self, rng):
        # The per-frame identity in expanded polynomial form must agree with
        # the deficit form used by eq1_residual.
        for _ in range(100):
            frame = tuple(rng.uniform(0.1, 5.0, size=3))
            cand = tuple(rng.uniform(0.1, 5.0, size=3))
            q = sol.quad_coeffs(frame)
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


class TestSolveQuadratic:
    def test_distinct_roots(self):
        roots = sol._solve_quadratic(1.0, -5.0, 6.0, 1e-9)
        assert roots == pytest.approx((2.0, 3.0))

    def test_double_root(self):
        roots = sol._solve_quadratic(1.0, -4.0, 4.0, 1e-9)
        assert all(r == pytest.approx(2.0) for r in roots)

    def test_negative_discriminant(self):
        assert sol._solve_quadratic(1.0, 0.0, 1.0, 1e-9) == ()

    def test_tiny_negative_discriminant_clamped(self):
        # disc = -1e-14 relative to coefficient scale ~ 1: treated as double root
        roots = sol._solve_quadratic(1.0, 2.0, 1.0 + 1e-15, 1e-9)
        assert roots == pytest.approx((-1.0,))

    def test_effectively_linear(self):
        roots = sol._solve_quadratic(0.0, 2.0, -6.0, 1e-9)
        assert roots == (3.0,)

    def test_cancellation_stability(self):
        # roots 1e-8 and 1e8: naive formula loses the small root
        roots = sorted(sol._solve_quadratic(1.0, -(1e8 + 1e-8), 1.0, 1e-12))
        assert roots[0] == pytest.approx(1e-8, rel=1e-9)
        assert roots[1] == pytest.approx(1e8, rel=1e-9)


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
        body = golden_scene(1).body
        motions = []
        for ang in (0.0, 0.5, 1.2):
            c, s = math.cos(ang), math.sin(ang)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            motions.append(geo.RigidMotion(rot, np.array([ang, -ang])))
        scene = sim.Scene(body=body, motions=tuple(motions), seed=0)
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
