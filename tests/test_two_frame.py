import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosfm import geometry as geo
from orthosfm import scene_sim as sim
from orthosfm import two_frame as tf
from orthosfm.errors import (
    DegenerateBasisError,
    DegenerateEliminationError,
    InvalidInputError,
    NoConsistentAssignmentError,
    NoSolutionError,
)

from conftest import SCALE_SWEEP, frames_sq, scaled, true_sq


def two_frames(scene):
    f = sim.render(scene)
    return f[0], f[1]


def scale_of(frame1, frame2):
    return math.sqrt(max(frame1.scale_sq(), frame2.scale_sq()))


class TestBofCCoeffsSymbolic:
    def test_matches_symbolic_elimination(self):
        # Independent oracle: eliminate A between the two frames' quartic
        # identities with sympy and compare polynomial coefficients in B, C.
        import sympy as sp

        rng = np.random.default_rng(7)
        B, C, A = sp.symbols("B C A")
        for _ in range(10):
            f1 = tuple(sp.Rational(int(v), 1000) for v in rng.integers(100, 5000, 3))
            f2 = tuple(sp.Rational(int(v), 1000) for v in rng.integers(100, 5000, 3))

            def identity(frame):
                x, y, z = frame
                return ((A - x) ** 2 + (B - y) ** 2 + (C - z) ** 2
                        - 2 * (A - x) * (B - y) - 2 * (A - x) * (C - z)
                        - 2 * (B - y) * (C - z))

            id1, id2 = identity(f1), identity(f2)
            diff = sp.expand(id1 - id2)  # linear in A
            a_lin = sp.solve(diff, A)[0]
            oracle = sp.expand(id1.subs(A, a_lin))

            got = tf.b_of_c_coeffs(
                tuple(float(v) for v in f1), tuple(float(v) for v in f2))
            expect = {
                (2, 0): got.f_b2, (0, 2): got.f_c2, (1, 1): got.f_cb,
                (1, 0): got.f_b, (0, 1): got.f_c, (0, 0): got.f_Cst,
            }
            poly = sp.Poly(oracle, B, C)
            # the oracle may carry an overall rational scale; normalize on B^2
            scale = float(poly.coeff_monomial(B ** 2)) / got.f_b2 \
                if got.f_b2 != 0 else 1.0
            for (db, dc), coef in expect.items():
                mono = B ** db * C ** dc
                oracle_val = float(poly.coeff_monomial(mono))
                assert oracle_val == pytest.approx(scale * coef, rel=1e-9, abs=1e-9)

    def test_identical_frames_degenerate(self):
        with pytest.raises(DegenerateEliminationError):
            tf.b_of_c_coeffs((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


class TestBofCAtTruth:
    def test_vanishes_at_true_lengths(self):
        for seed in range(100):
            scene = sim.gen_scene(3, 2, seed)
            a_sq, b_sq, c_sq = true_sq(scene)
            f1, f2 = frames_sq(scene)
            coeffs = tf.b_of_c_coeffs(f1, f2)
            scale = max(a_sq, b_sq, c_sq)
            assert abs(coeffs.evaluate(b_sq, c_sq)) < 1e-9 * scale ** 2
            assert coeffs.a_sq_of(b_sq, c_sq) == pytest.approx(a_sq, rel=1e-7)


class TestSolveBGivenC:
    def test_recovers_true_b(self):
        for seed in range(50):
            scene = sim.gen_scene(3, 2, seed)
            a_sq, b_sq, c_sq = true_sq(scene)
            f1, f2 = frames_sq(scene)
            coeffs = tf.b_of_c_coeffs(f1, f2)
            roots = tf.solve_b_given_c(coeffs, c_sq)
            assert min(abs(r - b_sq) for r in roots) < 1e-7 * max(b_sq, 1.0)

    def test_negative_discriminant_raises(self):
        # B^2 + 1 = 0 has no real root
        coeffs = tf.BofCCoeffs(f_cb=0.0, f_c=0.0, f_b=0.0, f_Cst=1.0,
                               f_b2=1.0, f_c2=0.0)
        with pytest.raises(NoSolutionError):
            tf.solve_b_given_c(coeffs, 1.0)

    def test_too_small_c_infeasible(self):
        # an assumed c far below the projections can yield roots, but they
        # must be shorter than the observed b projection in some frame
        scene = sim.gen_scene(3, 2, 4)
        f1, f2 = frames_sq(scene)
        coeffs = tf.b_of_c_coeffs(f1, f2)
        roots = tf.solve_b_given_c(coeffs, 1e-9)
        proj_b = max(f1[1], f2[1])
        assert all(r < proj_b for r in roots)

    def test_negative_c_invalid(self):
        scene = sim.gen_scene(3, 2, 4)
        coeffs = tf.b_of_c_coeffs(*frames_sq(scene))
        with pytest.raises(InvalidInputError):
            tf.solve_b_given_c(coeffs, -1.0)


def identity_assignment(labels=("P", "Q", "R", "T")):
    return tf.Assignment(tuple((lab, lab) for lab in labels))


class TestCollinearityResidual:
    def test_zero_for_rigid_scene_true_c(self):
        for seed in range(50):
            scene = sim.gen_scene(4, 2, seed)
            frame1, frame2 = two_frames(scene)
            c_sq = scene.true_sq_distance("R", "P")
            res = tf.collinearity_residual_4pt(
                frame1, frame2, identity_assignment(), c_sq)
            assert res < 1e-9 * scale_of(frame1, frame2)

    def test_zero_for_any_feasible_c(self):
        # the prediction works for wrong-but-feasible assumed lengths too
        scene = sim.gen_scene(4, 2, 17)
        frame1, frame2 = two_frames(scene)
        c_sq = 4.0 * scene.true_sq_distance("R", "P")
        res = tf.collinearity_residual_4pt(
            frame1, frame2, identity_assignment(), c_sq)
        assert res < 1e-9 * scale_of(frame1, frame2)

    def test_nonzero_for_broken_rigidity(self):
        scene = sim.gen_scene(4, 2, 21)
        frame1, frame2 = two_frames(scene)
        pts = list(frame2.points)
        lab, p = pts[3]
        pts[3] = (lab, geo.Point2(p.x + 0.31, p.y - 0.24))
        broken = geo.FrameObservation(tuple(pts))
        c_sq = scene.true_sq_distance("R", "P")
        res = tf.collinearity_residual_4pt(frame1, broken, identity_assignment(), c_sq)
        assert res > 1e-3 * scale_of(frame1, broken)

    def test_collinear_basis_raises(self):
        f1 = geo.FrameObservation((
            ("P", geo.Point2(0, 0)), ("Q", geo.Point2(1, 0)),
            ("R", geo.Point2(2, 0)), ("T", geo.Point2(0, 1))))
        scene = sim.gen_scene(4, 2, 3)
        _, frame2 = two_frames(scene)
        with pytest.raises(DegenerateBasisError):
            tf.collinearity_residual_4pt(f1, frame2, identity_assignment(), 100.0)

    @pytest.mark.parametrize("factor", [0.7, 1.1, 10.0])
    def test_non_rigid_residual_in_any_units(self, factor):
        # the biquadratic's leading coefficient is ~5e-7 here and its roots
        # ~1.2 and ~6e6 apart, so a textbook small root loses ~7 digits
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 19))
        assignment = tf.Assignment((("P", "R"), ("Q", "Q"), ("R", "P"), ("T", "T")))
        res = tf.collinearity_residual_4pt(frame1, frame2, assignment, None)
        got = tf.collinearity_residual_4pt(
            scaled(frame1, factor), scaled(frame2, factor), assignment, None)
        assert res > 1e-3 * scale_of(frame1, frame2)
        assert got / factor == pytest.approx(res, rel=1e-13)


class TestMatchPoints:
    def test_recovers_identity_assignment(self):
        hits = 0
        tried = 0
        for seed in range(30):
            scene = sim.gen_scene(4, 2, seed)
            frame1, frame2 = two_frames(scene)
            try:
                report = tf.match_points(frame1, frame2)
            except NoConsistentAssignmentError:
                continue
            tried += 1
            if all(report.full_assignment[lab] == lab for lab in frame1.labels):
                hits += 1
            assert report.n_scored == 24
        assert tried >= 25 and hits == tried

    def test_five_points_full_assignment(self):
        scene = sim.gen_scene(5, 2, 8)
        frame1, frame2 = two_frames(scene)
        report = tf.match_points(frame1, frame2)
        assert set(report.full_assignment) == set(frame1.labels)
        assert all(report.full_assignment[lab] == lab for lab in frame1.labels)
        assert report.n_scored == 5 * 4 * 3 * 2  # ordered 4-tuples of 5 labels

    def test_shuffled_labels_recovered(self):
        scene = sim.gen_scene(4, 2, 12)
        frame1, frame2 = two_frames(scene)
        relabel = {"P": "W2", "Q": "W0", "R": "W3", "T": "W1"}
        shuffled = geo.FrameObservation(tuple(
            (relabel[lab], p) for lab, p in frame2.points))
        report = tf.match_points(frame1, shuffled)
        assert report.full_assignment == relabel

    def test_non_rigid_rejected(self):
        scene = sim.gen_scene(4, 2, 5)
        frame1, frame2 = two_frames(scene)
        rng = np.random.default_rng(0)
        pts = tuple(
            (lab, geo.Point2(*(p.as_array() + rng.uniform(0.3, 0.6, 2))))
            for lab, p in frame2.points)
        with pytest.raises(NoConsistentAssignmentError):
            tf.match_points(frame1, geo.FrameObservation(pts))

    def test_extension_refusal_quotes_relative_residual(self):
        # the probe quadruple stays rigid; only the extra point leaves the body
        frame1, frame2 = (scaled(f, 1e3) for f in two_frames(sim.gen_scene(5, 2, 8)))
        probe = tf._probe_labels(frame1)
        (extra,) = set(frame1.labels) - set(probe)
        moved = geo.FrameObservation(tuple(
            (lab, geo.Point2(p.x + 300.0, p.y) if lab == extra else p)
            for lab, p in frame2.points))
        base = tuple((lab, lab) for lab in probe[:3])
        res = tf.collinearity_residual_4pt(
            frame1, moved, tf.Assignment(base + ((extra, extra),)))
        with pytest.raises(NoConsistentAssignmentError) as exc:
            tf.match_points(frame1, moved)
        relative = res / tf._pair_scale(frame1, moved)
        assert f"point {extra!r}: best residual {relative:.3g} of the image scale" \
            in str(exc.value)

    def test_needs_four_points(self):
        scene = sim.gen_scene(3, 2, 1)
        frame1, frame2 = two_frames(scene)
        with pytest.raises(InvalidInputError):
            tf.match_points(frame1, frame2)

    @pytest.mark.parametrize("scale", SCALE_SWEEP)
    def test_shuffled_five_points_at_any_scale(self, scale):
        for seed in range(5):
            frame1, frame2 = (
                scaled(f, scale) for f in two_frames(sim.gen_scene(5, 2, seed)))
            relabel = dict(zip(frame2.labels,
                               np.random.default_rng(seed).permutation(frame2.labels)))
            shuffled = geo.FrameObservation(tuple(
                (relabel[lab], p) for lab, p in frame2.points))
            assert tf.match_points(frame1, shuffled).full_assignment == relabel, seed


class TestRigidityScore:
    def test_small_for_rigid(self):
        scene = sim.gen_scene(4, 2, 14)
        frame1, frame2 = two_frames(scene)
        assert tf.rigidity_score(frame1, frame2) < 1e-9 * scale_of(frame1, frame2)

    def test_large_for_independent_motion(self):
        scene = sim.gen_scene(4, 2, 14)
        frame1, frame2 = two_frames(scene)
        pts = list(frame2.points)
        lab, p = pts[0]
        pts[0] = (lab, geo.Point2(p.x - 0.4, p.y + 0.5))
        broken = geo.FrameObservation(tuple(pts))
        assert tf.rigidity_score(frame1, broken) > 1e-3 * scale_of(frame1, broken)

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8])
    def test_rigid_consistent_at_any_scale(self, scale):
        for seed in range(100):
            frame1, frame2 = (
                scaled(f, scale) for f in two_frames(sim.gen_scene(4, 2, seed)))
            score = tf.rigidity_score(frame1, frame2)
            assert score <= tf.DEFAULT_RIGIDITY_TOL * scale_of(frame1, frame2), seed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_tolerances_must_be_finite_and_non_negative(self, bad):
        frame1, frame2 = two_frames(sim.gen_scene(5, 2, 14))
        with pytest.raises(InvalidInputError, match="rigidity_tol must be finite"):
            tf.match_points(frame1, frame2, rigidity_tol=bad)


class TestResidual5pt:
    def test_zero_for_rigid(self):
        for seed in range(50):
            scene = sim.gen_scene(5, 2, seed)
            frame1, frame2 = two_frames(scene)
            assert tf.residual_5pt(frame1, frame2) < 1e-9 * scale_of(frame1, frame2)

    def test_nonzero_when_fifth_point_moves(self):
        scene = sim.gen_scene(5, 2, 9)
        frame1, frame2 = two_frames(scene)
        pts = list(frame2.points)
        lab, p = pts[4]
        pts[4] = (lab, geo.Point2(p.x + 0.4, p.y + 0.3))
        broken = geo.FrameObservation(tuple(pts))
        assert tf.residual_5pt(frame1, broken) > 1e-3 * scale_of(frame1, broken)

    @pytest.mark.parametrize("scale", SCALE_SWEEP)
    def test_zero_for_rigid_at_any_scale(self, scale):
        for seed in range(50):
            frame1, frame2 = (
                scaled(f, scale) for f in two_frames(sim.gen_scene(5, 2, seed)))
            assert tf.residual_5pt(frame1, frame2) < 1e-9 * scale, seed

    def test_needs_five_labels(self):
        scene = sim.gen_scene(4, 2, 2)
        frame1, frame2 = two_frames(scene)
        with pytest.raises(InvalidInputError):
            tf.residual_5pt(frame1, frame2, labels=("P", "Q", "R", "T"))


class TestAmbiguityFamily:
    def test_members_reproject_exactly(self):
        for seed in range(20):
            scene = sim.gen_scene(3, 2, seed)
            frame1, frame2 = two_frames(scene)
            base = tf.interpretation_from_scene(scene)
            scale = scale_of(frame1, frame2)
            angles = np.linspace(-1.2, 1.2, 9)
            members = tf.ambiguity_family(frame1, frame2, base, angles)
            realized = [m for m in members if m.points is not None]
            assert len(realized) >= 8
            for m in realized:
                interp = m.as_interpretation()
                r1, r2 = interp.reprojection_residuals(frame1, frame2)
                assert max(r1, r2) < 1e-9 * scale

    def test_angle_zero_is_base(self):
        scene = sim.gen_scene(3, 2, 6)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        (member,) = tf.ambiguity_family(frame1, frame2, base, [0.0])
        for (lab, p), (lab2, q) in zip(member.points, base.points):
            assert lab == lab2
            assert np.allclose(p.as_array(), q.as_array(), atol=1e-9)

    def test_nonzero_angle_distinct_structure(self):
        scene = sim.gen_scene(3, 2, 6)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        (member,) = tf.ambiguity_family(frame1, frame2, base, [0.7])
        base_z = np.array([p.z for _, p in base.points])
        new_z = np.array([p.z for _, p in member.points])
        assert np.abs(new_z - base_z).max() > 1e-3

    def test_in_plane_motion_degenerate(self):
        body = sim.gen_body(3, 1)
        ang = 0.8
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        motions = (geo.RigidMotion.identity(), geo.RigidMotion(rot, np.array([0.1, 0.2])))
        scene = sim.Scene(body=body, motions=motions, seed=0)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        with pytest.raises(DegenerateBasisError):
            tf.ambiguity_family(frame1, frame2, base, [0.3])

    def test_bad_base_rejected(self):
        scene = sim.gen_scene(3, 2, 6)
        frame1, frame2 = two_frames(scene)
        bad = tf.Interpretation(
            points=tuple((lab, geo.Point3(p.x + 1.0, p.y, p.z))
                         for lab, p in scene.body),
            motion=scene.motions[1])
        with pytest.raises(InvalidInputError):
            tf.ambiguity_family(frame1, frame2, bad, [0.1])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        scene = sim.gen_scene(3, 2, 4)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        with pytest.raises(InvalidInputError, match="angles must be finite"):
            tf.ambiguity_family(frame1, frame2, base, [0.0, angle])


class TestReferenceAmbiguity:
    def test_reference_depths(self):
        body, motion = tf.reference_ambiguity_scene()
        scene = sim.Scene(body=body,
                          motions=(geo.RigidMotion.identity(), motion), seed=0)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        (member,) = tf.ambiguity_family(
            frame1, frame2, base, [tf.REFERENCE_AMBIGUITY_ANGLE])
        depths = {lab: p.z for lab, p in member.points}
        assert depths["P"] == pytest.approx(0.0, abs=1e-9)
        for lab, expect in tf.REFERENCE_ALTERNATE_DEPTHS.items():
            assert depths[lab] == pytest.approx(expect, abs=1e-4)
        # and the images are untouched
        interp = member.as_interpretation()
        r1, r2 = interp.reprojection_residuals(frame1, frame2)
        assert max(r1, r2) < 1e-9 * scale_of(frame1, frame2)


class TestBaseInterpretationFromFrames:
    def test_reproduces_frames(self):
        for seed in range(30):
            scene = sim.gen_scene(4, 2, seed)
            frame1, frame2 = two_frames(scene)
            interp = tf.base_interpretation_from_frames(frame1, frame2)
            r1, r2 = interp.reprojection_residuals(frame1, frame2)
            assert max(r1, r2) < 1e-7 * scale_of(frame1, frame2)

    @pytest.mark.parametrize("scale", SCALE_SWEEP)
    def test_reproduces_frames_at_any_scale(self, scale):
        for seed in range(10):
            frame1, frame2 = (
                scaled(f, scale) for f in two_frames(sim.gen_scene(4, 2, seed)))
            interp = tf.base_interpretation_from_frames(frame1, frame2)
            r1, r2 = interp.reprojection_residuals(frame1, frame2)
            assert max(r1, r2) < 1e-7 * scale, seed

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 0.7, 3.0, 1e3, 1e6])
    def test_same_body_in_any_units(self, n, scale):
        # every candidate of a rigid pair is exact up to rounding, so only a
        # units-free choice among them returns the same body at every scale
        def depths(frame1, frame2):
            interp = tf.base_interpretation_from_frames(frame1, frame2)
            return np.array([p.z for _, p in interp.points])

        for seed in range(100):
            frame1, frame2 = two_frames(sim.gen_scene(n, 2, seed))
            expect = depths(frame1, frame2)
            got = depths(scaled(frame1, scale), scaled(frame2, scale)) / scale
            assert np.abs(got - expect).max() < 1e-9 * np.abs(expect).max(), seed


# the geometric c^2 grid that the closed-form policy replaced: the reference
C_GROW_FACTOR = 1.25
C_MAX_STEPS = 40


def grid_c_sq(frame1, frame2, assignment):
    """The grid's c^2 values in caller units, from the policy's start."""
    r1 = frame1.get(assignment.source_labels[2]).as_array()
    p1 = frame1.get(assignment.source_labels[0]).as_array()
    r2 = frame2.get(assignment.target_labels[2]).as_array()
    p2 = frame2.get(assignment.target_labels[0]).as_array()
    c_sq = tf.C_START_FACTOR ** 2 * max(float((r1 - p1) @ (r1 - p1)),
                                        float((r2 - p2) @ (r2 - p2)))
    if c_sq == 0.0:
        c_sq = max(frame1.scale_sq(), frame2.scale_sq())
    for _ in range(C_MAX_STEPS):
        yield c_sq
        c_sq *= C_GROW_FACTOR ** 2


def unscreened_residual(frame1, frame2, assignment):
    """The assumed-length walk without a screen: the full residual at every
    step of the c grid until one does not raise NoSolutionError."""
    for c_sq in grid_c_sq(frame1, frame2, assignment):
        try:
            return tf.collinearity_residual_4pt(frame1, frame2, assignment, c_sq)
        except NoSolutionError:
            pass
    raise NoSolutionError("no feasible assumed length found for assignment")


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoSolutionError, DegenerateBasisError, DegenerateEliminationError) as exc:
        return type(exc)


def moved_one(frame, seed):
    rng = np.random.default_rng(seed)
    pts = list(frame.points)
    k = int(rng.integers(len(pts)))
    lab, p = pts[k]
    pts[k] = (lab, geo.Point2(*(p.as_array() + rng.normal(0.0, 0.3, 2))))
    return geo.FrameObservation(tuple(pts))


def nearly_collinear(frame, seed):
    """R moved to within a tiny offset of the line through P and Q."""
    rng = np.random.default_rng(seed)
    pts = list(frame.points)
    p, q = pts[0][1].as_array(), pts[1][1].as_array()
    d = q - p
    r = p + rng.uniform(-1.0, 2.0) * d + 10.0 ** rng.uniform(-16, -9) * np.array([-d[1], d[0]])
    pts[2] = (pts[2][0], geo.Point2(*r))
    return geo.FrameObservation(tuple(pts))


def frame_of(pts):
    return geo.FrameObservation(tuple(
        (lab, geo.Point2(*map(float, p))) for lab, p in zip("PQRT", pts)))


def collinear_near_elimination_limit(seed):
    """Random frames with collinear P1, Q1, R1 and R2 placed so that the two
    frames' a^2 coefficients differ by 1e-12 to 1e-6: b_of_c_coeffs barely
    succeeds and its a^2 back-substitution loses most of its digits."""
    rng = np.random.default_rng(seed)
    pts1, pts2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    pts1[2] = pts1[0] + rng.uniform(-1.0, 2.0) * (pts1[1] - pts1[0])
    a1, b1, c1 = (float(v @ v) for v in (pts1[0] - pts1[1], pts1[1] - pts1[2],
                                          pts1[2] - pts1[0]))
    a2 = float((pts2[0] - pts2[1]) @ (pts2[0] - pts2[1]))
    # |R2 - Q2|^2 + |R2 - P2|^2 = 2|R2 - M|^2 + a2/2, M the midpoint of P2 Q2
    target = a2 + (b1 + c1 - a1) + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -6)
    radius_sq = (target - a2 / 2.0) / 2.0
    angle = rng.uniform(0.0, 2.0 * math.pi)
    pts2[2] = (pts2[0] + pts2[1]) / 2.0 \
        + math.sqrt(max(radius_sq, 0.0)) * np.array([math.cos(angle), math.sin(angle)])
    return frame_of(pts1), frame_of(pts2)


def pq_in_image_plane(seed):
    """Random frames whose edge PQ keeps its length and |QR|^2 - |RP|^2 its
    value: every assumed c has a root with a^2 equal to the projected |PQ|^2,
    so the dominance test on a^2 is decided by rounding and the slack."""
    rng = np.random.default_rng(seed)
    pts1, pts2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    turn = np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]])
    shift = rng.normal(size=2)
    pts2[:3] = pts1[:3] @ turn.T + shift
    d = pts2[1] - pts2[0]
    pts2[2] += rng.uniform(-2.0, 2.0) * np.array([-d[1], d[0]]) / np.linalg.norm(d)
    return frame_of(pts1), frame_of(pts2)


class TestScreenedWalk:
    @staticmethod
    def pairs():
        for seed in range(100):
            frame1, frame2 = two_frames(sim.gen_scene(4, 2, seed))
            yield frame1, frame2
            yield frame1, moved_one(frame2, seed)
        for seed in range(10):
            frame1, frame2 = two_frames(sim.gen_scene(4, 2, seed))
            yield nearly_collinear(frame1, seed), frame2

    def test_same_as_unscreened_walk(self):
        kinds = set()
        for frame1, frame2 in self.pairs():
            for perm in itertools.permutations(frame2.labels):
                assignment = tf.Assignment(tuple(zip(frame1.labels, perm)))
                expect = outcome(unscreened_residual, frame1, frame2, assignment)
                got = outcome(tf.collinearity_residual_4pt,
                              frame1, frame2, assignment, None)
                assert got == expect, (assignment, expect, got)
                kinds.add(expect if isinstance(expect, type) else float)
        assert kinds == {float, NoSolutionError, DegenerateBasisError}

    @pytest.mark.parametrize("make_pair, kind", [
        (collinear_near_elimination_limit, DegenerateBasisError),
        (pq_in_image_plane, float)])
    def test_same_as_unscreened_walk_at_rounding_limits(self, make_pair, kind):
        # roots that fail the dominance test by rounding alone: only the
        # slack and the collinear-basis rule keep the screen exact here
        kinds = set()
        for seed in range(200):
            frame1, frame2 = make_pair(seed)
            assignment = identity_assignment()
            expect = outcome(unscreened_residual, frame1, frame2, assignment)
            got = outcome(tf.collinearity_residual_4pt, frame1, frame2, assignment, None)
            assert got == expect, (seed, expect, got)
            kinds.add(expect if isinstance(expect, type) else float)
        assert kind in kinds

    @staticmethod
    def counted(monkeypatch):
        """The c^2 argument of every residual call made through the module
        global, and the number of _TrianglePair setups."""
        calls, setups = [], []
        residual = tf.collinearity_residual_4pt

        def counted(*args, **kwargs):
            calls.append(args[3])
            return residual(*args, **kwargs)

        class CountedPair(tf._TrianglePair):
            def __init__(self, *args):
                setups.append(args[2:4])
                super().__init__(*args)

        monkeypatch.setattr(tf, "collinearity_residual_4pt", counted)
        monkeypatch.setattr(tf, "_TrianglePair", CountedPair)
        return calls, setups

    def test_rigid_match_calls_residual_once_per_assignment(self, monkeypatch):
        calls, setups = self.counted(monkeypatch)
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 3))
        report = tf.match_points(frame1, frame2)
        assert report.n_scored == 24
        assert calls == [None] * report.n_scored
        assert len(setups) == report.n_scored

    def test_rigid_five_point_match_calls_residual_once_per_assignment(
            self, monkeypatch):
        calls, setups = self.counted(monkeypatch)
        frame1, frame2 = two_frames(sim.gen_scene(5, 2, 3))
        report = tf.match_points(frame1, frame2)
        assert report.n_scored == 120
        # plus one greedy-extension assignment: the fifth point's only partner
        assert calls == [None] * (report.n_scored + 1)
        assert len(setups) == report.n_scored + 1

    def test_rigidity_score_sets_up_once(self, monkeypatch):
        calls, setups = self.counted(monkeypatch)
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 3))
        tf.rigidity_score(frame1, frame2)
        assert calls == [None] and len(setups) == 1


class TestAssumedLength:
    # b^4 = c^2 - 4 with a^2 = 10 - b^2: roots appear at c^2 = 4, and
    # a^2 >= 0 keeps them only up to c^2 = 104
    COEFFS = tf.BofCCoeffs(f_cb=0.0, f_c=-1.0, f_b=0.0, f_Cst=4.0, f_b2=1.0,
                           f_c2=0.0, p=-1.0, q=0.0, r=10.0)

    def test_start_kept_when_admissible(self):
        assert tf._assumed_length(self.COEFFS, (0.0, 0.0, 0.0), 5.0) == (5.0, (1.0,))

    def test_midpoint_of_bounded_interval(self):
        c_sq, roots = tf._assumed_length(self.COEFFS, (0.0, 0.0, 0.0), 1.0)
        assert c_sq == (4.0 + 104.0) / 2.0
        assert roots == pytest.approx((math.sqrt(50.0),), rel=1e-15)

    def test_twice_the_lower_end_when_unbounded(self):
        no_a = (-math.inf, 0.0, 0.0)
        assert tf._assumed_length(self.COEFFS, no_a, 1.0) == (8.0, (2.0,))

    def test_no_admissible_interval_raises(self):
        # b^2 >= 20 needs c^2 >= 404, where a^2 < 0
        with pytest.raises(NoSolutionError):
            tf._assumed_length(self.COEFFS, (0.0, 20.0, 0.0), 1.0)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16))
    def test_no_admissible_length_agrees_with_grid(self, coords):
        pts = np.array(coords).reshape(2, 4, 2)
        frame1, frame2 = frame_of(pts[0]), frame_of(pts[1])
        try:
            pair = tf._TrianglePair(frame1, frame2, "PQRT", "PQRT")
        except DegenerateEliminationError:
            return
        grid = any(pair.roots(pair.unit_c_sq(c_sq))
                   for c_sq in grid_c_sq(frame1, frame2, identity_assignment()))
        try:
            pair.assumed_length()
        except NoSolutionError:
            assert not grid
        else:
            assert grid
