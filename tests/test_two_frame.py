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
from orthosfm.geometry import DEFAULT_TOL, LINEAR_EPS
from orthosfm.two_frame import BofCCoeffs

from conftest import (
    SCALE_SWEEP,
    collinear_gauge_pair,
    coplanar_probe_pair,
    frames_sq,
    near_degenerate_pair,
    relabeled,
    scaled,
    shared_epipolar_pair,
    shifted,
    true_sq,
    view_axis_pair,
)
import scalar_reference as ref


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

    @pytest.mark.parametrize("c_sq", [math.nan, math.inf])
    def test_non_finite_c_invalid(self, c_sq):
        scene = sim.gen_scene(3, 2, 4)
        coeffs = tf.b_of_c_coeffs(*frames_sq(scene))
        with pytest.raises(InvalidInputError):
            tf.solve_b_given_c(coeffs, c_sq)


# the biquadratic's own root arithmetic, before solve_b_given_c took its roots
# from geometry.solve_quadratic: the reference for that merge
def reference_solve_b_given_c(coeffs: BofCCoeffs, c_sq: float) -> tuple:
    """Non-negative roots b^2 of the biquadratic for an assumed c^2.

    The thresholds assume coefficients from frames of unit size, as every
    caller in the package passes.  geometry.solve_quadratic is no substitute:
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


SIGNED_ZERO = st.sampled_from([0.0, -0.0])


def signed(magnitudes):
    return st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]),
                     magnitudes) | SIGNED_ZERO


# Zero, or at least 1e-100 in magnitude, so that no linear term is subnormal.
# There the two differ by design: a split halved to zero gave the reference a
# double root at 0, where the merged routine keeps both roots
# (test_linear_term_of_the_least_subnormal).
COEFFICIENT = signed(st.floats(1e-100, 1e3))
LEAD = signed(st.floats(-17.0, 0.0).map(lambda e: 10.0 ** e))


@st.composite
def biquadratics(draw):
    """(coeffs, c_sq): generic coefficients, or a constant term that puts the
    discriminant at ratio * DEFAULT_TOL of the coefficient scale, on either
    side of the clamp at ratio -1."""
    c_sq = draw(signed(st.floats(1e-100, 10.0)))
    f_cb, f_c, f_c2, f_b = (draw(COEFFICIENT) for _ in range(4))
    f_b2 = draw(LEAD)
    lin = c_sq * f_cb + f_b
    f_cst = draw(COEFFICIENT)
    if f_b2 and draw(st.booleans()):
        ratio = draw(st.floats(-2.0, 2.0))
        const = lin * lin * (1.0 - ratio * DEFAULT_TOL) / (4.0 * f_b2)
        f_cst = const - (c_sq * f_c + c_sq * c_sq * f_c2)
    return tf.BofCCoeffs(f_cb=f_cb, f_c=f_c, f_b=f_b, f_Cst=f_cst, f_b2=f_b2, f_c2=f_c2), c_sq


def roots_outcome(solve, coeffs, c_sq):
    """The roots tuple, or the type of the error raised."""
    try:
        return solve(coeffs, c_sq)
    except (InvalidInputError, NoSolutionError) as exc:
        return type(exc)


class TestSolveBGivenCReference:
    @settings(max_examples=2000, deadline=None)
    @given(biquadratics())
    def test_same_outcome_as_the_reference(self, problem):
        # an exact double root, which the reference lists twice, comes once
        expect = roots_outcome(reference_solve_b_given_c, *problem)
        if isinstance(expect, tuple):
            expect = tuple(sorted(set(expect)))
        assert roots_outcome(tf.solve_b_given_c, *problem) == expect

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_linear_term(self, zero):
        # B^2 - 3 = 0 with a linear term of zero * -1 + zero, which keeps
        # zero's sign: that sign decides whether the positive root comes from
        # the sum or from the product, and the two differ in the last bit
        coeffs = tf.BofCCoeffs(f_cb=-1.0, f_c=0.0, f_b=zero, f_Cst=-3.0, f_b2=1.0, f_c2=0.0)
        assert tf.solve_b_given_c(coeffs, 0.0) == reference_solve_b_given_c(coeffs, 0.0)

    def test_linear_term_of_the_least_subnormal(self):
        # -B^2 + 5e-324 B = 0: the split -(lin + sqrt(disc)) / 2 underflows to
        # zero; the reference took that for a double root at 0, the merged
        # routine keeps both roots
        coeffs = tf.BofCCoeffs(f_cb=0.0, f_c=0.0, f_b=5e-324, f_Cst=0.0, f_b2=-1.0, f_c2=0.0)
        assert reference_solve_b_given_c(coeffs, 0.0) == (0.0,)
        assert tf.solve_b_given_c(coeffs, 0.0) == (0.0, 5e-324)


def identity_assignment(labels=("P", "Q", "R", "T")):
    return tuple((lab, lab) for lab in labels)


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
        broken = shifted(frame2, "T", (0.31, -0.24))
        c_sq = scene.true_sq_distance("R", "P")
        res = tf.collinearity_residual_4pt(frame1, broken, identity_assignment(), c_sq)
        assert res > 1e-3 * scale_of(frame1, broken)

    def test_collinear_basis_raises(self):
        f1 = geo.FrameObservation("PQRT", [(0, 0), (1, 0), (2, 0), (0, 1)])
        scene = sim.gen_scene(4, 2, 3)
        _, frame2 = two_frames(scene)
        with pytest.raises(DegenerateBasisError):
            tf.collinearity_residual_4pt(f1, frame2, identity_assignment(), 100.0)

    @staticmethod
    def nearly_collinear_pair(height):
        """A rigid pair whose R1 lies height off the line P1 Q1 (R is off it
        in depth): |det1| is 0.885 height in the pair's units."""
        body = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.3], [0.5, height, 1.0],
                         [0.2, 0.7, 0.4]])
        axis = np.array([0.3, 0.8, 0.5]) / math.sqrt(0.98)
        return frame_of(body[:, :2]), frame_of((body @ tf._axis_rotation(axis, 0.7).T)[:, :2])

    @pytest.mark.parametrize("height, answered", [(2e-12, True), (5e-13, False)])
    def test_collinear_basis_floor(self, height, answered):
        # |det1| 1.8e-12 and 4.4e-13, either side of DEGENERACY_EPS (1e-12)
        frame1, frame2 = self.nearly_collinear_pair(height)
        pair = ref._TrianglePair(frame1, frame2, "PQRT", "PQRT")
        assert abs(pair.det1) == pytest.approx(0.885 * height, rel=1e-3)
        if answered:
            assert math.isfinite(
                tf.collinearity_residual_4pt(frame1, frame2, identity_assignment()))
        else:
            with pytest.raises(DegenerateBasisError, match="nearly collinear"):
                tf.collinearity_residual_4pt(frame1, frame2, identity_assignment())

    def test_collinear_first_triangle_raises_before_the_policy(self):
        # whether the policy's length admits a triangle must not decide it
        for seed in range(2000):
            with pytest.raises(DegenerateBasisError):
                tf.rigidity_score(*collinear_gauge_pair(seed))

    @pytest.mark.parametrize("c_sq", [math.nan, math.inf, -1.0])
    def test_invalid_c_rejected(self, c_sq):
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 3))
        with pytest.raises(InvalidInputError):
            tf.collinearity_residual_4pt(frame1, frame2, identity_assignment(), c_sq)

    @pytest.mark.parametrize("factor", [0.7, 1.1, 10.0])
    def test_non_rigid_residual_in_any_units(self, factor):
        # the biquadratic's leading coefficient is ~5e-7 here and its roots
        # ~1.2 and ~6e6 apart, so a textbook small root loses ~7 digits
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 19))
        assignment = (("P", "R"), ("Q", "Q"), ("R", "P"), ("T", "T"))
        res = tf.collinearity_residual_4pt(frame1, frame2, assignment, None)
        got = tf.collinearity_residual_4pt(
            scaled(frame1, factor), scaled(frame2, factor), assignment, None)
        assert res > 1e-3 * scale_of(frame1, frame2)
        assert got / factor == pytest.approx(res, rel=1e-13)


def core_rows(frame1, frame2, assignments, c_sq=None):
    """Per assignment, from one call of the 4-point core: the residual
    collinearity_residual_4pt gives in the frames' units (inf where it
    raises) and the core's failure code.  c_sq, in the frames' units, is
    one length for all or one per assignment."""
    unit, scale = tf._pair_units(frame1, frame2)
    xy = np.array([[frame.coords(labels) for frame, labels in zip((frame1, frame2), zip(*pairs))]
                   for pairs in assignments])
    if c_sq is not None:
        with np.errstate(over="ignore"):   # as Python floats overflow to inf
            c_sq = np.asarray(c_sq, dtype=float).reshape(-1, 1) * unit * unit / (scale * scale)
    residuals, failures = tf._residual_rows(xy.transpose(1, 0, 2, 3) * unit, scale, c_sq)
    return (residuals * (scale / unit)).tolist(), failures.tolist()


def reference_match(frame1, frame2, rigidity_tol=tf.DEFAULT_RIGIDITY_TOL):
    """The matcher that the batched affine-epipolar pass replaced for n >= 5:
    every ordered probe assignment scored by the 4-point residual, then each
    further point matched greedily by the same line prediction.  Returns the
    full assignment or raises NoConsistentAssignmentError."""
    labels1, labels2 = frame1.labels, frame2.labels
    probe = tf._probe_labels(frame1)
    scale = tf.pair_scale(frame1, frame2)

    perms = list(itertools.permutations(labels2, 4))
    assignments = [tuple(zip(probe, perm)) for perm in perms]
    scored = sorted(zip(core_rows(frame1, frame2, assignments)[0], perms, assignments),
                    key=lambda item: item[:2])
    best_residual, targets, best = scored[0]
    if best_residual / scale > rigidity_tol:
        raise NoConsistentAssignmentError("probe")
    full = dict(best)
    remaining2 = [lab for lab in labels2 if lab not in targets]
    for lab in (lab for lab in labels1 if lab not in probe):
        extended = [best[:3] + ((lab, cand),) for cand in remaining2]
        res, cand = min(zip(core_rows(frame1, frame2, extended)[0], remaining2))
        if res / scale > rigidity_tol:
            raise NoConsistentAssignmentError(lab)
        full[lab] = cand
        remaining2.remove(cand)
    return full


def reference_residual_5pt(frame1, frame2, labels):
    """residual_5pt's former construction, kept as an independent check of
    the affine epipolar distance: the fifth point's first-frame ray meets
    the planes PQT and RPQ in two points with affine coordinates from the
    first frame alone, and their second-frame images span its line."""
    scale = tf.pair_scale(frame1, frame2)
    p1, q1, r1, t1, s1 = frame1.coords(labels) / scale
    p2, q2, r2, t2, s2 = frame2.coords(labels) / scale
    uv_a = np.linalg.solve(np.column_stack([p1 - t1, q1 - t1]), s1 - t1)
    uv_b = np.linalg.solve(np.column_stack([p1 - r1, q1 - r1]), s1 - r1)
    s2_a = t2 + np.column_stack([p2 - t2, q2 - t2]) @ uv_a
    s2_b = r2 + np.column_stack([p2 - r2, q2 - r2]) @ uv_b
    return ref._line_distance(*s2.tolist(), *s2_a.tolist(), *s2_b.tolist()) * scale


def reference_probe_labels(frame):
    """_probe_labels' former pure-Python search: the first quadruple, in
    combination order, of largest hull area, each area the largest of its
    three pairings' shoelace sums taken term by term."""
    labels = frame.labels
    if len(labels) == 4:
        return labels
    pts = dict(zip(labels, frame.coords()))

    def hull_area(quad):
        arr = [pts[lab] for lab in quad]
        best = 0.0
        for order in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)):
            o = [arr[k] for k in order]
            area = 0.0
            for i in range(4):
                j = (i + 1) % 4
                area += o[i][0] * o[j][1] - o[j][0] * o[i][1]
            best = max(best, abs(area) / 2.0)
        return best

    return max(itertools.combinations(labels, 4), key=hull_area)


def labeled_frame(pts):
    return geo.FrameObservation([f"L{i}" for i in range(len(pts))], pts)


class TestProbeLabels:
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_same_as_python_search(self, n):
        rng = np.random.default_rng(n)
        for seed in range(20):
            frame = labeled_frame(rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-6, 6))
            assert tf._probe_labels(frame) == reference_probe_labels(frame), seed
            frame1 = two_frames(sim.gen_scene(n, 2, seed))[0]
            assert tf._probe_labels(frame1) == reference_probe_labels(frame1), seed

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_exact_ties_keep_the_first_quadruple(self, n):
        # grid and lattice points tie many hull areas exactly
        grid = labeled_frame([(x, y) for x in range(3) for y in range(3)][:n])
        lattice = labeled_frame(np.random.default_rng(n).integers(0, 3, size=(n, 2)))
        for frame in (grid, lattice):
            assert tf._probe_labels(frame) == reference_probe_labels(frame)


def match_outcome(match, frame1, frame2):
    """A matcher's full assignment, or the type of the error it raised."""
    try:
        result = match(frame1, frame2)
    except (NoConsistentAssignmentError, DegenerateBasisError) as exc:
        return type(exc)
    return result if isinstance(result, dict) else result.full_assignment


def targets_of(pairs):
    return tuple(target for _, target in pairs)


def shuffled_pair(n, seed, scale=1.0, move=False):
    """Frames 1 and 2 of gen_scene(n, 2, seed) at the given scale, the second
    relabeled by a seeded permutation and, if move, one point of it shifted
    off the body.  Returns the frames and the true relabeling."""
    frame1, frame2 = (scaled(f, scale) for f in two_frames(sim.gen_scene(n, 2, seed)))
    if move:
        frame2 = scaled(moved_one(scaled(frame2, 1.0 / scale), seed), scale)
    relabel = dict(zip(frame2.labels,
                       np.random.default_rng(seed).permutation(frame2.labels).tolist()))
    return frame1, relabeled(frame2, relabel), relabel


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
        report = tf.match_points(frame1, relabeled(frame2, relabel))
        assert report.full_assignment == relabel

    def test_non_rigid_rejected(self):
        scene = sim.gen_scene(4, 2, 5)
        frame1, frame2 = two_frames(scene)
        rng = np.random.default_rng(0)
        moved = geo.FrameObservation(frame2.labels, [
            xy + rng.uniform(0.3, 0.6, 2) for xy in frame2.coords()])
        with pytest.raises(NoConsistentAssignmentError):
            tf.match_points(frame1, moved)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_refusal_names_moved_point_with_epipolar_distance(self, n):
        # one point outside the rigid probe quadruple leaves the body across
        # its epipolar line: the refusal names it with its nearest unused
        # target's distance to that line under the true probe assignment, as
        # the former five-point construction measures it
        for seed in range(10):
            scene = sim.gen_scene(n, 2, seed)
            frame1, frame2 = (scaled(f, 1e3) for f in two_frames(scene))
            probe = tf._probe_labels(frame1)
            extra = [lab for lab in frame1.labels if lab not in probe][-1]
            ray = scene.rotations[1][:2, 2]
            shift = 0.05 * scale_of(frame1, frame2) * np.array([-ray[1], ray[0]]) \
                / np.linalg.norm(ray)
            moved = shifted(frame2, extra, shift)

            def distance_to(target):
                swap = {target: extra, extra: target}
                return reference_residual_5pt(frame1, relabeled(moved, swap), probe + (extra,))

            expect = min(distance_to(lab) for lab in moved.labels if lab not in probe) \
                / tf.pair_scale(frame1, moved)
            with pytest.raises(NoConsistentAssignmentError) as exc:
                tf.match_points(frame1, moved)
            assert str(exc.value).startswith(
                f"point {extra!r}: epipolar distance {expect:.3g} of the image scale "
                "exceeds threshold (best-ranked rigid probe assignment: "), seed

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_five_or_more_points_rank_by_affine_epipolar_lines(self, n):
        frame1, frame2, relabel = shuffled_pair(n, 3)
        report = tf.match_points(frame1, frame2)
        assert report.score == "affine_epipolar"
        assert report.full_assignment == relabel
        assert report.n_scored == len(report.ranking) == n * (n - 1) * (n - 2) * (n - 3)
        assert report.ranking == tuple(sorted(report.ranking, key=lambda r: (r[1], r[0])))
        assert (targets_of(report.best), report.best_residual) == report.ranking[0]
        assert report.best_residual < 1e-9 * scale_of(frame1, frame2)
        assert report.margin == report.ranking[1][1] - report.best_residual

    def test_four_points_rank_by_collinearity(self):
        frame1, frame2, relabel = shuffled_pair(4, 12)
        report = tf.match_points(frame1, frame2)
        assert report.score == "collinearity_4pt"
        assert report.full_assignment == relabel
        assert report.ranking[0] == (targets_of(report.best), report.best_residual)

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
            assert tf.match_points(frame1, relabeled(frame2, relabel)).full_assignment \
                == relabel, seed


class TestSameAsExhaustiveSearch:
    """match_points at n >= 5 against reference_match, the exhaustive 4-point
    search with greedy extension that it replaced."""

    @pytest.mark.parametrize("scale", SCALE_SWEEP)
    def test_seeded_pairs_at_every_scale(self, scale):
        kinds = set()
        for n in (5, 6, 7):
            for move in (False, True):
                for seed in range(4):
                    frame1, frame2, relabel = shuffled_pair(n, seed, scale, move)
                    expect = match_outcome(reference_match, frame1, frame2)
                    got = match_outcome(tf.match_points, frame1, frame2)
                    assert got == expect, (n, move, seed)
                    kinds.add("correct" if expect == relabel else expect)
        assert kinds == {"correct", NoConsistentAssignmentError}

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([5, 6, 7]), seed=st.integers(0, 2**31),
           scale=st.sampled_from(SCALE_SWEEP), move=st.booleans())
    def test_same_outcome_as_reference(self, n, seed, scale, move):
        frame1, frame2, _ = shuffled_pair(n, seed, scale, move)
        assert match_outcome(tf.match_points, frame1, frame2) \
            == match_outcome(reference_match, frame1, frame2)

    @pytest.mark.parametrize("n", [5, 6])
    def test_affine_motion_that_is_not_rigid(self, n):
        # a stretched body passes the affine epipolar test under the true
        # assignment; only the 4-point metric test refuses it
        for seed in range(10):
            labels, pts = sim.gen_body(n, seed)
            stretch = np.diag(np.random.default_rng(seed).uniform(0.5, 1.5, 3))
            rotation, translation = sim.gen_motion(seed)
            frame1 = geo.FrameObservation(labels, pts[:, :2])
            moved = (pts @ stretch.T @ rotation.T)[:, :2] + translation
            frame2 = geo.FrameObservation(labels, moved)
            expect = match_outcome(reference_match, frame1, frame2)
            assert expect is NoConsistentAssignmentError, seed
            assert match_outcome(tf.match_points, frame1, frame2) == expect, seed

    @pytest.mark.parametrize("n, planar", [(4, True), (5, False), (5, True),
                                           (6, False), (6, True), (8, False)])
    def test_coplanar_probe_quadruple(self, n, planar):
        # four coplanar probes fit one affine map under every motion, so
        # they fix no epipolar direction although the motion has a depth
        # term; the other points fix it, or fit the map themselves when the
        # whole body is planar
        for seed in range(10):
            frame1, frame2, relabel = coplanar_probe_pair(n, seed, planar)
            assert set(tf._probe_labels(frame1)) == {"L0", "L1", "L2", "L3"}, seed
            assert match_outcome(reference_match, frame1, frame2) == relabel, seed
            assert match_outcome(tf.match_points, frame1, frame2) == relabel, seed

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("lift", [1e-11, 1e-10, 1e-9])
    def test_nearly_coplanar_probe_quadruple(self, n, lift):
        # probes just off one plane give an epipolar direction of about the
        # lift, known only to rounding / lift; below the sqrt-rounding bound
        # the further correspondence must fix it instead
        for seed in range(10):
            frame1, frame2, relabel = coplanar_probe_pair(n, seed, lift=lift)
            assert match_outcome(reference_match, frame1, frame2) == relabel, seed
            assert match_outcome(tf.match_points, frame1, frame2) == relabel, seed

    def test_two_points_on_one_epipolar_line(self):
        # Y lies in the plane of X's first-frame ray and the second view
        # direction, so both share one epipolar line; with X's image moved off
        # it, both points' nearest target is Y's: the extension is not
        # one-to-one and the true probe assignment must not win
        kinds = []
        for seed in range(10):
            probe = sim.gen_body(4, seed)[1]
            rotation, translation = sim.gen_motion(seed)
            x = probe.mean(axis=0) + np.array([0.0, 0.0, 0.3])
            y = x + 0.2 * np.array([0.0, 0.0, 1.0]) + 0.1 * rotation[2]
            body = np.vstack([probe, x, y])
            image2 = (body @ rotation.T)[:, :2] + translation
            ray = rotation[:2, 2] / np.linalg.norm(rotation[:2, 2])
            image2[4] += 0.05 * np.array([-ray[1], ray[0]])
            labels = ("P", "Q", "R", "T", "X", "Y")
            frame1, frame2 = (geo.FrameObservation(labels, image)
                              for image in (body[:, :2], image2))
            if set(tf._probe_labels(frame1)) != set("PQRT"):
                continue  # X or Y is a probe: the construction needs them outside
            expect = match_outcome(reference_match, frame1, frame2)
            assert match_outcome(tf.match_points, frame1, frame2) == expect, seed
            kinds.append(expect)
        assert kinds == [NoConsistentAssignmentError] * len(kinds) and len(kinds) >= 5

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("tilt", [1e-6, 1e-4, 1e-2])
    def test_axis_near_the_view_axis(self, tilt, n):
        # a small depth term still fixes the epipolar lines of exact data
        for seed in range(20):
            frame1, frame2, relabel = view_axis_pair(n, seed, tilt)
            assert match_outcome(tf.match_points, frame1, frame2) == relabel, seed
            assert match_outcome(reference_match, frame1, frame2) == relabel, seed


class TestDegenerateMatch:
    @pytest.mark.parametrize("n, seeds", [(4, 50), (5, 50), (8, 10)])
    def test_view_axis_motion_is_degenerate(self, n, seeds):
        # every point keeps its distances: the 4-point search returned wrong
        # assignments here, and the true one fixes no epipolar direction
        for seed in range(seeds):
            frame1, frame2, _ = view_axis_pair(n, seed)
            with pytest.raises(DegenerateBasisError, match="epipolar direction undefined"):
                tf.match_points(frame1, frame2)

    @pytest.mark.parametrize("n", [4, 5])
    def test_collinear_first_frame_is_degenerate(self, n):
        # every assignment is degenerate; this used to read as an infinite
        # best residual (no consistent assignment)
        for seed in range(10):
            _, frame2 = two_frames(sim.gen_scene(n, 2, seed))
            t = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
            frame1 = geo.FrameObservation(frame2.labels, np.column_stack([t, 2.0 * t + 1.0]))
            with pytest.raises(DegenerateBasisError, match="on one line"):
                tf.match_points(frame1, frame2)


    @pytest.mark.parametrize("kind, n", [
        (kind, n) for n in (4, 5, 6)
        for kind in (0.0, 1e-9, 1e-6, "planar", "collinear", "tie")]
        + [("coplanar_tie", 6), ("coplanar_tie", 7)])
    def test_near_degenerate_pair_is_answered_right_or_refused(self, kind, n):
        # exit 2 or 3 is allowed, a wrong assignment with exit 0 never; two
        # points on one epipolar line have no right assignment, also when
        # the coplanar probes leave the line's direction to a further point
        for seed in range(20):
            if kind == "tie":
                (frame1, frame2), relabel = shared_epipolar_pair(seed, n), None
            elif kind == "coplanar_tie":
                (frame1, frame2, _), relabel = coplanar_probe_pair(n, seed, tie=True), None
            else:
                frame1, frame2, relabel = near_degenerate_pair(kind, n, seed)
            assert match_outcome(tf.match_points, frame1, frame2) in (
                relabel, NoConsistentAssignmentError, DegenerateBasisError), seed


class TestRigidityScore:
    def test_small_for_rigid(self):
        scene = sim.gen_scene(4, 2, 14)
        frame1, frame2 = two_frames(scene)
        assert tf.rigidity_score(frame1, frame2) < 1e-9 * scale_of(frame1, frame2)

    def test_large_for_independent_motion(self):
        scene = sim.gen_scene(4, 2, 14)
        frame1, frame2 = two_frames(scene)
        broken = shifted(frame2, "P", (-0.4, 0.5))
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
        broken = shifted(frame2, frame2.labels[4], (0.4, 0.3))
        assert tf.residual_5pt(frame1, broken) > 1e-3 * scale_of(frame1, broken)

    @pytest.mark.parametrize("scale", SCALE_SWEEP)
    def test_zero_for_rigid_at_any_scale(self, scale):
        for seed in range(50):
            frame1, frame2 = (
                scaled(f, scale) for f in two_frames(sim.gen_scene(5, 2, seed)))
            assert tf.residual_5pt(frame1, frame2) < 1e-9 * scale, seed

    @pytest.mark.parametrize("scale", SCALE_SWEEP)
    def test_same_distance_as_former_construction(self, scale):
        for seed in range(20):
            frame1, frame2 = (
                scaled(f, scale) for f in two_frames(sim.gen_scene(5, 2, seed)))
            broken = scaled(moved_one(scaled(frame2, 1.0 / scale), seed), scale)
            for other in (frame2, broken):
                expect = reference_residual_5pt(frame1, other, frame1.labels)
                got = tf.residual_5pt(frame1, other)
                assert got == pytest.approx(expect, rel=1e-6, abs=1e-9 * scale), seed

    def test_coplanar_four_points_fix_no_line(self):
        frame1, frame2, relabel = coplanar_probe_pair(5, 3)
        inverse = {v: k for k, v in relabel.items()}
        frame2 = relabeled(frame2, inverse)
        with pytest.raises(DegenerateBasisError, match="epipolar line undefined"):
            tf.residual_5pt(frame1, frame2, ("L0", "L1", "L2", "L3", "L4"))

    def test_needs_five_labels(self):
        scene = sim.gen_scene(4, 2, 2)
        frame1, frame2 = two_frames(scene)
        with pytest.raises(InvalidInputError):
            tf.residual_5pt(frame1, frame2, labels=("P", "Q", "R", "T"))


def reference_family_points(frame1, base, angle):
    """The per-point loop that ambiguity_family's array pass replaced: each
    point's (x, y, z) at angle, its (x, y) computed, not the observation."""
    rot = base.rotation
    d = rot.T @ np.array([0.0, 0.0, 1.0])
    axis = np.cross(np.array([0.0, 0.0, 1.0]), d)
    axis /= np.linalg.norm(axis)
    anchor = base.points[0]
    targets = frame1.coords(base.labels)
    spin = tf._axis_rotation(axis, angle)
    new_dir = spin @ d
    dir_xy = new_dir[:2]
    points = []
    for pt, target in zip(base.points, targets):
        moved = anchor + spin @ (pt - anchor)
        s = float(dir_xy @ (target - moved[:2])) / float(dir_xy @ dir_xy)
        points.append(moved + s * new_dir)
    return np.array(points)


def reference_reprojection_residuals(interp, frame1, frame2):
    """The per-point loop that Interpretation.reprojection_residuals replaced."""
    obs1, obs2 = (frame.coords(interp.labels).tolist() for frame in (frame1, frame2))
    pts = [ref.Point3(*p) for p in interp.points]
    r1 = max(math.hypot(pt.x - x, pt.y - y) for pt, (x, y) in zip(pts, obs1))
    r2 = 0.0
    for pt, (x, y) in zip(pts, obs2):
        img = ref.apply_motion(interp.rotation, interp.translation, pt)
        r2 = max(r2, math.hypot(img.x - x, img.y - y))
    return r1, r2


class TestAmbiguityFamily:
    def test_members_reproject_exactly(self):
        for seed in range(20):
            scene = sim.gen_scene(3, 2, seed)
            frame1, frame2 = two_frames(scene)
            base = tf.interpretation_from_scene(scene)
            scale = scale_of(frame1, frame2)
            angles = np.linspace(-1.2, 1.2, 9)
            members = tf.ambiguity_family(frame1, frame2, base, angles)
            realized = [m for _, m in members if m is not None]
            assert len(realized) >= 8
            for interp in realized:
                r1, r2 = interp.reprojection_residuals(frame1, frame2)
                assert max(r1, r2) < 1e-9 * scale

    def test_angle_zero_is_base(self):
        scene = sim.gen_scene(3, 2, 6)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        ((_, member),) = tf.ambiguity_family(frame1, frame2, base, [0.0])
        assert member.labels == base.labels
        assert np.allclose(member.points, base.points, atol=1e-9)

    def test_nonzero_angle_distinct_structure(self):
        scene = sim.gen_scene(3, 2, 6)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        ((_, member),) = tf.ambiguity_family(frame1, frame2, base, [0.7])
        base_z, new_z = base.points[:, 2], member.points[:, 2]
        assert np.abs(new_z - base_z).max() > 1e-3

    def test_in_plane_motion_degenerate(self):
        body = sim.gen_body(3, 1)
        ang = 0.8
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        scene = sim.Scene(*body, [np.eye(3), rot], [np.zeros(2), np.array([0.1, 0.2])], seed=0)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        with pytest.raises(DegenerateBasisError):
            tf.ambiguity_family(frame1, frame2, base, [0.3])

    def test_interpretations_compare_by_value(self):
        scene = sim.gen_scene(4, 2, 3)
        base = tf.interpretation_from_scene(scene)
        motion = scene.rotations[1], scene.translations[1]
        assert tf.Interpretation(scene.labels, scene.points.copy(), *motion) == base
        assert tf.Interpretation(scene.labels, scene.points + 1e-12, *motion) != base
        assert tf.Interpretation(scene.labels, scene.points, scene.rotations[0],
                                 scene.translations[1]) != base
        assert tf.Interpretation(scene.labels, scene.points, scene.rotations[1],
                                 scene.translations[0]) != base

    @pytest.mark.parametrize("rotation, translation", [
        ("junk", np.zeros(2)),
        (np.eye(3), np.zeros(3)),
        (np.diag([1.0, 1.0, -1.0]), np.zeros(2)),
        (np.eye(3), [math.nan, 0.0]),
    ])
    def test_rejects_a_non_motion(self, rotation, translation):
        scene = sim.gen_scene(3, 2, 3)
        with pytest.raises(InvalidInputError):
            tf.Interpretation(scene.labels, scene.points, rotation, translation)

    def test_bad_base_rejected(self):
        scene = sim.gen_scene(3, 2, 6)
        frame1, frame2 = two_frames(scene)
        bad = tf.Interpretation(scene.labels, scene.points + [1.0, 0.0, 0.0],
                                scene.rotations[1], scene.translations[1])
        with pytest.raises(InvalidInputError):
            tf.ambiguity_family(frame1, frame2, bad, [0.1])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        scene = sim.gen_scene(3, 2, 4)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        with pytest.raises(InvalidInputError, match="angles must be finite"):
            tf.ambiguity_family(frame1, frame2, base, [0.0, angle])

    def test_array_pass_matches_the_point_loop(self):
        # the same arithmetic per point, in another order: within 1e-13 of
        # the body's size, and each (x, y) is the frame-1 observation
        for seed in range(20):
            scene = sim.gen_scene(3 + seed % 3, 2, seed)
            frame1, frame2 = two_frames(scene)
            base = tf.interpretation_from_scene(scene)
            for angle, member in tf.ambiguity_family(frame1, frame2, base, [0.0, 0.3, 1.0, 2.5]):
                got = member.points
                expect = reference_family_points(frame1, base, angle)
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), seed
                assert (got[:, :2] == frame1.coords(member.labels)).all()

    def test_residuals_match_the_point_loop(self):
        # a body moved off the frames, so the residuals are far from rounding
        for seed in range(20):
            scene = sim.gen_scene(4, 2, seed)
            frame1, frame2 = two_frames(scene)
            shift = [(0.1 * k, -0.2, 0.0) for k in range(len(scene.labels))]
            interp = tf.Interpretation(scene.labels, scene.points + shift,
                                       scene.rotations[1], scene.translations[1])
            assert interp.reprojection_residuals(frame1, frame2) == pytest.approx(
                reference_reprojection_residuals(interp, frame1, frame2), rel=1e-13)


class TestReferenceAmbiguity:
    def test_reference_depths(self):
        body, (rotation, translation) = tf.reference_ambiguity_scene()
        scene = sim.Scene(*body, [np.eye(3), rotation], [np.zeros(2), translation], seed=0)
        frame1, frame2 = two_frames(scene)
        base = tf.interpretation_from_scene(scene)
        ((_, member),) = tf.ambiguity_family(
            frame1, frame2, base, [tf.REFERENCE_AMBIGUITY_ANGLE])
        depths = dict(zip(member.labels, member.points[:, 2].tolist()))
        assert depths["P"] == pytest.approx(0.0, abs=1e-9)
        for lab, expect in tf.REFERENCE_ALTERNATE_DEPTHS.items():
            assert depths[lab] == pytest.approx(expect, abs=1e-4)
        # and the images are untouched
        r1, r2 = member.reprojection_residuals(frame1, frame2)
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
            return interp.points[:, 2]

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
    (p1, r1), (p2, r2) = (frame.coords([labels[0], labels[2]])
                          for frame, labels in zip((frame1, frame2), zip(*assignment)))
    c_sq = tf.C_START_FACTOR ** 2 * max(float((r1 - p1) @ (r1 - p1)),
                                        float((r2 - p2) @ (r2 - p2)))
    if c_sq == 0.0:
        c_sq = max(frame1.scale_sq(), frame2.scale_sq())
    for _ in range(C_MAX_STEPS):
        yield c_sq
        c_sq *= C_GROW_FACTOR ** 2


def unscreened_residuals(frame1, frame2, assignments):
    """The assumed-length walk without a screen, per assignment: the full
    residual at every step of the c grid, the first that does not raise
    NoSolutionError, or the error it raises; all steps of all assignments
    in one call of the 4-point core, so each row gets the floats a call of
    collinearity_residual_4pt at its c^2 gives."""
    rows = [(pairs, c_sq) for pairs in assignments
            for c_sq in grid_c_sq(frame1, frame2, pairs)]
    steps = zip(*core_rows(frame1, frame2, *zip(*rows)))
    walks = []
    for _ in assignments:
        walk = [step for _, step in zip(range(C_MAX_STEPS), steps)]
        res, failure = next((step for step in walk if tf._FAILURES[step[1]] is None
                             or tf._FAILURES[step[1]][0] is not NoSolutionError),
                            (None, tf._NO_LENGTH))
        walks.append(res if failure == 0 else tf._FAILURES[failure][0])
    return walks


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoSolutionError, DegenerateBasisError, DegenerateEliminationError) as exc:
        return type(exc)


def moved_one(frame, seed):
    rng = np.random.default_rng(seed)
    label = frame.labels[int(rng.integers(len(frame.labels)))]
    return shifted(frame, label, rng.normal(0.0, 0.3, 2))


def nearly_collinear(frame, seed):
    """R moved to within a tiny offset of the line through P and Q."""
    rng = np.random.default_rng(seed)
    xy = frame.coords().copy()
    p, q = frame.coords()[:2]
    d = q - p
    xy[2] = p + rng.uniform(-1.0, 2.0) * d + 10.0 ** rng.uniform(-16, -9) * np.array([-d[1], d[0]])
    return geo.FrameObservation(frame.labels, xy)


def frame_of(pts):
    return geo.FrameObservation("PQRT", pts)


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
            assignments = [tuple(zip(frame1.labels, perm))
                           for perm in itertools.permutations(frame2.labels)]
            for assignment, expect in zip(assignments,
                                          unscreened_residuals(frame1, frame2, assignments)):
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
            (expect,) = unscreened_residuals(frame1, frame2, [assignment])
            got = outcome(tf.collinearity_residual_4pt, frame1, frame2, assignment, None)
            assert got == expect, (seed, expect, got)
            kinds.add(expect if isinstance(expect, type) else float)
        assert kind in kinds

    @staticmethod
    def counted(monkeypatch):
        """The rows and the c^2 argument of every call of the 4-point core."""
        calls = []
        core = tf._residual_rows

        def counted(xy, scale, c_sq=None):
            calls.append((xy.shape[1], c_sq))
            return core(xy, scale, c_sq)

        monkeypatch.setattr(tf, "_residual_rows", counted)
        return calls

    def test_rigid_match_scores_every_assignment_in_one_call(self, monkeypatch):
        calls = self.counted(monkeypatch)
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 3))
        report = tf.match_points(frame1, frame2)
        assert report.n_scored == 24
        assert calls == [(report.n_scored, None)]

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_rigid_match_scores_one_row_from_five_points(self, monkeypatch, n):
        # the affine pass ranks every assignment; only the winner's probe
        # quadruple gets the 4-point test
        calls = self.counted(monkeypatch)
        frame1, frame2 = two_frames(sim.gen_scene(n, 2, 3))
        report = tf.match_points(frame1, frame2)
        assert report.n_scored == n * (n - 1) * (n - 2) * (n - 3)
        assert calls == [(1, None)]

    def test_rigidity_score_is_one_row(self, monkeypatch):
        calls = self.counted(monkeypatch)
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 3))
        tf.rigidity_score(frame1, frame2)
        assert calls == [(1, None)]


def admits(frame1, frame2, c_sq=None):
    """Whether the core's triangle half admits a b^2 root for P, Q, R at c_sq
    (in the frames' units) or, for None, at the policy's length; None when
    the elimination is degenerate.  A list of c_sq gives a list, from one
    call."""
    unit, scale = tf._pair_units(frame1, frame2)
    rows = np.atleast_1d(0.0 if c_sq is None else c_sq)
    xy = np.array([np.broadcast_to(frame.coords("PQR") * unit, (len(rows), 3, 2))
                   for frame in (frame1, frame2)])
    unit_c = None if c_sq is None else rows[:, None] * unit * unit / (scale * scale)
    admissible, _, degenerate = tf._triangle_rows(xy, scale, unit_c)
    if degenerate[0]:
        return None
    admitted = admissible.any(axis=1).tolist()
    return admitted if np.ndim(c_sq) else admitted[0]


class TestAssumedLength:
    # the admissible |RP|^2 of a triangle pair fill the ray above RP's longer
    # squared projection or none of it (the proof is _triangle_rows')
    @staticmethod
    def longer_projection(frame1, frame2):
        return max(float(np.square(np.diff(frame.coords(["P", "R"]), axis=0)).sum())
                   for frame in (frame1, frame2))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16))
    def test_no_admissible_length_agrees_with_grid(self, coords):
        pts = np.array(coords).reshape(2, 4, 2)
        frame1, frame2 = frame_of(pts[0]), frame_of(pts[1])
        policy = admits(frame1, frame2)
        if policy is None:
            return
        longer = self.longer_projection(frame1, frame2) \
            or max(frame1.scale_sq(), frame2.scale_sq())
        grid = admits(frame1, frame2, longer * np.geomspace(1.01, 1e6, 60))
        assert all(grid) if policy else not any(grid)

    @pytest.mark.parametrize("below, admitted", [(5e-10, True), (2e-9, False)])
    def test_dominance_floor(self, below, admitted):
        # an assumed |RP|^2 below RP's longer squared projection, by less or
        # more than DEFAULT_TOL (1e-9) of the pair's squared diameter: seed
        # 0's quadratic has a root there whose a^2 and b^2 dominate theirs
        # by 5.6e-4, so only the minimum on c^2 decides
        frame1, frame2 = two_frames(sim.gen_scene(4, 2, 0))
        scale_sq = tf.pair_scale(frame1, frame2) ** 2
        longer = self.longer_projection(frame1, frame2) / scale_sq
        assert admits(frame1, frame2, (longer - below) * scale_sq) == admitted

    def test_every_family_member_is_admissible(self):
        # each reading of a rigid pair admits a root at its own |RP|^2, from
        # about the longer projection up
        angles = np.linspace(-3.0, 3.0, 31)
        ratios = []
        for seed in range(50):
            scene = sim.gen_scene(4, 2, seed)
            frame1, frame2 = two_frames(scene)
            longer = self.longer_projection(frame1, frame2)
            base = tf.interpretation_from_scene(scene)
            for angle, member in tf.ambiguity_family(frame1, frame2, base, angles):
                if member is None:
                    continue
                body = dict(zip(member.labels, member.points))
                p, r = body["P"], body["R"]
                c_sq = float((r - p) @ (r - p))
                assert admits(frame1, frame2, c_sq), (seed, angle)
                ratios.append(c_sq / longer)
        assert len(ratios) > 0.9 * 50 * len(angles)
        assert min(ratios) < 1.01 and max(ratios) > 1e3


def scalar_outcome(frame1, frame2, pairs, c_sq=None):
    """The scalar path's residual, or its error's type and text."""
    try:
        return ref.collinearity_residual_4pt(frame1, frame2, ref.Assignment(pairs), c_sq)
    except (InvalidInputError, NoSolutionError, DegenerateBasisError,
            DegenerateEliminationError) as exc:
        return type(exc), str(exc)


def core_outcomes(frame1, frame2, c_sq=None):
    """Per ordering of frame2's labels against frame1's, in permutation
    order: the core's residual in the frames' units, or the type and text
    of the error collinearity_residual_4pt raises for it.  All orderings go
    through the core in one call, as match_points passes them."""
    assignments = [tuple(zip(frame1.labels, perm))
                   for perm in itertools.permutations(frame2.labels)]
    return [res if not failure else tf._FAILURES[failure]
            for res, failure in zip(*core_rows(frame1, frame2, assignments, c_sq))]


class TestSameAsScalarPath:
    """The 4-point core against the scalar path it replaced (scalar_reference):
    each row the same outcome, error texts included, and each residual
    within MAX_ULPS units in the last place of the pair's diameter.  Only
    the rounding of hypot (numpy's against Python's) and of one square
    (x * x against x ** 2) differs, and the residual's cancellation
    amplifies it: the largest gap is 19 ulps under the policy's length and
    53 ulps at an assumed length of 1e6 times the projection, where depths
    are 1e3 diameters.  A residual at rounding level, as a rigid pair's,
    may so move by all of its own digits."""

    MAX_ULPS = 64
    EXTREME_SCALES = (1e-300, 1e-160, 1e160, 1e300)

    def check(self, frame1, frame2, c_sq=None):
        """Compare every ordering through the core, one row at a time and
        in one call; return the largest gap in ulps of the pair's diameter
        and the outcome kinds seen."""
        ulp = tf.pair_scale(frame1, frame2) * np.finfo(float).eps
        worst, kinds = 0.0, set()
        batch = core_outcomes(frame1, frame2, c_sq)
        for perm, core in zip(itertools.permutations(frame2.labels), batch):
            pairs = tuple(zip(frame1.labels, perm))
            expect = scalar_outcome(frame1, frame2, pairs, c_sq)
            got = outcome_with_text(tf.collinearity_residual_4pt, frame1, frame2, pairs, c_sq)
            assert got == core or (math.isnan(got) and math.isnan(core)), (perm, got, core)
            if isinstance(expect, tuple):
                assert got == expect, (perm, expect, got)
                kinds.add(expect[0])
            else:
                assert isinstance(got, float), (perm, expect, got)
                worst = max(worst, abs(got - expect) / ulp)
                kinds.add(float)
        assert worst <= self.MAX_ULPS, worst
        return worst, kinds

    def test_rigid_and_moved_pairs_under_every_ordering(self):
        kinds = set()
        for seed in range(40):
            frame1, frame2 = two_frames(sim.gen_scene(4, 2, seed))
            for other in (frame2, moved_one(frame2, seed)):
                kinds |= self.check(frame1, other)[1]
        assert kinds == {float, NoSolutionError}

    def test_collinear_gauge_pairs(self):
        kinds = set()
        for seed in range(40):
            kinds |= self.check(*collinear_gauge_pair(seed))[1]
        assert DegenerateBasisError in kinds

    def test_identical_frames(self):
        frame1, _ = two_frames(sim.gen_scene(4, 2, 5))
        _, kinds = self.check(frame1, frame1)
        assert DegenerateEliminationError in kinds
        with pytest.raises(DegenerateEliminationError, match="coincide"):
            tf.collinearity_residual_4pt(frame1, frame1, identity_assignment())

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_extreme_scale_pairs(self, scale):
        for seed in range(5):
            frame1, frame2 = two_frames(sim.gen_scene(4, 2, seed))
            self.check(scaled(frame1, scale), scaled(frame2, scale))
            self.check(scaled(frame1, scale), scaled(moved_one(frame2, seed), scale))

    def test_explicit_c_grid(self):
        # below, at and above the projections, and so large that it
        # overflows in the pair's units
        kinds = set()
        for seed in range(10):
            frame1, frame2 = two_frames(sim.gen_scene(4, 2, seed))
            longer = TestAssumedLength.longer_projection(frame1, frame2)
            for factor in (0.0, 0.5, 0.99, 1.01, 2.0, 10.0, 1e3, 1e6):
                kinds |= self.check(frame1, frame2, factor * longer)[1]
            kinds |= self.check(scaled(frame1, 1e-300), scaled(frame2, 1e-300), 1e300)[1]
        assert {float, NoSolutionError, InvalidInputError} <= kinds


def outcome_with_text(fn, *args):
    """fn's result, or its error's type and text."""
    try:
        return fn(*args)
    except (InvalidInputError, NoSolutionError, DegenerateBasisError,
            DegenerateEliminationError) as exc:
        return type(exc), str(exc)
