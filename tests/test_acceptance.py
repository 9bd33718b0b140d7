"""Acceptance suite: nine end-to-end criteria, one test each.

Every test prints a single PASS line on success (visible with pytest -s or
in the -v test listing) and enforces its runtime budget.
"""

import itertools
import math
import time

import numpy as np

from orthosfm import cli
from orthosfm import geometry as geo
from orthosfm import scene_sim as sim
from orthosfm import solvers as sol
from orthosfm import two_frame as tf
from orthosfm.errors import (
    DegenerateBasisError,
    DegenerateEliminationError,
    NoConsistentAssignmentError,
    NoSolutionError,
    SingularSystemError,
)

from conftest import (
    GOLDEN_SQ,
    TETRA_PAIRS,
    frames_sq,
    golden_scene,
    true_sq,
)


def _passline(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_golden_p3f4():
    """a=2, b=3, c^2=12.6878 over 4 generic frames -> exact recovery."""
    start = time.perf_counter()
    scene = golden_scene(4, seed=42)
    result = sol.solve_p3f4(frames_sq(scene))
    got = result.lengths[0]
    rel = np.abs(got - GOLDEN_SQ) / np.array(GOLDEN_SQ)
    elapsed = time.perf_counter() - start
    assert rel.max() < 1e-6, f"relative error {rel.max():.3g}"
    assert result.feasible[0]
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    _passline(1, f"(a2,b2,c2)=({got[0]:.6f},{got[1]:.6f},{got[2]:.6f}), "
                 f"max rel err {rel.max():.2e}, {elapsed:.3f}s")


def test_criterion_2_p3f3_roundtrip_1000():
    """Truth among <=2 candidates with scaled residual < 1e-9, 0 failures."""
    start = time.perf_counter()
    n_scenes = 1000
    degenerate = 0
    for seed in range(n_scenes):
        scene = sim.gen_scene(3, 3, seed)
        frames = frames_sq(scene)
        truth = true_sq(scene)
        scale_sq = max(v for f in frames for v in f)
        try:
            result = sol.solve_p3f3(frames)
        except DegenerateEliminationError:
            degenerate += 1
            continue
        assert 1 <= len(result.lengths) <= 2, f"seed {seed}"
        errs = [np.abs(lengths - truth).max() for lengths in result.lengths]
        best_i = int(np.argmin(errs))
        assert errs[best_i] < 1e-9 * truth.max(), \
            f"seed {seed}: truth missing (err {min(errs):.3g})"
        max_residual = np.abs(result.residuals[best_i]).max()
        assert max_residual < 1e-9 * scale_sq ** 2, \
            f"seed {seed}: residual {max_residual:.3g}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _passline(2, f"{n_scenes - degenerate}/{n_scenes} scenes recovered "
                 f"({degenerate} degeneracy-filtered), {elapsed:.1f}s")


def test_criterion_3_p4f3_roundtrip_1000():
    """Unique six-length solution within 1e-9 relative on 1000 scenes."""
    start = time.perf_counter()
    n_scenes = 1000
    filtered = 0
    for seed in range(n_scenes):
        scene = sim.gen_scene(4, 3, seed)
        truth = true_sq(scene, TETRA_PAIRS)
        try:
            result = sol.solve_p4f3(frames_sq(scene))
        except SingularSystemError:
            filtered += 1
            continue
        assert len(result.lengths) == 1
        got = result.lengths[0]
        rel = np.abs(got - truth).max() / truth.max()
        assert rel < 1e-9, f"seed {seed}: rel err {rel:.3g}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _passline(3, f"{n_scenes - filtered}/{n_scenes} unique recoveries "
                 f"({filtered} filtered), {elapsed:.1f}s")


def test_criterion_4_dof_table():
    """(3,3): 18 unknowns = 18 measurements; (4,2): 16 = 16. Integer-exact."""
    b33 = geo.dof_balance(3, 3)
    b42 = geo.dof_balance(4, 2)
    assert (b33.unknowns, b33.information) == (18, 18) and b33.recoverable
    assert (b42.unknowns, b42.information) == (16, 16) and b42.recoverable
    _passline(4, "dof(3,3)=18/18 and dof(4,2)=16/16, integer-exact")


def test_criterion_5_noise_study():
    """Median rel error < 2% at level 0.001 over 1000 trials; p95 monotone."""
    start = time.perf_counter()
    levels = [0.001, 0.01, 0.1]
    rows = sim.run_noise_study("p3f4", levels, trials=1000, seed=202)
    elapsed = time.perf_counter() - start
    med = rows[0]["median_rel_error"]
    p95 = [row["p95_rel_error"] for row in rows]
    assert med < 0.02, f"median rel error {med:.4f} at level 0.001"
    assert p95[2] > p95[1] > p95[0], f"p95 not monotone: {p95}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    _passline(5, f"median(0.001)={med:.4f}, "
                 f"p95={p95[0]:.3f}<{p95[1]:.3f}<{p95[2]:.3f}, {elapsed:.1f}s")


def test_criterion_6_two_frame_ambiguity():
    """Family members reproject exactly yet differ in 3D; reference depths."""
    start = time.perf_counter()
    n_scenes = 100
    angles = [a for a in np.linspace(-1.2, 1.2, 11) if abs(a) > 1e-12]
    checked = 0
    for seed in range(n_scenes):
        scene = sim.gen_scene(3, 2, seed)
        frame1, frame2 = sim.render(scene)
        scale = math.sqrt(max(frame1.scale_sq(), frame2.scale_sq()))
        base = tf.interpretation_from_scene(scene)
        members = tf.ambiguity_family(frame1, frame2, base, angles)
        realized = [(angle, m) for angle, m in members if m is not None]
        assert len(realized) >= 8, f"seed {seed}: only {len(realized)} members"
        base_pts = dict(zip(base.labels, base.points))
        for angle, m in realized:
            r1, r2 = m.reprojection_residuals(frame1, frame2)
            assert max(r1, r2) < 1e-9 * scale, \
                f"seed {seed} angle {angle}: reproj {max(r1, r2):.3g}"
            disp = max(
                float(np.linalg.norm(p - base_pts[lab]))
                for lab, p in zip(m.labels, m.points))
            assert disp > 1e-6 * scale, \
                f"seed {seed} angle {angle}: structure not distinct"
        checked += 1

    # the frozen worked configuration: depths of Q and R in the alternate
    # structure, images bit-identical
    body, (rotation, translation) = tf.reference_ambiguity_scene()
    ref_scene = sim.Scene(*body, [np.eye(3), rotation], [np.zeros(2), translation], seed=0)
    frame1, frame2 = sim.render(ref_scene)
    base = tf.interpretation_from_scene(ref_scene)
    ((_, member),) = tf.ambiguity_family(
        frame1, frame2, base, [tf.REFERENCE_AMBIGUITY_ANGLE])
    depths = {lab: z for lab, (_, _, z) in zip(member.labels, member.points.tolist())}
    imgs = {lab: (x, y) for lab, (x, y, _) in zip(member.labels, member.points.tolist())}
    assert abs(depths["Q"] - 4.63902) < 1e-4
    assert abs(depths["R"] - 4.37296) < 1e-4
    assert imgs["Q"] == (2.0, -2.0) and imgs["R"] == (5.0, 4.0)
    elapsed = time.perf_counter() - start
    _passline(6, f"{checked} scenes x {len(angles)} angles ambiguous; "
                 f"reference depths Q'={depths['Q']:.5f}, R'={depths['R']:.5f}, "
                 f"{elapsed:.1f}s")


def test_criterion_7_matcher():
    """True bijection in 100% of filtered cases (24 assignments each);
    non-rigid fourth point flagged in >= 99%."""
    start = time.perf_counter()
    n_scenes = 500
    margin_floor = 1e-3  # relative margin below which an instance is ambiguous

    correct = filtered = 0
    for seed in range(n_scenes):
        scene = sim.gen_scene(4, 2, seed)
        frame1, frame2 = sim.render(scene)
        perm_rng = np.random.default_rng(sim.subseed(seed, 99))
        labels = list(frame2.labels)
        shuffled_labels = list(perm_rng.permutation(labels))
        relabel = dict(zip(labels, shuffled_labels))
        shuffled = geo.FrameObservation([relabel[lab] for lab in labels], frame2.coords())
        scale = math.sqrt(max(frame1.scale_sq(), shuffled.scale_sq()))
        try:
            report = tf.match_points(frame1, shuffled)
        except (NoConsistentAssignmentError, DegenerateBasisError):
            filtered += 1
            continue
        assert report.n_scored == 24, f"seed {seed}: {report.n_scored} scored"
        if report.margin < margin_floor * scale:
            filtered += 1  # near-symmetric instance: ranking not decisive
            continue
        assert report.full_assignment == relabel, f"seed {seed}: wrong assignment"
        correct += 1
    assert correct + filtered == n_scenes
    assert correct > 0 and correct == n_scenes - filtered  # 100% of filtered cases

    detected = 0
    for seed in range(n_scenes):
        scene = sim.gen_scene(4, 2, seed)
        frame1, frame2 = sim.render(scene)
        bump_rng = np.random.default_rng(sim.subseed(seed, 98))
        xy = frame2.coords().copy()
        delta = bump_rng.uniform(0.2, 0.5, 2) * bump_rng.choice([-1.0, 1.0], 2)
        xy[3] += delta
        broken = geo.FrameObservation(frame2.labels, xy)
        scale = math.sqrt(max(frame1.scale_sq(), broken.scale_sq()))
        try:
            score = tf.rigidity_score(frame1, broken)
        except (NoSolutionError, DegenerateBasisError):
            detected += 1  # no rigid reading at all: decisively non-rigid
            continue
        if score > tf.DEFAULT_RIGIDITY_TOL * scale:
            detected += 1
    elapsed = time.perf_counter() - start
    assert detected >= 0.99 * n_scenes, f"only {detected}/{n_scenes} detected"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    _passline(7, f"{correct}/{n_scenes - filtered} correct bijections "
                 f"({filtered} filtered), 24 assignments each; "
                 f"{detected}/{n_scenes} non-rigid detected, {elapsed:.1f}s")


def test_criterion_8_five_point_linearization():
    """residual_5pt separates rigid from perturbed; verdicts agree with the
    4-subset collinearity test in 100% of filtered cases."""
    start = time.perf_counter()
    n_scenes = 500
    agree = filtered = 0
    for seed in range(n_scenes):
        scene = sim.gen_scene(5, 2, seed)
        frame1, frame2 = sim.render(scene)
        scale = math.sqrt(max(frame1.scale_sq(), frame2.scale_sq()))
        threshold = tf.DEFAULT_RIGIDITY_TOL * scale

        # rigid body: small residual
        res = tf.residual_5pt(frame1, frame2)
        assert res < 1e-9 * scale, f"seed {seed}: rigid residual {res:.3g}"

        # perturb the fifth point
        bump_rng = np.random.default_rng(sim.subseed(seed, 97))
        xy = frame2.coords().copy()
        delta = bump_rng.uniform(0.2, 0.5, 2) * bump_rng.choice([-1.0, 1.0], 2)
        xy[4] += delta
        broken = geo.FrameObservation(frame2.labels, xy)
        res_broken = tf.residual_5pt(frame1, broken)
        assert res_broken > threshold, \
            f"seed {seed}: perturbed residual {res_broken:.3g}"

        # verdict agreement with 4-subset rigidity scores on the broken pair:
        # the 5-point test says non-rigid iff some 4-subset does
        try:
            verdicts = []
            for subset in itertools.combinations(frame1.labels, 4):
                try:
                    score = tf.rigidity_score(frame1, broken, labels=subset)
                except NoSolutionError:
                    verdicts.append(True)  # no rigid reading: non-rigid
                    continue
                verdicts.append(score > threshold)
        except (DegenerateBasisError, DegenerateEliminationError):
            filtered += 1
            continue
        five_says_nonrigid = res_broken > threshold
        four_says_nonrigid = any(verdicts)
        if five_says_nonrigid == four_says_nonrigid:
            agree += 1
    elapsed = time.perf_counter() - start
    assert agree == n_scenes - filtered, \
        f"{agree}/{n_scenes - filtered} verdict agreements"
    _passline(8, f"{n_scenes} rigid/perturbed separations; "
                 f"{agree}/{n_scenes - filtered} 4-subset agreements "
                 f"({filtered} filtered), {elapsed:.1f}s")


def test_criterion_9_biquadratic_oracle():
    """The eliminated two-frame biquadratic vanishes at ground truth."""
    start = time.perf_counter()
    n_scenes = 1000
    filtered = 0
    worst = 0.0
    for seed in range(n_scenes):
        scene = sim.gen_scene(3, 2, seed)
        a_sq, b_sq, c_sq = true_sq(scene)
        f1, f2 = frames_sq(scene)
        scale_sq = max(a_sq, b_sq, c_sq, *f1, *f2)
        try:
            coeffs = tf.b_of_c_coeffs(f1, f2)
        except DegenerateEliminationError:
            filtered += 1
            continue
        value = abs(coeffs.evaluate(b_sq, c_sq))
        worst = max(worst, value / scale_sq ** 2)
        assert value < 1e-9 * scale_sq ** 2, \
            f"seed {seed}: biquadratic {value:.3g} vs scale^4 {scale_sq ** 2:.3g}"
    elapsed = time.perf_counter() - start
    _passline(9, f"{n_scenes - filtered}/{n_scenes} scenes, worst "
                 f"|value|/scale^4 = {worst:.2e} ({filtered} filtered), "
                 f"{elapsed:.1f}s")
