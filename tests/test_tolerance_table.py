"""The tolerance table in geometry: every threshold lives there, and each
entry is seen by a test.

For each entry, one input on each side of its value, with the outcome class
asserted: answered right, refused (degenerate or inconsistent), or rejected
as input.  Moving an entry 100-fold either way flips one of these
(tools/tolerance_sweep.py shows which).  Also: no module spells a small
float outside the table, and the two-frame layer answers the same from
1e-300 to 1e300.
"""

import ast
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosfm import cli, io_files
from orthosfm import geometry as geo
from orthosfm import scene_sim as sim
from orthosfm import solvers as sol
from orthosfm import two_frame as tf
from orthosfm.errors import (
    DegenerateBasisError,
    DegenerateEliminationError,
    InconsistentLengthsError,
    InvalidInputError,
    NoConsistentAssignmentError,
)

from conftest import near_degenerate_scene, scaled, shifted

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthosfm"
_spec = importlib.util.spec_from_file_location(
    "tolerance_sweep", ROOT / "tools" / "tolerance_sweep.py")
tolerance_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tolerance_sweep)

TABLE = ("DEFAULT_TOL", "DEFAULT_RIGIDITY_TOL", "ORTHONORMALITY_TOL", "_DEFICIT_ULPS",
         "SQRT_EPS", "SINGULAR_TOL", "DEGENERACY_EPS", "LINEAR_EPS", "AXIS_EPS",
         "REPROJECTION_BOUND")


def off_by(frame1, frame2, label, fraction):
    """frame2 with one point moved along (0.6, 0.8) by fraction of the pair's
    diameter."""
    return shifted(frame2, label, np.array([0.6, 0.8]) * fraction * tf.pair_scale(frame1, frame2))


class TestOneTable:
    def test_the_sweep_finds_every_entry(self):
        source = (PACKAGE / "geometry.py").read_text(encoding="utf-8")
        entries = tolerance_sweep.table_entries(source)
        assert tuple(name for name, *_ in entries) == TABLE
        for name, _, _, value in entries:
            for _, op in tolerance_sweep.REWRITES:
                # the one entry changes, and only it
                new = tolerance_sweep.rewritten(source, name, op)
                new = tolerance_sweep.table_entries(new)
                assert new == [(n, a, b, f"({value}) {op}" if n == name else v)
                               for n, a, b, v in entries]

    def test_no_small_float_outside_the_table(self):
        # a float literal below 1e-3 in magnitude is a threshold: it belongs
        # in the table, under a name, with its reason
        table = {(first, last) for _, first, last, _ in tolerance_sweep.table_entries(
            (PACKAGE / "geometry.py").read_text(encoding="utf-8"))}
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                        and 0.0 < abs(node.value) < 1e-3
                        and not (path.name == "geometry.py" and any(
                            first <= node.lineno <= last for first, last in table))):
                    found.append(f"{path.name}:{node.lineno} {node.value!r}")
        assert not found


class TestOrthonormality:
    @pytest.mark.parametrize("off, accepted", [(1e-10, True), (1e-8, False)])
    def test_rotation_off_orthonormal(self, off, accepted):
        # R^T R - I is about off on the diagonal
        rotation = sim.gen_motion(0)[0] * (1.0 + off / 2.0)
        if accepted:
            geo.checked_motions([rotation], [np.zeros(2)])
        else:
            with pytest.raises(InvalidInputError, match="orthonormal"):
                geo.checked_motions([rotation], [np.zeros(2)])


class TestDepthLoopClosure:
    # P, Q, R at (0, 0), (0.6, 0), (0.3, 0.5); squared lengths over the frame's
    FRAME = (0.36, 0.34, 0.34)

    def test_rounding_sized_deficit_is_embedded(self):
        # z_P = z_Q = 0.4 over R: PQ's deficit is zero but for 1e-14 of
        # rounding, whose square root leaves a gap of 1e-7 in the loop
        true = (0.36 + 1e-14, 0.5, 0.5)
        branch, other = geo.embed_depths(true, self.FRAME)
        assert abs(sum(branch)) == pytest.approx(1e-7, rel=1e-3)

    def test_inconsistent_lengths_are_refused(self):
        # z_P = 0.4, z_Q = 0.2 over R, but |PQ| too long by a loop gap of 1e-6
        true = (0.36 + (0.2 + 1e-6) ** 2, 0.34 + 0.04, 0.34 + 0.16)
        with pytest.raises(InconsistentLengthsError, match="do not close"):
            geo.embed_depths(true, self.FRAME)


class TestP3f3Elimination:
    # exact scenes near a turn about the view axis, |det| of the elimination
    # between the floor and 100 times it, or the floor and a hundredth of it
    def test_answered_right_just_above_the_floor(self):
        # |det| 1.3e-7
        frames, truth = near_degenerate_scene("p3f3", "tilt", 1e-3, 2)
        result = sol.solve_p3f3(frames)
        errors = [np.abs(lengths - truth).max() / truth.max()
                  for lengths in result.lengths[result.feasible]]
        assert min(errors) <= 1e-4

    def test_refused_just_below_the_floor(self):
        # |det| 4.6e-10: answered, the best feasible candidate is 6e-4 wrong
        frames, _ = near_degenerate_scene("p3f3", "tilt", 1e-5, 34)
        with pytest.raises(DegenerateEliminationError):
            sol.solve_p3f3(frames)


class TestRotationAxis:
    AXIS = np.random.default_rng(0).normal(size=3)
    AXIS /= np.linalg.norm(AXIS)

    @pytest.mark.parametrize("angle", [1e-11, math.pi - 1e-13])
    def test_axis_at_a_tiny_sine(self, angle):
        # |2 sin(angle)| of 2e-11 still gives the axis; 2e-13, near a half
        # turn, carries rounding of 5e-4, and the symmetric part gives it
        _, axis = sim.rotation_angle_axis(tf._axis_rotation(self.AXIS, angle))
        assert min(np.abs(axis - self.AXIS).max(), np.abs(axis + self.AXIS).max()) < 1e-9


class TestLinearBiquadratic:
    @pytest.mark.parametrize("lead, roots", [(-1e-15, 1), (-1e-13, 2)])
    def test_leading_coefficient(self, lead, roots):
        # B^2 * lead + B - 1 = 0: a lead of 1e-15 of the others is rounding
        # and leaves the linear root 1; one of 1e-13 adds the root 1e13
        coeffs = tf.BofCCoeffs(f_cb=0.0, f_c=0.0, f_b=1.0, f_Cst=-1.0, f_b2=lead, f_c2=0.0)
        got = tf.solve_b_given_c(coeffs, 0.0)
        assert len(got) == roots and got[0] == pytest.approx(1.0)


def tilted_pair(tilt):
    """Two exact frames of gen_body(4, 0) under a turn of 0.7 rad about the
    view axis after a turn of tilt about the x axis, with the base
    interpretation of that motion."""
    body = sim.gen_body(4, 0)
    rotation = tf._axis_rotation(np.array([0.0, 0.0, 1.0]), 0.7) @ tf._axis_rotation(
        np.array([1.0, 0.0, 0.0]), tilt)
    translation = np.array([0.3, -0.2])
    frames = sim.render(sim.Scene(*body, [np.eye(3), rotation], [np.zeros(2), translation], 0))
    return frames, tf.Interpretation(*body, rotation, translation)


class TestAmbiguityAxis:
    def test_family_of_a_motion_tilted_1e_8(self):
        (frame1, frame2), base = tilted_pair(1e-8)
        ((_, member),) = tf.ambiguity_family(frame1, frame2, base, [0.0])
        assert member is not None

    def test_motion_tilted_1e_10_is_refused(self):
        (frame1, frame2), base = tilted_pair(1e-10)
        with pytest.raises(DegenerateBasisError, match="in-plane"):
            tf.ambiguity_family(frame1, frame2, base, [0.0])


class TestReprojectionBounds:
    @pytest.mark.parametrize("fraction, accepted", [(5e-7, True), (2e-6, False)])
    def test_base_of_the_family(self, fraction, accepted):
        frame1, frame2 = sim.render(sim.gen_scene(4, 2, 0))
        base = tf.interpretation_from_scene(sim.gen_scene(4, 2, 0))
        frame2 = off_by(frame1, frame2, "T", fraction)
        if accepted:
            assert tf.ambiguity_family(frame1, frame2, base, [0.0])[0][1] is not None
        else:
            with pytest.raises(InvalidInputError, match="does not reproduce"):
                tf.ambiguity_family(frame1, frame2, base, [0.0])

    @pytest.mark.parametrize("seed, label", [(2, "P"), (3, "T"), (5, "T")])
    def test_nearly_exact_pair_keeps_the_exact_body(self, seed, label):
        # 1e-9 off rigid: the branch order picks the body, as for exact input
        frame1, frame2 = sim.render(sim.gen_scene(4, 2, seed))
        exact = tf.base_interpretation_from_frames(frame1, frame2)
        got = tf.base_interpretation_from_frames(frame1, off_by(frame1, frame2, label, 1e-9))
        assert got.points[:, 2].tolist() == pytest.approx(exact.points[:, 2].tolist(),
                                                          abs=1e-6)

    @pytest.mark.parametrize("fraction, accepted", [(1e-7, True), (1e-5, False)])
    def test_base_of_a_pair_off_rigid(self, fraction, accepted):
        frame1, frame2 = sim.render(sim.gen_scene(4, 2, 2))
        exact = tf.base_interpretation_from_frames(frame1, frame2)
        frame2 = off_by(frame1, frame2, "T", fraction)
        if accepted:
            got = tf.base_interpretation_from_frames(frame1, frame2)
            assert got.points[:, 2].tolist() == pytest.approx(
                exact.points[:, 2].tolist(), abs=1e-4)
        else:
            with pytest.raises(InconsistentLengthsError):
                tf.base_interpretation_from_frames(frame1, frame2)


class TestNearRigidPairs:
    """One rule, at every site: a pair within REPROJECTION_BOUND of rigid gets
    the exact pair's body from base_interpretation_from_frames, and that body
    is a base ambiguity_family takes."""

    @pytest.mark.parametrize("fraction", [3e-7, 5e-7, 9e-7])
    def test_ambiguity_command_answers(self, tmp_path, fraction):
        pair, family = tmp_path / "pair.csv", tmp_path / "family.csv"
        for seed in range(20):
            frame1, frame2 = sim.render(sim.gen_scene(4, 2, seed))
            pair.write_text(io_files.frames_to_csv(
                [frame1, off_by(frame1, frame2, "T", fraction)]))
            assert cli.main(["ambiguity", str(pair), "--out", str(family)]) == cli.EXIT_OK, seed
            rows = family.read_text().splitlines()[1:]
            assert any(row.split(",")[1] == "ok" for row in rows), seed

    # moving P, a corner of the gauge triangle, puts the whole misfit on T, 4
    # to 16 times larger: every branch of these pairs fails the rule
    REFUSED = {("P", 1e-7, 30), ("P", 3e-7, 12), ("P", 3e-7, 17), ("P", 3e-7, 30)}

    @pytest.mark.parametrize("label", ["P", "T"])
    @pytest.mark.parametrize("fraction", [1e-7, 3e-7])
    def test_base_keeps_the_exact_body(self, label, fraction):
        # every branch fits to within the noise, so the branch order, not the
        # least residual, picks the body
        for seed in range(40):
            if (label, fraction, seed) in self.REFUSED:
                continue
            frame1, frame2 = sim.render(sim.gen_scene(4, 2, seed))
            exact = tf.base_interpretation_from_frames(frame1, frame2)
            got = tf.base_interpretation_from_frames(
                frame1, off_by(frame1, frame2, label, fraction))
            assert got.points[:, 2].tolist() == pytest.approx(
                exact.points[:, 2].tolist(), abs=1e-3), seed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 6), which=st.integers(0, 5),
           exponent=st.floats(-9.0, -5.0))
    def test_a_returned_base_has_a_family(self, seed, n, which, exponent):
        frame1, frame2 = sim.render(sim.gen_scene(n, 2, seed))
        frame2 = off_by(frame1, frame2, frame1.labels[which % n], 10.0 ** exponent)
        try:
            base = tf.base_interpretation_from_frames(frame1, frame2)
        except InconsistentLengthsError:
            return
        tf.ambiguity_family(frame1, frame2, base, [0.0])


class TestRigidityThreshold:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("fraction, matched", [(1e-7, True), (1e-5, False)])
    def test_point_off_the_body(self, n, fraction, matched):
        # the true assignment then scores about fraction / 10
        frame1, frame2 = sim.render(sim.gen_scene(n, 2, 2))
        frame2 = off_by(frame1, frame2, frame1.labels[-1], fraction)
        if matched:
            report = tf.match_points(frame1, frame2)
            assert report.full_assignment == {lab: lab for lab in frame1.labels}
        else:
            with pytest.raises(NoConsistentAssignmentError):
                tf.match_points(frame1, frame2)


EXTREME_SCALES = (1e-300, 1e-160, 1e160, 1e200, 1e300)


class TestExtremeUnits:
    """The two-frame layer scales a pair by a power of two before it squares
    anything (ambiguity_family divides before it squares), so its answers do
    not depend on the units from 1e-300 to 1e300; recover refuses squared
    distances that leave the float range."""

    @staticmethod
    def pairs(n):
        frame1, frame2 = sim.render(sim.gen_scene(n, 2, 3))
        return (frame1, frame2), (frame1, off_by(frame1, frame2, frame1.labels[-1], 0.2))

    @pytest.mark.parametrize("s", EXTREME_SCALES)
    @pytest.mark.parametrize("n", [4, 5])
    def test_match_points(self, n, s):
        (frame1, frame2), (_, broken) = self.pairs(n)
        expect = tf.match_points(frame1, frame2)
        got = tf.match_points(scaled(frame1, s), scaled(frame2, s))
        assert got.full_assignment == expect.full_assignment
        assert got.best_residual / s <= 1e-12
        # the refusal names the same point and the same relative distance
        with pytest.raises(NoConsistentAssignmentError) as refusal:
            tf.match_points(frame1, broken)
        with pytest.raises(NoConsistentAssignmentError, match=re.escape(str(refusal.value))):
            tf.match_points(scaled(frame1, s), scaled(broken, s))

    @pytest.mark.parametrize("s", EXTREME_SCALES)
    def test_rigidity_score_and_residual_5pt(self, s):
        for fn, n in ((tf.rigidity_score, 4), (tf.residual_5pt, 5)):
            (rigid, rigid2), (_, broken) = self.pairs(n)
            for frame2, small in ((rigid2, True), (broken, False)):
                expect = fn(rigid, frame2) / tf.pair_scale(rigid, frame2)
                scale = tf.pair_scale(scaled(rigid, s), scaled(frame2, s))
                got = fn(scaled(rigid, s), scaled(frame2, s)) / scale
                assert (got <= tf.DEFAULT_RIGIDITY_TOL) == small
                if not small:
                    assert got == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("s", EXTREME_SCALES)
    def test_base_interpretation(self, s):
        (frame1, frame2), _ = self.pairs(4)
        expect = tf.base_interpretation_from_frames(frame1, frame2)
        got = tf.base_interpretation_from_frames(scaled(frame1, s), scaled(frame2, s))
        for p, q in zip(got.points.tolist(), expect.points.tolist()):
            assert [v / s for v in p] == pytest.approx(q, rel=1e-9, abs=1e-12)
        members = tf.ambiguity_family(scaled(frame1, s), scaled(frame2, s), got, [0.3, 1.0])
        assert all(member is not None for _, member in members)

    @pytest.mark.parametrize("s", EXTREME_SCALES)
    def test_through_the_cli(self, tmp_path, s):
        pair, report = tmp_path / "pair.csv", tmp_path / "report.json"
        pair.write_text(io_files.frames_to_csv(
            [scaled(f, s) for f in sim.render(sim.gen_scene(4, 2, 3))]))
        assert cli.main(["match", str(pair), "--out", str(report)]) == cli.EXIT_OK
        assert json.loads(report.read_text())["verdict"] == "consistent"
        assert cli.main(["match", str(pair), "--unlabeled", "--out", str(report)]) == cli.EXIT_OK
        assert json.loads(report.read_text())["assignment"] == {lab: lab for lab in "PQRT"}
        frames = tmp_path / "frames.csv"
        frames.write_text(io_files.frames_to_csv(
            [scaled(f, s) for f in sim.render(sim.gen_scene(4, 3, 1))]))
        assert cli.main(["recover", str(frames), "--out", str(report)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("s", [1e-160, 1e-300, 1e160])
    def test_recover_refuses_squares_out_of_range(self, s):
        (frame,) = sim.render(sim.gen_scene(3, 1, 0))
        with pytest.raises(InvalidInputError, match="outside the normal float range"):
            geo.projected_sq_distances(scaled(frame, s), frame.labels)

    def test_coincident_points_keep_their_path(self):
        frame = geo.FrameObservation("PQR", [(1e-300, 2.0)] * 3)
        assert geo.projected_sq_distances(frame, "PQR") == (0.0, 0.0, 0.0)
