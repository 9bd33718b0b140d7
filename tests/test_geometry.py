import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosfm import geometry as geo
from orthosfm import scene_sim as sim
from orthosfm.errors import InconsistentLengthsError, InvalidInputError, MissingLabelError

import scalar_reference as ref
from conftest import SCALE_SWEEP, TRIANGLE_PAIRS, frames_sq


class TestApplyMotion:
    def test_identity(self):
        assert ref.apply_motion(np.eye(3), np.zeros(2), ref.Point3(1, 2, 3)) == ref.Point3(1, 2, 3)

    def test_half_turn_about_z(self):
        rot = np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]])
        out = ref.apply_motion(rot, np.zeros(2), ref.Point3(1, 0, 0))
        assert abs(out.x + 1) < 1e-15 and abs(out.y) < 1e-15 and out.z == 0

    def test_matches_manual_multiply(self, rng):
        for _ in range(20):
            rotation, translation = sim.gen_motion(int(rng.integers(0, 2**32)))
            p = ref.Point3(*rng.normal(size=3))
            out = ref.apply_motion(rotation, translation, p)
            # independent element-wise oracle
            vec = (p.x, p.y, p.z)
            expect = [sum(rotation[i][j] * vec[j] for j in range(3)) for i in range(3)]
            expect[0] += translation[0]
            expect[1] += translation[1]
            assert abs(out.x - expect[0]) < 1e-12
            assert abs(out.y - expect[1]) < 1e-12
            assert abs(out.z - expect[2]) < 1e-12

    def test_translation_has_no_depth(self):
        rotation, translation = sim.gen_motion(3)
        p = ref.apply_motion(rotation, translation, ref.Point3(0.2, 0.4, 0.6))
        bare = rotation @ np.array([0.2, 0.4, 0.6])
        assert p.z == pytest.approx(bare[2], abs=0)

    def test_rejects_improper_rotation(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidInputError):
            geo.checked_motions([flip], [np.zeros(2)])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInputError):
            geo.checked_motions([np.eye(3) * 1.001], [np.zeros(2)])


class TestCheckedMotions:
    def test_same_as_one_by_one(self):
        motions = [sim.gen_motion(seed) for seed in range(5)]
        rots, trans = geo.checked_motions(*zip(*motions))
        for got, want in zip(zip(rots, trans), motions):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        rots, trans = geo.checked_motions(np.empty((0, 3, 3)), np.empty((0, 2)))
        assert rots.shape == (0, 3, 3) and trans.shape == (0, 2)

    def test_read_only_copies(self):
        rots, trans = np.array([np.eye(3)] * 2), np.zeros((2, 2))
        got_rots, got_trans = geo.checked_motions(rots, trans)
        rots[:] = 0.0   # the caller's arrays are copied
        trans[:] = 1.0
        assert np.array_equal(got_rots, [np.eye(3)] * 2) and not got_trans.any()
        for array in (got_rots, got_trans):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.0, 1.0, -1.0]), "proper"),
        (np.eye(3) * 1.001, "orthonormal"),
        (np.full((3, 3), np.nan), "non-finite")])
    def test_one_bad_row_rejects_the_stack(self, bad, message):
        rots = np.array([np.eye(3), bad, np.eye(3)])
        with pytest.raises(InvalidInputError, match=message):
            geo.checked_motions(rots, np.zeros((3, 2)))

    @pytest.mark.parametrize("rotations, translations", [
        (np.array([np.eye(3)] * 2), np.zeros((3, 2))),      # two rotations, three shifts
        (np.eye(3), np.zeros(2)),                           # one motion, not a stack
        (np.array([np.eye(3)]), np.zeros((1, 3))),          # a shift in depth
        ([[[1, 0, 0], [0, 1, 0], [0, 0]]], [[0, 0]]),       # a ragged rotation
        ([np.eye(3)], [["a", 0]]),                          # a non-numeric shift
    ])
    def test_rejects_mismatched_shapes(self, rotations, translations):
        with pytest.raises(InvalidInputError, match="motions need"):
            geo.checked_motions(rotations, translations)


class TestProjectedSqDistances:
    def test_three_four_five(self):
        frame = geo.FrameObservation("PQR", [(0, 0), (3, 4), (1, 1)])
        a_sq, _, _ = geo.projected_sq_distances(frame, ("P", "Q", "R"))
        assert a_sq == 25.0

    def test_coincident_points(self):
        frame = geo.FrameObservation("PQR", [(2, 2), (2, 2), (0, 1)])
        assert geo.projected_sq_distances(frame, ("P", "Q", "R"))[0] == 0.0

    def test_brute_force_oracle(self, rng):
        pts = {lab: rng.normal(size=2).tolist() for lab in "PQRT"}
        frame = geo.FrameObservation(list(pts), list(pts.values()))
        got = geo.projected_sq_distances(frame, ("P", "Q", "R", "T"))
        pairs = [("P", "Q"), ("Q", "R"), ("R", "P"), ("T", "R"), ("T", "P"), ("T", "Q")]
        for val, (la, lb) in zip(got, pairs):
            dx = pts[la][0] - pts[lb][0]
            dy = pts[la][1] - pts[lb][1]
            assert val == pytest.approx(dx * dx + dy * dy, rel=1e-15)

    def test_missing_label(self):
        frame = geo.FrameObservation("PQR", [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(MissingLabelError):
            geo.projected_sq_distances(frame, ("P", "Q", "Z"))


def random_frame(rng, labels="PQRTUV"):
    return geo.FrameObservation(labels, [rng.normal(size=2) for _ in labels])


class TestFrameObservationCoords:
    def test_coords_in_label_order(self, rng):
        frame = random_frame(rng)
        labels = ("V", "P", "T", "Q")
        got = frame.coords(labels)
        assert got.shape == (4, 2)
        rows = frame.coords().tolist()
        assert got.tolist() == [rows[frame.labels.index(lab)] for lab in labels]
        assert frame.coords(()).shape == (0, 2)

    def test_coords_default_is_every_point(self, rng):
        xy = rng.normal(size=(6, 2))
        frame = geo.FrameObservation("PQRTUV", xy)
        got = frame.coords()
        assert got.tolist() == xy.tolist()
        assert np.array_equal(got, frame.coords(frame.labels))
        with pytest.raises(ValueError):
            got[0, 0] = 1.0   # the shared array is read-only

    def test_coords_missing_label(self, rng):
        frame = random_frame(rng)
        with pytest.raises(MissingLabelError, match="'Z'"):
            frame.coords(("P", "Z"))

    def test_scale_sq_is_brute_force_max(self, rng):
        # the matcher compares its assumed c^2 with squared projections
        # rounded as d @ d rounds them on the raw difference d
        frame = random_frame(rng)
        expect = max(float(d @ d) for d in (
            a - b for a, b in itertools.product(frame.coords(), repeat=2)))
        assert frame.scale_sq() == expect

    def test_coords_leave_equality_and_hash(self, rng):
        frame = random_frame(rng)
        same = geo.FrameObservation(frame.labels, frame.coords())
        frame.scale_sq(), frame.coords(("P",))  # builds the cache on frame only
        assert frame == same and hash(frame) == hash(same)
        assert frame != random_frame(rng)


# finite coordinates, signed zeros and subnormals among them (bounded so
# that the squared diameter does not overflow)
COORDS = st.floats(-1e150, 1e150) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310])


@st.composite
def labelled_points(draw):
    labels = draw(st.lists(st.text(min_size=1, max_size=3), min_size=3, max_size=8, unique=True))
    return labels, [(draw(COORDS), draw(COORDS)) for _ in labels]


class TestFrameObservationStack:
    @settings(max_examples=200, deadline=None)
    @given(points=labelled_points())
    def test_adapter_equals_stack(self, points):
        labels, rows = points
        xy = np.array(rows)
        one = geo.FrameObservation(labels, xy)
        (stacked,) = geo.FrameObservation.stack([labels], xy[None])
        assert one == stacked and hash(one) == hash(stacked)
        assert one.labels == stacked.labels == tuple(labels)
        # bit for bit, so signed zeros and subnormals survive
        assert one.coords().tobytes() == stacked.coords().tobytes() == xy.tobytes()
        assert one.scale_sq() == stacked.scale_sq()
        # and from the rows as Python floats
        assert geo.FrameObservation(labels, rows).coords().tobytes() == xy.tobytes()

    def test_signed_zeros_compare_and_hash_equal(self):
        # equal frames hash alike: a hash of the coordinates' bytes would not
        plus = geo.FrameObservation("PQR", [(0.0, 1.0), (2.0, 0.0), (3.0, 4.0)])
        minus = geo.FrameObservation("PQR", [(-0.0, 1.0), (2.0, -0.0), (3.0, 4.0)])
        assert plus.coords().tobytes() != minus.coords().tobytes()
        assert plus == minus and hash(plus) == hash(minus)
        assert len({plus, minus}) == 1

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 5), n=st.integers(3, 6), data=st.data())
    def test_rejects_a_non_finite_entry_anywhere(self, k, n, data):
        xy = np.ones((k, n, 2))
        where = tuple(data.draw(st.integers(0, size - 1)) for size in xy.shape)
        xy[where] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(InvalidInputError, match="non-finite"):
            geo.FrameObservation.stack([("P", "Q", "R", "T", "U", "V")[:n]] * k, xy)

    def test_names_the_first_frame_with_a_repeated_label(self):
        labels = [("P", "Q", "R"), ("P", "Q", "R"), ("P", "P", "R"), ("Q", "Q", "R")]
        with pytest.raises(InvalidInputError, match="frame 2: duplicate labels"):
            geo.FrameObservation.stack(labels, np.zeros((4, 3, 2)))

    @pytest.mark.parametrize("labels, shape", [
        ([("P", "Q", "R")], (2, 3, 2)),       # one label tuple for two frames
        ([("P", "Q")] * 2, (2, 3, 2)),        # two labels for three points
        ([("P", "Q", "R")], (1, 3, 3)),       # not (x, y)
        ([("P", "Q", "R")], (3, 2)),          # not a stack
    ])
    def test_rejects_mismatched_shapes(self, labels, shape):
        with pytest.raises(InvalidInputError, match="stack needs"):
            geo.FrameObservation.stack(labels, np.zeros(shape))

    @pytest.mark.parametrize("coords", [
        [["a", 0], [1, 0], [0, 1]],           # a non-numeric coordinate
        [[0, 0], [1, 0], [0]],                # a ragged point
    ])
    def test_rejects_non_numeric_or_ragged_coords(self, coords):
        with pytest.raises(InvalidInputError, match="stack needs"):
            geo.FrameObservation("PQR", coords)
        with pytest.raises(InvalidInputError, match="stack needs"):
            geo.FrameObservation.stack(["PQR"], [coords])

    def test_frames_are_read_only_views_of_one_copy(self):
        xy = np.arange(18.0).reshape(3, 3, 2)
        frames = geo.FrameObservation.stack([("P", "Q", "R")] * 3, xy)
        xy[:] = 0.0   # the caller's array is copied
        assert frames[2].coords().tolist() == [[12.0, 13.0], [14.0, 15.0], [16.0, 17.0]]
        with pytest.raises(ValueError):
            frames[0].coords()[0, 0] = 1.0
        with pytest.raises(AttributeError):
            frames[0].labels = ("Q", "P", "R")

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError, match="at least 3 points, has 2"):
            geo.FrameObservation("PQ", [(0, 0), (1, 0)])
        with pytest.raises(InvalidInputError, match="at least 3 points, has 0"):
            geo.FrameObservation((), np.zeros((0, 2)))


class TestCheckedBody:
    def test_labels_and_a_read_only_copy(self):
        points = np.arange(9.0).reshape(3, 3)
        labels, body = geo.checked_body("PQR", points)
        points[:] = 0.0   # the caller's array is copied
        assert labels == ("P", "Q", "R") and np.array_equal(body, np.arange(9.0).reshape(3, 3))
        with pytest.raises(ValueError):
            body[0, 0] = 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_coordinate(self, value):
        points = np.ones((4, 3))
        points[2, 1] = value
        with pytest.raises(InvalidInputError, match="non-finite"):
            geo.checked_body("PQRT", points)

    @pytest.mark.parametrize("labels, points, message", [
        ("PQP", np.zeros((3, 3)), "body: duplicate labels"),
        ("PQ", np.zeros((2, 3)), "body: needs at least 3 points, has 2"),
        ("PQR", np.zeros((3, 2)), "one label per point and an \\(n, 3\\) array"),
        ("PQ", np.zeros((3, 3)), "one label per point"),
        ("PQR", [[0, 0, 0], [1, 0, 0], [0, 1]], "one label per point and an \\(n, 3\\) array"),
        ("PQR", [["a", 0, 0], [1, 0, 0], [0, 1, 0]], "one label per point and an \\(n, 3\\) array"),
    ])
    def test_rejects_a_malformed_body(self, labels, points, message):
        with pytest.raises(InvalidInputError, match=message):
            geo.checked_body(labels, points)


class TestDofBalance:
    @pytest.mark.parametrize("p,k,unknowns,information,recoverable", [
        (3, 3, 18, 18, True),
        (4, 2, 16, 16, True),
        (1, 1, 2, 2, True),
        (2, 2, 10, 8, False),
    ])
    def test_cases(self, p, k, unknowns, information, recoverable):
        bal = geo.dof_balance(p, k)
        assert (bal.unknowns, bal.information, bal.recoverable) == \
            (unknowns, information, recoverable)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            geo.dof_balance(0, 3)


class TestEmbedDepths:
    def test_planar_body_zero_offsets(self):
        tri = (4.0, 9.0, 12.6878)
        b1, b2 = geo.embed_depths(tri, tri)
        assert all(abs(v) < 1e-12 for v in b1 + b2)

    def test_single_edge_three_four_five(self):
        tri = (25.0, 25.0, 4.0)
        b1, _ = geo.embed_depths(tri, (9.0, 9.0, 4.0))
        assert abs(b1[0]) == pytest.approx(4.0, rel=1e-12)

    def test_roundtrip_against_simulation(self):
        for seed in range(30):
            scene = sim.gen_scene(3, 2, seed)
            tri = (scene.true_sq_distance("P", "Q"),
                   scene.true_sq_distance("Q", "R"),
                   scene.true_sq_distance("R", "P"))
            sq = frames_sq(scene)[1]
            moved = {lab: ref.apply_motion(scene.rotations[1], scene.translations[1],
                                           ref.Point3(*p))
                     for lab, p in zip(scene.labels, scene.points)}
            truth = (moved["Q"].z - moved["P"].z,
                     moved["R"].z - moved["Q"].z,
                     moved["P"].z - moved["R"].z)
            branches = geo.embed_depths(tri, sq)
            err = min(
                max(abs(g - t) for g, t in zip(branch, truth))
                for branch in branches)
            assert err < 1e-9 * max(1.0, max(abs(v) for v in truth))

    def test_inconsistent_projection_raises(self):
        tri = (4.0, 9.0, 12.6878)
        with pytest.raises(InconsistentLengthsError):
            geo.embed_depths(tri, (5.0, 9.0, 12.6878))

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3])
    def test_open_depth_loop_raises_at_any_scale(self, s):
        # deficits (1, 1, 3.99)*s^2: the depth loop misses closure by
        # about 0.25% of the triangle's size, in any units
        tri = (2.0 * s * s, 5.0 * s * s, 5.0 * s * s)
        with pytest.raises(InconsistentLengthsError):
            geo.embed_depths(tri, (1.0 * s * s, 4.0 * s * s, 1.01 * s * s))
        b1, _ = geo.embed_depths(tri, (1.0 * s * s, 4.0 * s * s, 1.0 * s * s))
        assert abs(sum(b1)) < 1e-12 * s

    def test_near_tie_edges_accepted_at_every_scale(self):
        # an edge nearly parallel to the image plane has a deficit near zero,
        # whose square root carries sqrt(rounding): consistent lengths must
        # still close the loop
        rng = np.random.default_rng(11)
        for k in range(900):
            pts = rng.uniform(-1.0, 1.0, (3, 3))
            i, j = geo.TRIANGLE_EDGES[k % 3]
            tie = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -6) if k % 2 else 0.0
            pts[j, 2] = pts[i, 2] + tie
            truth = [pts[b, 2] - pts[a, 2] for a, b in geo.TRIANGLE_EDGES]
            for s in SCALE_SWEEP:
                tri = tuple(float((pts[a] - pts[b]) @ (pts[a] - pts[b])) * s * s
                            for a, b in geo.TRIANGLE_EDGES)
                frame = [float((pts[a, :2] - pts[b, :2]) @ (pts[a, :2] - pts[b, :2])) * s * s
                         for a, b in geo.TRIANGLE_EDGES]
                branches = geo.embed_depths(tri, frame)
                err = min(max(abs(g - t * s) for g, t in zip(b, truth)) for b in branches)
                assert err < 1e-7 * s, (k, s, err)

# Reference: embed_depths as it was before it used geometry.depth_pair, with
# its own search over the four sign assignments, kept verbatim.
def reference_embed_depths(true_sq, frame_sq, tol=1e-9):
    true_vals = tuple(true_sq)
    frame_vals = tuple(frame_sq)
    scale_sq = max(max(abs(v) for v in true_vals), max(abs(v) for v in frame_vals))
    mags = []
    for t, f in zip(true_vals, frame_vals):
        deficit = t - f
        if deficit < -tol * scale_sq:
            raise InconsistentLengthsError(
                f"projected length exceeds true length (deficit {deficit:.3g})")
        mags.append(math.sqrt(max(deficit, 0.0)))
    u, v, w = mags
    best = None
    for sv in (1.0, -1.0):
        for sw in (1.0, -1.0):
            closure = abs(u + sv * v + sw * w)
            if best is None or closure < best[0]:
                best = (closure, (u, sv * v, sw * w))
    closure, branch = best
    if closure > tol * math.sqrt(scale_sq) * 10:
        raise InconsistentLengthsError(
            f"no sign assignment closes the depth loop (gap {closure:.3g})")
    other = tuple(-x for x in branch)
    return branch, other


def embedding(embed, true_sq, frame_sq):
    try:
        return embed(true_sq, frame_sq)
    except InconsistentLengthsError as exc:
        return type(exc)


class TestEmbedDepthsSameAsSignSearch:
    def test_seeded_frames_at_every_scale(self):
        kinds = set()
        for seed in range(200):
            scene = sim.gen_scene(3, 3, seed)
            # every frame against its own body, and against the next seed's
            bodies = (scene, sim.gen_scene(3, 3, seed + 1))
            for body, sq in itertools.product(bodies, frames_sq(scene)):
                for s in SCALE_SWEEP:
                    tri = tuple(body.true_sq_distance(*e) * s * s for e in TRIANGLE_PAIRS)
                    frame = [v * s * s for v in sq]
                    got = embedding(geo.embed_depths, tri, frame)
                    assert got == embedding(reference_embed_depths, tri, frame), (seed, s)
                    kinds.add(got if isinstance(got, type) else tuple)
        assert kinds == {tuple, InconsistentLengthsError}

    @pytest.mark.parametrize("edge", range(3))
    def test_edge_parallel_to_image_plane(self, edge):
        # PQ, QR or RP keeps its length in the image: two sign assignments
        # close the loop, so the two versions may pick different ones (or
        # return the branches in the other order); both must be exact
        rng = np.random.default_rng(edge)
        for _ in range(300):
            xy, z = rng.uniform(-1.0, 1.0, (3, 2)), rng.uniform(-1.0, 1.0, 3)
            i, j = TRIANGLE_PAIRS[edge]
            z[ord(j) - ord("P")] = z[ord(i) - ord("P")]
            pts = dict(zip("PQR", np.column_stack([xy, z])))
            truth = tuple(pts[b][2] - pts[a][2] for a, b in TRIANGLE_PAIRS)
            for s in SCALE_SWEEP:
                tri = tuple(float((pts[a] - pts[b]) @ (pts[a] - pts[b])) * s * s
                            for a, b in TRIANGLE_PAIRS)
                frame = [float((pts[a][:2] - pts[b][:2]) @ (pts[a][:2] - pts[b][:2])) * s * s
                         for a, b in TRIANGLE_PAIRS]
                for embed in (geo.embed_depths, reference_embed_depths):
                    branch, other = embed(tri, frame)
                    assert other == tuple(-v for v in branch)
                    assert abs(sum(branch)) <= 1e-8 * math.sqrt(max(tri))
                    err = min(max(abs(g - t * s) for g, t in zip(b, truth))
                              for b in (branch, other))
                    assert err < 1e-12 * s, (edge, s, branch, truth)


class TestInvariants:
    def test_projection_contraction(self):
        for seed in range(20):
            scene = sim.gen_scene(3, 3, seed)
            truth = [scene.true_sq_distance(a, b)
                     for a, b in (("P", "Q"), ("Q", "R"), ("R", "P"))]
            for sq in frames_sq(scene):
                for proj, true in zip(sq, truth):
                    assert proj <= true + 1e-12 * max(true, 1.0)

    def test_rigid_motion_preserves_distances(self):
        for seed in range(20):
            scene = sim.gen_scene(4, 3, seed)
            pts = {lab: ref.Point3(*p) for lab, p in zip(scene.labels, scene.points)}
            for motion in zip(scene.rotations, scene.translations):
                for la, lb in (("P", "Q"), ("Q", "R"), ("R", "T")):
                    before = pts[la].as_array() - pts[lb].as_array()
                    after = (ref.apply_motion(*motion, pts[la]).as_array()
                             - ref.apply_motion(*motion, pts[lb]).as_array())
                    rel = abs(float(before @ before) - float(after @ after))
                    assert rel < 1e-12 * max(1.0, float(before @ before))
