import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthosfm import geometry as geo
from orthosfm import scene_sim as sim
from orthosfm import solvers
from orthosfm.errors import (
    DegenerateEliminationError,
    InvalidInputError,
    SingularSystemError,
)

import scalar_reference as ref


# ------------------------------------------------------------------
# Reference: the per-point simulator and noise-study loop that the array
# core replaced, one Generator per motion and one Point per point.
# `rejected` counts the draws each generator threw away.

def reference_is_generic(pts):
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] < 0.05 * sv[0]:
        return False
    if len(pts) >= 4 and sv[2] < 0.05 * sv[0]:
        return False
    return True


def reference_gen_body(n, seed, rejected):
    rng = np.random.default_rng(seed)
    labels = sim._labels_for(n)
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, 3))
        if reference_is_generic(pts):
            return labels, pts
        rejected["body"] += 1


def same_body(got, want) -> bool:
    """Bodies as (labels, points) equal: the labels and every float."""
    return got[0] == want[0] and np.array_equal(got[1], want[1])


def reference_quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def reference_gen_motion(seed, rejected):
    rng = np.random.default_rng(seed)
    while True:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        rot = reference_quat_to_matrix(q)
        angle, axis = sim.rotation_angle_axis(rot)
        if angle < sim.MIN_ROTATION_ANGLE or \
                math.hypot(axis[0], axis[1]) < sim.MIN_AXIS_TILT:
            rejected["motion"] += 1
            continue
        return rot, rng.uniform(-1.0, 1.0, size=2)


def reference_gen_scene(n_points, n_frames, seed, rejected):
    body = reference_gen_body(n_points, sim.subseed(seed, 0), rejected)
    motions = [(np.eye(3), np.zeros(2))] + [
        reference_gen_motion(sim.subseed(seed, j), rejected) for j in range(1, n_frames)]
    rotations, translations = zip(*motions)
    provenance = seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
    return sim.Scene(*body, rotations, translations, seed=int(provenance))


def reference_render(scene):
    frames = []
    for motion in zip(scene.rotations, scene.translations):
        moved = [ref.apply_motion(*motion, ref.Point3(*p)) for p in scene.points]
        frames.append(geo.FrameObservation(scene.labels, [(q.x, q.y) for q in moved]))
    return frames


def reference_add_noise(frames, level, seed):
    rng = np.random.default_rng(seed)
    noisy = []
    for frame in frames:
        coords = frame.coords()
        eps = rng.uniform(-level, level, size=coords.shape)
        coords = coords * (1.0 + eps)
        noisy.append(geo.FrameObservation(frame.labels, coords.tolist()))
    return noisy


def reference_noise_study(mode, levels, trials, seed, rejected):
    n_points, n_frames = solvers.MODES[mode]
    edges = geo.TETRA_EDGES if n_points == 4 else geo.TRIANGLE_EDGES
    solve = getattr(solvers, "solve_" + mode)
    rows = []
    for li, level in enumerate(levels):
        errors = []
        degenerate = no_candidate = 0
        for t in range(trials):
            scene = reference_gen_scene(
                n_points, n_frames, sim.subseed(seed, li, t, 0), rejected)
            labels = scene.labels
            frames = reference_render(scene)
            if level > 0:
                frames = reference_add_noise(frames, level, sim.subseed(seed, li, t, 1))
            sq = [geo.projected_sq_distances(f, labels) for f in frames]
            truth = np.array([scene.true_sq_distance(labels[i], labels[j])
                              for i, j in edges])
            try:
                result = solve(sq)
            except (DegenerateEliminationError, SingularSystemError):
                degenerate += 1
                continue
            if not len(result.lengths):
                no_candidate += 1
                continue
            rec = min(result.lengths, key=lambda lengths: np.abs(lengths - truth).max())
            errors.extend(np.abs(rec - truth) / np.abs(truth))
        errors = np.array(errors) if errors else np.array([np.nan])
        rows.append({
            "level": level,
            "trials": trials,
            "failures": degenerate + no_candidate,
            "median_rel_error": float(np.median(errors)),
            "mean_rel_error": float(np.mean(errors)),
            "p95_rel_error": float(np.percentile(errors, 95)),
            "failures_degenerate": degenerate,
            "failures_no_candidate": no_candidate,
        })
    return rows


class TestGenBody:
    def test_deterministic(self):
        assert same_body(sim.gen_body(4, 99), sim.gen_body(4, 99))

    def test_distinct_seeds_distinct_bodies(self):
        assert not same_body(sim.gen_body(4, 1), sim.gen_body(4, 2))

    def test_labels_and_bounds(self):
        labels, points = sim.gen_body(5, 0)
        assert labels == ("P", "Q", "R", "T", "S")
        for x, y, z in points.tolist():
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 <= z <= 1.0

    def test_extra_labels_beyond_five(self):
        labels, _ = sim.gen_body(7, 0)
        assert labels[5:] == ("X0", "X1")

    def test_genericity(self):
        for seed in range(50):
            pts = sim.gen_body(4, seed)[1]
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            assert sv[2] >= 0.05 * sv[0]  # non-coplanar margin

    def test_rejected_first_draw_is_redrawn(self):
        # find a stream whose first 3-point draw fails the genericity test;
        # gen_body must return that stream's second draw
        for seed in range(1000):
            draws = np.random.default_rng(seed).uniform(0.0, 1.0, size=(2, 3, 3))
            if not reference_is_generic(draws[0]):
                break
        else:
            pytest.fail("no rejected first draw in seeds 0-999")
        assert reference_is_generic(draws[1])
        assert same_body(sim.gen_body(3, seed), (("P", "Q", "R"), draws[1]))

    def test_needs_three_points(self):
        with pytest.raises(InvalidInputError):
            sim.gen_body(2, 0)


class TestGenMotion:
    def test_deterministic(self):
        (rot1, trans1), (rot2, trans2) = sim.gen_motion(7), sim.gen_motion(7)
        assert np.array_equal(rot1, rot2)
        assert np.array_equal(trans1, trans2)

    def test_rejection_thresholds(self):
        for seed in range(100):
            rotation, _ = sim.gen_motion(seed)
            angle, axis = sim.rotation_angle_axis(rotation)
            assert angle >= sim.MIN_ROTATION_ANGLE
            assert math.hypot(axis[0], axis[1]) >= sim.MIN_AXIS_TILT

    def test_translation_bounds(self):
        for seed in range(50):
            _, t = sim.gen_motion(seed)
            assert t.shape == (2,) and np.all(np.abs(t) <= 1.0)


class TestRotationAngleAxis:
    def test_known_rotation(self):
        ang = 0.73
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])  # about x
        angle, axis = sim.rotation_angle_axis(rot)
        assert angle == pytest.approx(ang, abs=1e-12)
        assert np.allclose(axis, [1.0, 0.0, 0.0])

    def test_half_turn(self):
        rot = np.diag([1.0, -1.0, -1.0])  # pi about x
        angle, axis = sim.rotation_angle_axis(rot)
        assert angle == pytest.approx(math.pi, abs=1e-9)
        assert np.allclose(np.abs(axis), [1.0, 0.0, 0.0], atol=1e-9)

    def test_identity(self):
        angle, axis = sim.rotation_angle_axis(np.eye(3))
        assert angle == 0.0
        assert np.linalg.norm(axis) == pytest.approx(1.0)


class TestSubseed:
    def test_deterministic(self):
        a = np.random.default_rng(sim.subseed(3, 1)).integers(0, 2**31)
        b = np.random.default_rng(sim.subseed(3, 1)).integers(0, 2**31)
        assert a == b

    def test_distinct_keys_distinct_streams(self):
        a = np.random.default_rng(sim.subseed(3, 1)).integers(0, 2**31)
        b = np.random.default_rng(sim.subseed(3, 2)).integers(0, 2**31)
        assert a != b

    def test_nested_keys_concatenate(self):
        nested = sim.subseed(sim.subseed(3, 1), 2)
        flat = sim.subseed(3, 1, 2)
        assert nested.entropy == flat.entropy
        assert tuple(nested.spawn_key) == tuple(flat.spawn_key)


# seeds up to 2**128, plain or as a SeedSequence carrying a spawn key, and
# keys whose elements span one to three 32-bit words
INT_SEEDS = st.integers(0, 2**128)
KEY_ELEMENTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96))
KEYS = st.lists(KEY_ELEMENTS, max_size=5).map(tuple)
SEEDS = st.one_of(INT_SEEDS, st.builds(lambda entropy, key: sim.subseed(entropy, *key),
                                       INT_SEEDS, st.lists(KEY_ELEMENTS, min_size=1,
                                                           max_size=3)))


class TestGenerators:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, keys=st.lists(KEYS, min_size=1, max_size=6))
    @example(seed=0, keys=[()])
    @example(seed=2**128, keys=[(), (1,), (2**32,), (1, 2, 3, 4, 5, 6), (2**96, 0)])
    @example(seed=sim.subseed(7, 2**40), keys=[(), (0, 1)])
    def test_streams_equal_seed_sequences(self, seed, keys):
        rngs = sim._generators(seed, keys)
        assert len(rngs) == len(keys)
        for key, rng in zip(keys, rngs):
            seq = sim.subseed(seed, *key)
            assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64),
                                  seq.generate_state(4, np.uint64))
            assert rng.bit_generator.state == np.random.default_rng(seq).bit_generator.state

    def test_noise_study_batch(self):
        keys = [(2, t, 0, j) for t in range(50) for j in range(3)] + \
            [(2, t, 1) for t in range(50)]
        for key, rng in zip(keys, sim._generators(11, keys)):
            ref = np.random.default_rng(sim.subseed(11, *key))
            assert np.array_equal(rng.uniform(size=5), ref.uniform(size=5))

    @pytest.mark.parametrize("seed", [
        -1, -2**70, np.int64(-3), 1.0, "3", None, True,
        np.random.SeedSequence([1, 2]),           # Scene.seed records one int
        np.random.SeedSequence(3, pool_size=8),
    ])
    def test_rejects_seed_before_any_draw(self, seed, monkeypatch):
        def draw(*args):
            raise AssertionError("drew from a stream")

        monkeypatch.setattr(sim, "_redraw", draw)
        monkeypatch.setattr(sim, "_noise", draw)
        with pytest.raises(InvalidInputError):
            sim._generators(seed, [(0,)])
        for call in (lambda: sim.gen_scene(4, 3, seed), lambda: sim.gen_body(3, seed),
                     lambda: sim.gen_motion(seed),
                     lambda: sim.add_noise(
                         [geo.FrameObservation("PQR", [(1.0, 2.0), (3.0, 4.0), (5.0, 7.0)])],
                         0.1, seed),
                     lambda: sim.run_noise_study("p3f3", [0.01], 2, seed)):
            with pytest.raises(InvalidInputError):
                call()

    def test_scene_records_the_entropy(self):
        assert sim.gen_scene(3, 2, 2**100).seed == 2**100
        assert sim.gen_scene(3, 2, sim.subseed(5, 1)).seed == 5


class TestGenScene:
    def test_first_frame_identity(self):
        scene = sim.gen_scene(3, 3, 0)
        assert np.array_equal(scene.rotations[0], np.eye(3))
        assert np.array_equal(scene.translations[0], np.zeros(2))

    def test_counts(self):
        scene = sim.gen_scene(4, 5, 1)
        assert len(scene.points) == 4
        assert scene.rotations.shape == (5, 3, 3) and scene.translations.shape == (5, 2)

    def test_true_sq_distance_oracle(self):
        scene = sim.gen_scene(3, 2, 2)
        pts = dict(zip(scene.labels, scene.points))
        d = pts["P"] - pts["Q"]
        assert scene.true_sq_distance("P", "Q") == pytest.approx(float(d @ d))

    def test_needs_one_frame(self):
        with pytest.raises(InvalidInputError):
            sim.gen_scene(3, 0, 0)

    def test_scenes_compare_by_value(self):
        scene = sim.gen_scene(4, 2, 3)
        motions = scene.rotations, scene.translations
        assert sim.Scene(scene.labels, scene.points.copy(), *motions, scene.seed) == scene
        assert sim.Scene(scene.labels, scene.points + 1e-12, *motions, scene.seed) != scene
        assert sim.Scene(scene.labels, scene.points, scene.rotations[::-1],
                         scene.translations, scene.seed) != scene
        assert sim.Scene(scene.labels, scene.points, scene.rotations,
                         scene.translations[::-1], scene.seed) != scene
        with pytest.raises(InvalidInputError, match="non-finite"):
            sim.Scene(scene.labels, scene.points * np.inf, *motions, scene.seed)

    @pytest.mark.parametrize("rotations, translations", [
        (("junk",), np.zeros((1, 2))),
        (np.array([np.eye(3)] * 2), np.zeros((1, 2))),
        (np.array([np.eye(3) * 1.001]), np.zeros((1, 2))),
    ])
    def test_rejects_a_non_motion(self, rotations, translations):
        body = sim.gen_body(3, 0)
        with pytest.raises(InvalidInputError):
            sim.Scene(*body, rotations, translations, 0)

    def test_motions_are_read_only(self):
        scene = sim.gen_scene(3, 2, 4)
        for array in (scene.rotations, scene.translations):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0


class TestRender:
    def test_projection_consistency(self):
        scene = sim.gen_scene(4, 3, 3)
        frames = sim.render(scene)
        assert len(frames) == 3
        for frame, motion in zip(frames, zip(scene.rotations, scene.translations)):
            for lab, p in zip(scene.labels, scene.points):
                moved = ref.apply_motion(*motion, ref.Point3(*p))
                assert frame.coords([lab])[0].tolist() == [moved.x, moved.y]

    def test_first_frame_is_plain_projection(self):
        scene = sim.gen_scene(3, 2, 4)
        frame = sim.render(scene)[0]
        for lab, (x, y, _) in zip(scene.labels, scene.points.tolist()):
            assert frame.coords([lab])[0].tolist() == [x, y]

    def test_no_motions_no_frames(self):
        scene = sim.Scene(*sim.gen_body(3, 0), np.empty((0, 3, 3)), np.empty((0, 2)), 0)
        assert sim.render(scene) == []


class TestAddNoise:
    def test_level_zero_identity(self):
        scene = sim.gen_scene(3, 2, 5)
        frames = sim.render(scene)
        noisy = sim.add_noise(frames, 0.0, 1)
        for f, g in zip(frames, noisy):
            assert f == g

    def test_uniform_bounded(self):
        scene = sim.gen_scene(4, 3, 6)
        frames = sim.render(scene)
        level = 0.05
        noisy = sim.add_noise(frames, level, 2)
        for f, g in zip(frames, noisy):
            assert f.labels == g.labels
            for p, q in zip(f.coords().tolist(), g.coords().tolist()):
                for a, b in zip(p, q):
                    assert abs(b - a) <= level * abs(a) + 1e-15

    def test_deterministic_per_seed(self):
        scene = sim.gen_scene(3, 2, 7)
        frames = sim.render(scene)
        n1 = sim.add_noise(frames, 0.01, 9)
        n2 = sim.add_noise(frames, 0.01, 9)
        assert all(a == b for a, b in zip(n1, n2))
        n3 = sim.add_noise(frames, 0.01, 10)
        assert any(a != b for a, b in zip(n1, n3))

    def test_spec_validation(self):
        frames = sim.render(sim.gen_scene(3, 2, 5))
        with pytest.raises(InvalidInputError):
            sim.add_noise(frames, -0.1, 0)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, -1e-300, 1e308])
    def test_spec_rejects_non_finite_and_negative(self, level):
        frames = sim.render(sim.gen_scene(3, 2, 5))
        with pytest.raises(InvalidInputError, match="noise level"):
            sim.add_noise(frames, level, 0)
        # before anything else: no frames, nothing to draw
        with pytest.raises(InvalidInputError, match="noise level"):
            sim.add_noise([], level, 0)

    def test_largest_level_draws(self):
        # the range 2 * level must be finite
        level = sys.float_info.max / 2.0
        frames = [geo.FrameObservation("PQR", [(0.0, 0.5), (1.0, 0.25), (0.5, 1.0)])]
        assert len(sim.add_noise(frames, level, 1)) == 1
        with pytest.raises(InvalidInputError, match="noise level"):
            sim.add_noise(frames, math.nextafter(level, math.inf), 1)


class TestSameAsPerPointSimulator:
    """The array core against the per-point reference above, with ==."""

    def test_scenes_frames_and_noise(self):
        rejected = {"body": 0, "motion": 0}
        for seed in range(200):
            # every (points, frames) pair of 3-6 x 1-6 within 24 seeds
            n_points, n_frames = 3 + seed % 4, 1 + (seed // 4) % 6
            expect = reference_gen_scene(n_points, n_frames, seed, rejected)
            scene = sim.gen_scene(n_points, n_frames, seed)
            assert scene == expect
            assert len(scene.rotations) == len(scene.translations) == n_frames
            assert np.array_equal(scene.rotations, expect.rotations)
            assert np.array_equal(scene.translations, expect.translations)
            frames = sim.render(scene)
            assert frames == reference_render(expect)
            noise = 0.01, sim.subseed(seed, 10**6)
            assert sim.add_noise(frames, *noise) == reference_add_noise(frames, *noise)
        # the seeds reach the redraw path of both generators
        assert rejected["body"] > 0 and rejected["motion"] > 0, rejected

    def test_single_draw_adapters(self):
        rejected = {"body": 0, "motion": 0}
        for seed in range(200):
            assert same_body(sim.gen_body(3 + seed % 4, seed),
                             reference_gen_body(3 + seed % 4, seed, rejected))
            got, want = sim.gen_motion(seed), reference_gen_motion(seed, rejected)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert rejected["body"] > 0 and rejected["motion"] > 0, rejected

    def test_noise_on_frames_of_different_sizes(self):
        frames = [geo.FrameObservation([f"X{i}" for i in range(n)],
                                       [(1.0 + i, 2.0 - j) for i in range(n)])
                  for j, n in enumerate((3, 7, 4))]
        assert sim.add_noise(frames, 0.2, 11) == reference_add_noise(frames, 0.2, 11)

    @pytest.mark.parametrize("mode", ["p3f3", "p3f4", "p4f3"])
    def test_noise_study_rows(self, mode):
        levels = [0.0, 0.001, 0.01, 0.1]
        rejected = {"body": 0, "motion": 0}
        expect = reference_noise_study(mode, levels, 40, 17, rejected)
        assert sim.run_noise_study(mode, levels, 40, 17) == expect
        assert rejected["body"] + rejected["motion"] > 0, rejected


class TestRunNoiseStudy:
    def test_failures_split_by_reason(self, monkeypatch):
        # a stand-in core: per level, trials 0, 1 mod 4 degenerate, 2 mod 4
        # without a candidate, the rest as the real core answers them
        real = solvers.solve_batch
        calls = []

        def solve(mode, stack, tol=1e-9):
            calls.append(len(stack))
            batch = real(mode, stack, tol)
            keep = batch.row % 4 == 3
            return solvers.BatchResult(
                batch.row[keep], batch.lengths[keep], batch.feasible[keep],
                batch.residuals[keep], np.arange(len(stack)) % 4 < 2)

        monkeypatch.setattr(solvers, "solve_batch", solve)
        rows = sim.run_noise_study("p3f4", [0.0, 0.01], 8, 3)
        assert calls == [8, 8]  # the looked-up core, once per level
        for row in rows:
            assert (row["failures_degenerate"], row["failures_no_candidate"],
                    row["failures"]) == (4, 2, 6)

    def test_real_failures_have_no_candidate(self):
        rows = sim.run_noise_study("p3f3", [0.0, 0.1], 50, 1)
        assert rows[0]["failures"] == 0
        assert rows[1]["failures"] == rows[1]["failures_no_candidate"] > 0
        assert rows[1]["failures_degenerate"] == 0

    @pytest.mark.parametrize("levels", [[0.01, -0.1], [math.nan], [math.inf], []])
    def test_invalid_level_raises_before_any_trial(self, levels, monkeypatch):
        def solve(mode, stack, tol=1e-9):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(solvers, "solve_batch", solve)
        with pytest.raises(InvalidInputError, match="noise level"):
            sim.run_noise_study("p3f4", levels, 5, 0)

    def test_needs_a_trial(self):
        with pytest.raises(InvalidInputError, match="trials"):
            sim.run_noise_study("p3f4", [0.01], 0, 0)

    @pytest.mark.parametrize("mode, trials, message", [
        ("p9", 2, "unknown mode 'p9'"),
        ("p3f4", 2.5, "trials must be >= 1 and an integer, got 2.5"),
    ])
    def test_rejects_mode_or_trials_before_any_draw(self, mode, trials, message, monkeypatch):
        def draw(*args):
            raise AssertionError("drew from a stream")

        monkeypatch.setattr(sim, "_generators", draw)
        with pytest.raises(InvalidInputError, match=message):
            sim.run_noise_study(mode, [0.1], trials, 0)


# ties, both zeros and subnormals, among any finite or infinite floats
STUDY_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1.0, 3.0]),
                         st.floats(allow_nan=False))


def bits(x):
    return struct.pack("<d", x)


class TestMedianP95:
    # the study's statistics without numpy.ma: numpy's own, bit for bit
    @settings(max_examples=300, deadline=None)
    @given(st.lists(STUDY_VALUES, min_size=1, max_size=500),
           st.one_of(st.none(), st.integers(0, 500)))
    # np.sort and np.partition order these zeros differently
    @example([0.0, 0.0, 0.0, 0.0, -0.0, -0.0], None)
    @example([-0.0], None)
    @example([-0.0, -0.0], None)
    @example([math.inf], None)
    @example(np.random.default_rng(0).integers(0, 4, 500).tolist(), None)
    @example(np.random.default_rng(1).integers(0, 4, 499).tolist(), None)
    @example([0.5], 0)
    def test_equals_numpy(self, values, nan_at):
        if nan_at is not None:
            values.insert(nan_at % (len(values) + 1), math.nan)
        errors = np.array(values, dtype=float)
        with np.errstate(all="ignore"):   # inf - inf inside numpy's _lerp
            expect = float(np.median(errors)), float(np.percentile(errors, 95))
        got = sim._median_p95(errors)
        if nan_at is None:
            assert list(map(bits, got)) == list(map(bits, expect))
        else:
            assert all(map(math.isnan, got + expect))
