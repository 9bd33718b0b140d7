import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosfm import cli, io_files
from orthosfm import geometry as geo
from orthosfm import scene_sim as sim
from orthosfm.errors import InvalidInputError

from conftest import (
    collinear_gauge_pair,
    golden_scene,
    relabeled,
    scaled,
    shared_epipolar_pair,
    shifted,
    view_axis_frames,
    view_axis_pair,
)


class TestSceneJson:
    def test_roundtrip(self):
        scene = sim.gen_scene(4, 3, 17)
        back = io_files.scene_from_json(io_files.scene_to_json(scene))
        assert back.seed == scene.seed
        assert back == scene
        assert np.array_equal(back.rotations, scene.rotations)
        assert np.array_equal(back.translations, scene.translations)

    def test_invalid_json_diagnostic(self):
        with pytest.raises(InvalidInputError, match="line"):
            io_files.scene_from_json("{not json\n}")

    def test_missing_field(self):
        with pytest.raises(InvalidInputError, match="malformed"):
            io_files.scene_from_json(json.dumps({"points": []}))

    @pytest.mark.parametrize("points, rotation, message", [
        ([], None, "a body needs one label per point"),
        ([("P", 0, 0, 0), ("P", 1, 0, 0), ("Q", 0, 1, 0)], None, "body: duplicate labels"),
        ([("P", "nan", 0, 0), ("Q", 1, 0, 0), ("R", 0, 1, 0)], None, "non-finite coordinate"),
        ([("P", 0, 0, 0), ("Q", 1, 0, 0), ("R", 0, 1, 0)], [1, 0, 0, 0, 1, 0, 0, 0, 2],
         r"rotation not orthonormal \(err=3\)"),
    ], ids=["no-points", "duplicate-labels", "nan", "not-orthonormal"])
    def test_malformed_body_or_motion_names_the_scene_file(self, points, rotation, message):
        doc = {"points": [{"label": lab, "x": x, "y": y, "z": z} for lab, x, y, z in points],
               "motions": [] if rotation is None else [{"rotation": rotation, "tx": 0, "ty": 0}]}
        with pytest.raises(InvalidInputError, match=f"^scene file: {message}"):
            io_files.scene_from_json(json.dumps(doc))


def scene_doc(scene):
    """The scene file's document, as json.dumps encodes it."""
    return {
        "points": [{"label": str(lab), "x": x, "y": y, "z": z}
                   for lab, (x, y, z) in zip(scene.labels, scene.points.tolist())],
        "motions": [{"rotation": [float(v) for v in rot.reshape(-1)],
                     "tx": float(tr[0]), "ty": float(tr[1])}
                    for rot, tr in zip(scene.rotations, scene.translations)],
        "seed": scene.seed,
    }


class TestSceneJsonOracle:
    """scene_to_json writes the schema itself; json.dumps is the oracle."""

    @pytest.mark.parametrize("n_points", range(3, 9))
    def test_equals_json_dumps(self, n_points):
        for n_frames in (1, 2, 7, 50):
            scene = sim.gen_scene(n_points, n_frames, 100 * n_points + n_frames)
            text = io_files.scene_to_json(scene)
            assert text == json.dumps(scene_doc(scene), indent=2) + "\n"
            back = io_files.scene_from_json(text)
            assert io_files.scene_to_json(back) == text

    def test_labels_that_need_escaping(self):
        labels = ['a"b', "c\\d", "e\nf", "\u00e9\t", "\U0001f600"]
        points = [(-0.0, 5e-324, 1e300 * k) for k in range(len(labels))]
        moved = sim.gen_scene(3, 3, 1)
        for motions in ((np.empty((0, 3, 3)), np.empty((0, 2))),
                        (moved.rotations, moved.translations)):
            scene = sim.Scene(labels, points, *motions, seed=2**70)
            text = io_files.scene_to_json(scene)
            assert text == json.dumps(scene_doc(scene), indent=2) + "\n"
            back = io_files.scene_from_json(text)
            assert back == scene and back.seed == scene.seed
            assert io_files.scene_to_json(back) == text


class TestFramesCsv:
    def test_roundtrip(self):
        frames = sim.render(sim.gen_scene(3, 4, 23))
        back = io_files.frames_from_csv(io_files.frames_to_csv(frames))
        assert len(back) == 4
        for f1, f2 in zip(frames, back):
            # bit-exact via repr round-trip
            assert f1.labels == f2.labels and f1.coords().tobytes() == f2.coords().tobytes()

    def test_bad_header(self):
        with pytest.raises(InvalidInputError, match="line 1"):
            io_files.frames_from_csv("frame,label,x,y\n0,P,0,0\n")

    def test_bad_number_reports_line(self):
        text = ("frame_index,label,x,y\n"
                "0,P,0.0,0.0\n0,Q,1.0,0.0\n0,R,zero,1.0\n")
        with pytest.raises(InvalidInputError, match="line 4"):
            io_files.frames_from_csv(text)

    def test_wrong_column_count(self):
        with pytest.raises(InvalidInputError, match="4 columns"):
            io_files.frames_from_csv("frame_index,label,x,y\n0,P,0.0\n")

    def test_gap_in_frame_indices(self):
        rows = ["frame_index,label,x,y"]
        for idx in (0, 2):
            for lab, x in (("P", 0.0), ("Q", 1.0), ("R", 2.0)):
                rows.append(f"{idx},{lab},{x},{x}")
        with pytest.raises(InvalidInputError, match="without gaps"):
            io_files.frames_from_csv("\n".join(rows) + "\n")

    def test_label_mismatch_across_frames(self):
        rows = ["frame_index,label,x,y"]
        for lab in ("P", "Q", "R"):
            rows.append(f"0,{lab},0.0,0.0")
        for lab in ("P", "Q", "Z"):
            rows.append(f"1,{lab},0.0,0.0")
        with pytest.raises(InvalidInputError, match="labels differ"):
            io_files.frames_from_csv("\n".join(rows) + "\n")

    def test_empty_file(self):
        with pytest.raises(InvalidInputError):
            io_files.frames_from_csv("")

    def test_lenient_number_syntax(self):
        # Python's own int and float read the columns
        text = ("frame_index,label,x,y\n"
                "00,P,1e-3,-0.0\n+0,Q,1,2\n 0,R, 3.5 ,1_0\n")
        (frame,) = io_files.frames_from_csv(text)
        assert frame.labels == ("P", "Q", "R")
        assert frame.coords().tolist() == [[1e-3, 0.0], [1.0, 2.0], [3.5, 10.0]]
        assert np.signbit(frame.coords()[0, 1])

    @pytest.mark.parametrize("value", ["1e400", "-1e400", "nan", "inf", "-Infinity"])
    def test_non_finite_coordinate_names_its_line(self, tmp_path, capsys, value):
        text = ("frame_index,label,x,y\n"
                f"0,P,0.0,0.0\n0,Q,1.0,0.0\n0,R,{value},1.0\n0,T,{value},2.0\n")
        with pytest.raises(InvalidInputError, match="^frames file: line 4: non-finite"):
            io_files.frames_from_csv(text)
        f = tmp_path / "frames.csv"
        f.write_text(text)
        assert cli.main(["recover", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: frames file: line 4: non-finite coordinate\n"

    def test_first_faulty_line_wins(self):
        # a bad number after a non-finite coordinate, and before one
        rows = "0,P,0.0,0.0\n0,Q,nan,0.0\n0,R,zero,1.0\n"
        with pytest.raises(InvalidInputError, match="line 3: non-finite"):
            io_files.frames_from_csv("frame_index,label,x,y\n" + rows)
        rows = "0,P,0.0,0.0\n\n0,Q,0.0\n0,R,nan,1.0\n"
        with pytest.raises(InvalidInputError, match="line 4: expected 4 columns"):
            io_files.frames_from_csv("frame_index,label,x,y\n" + rows)

    def test_nan_in_the_last_of_6000_frames(self, tmp_path, capsys):
        frames = sim.render(sim.gen_scene(4, 6000, 5))
        lines = io_files.frames_to_csv(frames).splitlines()
        assert len(lines) == 1 + 4 * 6000
        lines[-2] = lines[-2].rsplit(",", 1)[0] + ",nan"
        f = tmp_path / "frames.csv"
        f.write_text("\n".join(lines) + "\n")
        assert cli.main(["recover", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == \
            f"error: frames file: line {len(lines) - 1}: non-finite coordinate\n"

    def test_repeated_label_names_its_frame(self, tmp_path, capsys):
        text = "frame_index,label,x,y\n" + "".join(
            f"{idx},{lab},{x}.0,{idx}.0\n" for idx in (0, 1) for x, lab in enumerate("PQP"))
        f = tmp_path / "frames.csv"
        f.write_text(text)
        assert cli.main(["recover", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: frame 0: duplicate labels\n"

    def test_too_few_points_names_its_frame(self, tmp_path, capsys):
        text = "frame_index,label,x,y\n1,P,0,0\n0,P,0,0\n0,Q,1,0\n1,Q,1,1\n"
        f = tmp_path / "frames.csv"
        f.write_text(text)
        assert cli.main(["recover", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: frame 0: needs at least 3 points, has 2\n"

    def test_label_mismatch_names_the_first_frame(self):
        rows = ["frame_index,label,x,y"]
        for idx, labels in enumerate(("PQR", "PQR", "PQRT", "PQZ", "RQP")):
            rows += [f"{idx},{lab},0.0,0.0" for lab in labels]
        with pytest.raises(InvalidInputError, match="frame 2 labels differ from frame 0"):
            io_files.frames_from_csv("\n".join(rows) + "\n")
        del rows[10]   # frame 2 loses its T
        with pytest.raises(InvalidInputError, match="frame 3 labels differ from frame 0"):
            io_files.frames_from_csv("\n".join(rows) + "\n")

    def test_field_over_the_csv_limit_names_its_line(self):
        text = f"frame_index,label,x,y\n0,P,0,0\n0,{'Q' * 200_000},1,0\n0,R,0,1\n"
        with pytest.raises(InvalidInputError,
                           match=r"^frames file: line 3: field larger than field limit"):
            io_files.frames_from_csv(text)

    @pytest.mark.parametrize("index", ["-1", "7", str(10**30)])
    def test_index_out_of_range(self, index):
        text = f"frame_index,label,x,y\n0,P,0,0\n0,Q,1,0\n0,R,0,1\n{index},P,0,0\n"
        with pytest.raises(InvalidInputError, match="without gaps"):
            io_files.frames_from_csv(text)


# a coordinate of every kind the writer meets: signed zeros, subnormals, any
# finite double
CSV_COORDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310])
# labels that need CSV quoting (a comma or a quote) among plain ones
CSV_LABELS = st.text(alphabet='PQRab ,"\'', min_size=1, max_size=4)


@st.composite
def frame_sets(draw):
    """Frames of one label set, each frame in its own label order."""
    labels = draw(st.lists(CSV_LABELS, min_size=3, max_size=6, unique=True))
    n_frames = draw(st.integers(1, 6))
    orders = (draw(st.permutations(labels)) for _ in range(n_frames))
    return [geo.FrameObservation(labs, [(draw(CSV_COORDS), draw(CSV_COORDS)) for _ in labs])
            for labs in orders]


class TestFramesCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(frames=frame_sets(), data=st.data())
    def test_rows_in_any_frame_order(self, frames, data):
        header, *rows = io_files.frames_to_csv(frames).splitlines(keepends=True)
        # interleave the frames' rows at random, each frame's in its own order
        n = len(frames[0].labels)
        turns = data.draw(st.permutations([i for i in range(len(frames)) for _ in range(n)]))
        queues = [iter(rows[i * n:(i + 1) * n]) for i in range(len(frames))]
        text = header + "".join(next(queues[i]) for i in turns)
        back = io_files.frames_from_csv(text)
        assert back == frames
        # bit for bit, signed zeros included
        assert [f.coords().tobytes() for f in back] == [f.coords().tobytes() for f in frames]




def write_frames(path, scene):
    frames = sim.render(scene)
    path.write_text(io_files.frames_to_csv(frames))
    return frames


class TestCliRecover:
    def test_auto_p3f4(self, tmp_path, capsys):
        f = tmp_path / "frames.csv"
        write_frames(f, golden_scene(4))
        out = tmp_path / "report.json"
        code = cli.main(["recover", str(f), "--out", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["solver"] == "p3f4"
        assert report["status"] == "ok"
        got = report["candidates"][0]["lengths_sq"]
        assert got["a_sq"] == pytest.approx(4.0, rel=1e-9)
        assert got["b_sq"] == pytest.approx(9.0, rel=1e-9)
        assert got["c_sq"] == pytest.approx(12.6878, rel=1e-9)

    def test_auto_p4f3(self, tmp_path):
        f = tmp_path / "frames.csv"
        scene = sim.gen_scene(4, 3, 31)
        write_frames(f, scene)
        out = tmp_path / "report.json"
        assert cli.main(["recover", str(f), "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["solver"] == "p4f3"
        assert len(report["candidates"][0]["lengths_sq"]) == 6

    def test_explicit_p3f3(self, tmp_path):
        f = tmp_path / "frames.csv"
        write_frames(f, golden_scene(3))
        out = tmp_path / "report.json"
        code = cli.main(["recover", str(f), "--mode", "p3f3", "--out", str(out)])
        assert code == cli.EXIT_OK

    def test_two_frames_input_error(self, tmp_path, capsys):
        f = tmp_path / "frames.csv"
        write_frames(f, golden_scene(2))
        assert cli.main(["recover", str(f)]) == cli.EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["recover", str(tmp_path / "none.csv")]) == cli.EXIT_INPUT

    def test_degenerate_exit_code(self, tmp_path):
        # three identical frames: no information
        scene = golden_scene(1)
        frames = sim.render(scene) * 3
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv(frames))
        out = tmp_path / "report.json"
        code = cli.main(["recover", str(f), "--mode", "p3f3", "--out", str(out)])
        assert code == cli.EXIT_DEGENERATE
        assert json.loads(out.read_text())["status"] == "degenerate"

    def test_view_axis_motion_exits_degenerate(self, tmp_path):
        # frames 2-4 differ from frame 1 by a turn about the view axis only
        f, out = tmp_path / "frames.csv", tmp_path / "report.json"
        codes = []
        for seed in range(100):
            f.write_text(io_files.frames_to_csv(view_axis_frames(3, 4, seed)))
            codes.append(cli.main(["recover", str(f), "--out", str(out)]))
        assert codes == [cli.EXIT_DEGENERATE] * 100

    def test_auto_degenerate_reports_chosen_mode(self, tmp_path):
        frames = sim.render(golden_scene(4))
        frames[2] = frames[1]
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv(frames))
        out = tmp_path / "report.json"
        assert cli.main(["recover", str(f), "--out", str(out)]) == cli.EXIT_DEGENERATE
        report = json.loads(out.read_text())
        assert report["status"] == "degenerate"
        assert report["solver"] == "p3f4"


    def test_reports_used_data(self, tmp_path):
        # 3 points over 6 frames: p3f4 reads the first 4 frames
        f = tmp_path / "frames.csv"
        write_frames(f, golden_scene(6))
        out = tmp_path / "report.json"
        assert cli.main(["recover", str(f), "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["dof"]["frames"] == 6
        assert report["used"] == {"points": ["P", "Q", "R"], "frames": 4}


    @pytest.mark.parametrize("frames, args, digest", [
        (lambda: sim.render(golden_scene(4)), [],
         "a91e559a4c6c35588230a3c735fb4d5a6e560bcfc529dc3f6e03aec4350b6c94"),
        (lambda: sim.render(golden_scene(3)), ["--mode", "p3f3"],
         "cef4661c439e38da2e99cb9312ba0fe8bc136dcdc7849362ebf732e65cd9437d"),
        (lambda: sim.render(sim.gen_scene(4, 3, 31)), [],
         "14d0db365ee68c1d7050d50b4bfaecab6a106b6c25a3d06c2543e25a0fce781e"),
        (lambda: sim.render(golden_scene(1)) * 3, ["--mode", "p3f3"],
         "c4f737b700666edb0b7de9de21d80372d278e67b191cd7c5851607c42b2680c5"),
    ], ids=["golden-p3f4", "golden-p3f3", "p4f3", "degenerate"])
    def test_report_bytes_pinned(self, tmp_path, capsys, frames, args, digest):
        # digests of the report, less its timing_s line, written when each
        # candidate was its own object
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv(frames()))
        cli.main(["recover", str(f), *args])
        report = [line for line in capsys.readouterr().out.splitlines(keepends=True)
                  if '"timing_s"' not in line]
        assert hashlib.sha256("".join(report).encode()).hexdigest() == digest

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_rejects_invalid_tol(self, tmp_path, capsys, tol):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(3, 3, 4))
        out = tmp_path / "report.json"
        assert cli.main(["recover", str(f), "--mode", "p3f3", f"--tol={tol}",
                         "--out", str(out)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: tol must be finite and >= 0") and "Traceback" not in err
        assert not out.exists()


class TestCliMatch:
    def test_rigid_consistent(self, tmp_path):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(4, 2, 40))
        out = tmp_path / "report.json"
        assert cli.main(["match", str(f), "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "consistent"

    def test_rigid_consistent_at_large_scale(self, tmp_path):
        frames = [scaled(f, 1e8) for f in sim.render(sim.gen_scene(4, 2, 40))]
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv(frames))
        out = tmp_path / "report.json"
        assert cli.main(["match", str(f), "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "consistent"

    def test_unlabeled_recovers_permutation(self, tmp_path):
        scene = sim.gen_scene(4, 2, 41)
        frames = sim.render(scene)
        # same label set, but the names are attached to the wrong points
        relabel = {"P": "R", "Q": "T", "R": "P", "T": "Q"}
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv([frames[0], relabeled(frames[1], relabel)]))
        out = tmp_path / "report.json"
        code = cli.main(["match", str(f), "--unlabeled", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["assignment"] == relabel

    def test_broken_rigidity_exit_code(self, tmp_path):
        scene = sim.gen_scene(4, 2, 42)
        frames = sim.render(scene)
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv([frames[0], shifted(frames[1], "R", (0.5, -0.5))]))
        out = tmp_path / "report.json"
        code = cli.main(["match", str(f), "--out", str(out)])
        assert code == cli.EXIT_NO_SOLUTION
        assert json.loads(out.read_text())["verdict"] == "inconsistent"

    def test_unlabeled_counts_infeasible(self, tmp_path):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(5, 2, 44))
        out = tmp_path / "report.json"
        assert cli.main(["match", str(f), "--unlabeled", "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        inf = sum(r["residual"] == float("inf") for r in report["ranking"])
        assert report["n_infeasible"] == inf
        assert len(report["ranking"]) == report["n_scored"]

    @pytest.mark.parametrize("n, score", [(4, "collinearity_4pt"), (5, "affine_epipolar")])
    def test_unlabeled_names_its_score(self, tmp_path, n, score):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(n, 2, 44))
        out = tmp_path / "report.json"
        assert cli.main(["match", str(f), "--unlabeled", "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["score"] == score

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_unlabeled_view_axis_motion_exits_degenerate(self, tmp_path, n):
        for seed in range(5):
            f = tmp_path / f"frames-{seed}.csv"
            f.write_text(io_files.frames_to_csv(view_axis_pair(n, seed)[:2]))
            out = tmp_path / f"report-{seed}.json"
            code = cli.main(["match", str(f), "--unlabeled", "--out", str(out)])
            assert code == cli.EXIT_DEGENERATE, seed
            assert json.loads(out.read_text())["status"] == "degenerate"

    @pytest.mark.parametrize("n", [4, 6])
    def test_unlabeled_points_on_one_epipolar_line_exit_degenerate(self, tmp_path, n):
        # swapping the two points' targets is as rigid as the truth
        for seed in range(40):
            f = tmp_path / f"frames-{seed}.csv"
            f.write_text(io_files.frames_to_csv(shared_epipolar_pair(seed, n)))
            out = tmp_path / f"report-{seed}.json"
            code = cli.main(["match", str(f), "--unlabeled", "--out", str(out)])
            assert code == cli.EXIT_DEGENERATE, seed
            report = json.loads(out.read_text())
            assert report["status"] == "degenerate", seed
            assert "on one epipolar line" in report["reason"], seed

    @pytest.mark.parametrize("n", [4, 5])
    def test_unlabeled_collinear_first_frame_exits_degenerate(self, tmp_path, n):
        _, frame2 = sim.render(sim.gen_scene(n, 2, 48))
        frame1 = geo.FrameObservation(frame2.labels,
                                      [(0.5 * k, 3.0 - k) for k in range(n)])
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv([frame1, frame2]))
        out = tmp_path / "report.json"
        code = cli.main(["match", str(f), "--unlabeled", "--out", str(out)])
        assert code == cli.EXIT_DEGENERATE
        assert "on one line" in json.loads(out.read_text())["reason"]

    def test_labeled_collinear_gauge_triangle_exits_degenerate(self, tmp_path):
        # R1 on line P1Q1: degenerate, whether or not the assumed length
        # would have admitted a triangle
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv(collinear_gauge_pair(0)))
        out = tmp_path / "report.json"
        assert cli.main(["match", str(f), "--out", str(out)]) == cli.EXIT_DEGENERATE
        assert json.loads(out.read_text())["status"] == "degenerate"

    def test_non_rigid_report_has_timing(self, tmp_path):
        scene = sim.gen_scene(4, 2, 5)
        frames = sim.render(scene)
        rng = np.random.default_rng(0)
        moved = geo.FrameObservation(frames[1].labels, [
            xy + rng.uniform(0.3, 0.6, 2) for xy in frames[1].coords()])
        f = tmp_path / "frames.csv"
        f.write_text(io_files.frames_to_csv([frames[0], moved]))
        out = tmp_path / "report.json"
        code = cli.main(["match", str(f), "--unlabeled", "--out", str(out)])
        assert code == cli.EXIT_NO_SOLUTION
        report = json.loads(out.read_text())
        assert report["status"] == "no_consistent_assignment"
        assert report["timing_s"] >= 0.0

    def test_needs_two_frames(self, tmp_path, capsys):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(4, 3, 43))
        assert cli.main(["match", str(f)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("mode", [[], ["--unlabeled"]])
    def test_three_points_input_error(self, tmp_path, capsys, mode):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(3, 2, 45))
        assert cli.main(["match", str(f), *mode]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_labeled_reports_used_points(self, tmp_path):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(6, 2, 46))
        out = tmp_path / "report.json"
        assert cli.main(["match", str(f), "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text())["used"] == {"points": ["P", "Q", "R", "T"]}


    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("mode", [[], ["--unlabeled"]])
    def test_rejects_invalid_threshold(self, tmp_path, capsys, mode, threshold):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(5, 2, 47))
        out = tmp_path / "report.json"
        assert cli.main(["match", str(f), *mode, f"--threshold={threshold}",
                         "--out", str(out)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --threshold must be finite and >= 0")
        assert not out.exists()


class TestCliSimulate:
    def test_writes_both_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        code = cli.main(["simulate", "--points", "3", "--frames", "4",
                         "--seed", "5", "--out", prefix])
        assert code == cli.EXIT_OK
        scene = io_files.scene_from_json(
            (tmp_path / "demo.scene.json").read_text())
        frames = io_files.frames_from_csv(
            (tmp_path / "demo.frames.csv").read_text())
        assert len(scene.points) == 3 and len(frames) == 4

    def test_deterministic_from_seed(self, tmp_path, capsys):
        for name in ("x", "y"):
            cli.main(["simulate", "--points", "3", "--frames", "3",
                      "--seed", "7", "--out", str(tmp_path / name)])
        assert (tmp_path / "x.frames.csv").read_text() == \
            (tmp_path / "y.frames.csv").read_text()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOSFM_SEED", "7")
        cli.main(["simulate", "--points", "3", "--frames", "3",
                  "--out", str(tmp_path / "env")])
        cli.main(["simulate", "--points", "3", "--frames", "3",
                  "--seed", "7", "--out", str(tmp_path / "flag")])
        assert (tmp_path / "env.frames.csv").read_text() == \
            (tmp_path / "flag.frames.csv").read_text()

    def test_simulate_recover_roundtrip(self, tmp_path, capsys):
        prefix = str(tmp_path / "rt")
        cli.main(["simulate", "--points", "3", "--frames", "4",
                  "--seed", "11", "--out", prefix])
        out = tmp_path / "report.json"
        assert cli.main(["recover", prefix + ".frames.csv",
                         "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        scene = io_files.scene_from_json((tmp_path / "rt.scene.json").read_text())
        got = report["candidates"][0]["lengths_sq"]
        for key, pair in (("a_sq", ("P", "Q")), ("b_sq", ("Q", "R")),
                          ("c_sq", ("R", "P"))):
            assert got[key] == pytest.approx(
                scene.true_sq_distance(*pair), rel=1e-9)

    def test_rejects_bad_counts(self, capsys):
        assert cli.main(["simulate", "--points", "2", "--frames", "3"]) == cli.EXIT_INPUT

    def test_output_bytes_pinned(self, tmp_path, capsys):
        # digests of the files written before the simulator moved onto arrays
        prefix = str(tmp_path / "pin")
        assert cli.main(["simulate", "--points", "4", "--frames", "50", "--noise", "0.01",
                         "--seed", "3", "--out", prefix]) == cli.EXIT_OK
        digests = {suffix: hashlib.sha256((tmp_path / f"pin.{suffix}").read_bytes()).hexdigest()
                   for suffix in ("scene.json", "frames.csv")}
        assert digests == {
            "scene.json": "4a93b6672d789fdaa34beb60f84132ec5c39888ba8090a0303b4dab849db5ead",
            "frames.csv": "968144d36228f6ee313d662e62dbd532370e46bf75584464fca1bca849aabbf6",
        }

    def test_noiseless_output_bytes_pinned(self, tmp_path, capsys):
        # level 0 writes the rendered frames unchanged
        prefix = str(tmp_path / "pin")
        assert cli.main(["simulate", "--points", "4", "--frames", "3", "--noise", "0",
                         "--seed", "3", "--out", prefix]) == cli.EXIT_OK
        digests = {suffix: hashlib.sha256((tmp_path / f"pin.{suffix}").read_bytes()).hexdigest()
                   for suffix in ("scene.json", "frames.csv")}
        assert digests == {
            "scene.json": "bc98f165df07666fd232f036f62c7dc432372cd804c1e7c697beb29cb00a0137",
            "frames.csv": "5b63591bd26f0414400cd1bb7e104e0699dffee74fc347f60ebc9e9a07c5988e",
        }

    @pytest.mark.parametrize("noise", ["-0.5", "nan", "inf", "1e308"])
    def test_rejects_invalid_noise(self, tmp_path, capsys, noise, monkeypatch):
        def simulate(*args):
            raise AssertionError("simulated a scene")

        monkeypatch.setattr(sim, "gen_scene", simulate)
        prefix = tmp_path / "bad"
        assert cli.main(["simulate", "--points", "3", "--frames", "3", "--noise", noise,
                         "--out", str(prefix)]) == cli.EXIT_INPUT
        assert "noise level" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rejects_negative_seed(self, tmp_path, capsys):
        assert cli.main(["simulate", "--points", "3", "--frames", "3", "--seed", "-1",
                         "--out", str(tmp_path / "bad")]) == cli.EXIT_INPUT
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    def test_rejects_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOSFM_SEED", "abc")
        assert cli.main(["simulate", "--points", "3", "--frames", "3",
                         "--out", str(tmp_path / "bad")]) == cli.EXIT_INPUT
        assert "ORTHOSFM_SEED must be a non-negative integer" in capsys.readouterr().err


class TestCliNoiseStudy:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "study.csv"
        code = cli.main(["noise-study", "--mode", "p3f4", "--levels", "0,0.01",
                         "--trials", "5", "--seed", "1", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("level,trials,failures,median_rel_error")
        assert len(lines) == 3
        zero_row = lines[1].split(",")
        assert float(zero_row[3]) < 1e-9  # exact data recovers exactly

    @pytest.mark.parametrize("mode, digest", [
        ("p3f3", "998fcfebce75664647d553a946da90c7f78ea224a11ccd39a381fe4406a44a8d"),
        ("p3f4", "8a65042b0e66847b418c724c68f8011631c5d4a7c04059bdf9ffdd6daba1f0c5"),
        ("p4f3", "fe28fa7f5827b2bbdce73580e709c5387bea19acccdc7265a7d38bc3a028a386"),
    ])
    def test_output_bytes_pinned(self, capsys, mode, digest):
        # digests of the output written when every trial was solved on its own
        assert cli.main(["noise-study", "--mode", mode, "--levels", "0,0.001,0.01,0.1",
                         "--trials", "50", "--seed", "3"]) == cli.EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_bad_levels(self, capsys):
        assert cli.main(["noise-study", "--levels", "a,b"]) == cli.EXIT_INPUT

    def test_failure_columns_follow_the_first_six(self, tmp_path):
        out = tmp_path / "study.csv"
        assert cli.main(["noise-study", "--mode", "p3f3", "--levels", "0,0.1",
                         "--trials", "20", "--seed", "1", "--out", str(out)]) == cli.EXIT_OK
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert header == ["level", "trials", "failures", "median_rel_error",
                          "mean_rel_error", "p95_rel_error",
                          "failures_degenerate", "failures_no_candidate"]
        for row in rows:
            assert int(row[2]) == int(row[6]) + int(row[7])
        assert int(rows[1][7]) > 0

    @pytest.mark.parametrize("levels", ["-0.1", "nan", "0.01,inf", "0.01,1e308", "", ","])
    def test_rejects_invalid_levels(self, capsys, levels):
        assert cli.main(["noise-study", "--levels", levels, "--trials", "2"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert "noise level" in captured.err and captured.out == ""

    def test_rejects_negative_seed(self, capsys):
        assert cli.main(["noise-study", "--trials", "2", "--seed", "-1"]) == cli.EXIT_INPUT
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    def test_rejects_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOSFM_SEED", "abc")
        assert cli.main(["noise-study", "--trials", "2"]) == cli.EXIT_INPUT
        assert "ORTHOSFM_SEED must be a non-negative integer" in capsys.readouterr().err

    def test_rejects_no_trials(self, capsys):
        assert cli.main(["noise-study", "--trials", "0"]) == cli.EXIT_INPUT
        assert "trials must be >= 1" in capsys.readouterr().err


class TestCliAmbiguity:
    def test_family_csv(self, tmp_path):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(4, 2, 50))
        out = tmp_path / "family.csv"
        code = cli.main(["ambiguity", str(f), "--angles", "0,0.3,0.6",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("angle,status")
        ok_rows = [ln for ln in lines[1:] if ",ok," in ln]
        assert len(ok_rows) >= 2
        for row in ok_rows:
            fields = row.split(",")
            assert float(fields[2]) < 1e-6 and float(fields[3]) < 1e-6

    @pytest.mark.parametrize("scene, digest", [
        ((4, 2, 50), "a41952a8f709b31e8c301621f982a5b70fc1eb78d849e66860c4ca7c4955e23e"),
        ((3, 2, 7), "b245dbdf9c87fb9080c93827d174b5ec09b792b9486f998a2e0c4267b76174ad"),
    ])
    def test_output_bytes_pinned(self, tmp_path, capsys, scene, digest):
        # digests of the output written when each body point was its own object
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(*scene))
        assert cli.main(["ambiguity", str(f)]) == cli.EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_needs_two_frames(self, tmp_path, capsys):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(3, 3, 51))
        assert cli.main(["ambiguity", str(f)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("angles", ["", ","])
    def test_rejects_no_angles(self, tmp_path, capsys, angles):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(3, 2, 4))
        out = tmp_path / "family.csv"
        assert cli.main(["ambiguity", str(f), f"--angles={angles}",
                         "--out", str(out)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: --angles needs at least one angle\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_angles(self, tmp_path, capsys, angle):
        f = tmp_path / "frames.csv"
        write_frames(f, sim.gen_scene(3, 2, 4))
        out = tmp_path / "family.csv"
        assert cli.main(["ambiguity", str(f), f"--angles=0,{angle}",
                         "--out", str(out)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --angles must be finite") and "Traceback" not in err
        assert not out.exists()


class TestCliDof:
    def test_recoverable(self, capsys):
        assert cli.main(["dof", "--points", "3", "--frames", "3"]) == cli.EXIT_OK
        msg = capsys.readouterr().out
        assert "unknowns=18" in msg and "information=18" in msg
        assert "-> recoverable" in msg

    def test_not_recoverable(self, capsys):
        assert cli.main(["dof", "--points", "3", "--frames", "2"]) == cli.EXIT_OK
        assert "not recoverable" in capsys.readouterr().out

    def test_invalid(self, capsys):
        assert cli.main(["dof", "--points", "0", "--frames", "3"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--points", "x", "--frames", "2"], "invalid int value: 'x'"),
    (["match", "f.csv", "--threshold", "abc"], "invalid float value: 'abc'"),
    (["recover", "f.csv", "--mode", "p9f9"], "invalid choice: 'p9f9'"),
    (["recover"], "required: frames_file"),
    (["solve", "f.csv"], "invalid choice: 'solve'"),
    ([], "required: command"),
])
def test_malformed_command_line_is_input_error(capsys, argv, message):
    # exit 2 means no solution, so a usage error exits 1 like any bad input
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1 and "usage:" not in err


@pytest.mark.parametrize("command", ["recover", "match", "ambiguity"])
@pytest.mark.parametrize("content, message", [
    pytest.param(b"\xff\xfe", "frames file: not UTF-8 (invalid start byte)", id="not-utf8"),
    pytest.param(f"frame_index,label,x,y\n0,{'P' * 200_000},0,0\n".encode(),
                 "frames file: line 2: field larger than field limit (131072)",
                 id="over-the-csv-field-limit"),
])
def test_unreadable_frames_file_is_input_error(tmp_path, capsys, command, content, message):
    f = tmp_path / "frames.csv"
    f.write_bytes(content)
    assert cli.main([command, str(f)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["match", "--help"])
    assert exc.value.code == 0
    assert "--unlabeled" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "recover", "match", "noise-study", "ambiguity"])
def test_out_in_missing_directory_is_input_error(tmp_path, capsys, command):
    three, two = tmp_path / "three.csv", tmp_path / "two.csv"
    write_frames(three, sim.gen_scene(4, 3, 1))
    write_frames(two, sim.gen_scene(4, 2, 1))
    argv = {
        "simulate": ["simulate", "--points", "3", "--frames", "2", "--seed", "1"],
        "recover": ["recover", str(three)],
        "match": ["match", str(two), "--unlabeled"],
        "noise-study": ["noise-study", "--trials", "2", "--seed", "1"],
        "ambiguity": ["ambiguity", str(two)],
    }[command]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(argv + ["--out", str(tmp_path / "missing" / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert err.startswith("error:") and "No such file or directory" in err
    assert "Traceback" not in err
