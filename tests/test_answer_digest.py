"""tools/answer_digest.py prints one well-formed line for every layer."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digest.py"
_spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)

LAYERS = (
    "scene_sim.gen_scene", "scene_sim.run_noise_study",
    "solvers.solve_p3f3", "solvers.solve_p3f4", "solvers.solve_p4f3",
    "two_frame.match_points", "two_frame.match_points.degenerate",
    "two_frame.rigidity_score", "two_frame.residual_5pt",
    "two_frame.base_interpretation_from_frames", "two_frame.ambiguity_family",
)


def test_every_layer_has_one_line(capsys):
    assert answer_digest.main() == 0
    lines = capsys.readouterr().out.splitlines()
    fields = [line.split(" ") for line in lines]
    assert [f[0] for f in fields] == list(LAYERS)
    for layer, count, sha in fields:
        assert int(count) > 0 and re.fullmatch("[0-9a-f]{64}", sha), layer


def test_errors_enter_as_their_text():
    digest = answer_digest.Digest()

    def refuse():
        raise answer_digest.OrthoSfmError("no")

    assert digest.call("layer", refuse) is None
    assert digest.call("layer", lambda: 1.5) == 1.5
    (line,) = digest.lines()
    layer, count, sha = line.split(" ")
    assert (layer, count) == ("layer", "2")
    assert sha == answer_digest.hashlib.sha256(b"OrthoSfmError: no\n1.5\n").hexdigest()
