"""Recovery of rigid point-body geometry from orthographic multiframes.

Library surface:

* geometry  -- the base layer: frames, bodies, motions, DOF balance, depth
  embedding, the tolerance table, the per-frame quartic identity, quadratic roots
* solvers   -- the closed-form 3-frame and linear 4-frame / 4-point solvers:
  one batched core over stacks of problems, with one-problem adapters that
  return its BatchResult
* two_frame -- point matching, rigidity testing, and the two-frame ambiguity
* scene_sim -- ground-truth simulation and noise injection
* io_files  -- scene/frames/report file formats
* cli       -- the orthosfm command-line tool

A body is a label tuple and a read-only (n, 3) array, a Scene's or an
Interpretation's labels and points, as a frame is one of (n, 2).  A motion
is a read-only (3, 3) rotation and (2,) translation: a Scene holds one per
frame as its (k, 3, 3) rotations and (k, 2) translations, an Interpretation
one as its rotation and translation.  Lengths are arrays of squared lengths
in geometry's edge order: a solver's answer is one row of its BatchResult's
lengths.

The names below are loaded on first use (PEP 562), so ``import orthosfm``
imports no numpy and leaves the process environment as it found it.
"""

import importlib

# submodule -> the public names re-exported from it
_EXPORTS = {
    "geometry": (
        "DofBalance", "FrameObservation", "dof_balance", "embed_depths",
        "projected_sq_distances"),
    "solvers": (
        "BatchResult", "feasibility_check", "solve_batch", "solve_p3f3", "solve_p3f4",
        "solve_p4f3"),
    "two_frame": (
        "Interpretation", "MatchReport",
        "ambiguity_family", "b_of_c_coeffs", "collinearity_residual_4pt", "match_points",
        "base_interpretation_from_frames", "interpretation_from_scene",
        "reference_ambiguity_scene", "residual_5pt", "rigidity_score", "solve_b_given_c"),
    "scene_sim": (
        "Scene", "add_noise", "gen_body", "gen_motion", "gen_scene",
        "render", "subseed"),
    "errors": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
