"""Recovery of rigid point-body geometry from orthographic multiframes.

Library surface:

* geometry  -- value types, projection, rigid motion, DOF balance, depth embedding
* solvers   -- the closed-form 3-frame and linear 4-frame / 4-point solvers:
  one batched core over stacks of problems, with one-problem adapters
* two_frame -- point matching, rigidity testing, and the two-frame ambiguity
* scene_sim -- ground-truth simulation and noise injection
* io_files  -- scene/frames/report file formats
* cli       -- the orthosfm command-line tool
"""

from .geometry import (
    DofBalance,
    FrameObservation,
    Point2,
    Point3,
    RigidMotion,
    TetraDistances,
    TriangleDistances,
    apply_motion,
    dof_balance,
    embed_depths,
    project,
    projected_sq_distances,
)
from .solvers import (
    BatchResult,
    Candidate,
    RecoveryResult,
    eq1_residual,
    feasibility_check,
    solve_batch,
    solve_p3f3,
    solve_p3f4,
    solve_p4f3,
)
from .two_frame import (
    AmbiguityMember,
    Assignment,
    Interpretation,
    MatchReport,
    ambiguity_family,
    b_of_c_coeffs,
    collinearity_residual_4pt,
    match_points,
    base_interpretation_from_frames,
    interpretation_from_scene,
    reference_ambiguity_scene,
    residual_5pt,
    rigidity_score,
    solve_b_given_c,
)
from .scene_sim import (
    NoiseSpec,
    Scene,
    add_noise,
    gen_body,
    gen_motion,
    gen_scene,
    render,
    subseed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
