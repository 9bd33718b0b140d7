"""What two frames CAN do: identify points and test rigidity.

Structure is unrecoverable from two frames (demo 05), but the leftover
constraint is still useful.  Given three matched points and any feasible
assumed length, the fourth point's image in the second frame must fall on
a predictable line; the distance to that line scores candidate
correspondences.  This script:

  1. shuffles the labels of a second frame and recovers the true
     point-to-point assignment by scoring all 24 ordered candidates,
  2. does the same for six points, where the matcher is linear: under
     orthography the depth drops out of x2 = A x1 + r z1 + t, so four
     probe correspondences fix every other point's epipolar line, and all
     360 probe assignments are ranked in one batched pass, and
  3. uses the 4-point residual as a rigidity test, flagging a frame pair
     in which one point moved independently of the body.
"""

import numpy as np

from orthosfm import (
    FrameObservation,
    gen_scene,
    match_points,
    render,
    rigidity_score,
    subseed,
)

SEED = 3

scene = gen_scene(n_points=4, n_frames=2, seed=SEED)
frame1, frame2 = render(scene)

# --- part 1: unknown identities --------------------------------------------
rng = np.random.default_rng(subseed(SEED, 99))
labels = list(frame2.labels)
relabel = dict(zip(labels, rng.permutation(labels)))
shuffled = FrameObservation([relabel[lab] for lab in labels], frame2.coords())

print("true correspondence (scrambled in the second frame):")
print("  " + ", ".join(f"{a}->{b}" for a, b in relabel.items()))

report = match_points(frame1, shuffled)
print(f"scored {report.n_scored} ordered assignments; best residual "
      f"{report.best_residual:.2e}, runner-up margin {report.margin:.2e}")
print("recovered: "
      + ", ".join(f"{a}->{b}" for a, b in report.full_assignment.items()))
print("correct!" if report.full_assignment == relabel else "MISMATCH")
print()

# --- part 2: six points, ranked by affine epipolar lines --------------------
scene6 = gen_scene(n_points=6, n_frames=2, seed=SEED)
first, second = render(scene6)
labels6 = list(second.labels)
relabel6 = dict(zip(labels6, rng.permutation(labels6)))
shuffled6 = FrameObservation([relabel6[lab] for lab in labels6], second.coords())

report6 = match_points(first, shuffled6)
print(f"six points: {report6.n_scored} probe assignments ranked by "
      f"{report6.score!r}; best {report6.best_residual:.2e}, "
      f"margin {report6.margin:.2e}")
print("recovered: "
      + ", ".join(f"{a}->{b}" for a, b in report6.full_assignment.items()))
print("correct!" if report6.full_assignment == relabel6 else "MISMATCH")
print()

# --- part 3: rigidity verdict ----------------------------------------------
score = rigidity_score(frame1, frame2)
print(f"rigidity residual, intact body:        {score:.2e}")

xy = frame2.coords().copy()
xy[3] += (0.4, -0.3)
lab = frame2.labels[3]
broken = FrameObservation(frame2.labels, xy)
score_broken = rigidity_score(frame1, broken)
print(f"rigidity residual, point {lab} displaced: {score_broken:.2e}")
print("a residual orders of magnitude above machine precision means the")
print("four points did not move as one rigid body.")
