"""Over-determined cases solve linearly: 3 points / 4 frames and 4 points / 3 frames.

One extra frame (or one extra point) turns the recovery into a small linear
system with a unique solution.  The first part reruns the worked triangle
with edge lengths a = 2, b = 3, c = 3.562 (squared: 4, 9, 12.6878); the
second recovers all six squared lengths of a random 4-point body from
three frames.
"""

import math

import numpy as np

from orthosfm import (
    Scene,
    gen_scene,
    projected_sq_distances,
    render,
    solve_p3f4,
    solve_p4f3,
)

# --- part 1: the worked triangle over four frames --------------------------
A_SQ, B_SQ, C_SQ = 4.0, 9.0, 12.6878
x = (A_SQ + C_SQ - B_SQ) / (2.0 * math.sqrt(A_SQ))
points = [(0.0, 0.0, 0.0), (math.sqrt(A_SQ), 0.0, 0.0), (x, math.sqrt(C_SQ - x * x), 0.0)]
# the motions of a random 4-frame scene, the identity first
moves = gen_scene(n_points=3, n_frames=4, seed=42)
scene = Scene("PQR", points, moves.rotations, moves.translations, seed=42)

sq = [projected_sq_distances(f, scene.labels) for f in render(scene)]
best = solve_p3f4(sq).lengths[0]
print("worked triangle, 4 frames, unique linear solution:")
print("  expected (a2, b2, c2) = (4, 9, 12.6878)")
print("  recovered             = ("
      + ", ".join(f"{v:.6f}" for v in best) + ")")
print()

# --- part 2: four points over three frames ---------------------------------
scene4 = gen_scene(n_points=4, n_frames=3, seed=5)
pairs = (("P", "Q"), ("Q", "R"), ("R", "P"), ("T", "R"), ("T", "P"), ("T", "Q"))
truth = np.array([scene4.true_sq_distance(a, b) for a, b in pairs])
sq4 = [projected_sq_distances(f, scene4.labels) for f in render(scene4)]
got = solve_p4f3(sq4).lengths[0]

print("random 4-point body, 3 frames, six squared lengths from one 6x6 solve:")
print(f"  {'edge':>5} {'truth':>10} {'recovered':>11} {'rel err':>9}")
for (a, b), t, g in zip(pairs, truth, got):
    print(f"  {a + b:>5} {t:>10.6f} {g:>11.6f} {abs(g - t) / t:>9.2e}")
