"""Minimal-case recovery: 3 points over 3 frames.

Three frames of three points is the smallest observation that determines a
triangle's 3D edge lengths.  The per-frame identity linking true squared
lengths to projected squared lengths is quadratic; differencing frames
linearizes two unknowns, leaving one quadratic -- so the minimal case can
have up to two feasible answers.  This script simulates a random rigid
triangle, recovers its squared lengths, and compares with ground truth.
"""

import numpy as np

from orthosfm import (
    gen_scene,
    projected_sq_distances,
    render,
    solve_p3f3,
)

SEED = 7

scene = gen_scene(n_points=3, n_frames=3, seed=SEED)
pairs = (("P", "Q"), ("Q", "R"), ("R", "P"))
truth = np.array([scene.true_sq_distance(a, b) for a, b in pairs])

frames = render(scene)
sq = [projected_sq_distances(f, scene.labels) for f in frames]

print("projected squared distances per frame (PQ, QR, RP):")
for i, f in enumerate(sq):
    print(f"  frame {i}: " + ", ".join(f"{v:8.4f}" for v in f))
print("note how every projection is shorter than the true length:")
print("  truth:   " + ", ".join(f"{v:8.4f}" for v in truth))
print()

result = solve_p3f3(sq)
print(f"{len(result.lengths)} candidate(s); "
      f"{result.feasible.sum()} physically feasible")
for i, (got, feasible) in enumerate(zip(result.lengths, result.feasible.tolist())):
    err = np.abs(got - truth).max() / truth.max()
    print(f"  candidate {i}: (a2,b2,c2) = "
          + ", ".join(f"{v:.6f}" for v in got)
          + f"  feasible={feasible}  max rel err vs truth = {err:.2e}")
