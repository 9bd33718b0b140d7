"""Why two frames are never enough: an explicit ambiguity family.

Even though 4 points / 2 frames balances unknowns against measurements,
two orthographic images can never pin down structure: rotating the second
frame's pulled-back viewing rays about a specific axis produces a
one-parameter family of genuinely different 3D bodies, every one of which
reprojects onto both images exactly.

This script builds the frozen reference configuration -- a triangle with
P = (0,0,0), Q = (2,-2, 3.46537), R = (5,4, 0.68697) -- and shows the
family member at the reference angle, where Q and R move to depths
4.63902 and 4.37296 while both images stay bit-identical.
"""

import numpy as np

from orthosfm import (
    RigidMotion,
    Scene,
    ambiguity_family,
    interpretation_from_scene,
    reference_ambiguity_scene,
    render,
)
from orthosfm.two_frame import REFERENCE_AMBIGUITY_ANGLE

(labels, points), motion = reference_ambiguity_scene()
scene = Scene(labels, points, motions=(RigidMotion.identity(), motion), seed=0)
frame1, frame2 = render(scene)
base = interpretation_from_scene(scene)

print("base structure (first-frame coordinates):")
for lab, (x, y, z) in zip(base.labels, base.points):
    print(f"  {lab}: ({x:9.5f}, {y:9.5f}, {z:9.5f})")
print()

angles = list(np.linspace(0.0, 1.4, 8)) + [REFERENCE_AMBIGUITY_ANGLE]
members = ambiguity_family(frame1, frame2, base, angles)

print(f"{'angle':>8} {'max reproj residual':>20} {'Q depth':>9} {'R depth':>9}")
for angle, m in members:
    if m is None:
        print(f"{angle:>8.4f} {'(rays parallel)':>20}")
        continue
    r1, r2 = m.reprojection_residuals(frame1, frame2)
    depths = dict(zip(m.labels, m.points[:, 2]))
    tag = "  <-- reference member" if abs(
        angle - REFERENCE_AMBIGUITY_ANGLE) < 1e-12 else ""
    print(f"{angle:>8.4f} {max(r1, r2):>20.2e} "
          f"{depths['Q']:>9.5f} {depths['R']:>9.5f}{tag}")

print()
print("Every row reprojects onto both frames to machine precision, yet the")
print("depths differ by units: the two images carry no information that")
print("could distinguish these bodies.")
