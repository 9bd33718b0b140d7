"""How measurement noise degrades recovered lengths.

The recovery pipeline squares the measurements twice, so errors amplify
sharply with noise.  This Monte-Carlo study perturbs every image
coordinate multiplicatively at several relative levels and reports the
distribution of relative errors in the recovered squared lengths.  At
0.1% noise the answers remain usable; at 1% they degrade visibly; at 10%
they are essentially meaningless -- the practical moral is that this
method needs accurate point tracks.
"""

from orthosfm.scene_sim import run_noise_study

LEVELS = [0.0, 0.001, 0.01, 0.1]
TRIALS = 300

rows = run_noise_study("p3f4", LEVELS, trials=TRIALS, seed=1)

print(f"3 points / 4 frames, {TRIALS} trials per level")
print(f"{'noise level':>12} {'median err':>11} {'mean err':>11} {'p95 err':>11}")
for row in rows:
    print(f"{row['level']:>12g} {row['median_rel_error']:>11.2e} "
          f"{row['mean_rel_error']:>11.2e} {row['p95_rel_error']:>11.2e}")

print()
print("The same study is available from the command line:")
print("  orthosfm noise-study --mode p3f4 --levels 0.001,0.01,0.1 --trials 300")
