"""Geometric forgetting of the conditional layer likelihoods.

Conditioning a block's likelihood on a longer future horizon changes it by
at most nu^-1 (1-nu)^(m-q-1) with nu = epsilon^(n(n-1)); the conditional
distribution of a latent block contracts in total variation by (1-nu_k) per
backward step.  This script measures both effects on a simulated tournament
and writes the profiles to CSV.
"""

import csv

from lgmle import (
    DiscreteDistribution,
    backward_contraction_profile,
    bradley_terry,
    epsilon_floor,
    simulate,
)
from lgmle.analysis import forgetting_profile

pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
kernel = bradley_terry()
ds = simulate(pi, kernel, N=60, n=2, seed=3)

cert = epsilon_floor(kernel, pi.support)
nu = cert.nu(ds.graph.n * (ds.graph.n - 1))
print(f"epsilon = {cert.epsilon} at k{cert.attained_at}, interior nu = {nu}")

rows = forgetting_profile(ds, pi, kernel, q_values=[2, 5, 10])
print(f"\n{len(rows)} horizon-extension gaps; all below the envelope:")
for r in rows[:8]:
    print(f"  q={r.q:2d} m={r.m:2d} ell={r.ell:2d}  gap={r.gap:.3e}  bound={r.bound:.3e}")
print("  ...")
worst = max(r.gap / r.bound for r in rows)
print(f"worst gap/bound ratio: {worst:.3f}")

with open("forgetting_profile.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["q", "m", "ell", "gap", "bound"])
    writer.writerows((r.q, r.m, r.ell, r.gap, r.bound) for r in rows)
print("wrote forgetting_profile.csv")

# Backward contraction: two extreme beliefs about the farthest layer merge
# geometrically as they propagate toward node 1.
profile = backward_contraction_profile(ds, pi, kernel)
print(f"\ncontraction from layer {profile.window[1]} down to {profile.window[0]} "
      f"(initial tv {profile.initial_tv}):")
for step in profile.steps[:10]:
    print(f"  after kernel {step.layer:2d}: tv={step.tv:.3e}  envelope={step.cumulative_bound:.3e}")
with open("contraction_profile.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["layer", "tv", "step_factor", "cumulative_bound"])
    writer.writerows((s.layer, s.tv, s.step_factor, s.cumulative_bound) for s in profile.steps)
print("wrote contraction_profile.csv")
