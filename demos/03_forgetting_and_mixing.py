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
    LayerChainModel,
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

# One envelope as columns: windows (q, m, ell), the measured gaps, their bounds.
envelope = forgetting_profile(ds, pi, kernel, q_values=[2, 5, 10])
print(f"\n{len(envelope)} horizon-extension gaps, {envelope.violations(0.0)} above the envelope:")
rows = envelope.rows()
for q, m, ell, gap, bound in rows[:8]:
    print(f"  q={q:2d} m={m:2d} ell={ell:2d}  gap={gap:.3e}  bound={bound:.3e}")
print("  ...")
worst = (envelope.value / envelope.bound).max()
print(f"worst gap/bound ratio: {worst:.3f}")

with open("forgetting_profile.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["q", "m", "ell", "gap", "bound"])
    writer.writerows(rows)
print("wrote forgetting_profile.csv")

# Backward contraction: two extreme beliefs about the farthest layer merge
# geometrically as they propagate toward node 1.
model = LayerChainModel(ds, kernel, pi.support)
profile = model.contraction_profile(pi.probs, 2, ds.layers.q_max - 1)
print(f"\ncontraction from layer {profile.window[1]} down to {profile.window[0]} "
      f"(initial tv {profile.initial_tv}):")
for layer, tv, bound in zip(profile.layer[:10], profile.tv, profile.cumulative_bound):
    print(f"  after kernel {layer:2d}: tv={tv:.3e}  envelope={bound:.3e}")
columns = (profile.layer, profile.tv, profile.step_factor, profile.cumulative_bound)
with open("contraction_profile.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["layer", "tv", "step_factor", "cumulative_bound"])
    writer.writerows(zip(*(column.tolist() for column in columns)))
print("wrote contraction_profile.csv")
