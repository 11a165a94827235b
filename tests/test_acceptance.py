"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; criteria 7 and 8 are Monte-Carlo experiments and take a few minutes
combined.
"""

import math
import time

import numpy as np

from lgmle import (
    DiscreteDistribution,
    FitConfig,
    LayerChainModel,
    RiskParams,
    bradley_terry,
    brute_force_log_likelihood,
    brute_force_node_marginals,
    bt_ties,
    degree_model,
    excess_risk,
    fit_mle,
    log_likelihood,
    simulate,
)
from lgmle.analysis import (
    conditional_magnitude_rows,
    forgetting_profile,
    increment_rows,
    scaling_experiment,
    single_flip_rows,
)
from lgmle.rr_graph import verify_schedule_layers

from conftest import random_distribution, small_instances


def _check(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_layer_structure():
    t0 = time.time()
    pairs = 0
    mismatches = []
    for N in range(12, 201, 2):
        for n in range(2, (N + 3) // 4):
            if 4 * n >= N:
                break
            pairs += 1
            issues = verify_schedule_layers(N, n)
            if issues:
                mismatches.append((N, n, issues[0]))
    elapsed = time.time() - t0
    _check(
        1,
        "layer structure over the full grid",
        not mismatches and elapsed < 10.0,
        f"({pairs} (N,n) pairs, {len(mismatches)} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_2_likelihood_oracle():
    t0 = time.time()
    worst = 0.0
    instances = small_instances(52, rng_seed=2024, N_choices=(10, 12), n=2, s_choices=(2, 3))
    for ds, pi, kernel in instances:
        ve = log_likelihood(ds, pi, kernel)
        bf = brute_force_log_likelihood(ds, pi, kernel)
        worst = max(worst, abs(ve - bf) / abs(bf))
    elapsed = time.time() - t0
    _check(
        2,
        "variable elimination vs enumeration",
        worst <= 1e-10 and elapsed < 30.0,
        f"({len(instances)} instances, worst rel err {worst:.2e}, {elapsed:.1f}s)",
    )


def _forgetting_cases():
    return [
        (2, DiscreteDistribution([1.0, 3.0], [0.4, 0.6]), bradley_terry(), 40, 101),
        (2, DiscreteDistribution([1.0, 2.0, 3.0], [0.3, 0.4, 0.3]), bt_ties(2.0), 40, 102),
        (3, DiscreteDistribution([0.5, 2.0], [0.35, 0.65]), degree_model(), 50, 103),
        (3, DiscreteDistribution([1.0, 2.0, 3.0], [0.25, 0.5, 0.25]), bradley_terry(), 50, 104),
    ]


def test_criterion_3_forgetting_bounds():
    t0 = time.time()
    gap_rows = 0
    mag_rows = 0
    violations = 0
    for n, pi, kernel, N, seed in _forgetting_cases():
        ds = simulate(pi, kernel, N, n, seed=seed)
        rows = forgetting_profile(ds, pi, kernel)
        gap_rows += len(rows)
        violations += rows.violations(1e-12)
        mags = conditional_magnitude_rows(ds, pi, kernel)
        mag_rows += len(mags)
        violations += mags.violations(1e-12)
    elapsed = time.time() - t0
    _check(
        3,
        "forgetting and magnitude envelopes",
        violations == 0 and gap_rows > 0 and elapsed < 60.0,
        f"({gap_rows} horizon gaps + {mag_rows} magnitudes, {violations} violations, {elapsed:.1f}s)",
    )


def test_criterion_4_bounded_differences():
    t0 = time.time()
    total = 0
    violations = 0
    cases = [
        (2, DiscreteDistribution([1.0, 3.0], [0.4, 0.6]), bradley_terry(), 24, 201),
        (2, DiscreteDistribution([1.0, 2.0, 3.0], [0.3, 0.4, 0.3]), bt_ties(2.0), 20, 202),
        (3, DiscreteDistribution([0.5, 2.0], [0.35, 0.65]), degree_model(), 28, 203),
        (3, DiscreteDistribution([1.0, 4.0], [0.5, 0.5]), bradley_terry(), 28, 204),
    ]
    for n, pi, kernel, N, seed in cases:
        ds = simulate(pi, kernel, N, n, seed=seed)
        rows = single_flip_rows(ds, pi, kernel)
        total += len(rows)
        violations += rows.violations(1e-12)
    elapsed = time.time() - t0
    _check(
        4,
        "single-outcome flip envelopes",
        violations == 0 and total > 0 and elapsed < 60.0,
        f"({total} exhaustive flips, {violations} violations, {elapsed:.1f}s)",
    )


def test_criterion_5_increment_bound():
    t0 = time.time()
    rng = np.random.default_rng(77)
    pairs = 0
    rows_checked = 0
    violations = 0
    for n, pi, kernel, N, seed in _forgetting_cases():
        ds = simulate(pi, kernel, N, n, seed=seed)
        for _ in range(26):
            a = DiscreteDistribution(pi.support, random_distribution(rng, pi.size).probs)
            b = DiscreteDistribution(pi.support, random_distribution(rng, pi.size).probs)
            pairs += 1
            rows = increment_rows(ds, a, b, kernel)["product"]
            rows_checked += len(rows)
            violations += rows.violations(1e-12)
    elapsed = time.time() - t0
    _check(
        5,
        "prior-increment envelope (product-TV substitution)",
        violations == 0 and pairs >= 100 and elapsed < 60.0,
        f"({pairs} (pi, pi') pairs, {rows_checked} rows, {violations} violations, {elapsed:.1f}s)",
    )


def test_criterion_6_em_monotonicity_and_posteriors():
    t0 = time.time()
    worst_drop = 0.0
    instances = small_instances(
        100, rng_seed=88, N_choices=(12, 16, 24, 32), n=2, s_choices=(2, 3)
    )
    for ds, pi, kernel in instances:
        cfg = FitConfig(support=tuple(pi.support), mode="em", max_iters=12, tol=1e-12)
        result = fit_mle(ds, kernel, cfg)
        d = np.diff(result.trajectory)
        if d.size:
            worst_drop = max(worst_drop, float(-d.min()))
    worst_marg = 0.0
    for ds, pi, kernel in small_instances(10, rng_seed=99, N_choices=(10, 12)):
        exact, _ = LayerChainModel(ds, kernel, pi.support).posterior_pass(pi.probs)
        oracle = brute_force_node_marginals(ds, pi, kernel)
        worst_marg = max(worst_marg, float(np.max(np.abs(exact - oracle))))
    elapsed = time.time() - t0
    _check(
        6,
        "EM monotonicity and posterior oracles",
        worst_drop <= 1e-9 and worst_marg <= 1e-10 and elapsed < 60.0,
        f"({len(instances)} EM runs, worst drop {worst_drop:.2e}, "
        f"worst marginal err {worst_marg:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_7_excess_risk_non_negative():
    t0 = time.time()
    pi_star = DiscreteDistribution([1.0, 3.0], [0.3, 0.7])
    kernel = bradley_terry()
    params = RiskParams(N=2000, n=2, replicates=20, base_seed=4242)
    p_values = [0.05, 0.1, 0.2, 0.3, 0.45, 0.55, 0.6, 0.8, 0.9, 0.95]
    failures = []
    truth_ok = True
    for p in p_values:
        cand = DiscreteDistribution([1.0, 3.0], [p, 1 - p])
        report = excess_risk(cand, kernel, pi_star, params)
        if report.excess_risk < -3 * report.excess_stderr - 1e-15:
            failures.append((p, report.excess_risk, report.excess_stderr))
        if p == 0.3 and abs(report.excess_risk) > 3 * report.excess_stderr + 1e-15:
            truth_ok = False
    elapsed = time.time() - t0
    _check(
        7,
        "excess-risk non-negativity",
        not failures and truth_ok and elapsed < 300.0,
        f"({len(p_values)} candidates incl. truth, {len(failures)} below -3se, {elapsed:.1f}s)",
    )


def test_criterion_8_risk_scaling():
    t0 = time.time()
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    kernel = degree_model()
    table = scaling_experiment(
        pi_star,
        kernel,
        [500, 1000, 2000, 4000],
        n=2,
        seeds_per_n=20,
        base_seed=20240,
        eval_N=4000,
        eval_replicates=8,
    )
    medians = [row.median_excess for row in table.rows]
    below_rhs = all(row.median_excess <= row.rhs for row in table.rows)
    non_increasing = all(a >= b for a, b in zip(medians, medians[1:]))
    ratio = medians[0] / medians[-1]
    elapsed = time.time() - t0
    _check(
        8,
        "risk scaling in N",
        below_rhs and non_increasing and ratio >= 2.0 and elapsed < 1200.0,
        f"(medians {['%.2e' % m for m in medians]}, ratio {ratio:.1f}, {elapsed:.0f}s)",
    )


def test_criterion_9_performance():
    pi = DiscreteDistribution([1.0, 2.0, 3.0, 4.0], [0.25, 0.25, 0.25, 0.25])
    kernel = bradley_terry()
    ds = simulate(pi, kernel, 2000, 3, seed=9)
    t0 = time.time()
    value = log_likelihood(ds, pi, kernel)
    elapsed = time.time() - t0
    _check(
        9,
        "single likelihood at n=3, s=4, N=2000",
        math.isfinite(value) and elapsed < 5.0,
        f"(ll={value:.1f}, {elapsed:.2f}s, q_max={ds.layers.q_max})",
    )
