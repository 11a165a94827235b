import dataclasses
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmle import (
    DiscreteDistribution,
    FitConfig,
    InvalidValue,
    LayerChainModel,
    LayerOutOfRange,
    RiskParams,
    bradley_terry,
    bt_ties,
    custom_table,
    degree_model,
    epsilon_floor,
    estimate_limit_likelihood,
    excess_risk,
    excess_risks,
    point_mass,
    product_tv_distance,
    risk_bound_rhs,
    scaling_experiment,
    simplex_entropy_integral,
    simulate,
    tv_distance,
    tv_log_distance,
    uniform,
    uniform_kernel,
    z_process_concentration,
)
from lgmle import analysis, likelihood
from lgmle.analysis import (
    forgetting_profile,
    conditional_magnitude_rows,
    increment_rows,
    single_flip_rows,
    tv_log_of_tv,
)

from conftest import (
    forgetting_gap_bound,
    kernel_variants,
    oracle_contraction_rows,
    oracle_excess_risks,
    oracle_forgetting_rows,
    oracle_magnitude_rows,
    oracle_limit_likelihood,
    oracle_scaling_experiment,
    oracle_conditional_profile,
    oracle_z_process,
    random_distribution,
)


def test_tv_examples():
    a = DiscreteDistribution([1.0, 2.0], [0.6, 0.4])
    b = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.2, abs=1e-15)
    assert tv_distance(point_mass(1.0), point_mass(2.0)) == pytest.approx(2.0)


def test_tv_union_grid_embedding():
    a = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
    b = DiscreteDistribution([2.0, 3.0], [0.5, 0.5])
    assert tv_distance(a, b) == pytest.approx(1.0)


def test_distance_examples():
    assert tv_log_of_tv(0.0) == 0.0
    e_inv = math.exp(-1)
    assert tv_log_of_tv(e_inv) == pytest.approx(e_inv, rel=1e-14)
    assert tv_log_of_tv(0.1) == pytest.approx(0.1 * math.log(10.0), rel=1e-14)


def test_distance_continuity_and_symmetry(rng):
    for _ in range(20):
        a = random_distribution(rng, 3)
        b = random_distribution(rng, 3)
        b = DiscreteDistribution(a.support, b.probs)
        assert tv_log_distance(a, b) == pytest.approx(tv_log_distance(b, a), rel=1e-13)
    e_inv = math.exp(-1)
    for u in np.linspace(1e-6, 2.0, 200):
        assert tv_log_of_tv(u) >= 0
    assert abs(tv_log_of_tv(e_inv - 1e-12) - tv_log_of_tv(e_inv + 1e-12)) < 1e-10


def test_product_tv_bound(rng):
    for _ in range(10):
        a = random_distribution(rng, 2)
        b = DiscreteDistribution(a.support, random_distribution(rng, 2).probs)
        for m in (2, 3, 4):
            assert product_tv_distance(a, b, m) <= m * tv_distance(a, b) + 1e-12


def test_product_tv_rejects_negative_order():
    pi = uniform([1.0, 2.0])
    with pytest.raises(InvalidValue, match=r"^product order m must be non-negative, got -1$"):
        product_tv_distance(pi, pi.with_probs([0.3, 0.7]), -1)


def test_rhs_monotone_in_t():
    values = [risk_bound_rhs(2, 0.3, 1000, 1.0, t) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_rhs_scaling_in_N():
    a = risk_bound_rhs(2, 0.3, 1000, 1.0, 1.0)
    b = risk_bound_rhs(2, 0.3, 4000, 1.0, 1.0)
    assert a == pytest.approx(2 * b, rel=1e-14)


def test_rhs_arithmetic():
    value = risk_bound_rhs(2, 0.3, 10_000, 1.0, 1.0)
    assert value == pytest.approx(2 * 0.3 ** (-24) * 2 / 100, rel=1e-12)


@pytest.mark.parametrize(
    "epsilon, N, message",
    [
        (0.0, 1000, "epsilon must lie in (0, 1], got 0.0"),
        (math.nan, 1000, "epsilon must lie in (0, 1], got nan"),
        (1.5, 1000, "epsilon must lie in (0, 1], got 1.5"),
        (0.3, 0, "N must be at least 1, got 0"),
        (0.3, -4, "N must be at least 1, got -4"),
    ],
)
def test_rhs_rejects_epsilon_outside_unit_interval_and_empty_graph(epsilon, N, message):
    with pytest.raises(InvalidValue) as info:
        risk_bound_rhs(2, epsilon, N, 1.0, 1.0)
    assert str(info.value) == message


def test_entropy_integral_properties():
    assert simplex_entropy_integral(1) == 0.0
    i2 = simplex_entropy_integral(2)
    i3 = simplex_entropy_integral(3)
    assert 0 < i2 < i3
    coarse = simplex_entropy_integral(3, resolution=2048)
    fine = simplex_entropy_integral(3, resolution=20480)
    assert abs(coarse - fine) <= 0.01 * abs(fine)


def test_entropy_integral_values_are_pinned():
    # the inline trapezoid rule reproduces these bits, which scaling.json and
    # the risk bound print
    assert [simplex_entropy_integral(s) for s in range(1, 7)] == [
        0.0,
        3.2624218131114975,
        4.613761174284103,
        5.6506803360300895,
        6.524843626222995,
        7.294996945395424,
    ]


@pytest.mark.parametrize("resolution", [0, 1])
def test_entropy_integral_needs_two_grid_points(resolution):
    # one grid point or none integrates to 0.0, which drops the entropy term
    with pytest.raises(InvalidValue, match=f"^resolution must be at least 2 grid points, got {resolution}$"):
        simplex_entropy_integral(3, resolution)


def test_limit_likelihood_uniform_kernel_exact():
    k = uniform_kernel(2)
    pi = uniform([1.0, 3.0])
    params = RiskParams(N=600, n=2, replicates=4, base_seed=3)
    est = estimate_limit_likelihood(pi, k, pi, params)
    edges = 600 * 2 // 2
    assert est.stderr == 0.0
    assert est.value == pytest.approx(edges * math.log(0.5) / est.q_max, rel=1e-14)
    # O(1/q_max) boundary bias around the limit n(n-1) log(1/2)
    limit = 2 * math.log(0.5)
    assert abs(est.value - limit) <= 8.0 * abs(math.log(0.5)) / est.q_max


def test_limit_likelihood_point_mass_analytic():
    # asymmetric ties kernel at a point mass: per-edge outcome entropy is the
    # analytic expectation of the layer terms
    k = bt_ties(3.0)
    pm = point_mass(1.0)
    probs = np.array([k.prob(x, 1.0, 1.0) for x in k.outcomes])
    per_edge = float((probs * np.log(probs)).sum())
    params = RiskParams(N=1200, n=2, replicates=6, base_seed=5)
    est = estimate_limit_likelihood(pm, k, pm, params)
    limit = 2 * per_edge  # n(n-1) edges per interior block
    slack = 3 * est.stderr + 8.0 * abs(per_edge) / est.q_max
    assert abs(est.value - limit) <= slack


def test_limit_likelihood_self_consistent_in_N():
    k = degree_model()
    pi = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    a = estimate_limit_likelihood(pi, k, pi, RiskParams(N=800, n=2, replicates=6, base_seed=6))
    b = estimate_limit_likelihood(pi, k, pi, RiskParams(N=1600, n=2, replicates=6, base_seed=7))
    slack = 3 * (a.stderr + b.stderr) + 4.0 / a.q_max
    assert abs(a.value - b.value) <= slack


def test_min_q_max_enforced():
    k = uniform_kernel(2)
    pi = uniform([1.0, 3.0])
    with pytest.raises(ValueError, match="q_max"):
        estimate_limit_likelihood(pi, k, pi, RiskParams(N=60, n=2, replicates=2, min_q_max=50))


def test_excess_risk_at_truth_is_zero():
    pi = DiscreteDistribution([1.0, 3.0], [0.3, 0.7])
    k = bradley_terry()
    report = excess_risk(pi, k, pi, RiskParams(N=400, n=2, replicates=4, base_seed=8))
    assert report.excess_risk == 0.0
    assert report.excess_stderr == 0.0


def test_excess_risk_uniform_kernel_zero_for_any_candidate():
    k = uniform_kernel(2)
    pi_star = uniform([1.0, 3.0])
    other = DiscreteDistribution([1.0, 3.0], [0.9, 0.1])
    report = excess_risk(other, k, pi_star, RiskParams(N=400, n=2, replicates=4, base_seed=9))
    assert report.excess_risk == 0.0


def test_excess_risks_equal_per_candidate_excess_risk():
    pi_star = DiscreteDistribution([1.0, 3.0], [0.3, 0.7])
    candidates = [
        DiscreteDistribution([1.0, 3.0], [0.6, 0.4]),
        pi_star,
        DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]),
        DiscreteDistribution([1.0, 3.0], [0.1, 0.9]),
    ]
    k = bradley_terry()
    params = RiskParams(N=300, n=2, replicates=3, base_seed=12, min_q_max=20)
    reports = excess_risks(candidates, k, pi_star, params)
    assert len(reports) == len(candidates)
    for cand, report in zip(candidates, reports):
        single = excess_risk(cand, k, pi_star, params)
        assert report.pi is cand
        for field in dataclasses.fields(report):
            if field.name != "pi":
                assert getattr(report, field.name) == getattr(single, field.name), field.name
    assert reports[1].excess_risk == 0.0 and reports[1].excess_stderr == 0.0
    assert excess_risks([], k, pi_star, params) == []


def test_excess_risk_positive_for_far_candidate():
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    far = DiscreteDistribution([0.5, 2.0], [0.95, 0.05])
    k = degree_model()
    report = excess_risk(far, k, pi_star, RiskParams(N=1000, n=2, replicates=8, base_seed=10))
    assert report.excess_risk > 3 * report.excess_stderr > 0


def test_forgetting_and_magnitude_bounds_hold():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 30, 2, seed=11)
    rows = forgetting_profile(ds, pi, k)
    assert len(rows) and rows.violations(1e-12) == 0
    mags = conditional_magnitude_rows(ds, pi, k)
    assert len(mags) and mags.violations(1e-12) == 0


@pytest.mark.parametrize("kernel", [bradley_terry(), bt_ties(2.0)], ids=["bt", "bt_ties"])
@pytest.mark.parametrize("n", [2, 3])
def test_library_envelopes_equal_diagnose_envelopes(n, kernel):
    # the library's bound checks and `lgmle diagnose` report the same columns
    pi = DiscreteDistribution([1.0, 2.0, 3.0], [0.3, 0.4, 0.3])
    ds = simulate(pi, kernel, 30, n, seed=17)
    envelopes = analysis._diagnose(ds, pi, kernel).envelopes
    for name, env in (
        ("forgetting", forgetting_profile(ds, pi, kernel)),
        ("magnitude", conditional_magnitude_rows(ds, pi, kernel)),
    ):
        expected = envelopes[name]
        assert list(env.windows) == list(expected.windows), name
        for key, column in env.windows.items():
            assert np.array_equal(column, expected.windows[key]), (name, key)
        assert np.array_equal(env.value, expected.value), name
        assert np.array_equal(env.bound, expected.bound), name


@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([14, 20, 28]),
    s=st.sampled_from([2, 3]),
    kernel_index=st.integers(0, 3),
    seed=st.integers(1, 2**31 - 1),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_forgetting_columns_equal_row_oracle(n, N, s, kernel_index, seed, data):
    rng = np.random.default_rng(seed)
    pi = random_distribution(rng, s)
    kernel = kernel_variants()[kernel_index]
    ds = simulate(pi, kernel, N, n, seed=seed)
    top = ds.layers.q_max - 1
    q_values = data.draw(st.none() | st.lists(st.integers(2, top), max_size=top), label="q_values")
    max_ell = data.draw(st.sampled_from([None, 1, 3, top + 1]), label="max_ell")
    # Interior blocks share one size, so epsilon^|X_k| is flat there; the
    # second pass varies nu_k per block to pin the running product's indices.
    varied = rng.uniform(0.05, 1.0, size=ds.layers.q_max + 2)
    for nus in (None, varied):
        with mock.patch.object(
            LayerChainModel,
            "block_nus",
            LayerChainModel.block_nus if nus is None else (lambda model: nus),
        ):
            rows = forgetting_profile(ds, pi, kernel, q_values=q_values, max_ell=max_ell)
        oracle = oracle_forgetting_rows(ds, pi, kernel, q_values, max_ell, nus)
        columns = {**rows.windows, "gap": rows.value, "bound": rows.bound}
        for field in ("q", "m", "ell", "gap", "bound"):
            assert columns[field].tolist() == [getattr(r, field) for r in oracle], field


def test_forgetting_window_outside_interior_raises():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 30, 2, seed=11)
    top = ds.layers.q_max - 1
    assert len(forgetting_profile(ds, pi, k, q_values=[top])) == 0
    for q in (1, 0, -1, top + 1):
        with pytest.raises(LayerOutOfRange, match=f"q={q} "):
            forgetting_profile(ds, pi, k, q_values=[2, q])


def test_diagnose_logs_tightest_envelopes(caplog):
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 30, 2, seed=11)
    with caplog.at_level(logging.DEBUG, logger="lgmle.analysis"):
        analysis._diagnose(ds, pi, k)
    forgetting = [((r.q, r.m, r.ell), r.gap, r.bound) for r in oracle_forgetting_rows(ds, pi, k)]
    magnitude = [((q, m), value, bound) for q, m, value, bound in oracle_magnitude_rows(ds, pi, k)]
    # The log prints diagnose's own values, which the oracle rows match only
    # to roundoff, so the contraction rows come from the method.
    profile = LayerChainModel(ds, k, pi.support).contraction_profile(pi.probs, 2, ds.layers.q_max - 1)
    before = np.concatenate(([profile.initial_tv], profile.tv[:-1]))
    bounds = profile.step_factor * before
    contraction = [((layer,), tv, bound) for layer, tv, bound in zip(profile.layer.tolist(), profile.tv, bounds)]
    oracle = oracle_contraction_rows(ds, pi, k)
    assert [window[0] for window, _, _ in contraction] == [layer for layer, _, _ in oracle]
    np.testing.assert_allclose([row[1:] for row in contraction], [row[1:] for row in oracle], rtol=0, atol=1e-13)
    parts = []
    for name, keys, rows in (
        ("forgetting", ("q", "m", "ell"), forgetting),
        ("magnitude", ("q", "m"), magnitude),
        ("contraction", ("layer",), contraction),
    ):
        slacks = [float(bound - value) for _, value, bound in rows]
        tight = slacks.index(min(slacks))
        where = " ".join(f"{key}={v}" for key, v in zip(keys, rows[tight][0]))
        part = f"{name} rows={len(rows)} min_slack={slacks[tight]!r} at {where}"
        ratios = [(float(value / bound), window) for window, value, bound in rows if bound > 0]
        ratio, window = max(ratios, key=lambda r: r[0])
        where = " ".join(f"{key}={v}" for key, v in zip(keys, window))
        parts.append(f"{part} tightest={ratio!r} at {where}")
    assert [r.getMessage() for r in caplog.records if r.name == "lgmle.analysis"] == [
        "diagnose envelopes: " + "; ".join(parts)
    ]


def test_slack_summary_names_smallest_slack_and_tightest_row_apart():
    # row 0 has the smaller slack (0.1 against 1), row 1 the larger value/bound (0.9 against 0.5)
    env = analysis.Envelope({"q": np.array([2, 3]), "m": np.array([4, 5])}, np.array([0.1, 9.0]), np.array([0.2, 10.0]))
    assert env.slack_summary() == "rows=2 min_slack=0.1 at q=2 m=4 tightest=0.9 at q=3 m=5"
    zero = analysis.Envelope({"layer": np.array([1])}, np.array([0.0]), np.array([0.0]))
    assert zero.slack_summary() == "rows=1 min_slack=0.0 at layer=1"


@pytest.mark.parametrize("max_ell", [0, -1])
def test_forgetting_profile_rejects_empty_horizon(max_ell):
    # max_ell < 1 keeps no window, so the check would pass with 0 rows
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 40, 2, seed=11)
    with pytest.raises(InvalidValue, match=f"^max_ell must be at least 1, got {max_ell}$"):
        forgetting_profile(ds, pi, k, max_ell=max_ell)


@pytest.mark.parametrize(
    "call",
    [
        lambda pi, k: scaling_experiment(pi, k, [60], seeds_per_n=1, base_seed=-1),
        lambda pi, k: z_process_concentration([pi], k, pi, N=40, replicates=2, base_seed=-1),
        lambda pi, k: RiskParams(base_seed=-1).seeds(),
    ],
    ids=["scaling_experiment", "z_process_concentration", "RiskParams"],
)
def test_negative_base_seed_raises_invalid_value(call):
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    with pytest.raises(InvalidValue, match="^base_seed must be non-negative, got -1$"):
        call(pi, bradley_terry())


def test_single_flip_bounds_hold():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 24, 2, seed=12)
    rows = single_flip_rows(ds, pi, k)
    assert len(rows) and rows.violations(1e-12) == 0


@given(
    n=st.sampled_from([2, 3]),
    N=st.sampled_from([14, 20]),
    s=st.sampled_from([2, 3]),
    kernel_index=st.integers(0, 3),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_single_flip_bounds_equal_gap_bound_oracle(n, N, s, kernel_index, seed):
    rng = np.random.default_rng(seed)
    pi = random_distribution(rng, s)
    kernel = kernel_variants()[kernel_index]
    ds = simulate(pi, kernel, N, n, seed=seed)
    epsilon = epsilon_floor(kernel, pi.support).epsilon
    real = [epsilon**size for size in LayerChainModel(ds, kernel, pi.support).block_sizes]
    # Interior blocks share one size, so nu_k is also varied per block.
    varied = rng.uniform(0.05, 1.0, size=ds.layers.q_max + 2)
    for nus, block_nus in ((real, LayerChainModel.block_nus), (varied, lambda model: varied)):
        with mock.patch.object(LayerChainModel, "block_nus", block_nus):
            rows = single_flip_rows(ds, pi, kernel)
        q, flip_layer = rows.windows["q"].tolist(), rows.windows["flip_layer"].tolist()
        # flips reach the last interior layer, the bound matrix's last column
        assert max(flip_layer) == ds.layers.q_max - 1
        assert rows.bound.tolist() == [forgetting_gap_bound(nus, a, b) for a, b in zip(q, flip_layer)]


def test_risks_and_flips_build_one_structure_per_support(monkeypatch):
    counts = {"structure": 0, "model": 0}
    structure_init, model_init = likelihood._ChainStructure.__init__, LayerChainModel.__init__

    def counting_structure(self, *args, **kwargs):
        counts["structure"] += 1
        structure_init(self, *args, **kwargs)

    def counting_model(self, *args, **kwargs):
        counts["model"] += 1
        model_init(self, *args, **kwargs)

    monkeypatch.setattr(likelihood._ChainStructure, "__init__", counting_structure)
    monkeypatch.setattr(LayerChainModel, "__init__", counting_model)
    pi = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    params = RiskParams(N=60, n=2, replicates=3, base_seed=2, min_q_max=5)
    arms = [pi.with_probs([0.5, 0.5]), uniform([0.8, 1.5, 3.0]), pi.with_probs([0.9, 0.1])]
    excess_risks(arms, degree_model(), pi, params)
    # two supports, three replicates: one structure and one lockstep model per support
    assert counts == {"structure": 2, "model": 2}
    counts.update(structure=0, model=0)
    pi = DiscreteDistribution([1.0, 2.0, 4.0], [0.2, 0.5, 0.3])
    kernel = bt_ties(2.0)
    rows = single_flip_rows(simulate(pi, kernel, 20, 2, seed=202), pi, kernel)
    # 28 flips, each a copy of the one model with one block type swapped
    assert len(rows) == 112
    assert counts == {"structure": 1, "model": 1}


@pytest.mark.parametrize("kernel_index", range(4))
def test_flip_and_increment_gaps_equal_single_vector_oracle(kernel_index):
    rng = np.random.default_rng(kernel_index)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, 3)
    other = pi.with_probs(random_distribution(rng, 3).probs)
    ds = simulate(pi, kernel, 20, 2, seed=kernel_index + 1)
    m = ds.layers.q_max - 1
    model = LayerChainModel(ds, kernel, pi.support)
    base = oracle_conditional_profile(model, pi.probs, m)
    moved = oracle_conditional_profile(model, other.probs, m)
    for rows in increment_rows(ds, pi, other, kernel).values():
        found = zip(rows.windows["q"].tolist(), rows.windows["m"].tolist(), rows.value.tolist())
        assert list(found) == [(q, m, abs(base[q] - moved[q])) for q in range(2, m + 1)]
    expected = []
    for flip_layer in range(2, m + 1):
        for edge in ds.layers.block_edges(flip_layer):
            for outcome, alt in enumerate(kernel.outcomes):
                if alt != ds.outcomes[edge]:
                    flipped = dataclasses.replace(ds, outcomes={**ds.outcomes, edge: alt})
                    prof = oracle_conditional_profile(
                        LayerChainModel(flipped, kernel, pi.support), pi.probs, m
                    )
                    expected += [
                        (q, flip_layer, *edge, outcome, abs(base[q] - prof[q]))
                        for q in range(2, flip_layer + 1)
                    ]
    rows = single_flip_rows(ds, pi, kernel)
    assert list(zip(*(col.tolist() for col in rows.windows.values()), rows.value.tolist())) == expected
    assert list(rows.windows) == ["q", "flip_layer", "i", "j", "outcome"]


def test_increment_bounds_hold(rng):
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 24, 2, seed=13)
    for _ in range(10):
        other = DiscreteDistribution(pi.support, random_distribution(rng, 2).probs)
        rows = increment_rows(ds, pi, other, k)
        assert len(rows["exact"]) and rows["exact"].violations(1e-12) == 0
        assert np.all(rows["exact"].bound <= rows["product"].bound + 1e-12)


def test_increment_bound_is_inf_where_nu_cubed_underflows():
    # epsilon = 1e-150 gives nu = 1e-300 at n = 2, and nu**3 underflows to 0.0
    support = [1.0, 2.0]
    table = np.full((2, 2, 2), 0.5)
    table[:, 0, 0] = [1e-150, 1.0 - 1e-150]
    fair = custom_table((0, 1), support, np.full((2, 2, 2), 0.5))
    ds = simulate(uniform(support), fair, 40, 2, seed=4)
    other = DiscreteDistribution(support, [0.3, 0.7])
    rows = increment_rows(ds, uniform(support), other, custom_table((0, 1), support, table))
    for envelope in rows.values():
        assert len(envelope) and np.all(envelope.bound == math.inf)
        assert np.all(np.isfinite(envelope.value)) and envelope.violations(0.0) == 0


def test_scaling_rhs_is_inf_where_epsilon_power_overflows():
    # bt_ties(1e6) on (1, 2) has epsilon of about 5e-7; epsilon**-54 is past the float range
    pi_star = uniform([1.0, 2.0])
    table = scaling_experiment(pi_star, bt_ties(1e6), [40], n=3, seeds_per_n=1, eval_N=40, eval_replicates=1)
    assert 4e-7 < table.epsilon < 6e-7
    assert [row.rhs for row in table.rows] == [math.inf]
    assert risk_bound_rhs(3, table.epsilon, 40, 1.0, 1.0) == math.inf


def test_scaling_singleton_family_zero_excess():
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    k = degree_model()
    # A grid fit over {pi_star} returns pi_star on every dataset.
    singleton = FitConfig(support=(0.5, 2.0), mode="grid", candidates=[pi_star])
    table = scaling_experiment(
        pi_star, k, [60], n=2, seeds_per_n=2, base_seed=1, fit_config=singleton,
        eval_N=400, eval_replicates=2,
    )
    assert table.rows[0].median_excess == 0.0


def test_scaling_uniform_kernel_flat_zero():
    pi_star = uniform([1.0, 3.0])
    k = uniform_kernel(2)
    table = scaling_experiment(
        pi_star,
        k,
        [200, 400],
        n=2,
        seeds_per_n=3,
        base_seed=2,
        eval_N=400,
        eval_replicates=2,
    )
    for row in table.rows:
        assert abs(row.median_excess) < 1e-12
        assert row.rhs > 0


def test_z_process_uniform_kernel_degenerate():
    k = uniform_kernel(2)
    pi = uniform([1.0, 3.0])
    out = z_process_concentration([pi], k, pi, N=80, n=2, replicates=20, base_seed=3)
    summary = out[0]
    assert summary.sigma_scaled == pytest.approx(0.0, abs=1e-12)
    assert all(v == 0.0 for v in summary.exceedance.values())


def test_z_process_tails_and_increments():
    k = degree_model()
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    path = [DiscreteDistribution([0.5, 2.0], [p, 1 - p]) for p in (0.3, 0.4, 0.6, 0.9)]
    out = z_process_concentration(path, k, pi_star, N=120, n=2, replicates=120, base_seed=4)
    for summary in out:
        ts = sorted(summary.exceedance)
        freqs = [summary.exceedance[t] for t in ts]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))  # monotone tails
        for t in ts:
            # soft envelope check with binomial slack
            slack = 3 * math.sqrt(summary.envelope[t] / 120) + 0.05
            assert summary.exceedance[t] <= summary.envelope[t] + slack
    # increments shrink with the candidate distance
    base = out[0]
    spreads = [np.std(s.sums - base.sums) for s in out[1:]]
    assert spreads[0] <= spreads[-1] + 1e-12


def test_z_process_variance_stable_in_N():
    k = degree_model()
    pi = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    a = z_process_concentration([pi], k, pi, N=120, n=2, replicates=80, base_seed=5)[0]
    b = z_process_concentration([pi], k, pi, N=240, n=2, replicates=80, base_seed=6)[0]
    assert a.sigma_scaled > 0 and b.sigma_scaled > 0
    ratio = a.sigma_scaled / b.sigma_scaled
    assert 1 / 3 < ratio < 3


# -- the shared replicate path against the per-replicate oracles --------------

REPLICATE_CASES = [
    # (kernel, pi_star, candidates on pi_star's support, n)
    (degree_model(), DiscreteDistribution([0.5, 2.0], [0.3, 0.7]), [[0.4, 0.6], [0.9, 0.1]], 2),
    (bt_ties(2.0), DiscreteDistribution([0.5, 2.0], [0.3, 0.7]), [[0.4, 0.6], [0.9, 0.1]], 3),
    (
        bradley_terry(),
        DiscreteDistribution([1.0, 2.0, 4.0], [0.2, 0.5, 0.3]),
        [[0.3, 0.4, 0.3], [0.6, 0.2, 0.2]],
        2,
    ),
    (
        degree_model(),
        DiscreteDistribution([1.0, 2.0, 4.0], [0.2, 0.5, 0.3]),
        [[0.3, 0.4, 0.3], [0.6, 0.2, 0.2]],
        3,
    ),
]
CASE_IDS = ["s2-n2", "s2-n3", "s3-n2", "s3-n3"]


def _arms(pi_star, candidates):
    """The candidates on pi_star's support plus one on another support."""
    return [pi_star.with_probs(p) for p in candidates] + [uniform([0.8, 1.5, 3.0])]


@pytest.mark.parametrize("k, pi_star, candidates, n", REPLICATE_CASES, ids=CASE_IDS)
def test_risk_estimators_equal_per_replicate_oracles(k, pi_star, candidates, n):
    params = RiskParams(N=40, n=n, replicates=3, base_seed=17, min_q_max=5)
    arms = _arms(pi_star, candidates)
    assert excess_risks(arms, k, pi_star, params) == oracle_excess_risks(arms, k, pi_star, params)
    for pi in arms:
        est = estimate_limit_likelihood(pi, k, pi_star, params)
        vals, q_max = oracle_limit_likelihood(pi, k, pi_star, params)
        assert np.array_equal(est.per_replicate, vals)
        assert (est.value, est.stderr, est.q_max) == (
            float(vals.mean()),
            float(vals.std(ddof=1) / math.sqrt(vals.size)),
            q_max,
        )


@pytest.mark.parametrize("k, pi_star, candidates, n", REPLICATE_CASES, ids=CASE_IDS)
def test_z_process_equals_per_replicate_oracle(k, pi_star, candidates, n):
    arms = _arms(pi_star, candidates)
    new = z_process_concentration(arms, k, pi_star, N=40, n=n, replicates=4, base_seed=8)
    old = oracle_z_process(arms, k, pi_star, N=40, n=n, replicates=4, base_seed=8)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.pi == b.pi
        assert np.array_equal(a.sums, b.sums)
        assert (a.sigma_scaled, a.exceedance, a.envelope, a.num_layers) == (
            b.sigma_scaled,
            b.exceedance,
            b.envelope,
            b.num_layers,
        )


@pytest.mark.parametrize("k, pi_star, candidates, n", REPLICATE_CASES, ids=CASE_IDS)
def test_scaling_experiment_equals_per_replicate_oracle(k, pi_star, candidates, n):
    fit_config = FitConfig(support=tuple(pi_star.support), tol=1e-12, max_iters=5)
    kwargs = dict(
        n=n, seeds_per_n=3, base_seed=23, fit_config=fit_config, eval_N=48, eval_replicates=2
    )
    table = scaling_experiment(pi_star, k, [32, 40], **kwargs)
    assert table == oracle_scaling_experiment(pi_star, k, [32, 40], **kwargs)


def test_scaling_experiment_fits_each_dataset_in_its_own_call(monkeypatch):
    # A benchmark recorder wraps analysis.fit_mle and reads one fit per call,
    # in call order: the seeds of one N must not be fitted in one call.  The
    # table's fits are those results, in the same order.
    calls = []
    pi_hats = []
    fit_mle = analysis.fit_mle

    def recording_fit_mle(dataset, kernel, config):
        calls.append((dataset.graph.N, dataset.seed))
        result = fit_mle(dataset, kernel, config)
        pi_hats.append(result.pi_hat)
        return result

    monkeypatch.setattr(analysis, "fit_mle", recording_fit_mle)
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    fit_config = FitConfig(support=(0.5, 2.0), max_iters=2, restarts=2)
    kwargs = dict(seeds_per_n=3, base_seed=23, fit_config=fit_config, eval_N=48, eval_replicates=2)
    N_list = [32, 40]
    table = scaling_experiment(pi_star, degree_model(), N_list, **kwargs)
    assert calls == [
        (N, int(seed))
        for N in N_list
        for seed in np.random.SeedSequence([23, N]).generate_state(3)
    ]
    assert table.fits == tuple(pi_hats)


@pytest.mark.parametrize(
    "fit_config",
    [
        FitConfig(support=(1.0, 4.0), max_iters=2),
        FitConfig(support=(0.5, 1.0, 2.0), max_iters=2),
        FitConfig(support=(0.5, 2.0), mode="grid", candidates=[uniform([1.0, 4.0])]),
    ],
    ids=["moved", "three-point", "grid-candidate"],
)
def test_scaling_rejects_fit_support_other_than_pi_star(fit_config):
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    message = r"fit support \(.*\) differs from pi_star's support \(0\.5, 2\.0\)"
    with pytest.raises(ValueError, match=message):
        scaling_experiment(pi_star, degree_model(), [40], seeds_per_n=1, fit_config=fit_config)


@pytest.mark.parametrize(
    "estimate, name",
    [
        (lambda pi, k: excess_risks([pi], k, pi, RiskParams(replicates=0)), "replicates"),
        (lambda pi, k: estimate_limit_likelihood(pi, k, pi, RiskParams(replicates=0)), "replicates"),
        (lambda pi, k: scaling_experiment(pi, k, [40], seeds_per_n=0), "seeds_per_n"),
        (lambda pi, k: scaling_experiment(pi, k, [40], eval_replicates=0), "eval_replicates"),
        (lambda pi, k: z_process_concentration([pi], k, pi, N=40, replicates=0), "replicates"),
    ],
    ids=["excess_risks", "limit_likelihood", "seeds_per_n", "eval_replicates", "z_process"],
)
def test_empty_replicate_sets_rejected(estimate, name):
    pi = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
        estimate(pi, degree_model())


def test_replicate_set_logs_one_debug_line(caplog):
    pi = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    k = degree_model()
    params = RiskParams(N=60, n=2, replicates=3, base_seed=2, min_q_max=5)
    with caplog.at_level(logging.DEBUG, logger="lgmle.simulator"):
        excess_risks([pi.with_probs([0.5, 0.5])], k, pi, params)
        z_process_concentration([pi], k, pi, N=40, n=3, replicates=2)
    assert [r.getMessage() for r in caplog.records if r.name == "lgmle.simulator"] == [
        "replicates: N=60 n=2 count=3 q_max=29",
        "replicates: N=40 n=3 count=2 q_max=9",
    ]


@pytest.mark.parametrize(
    "check",
    [
        lambda ds, pi, k: forgetting_profile(ds, pi, k),
        lambda ds, pi, k: conditional_magnitude_rows(ds, pi, k),
        lambda ds, pi, k: single_flip_rows(ds, pi, k),
        lambda ds, pi, k: increment_rows(ds, pi, pi.with_probs([0.4, 0.6]), k),
        lambda ds, pi, k: z_process_concentration([pi], k, pi, N=22, n=5, replicates=2),
    ],
    ids=[
        "forgetting_profile",
        "conditional_magnitude_rows",
        "single_flip_rows",
        "increment_rows",
        "z_process_concentration",
    ],
)
def test_interior_checks_without_interior_window_raise_one_error(check):
    # N=22, n=5 on the strict schedule has q_max = 2: no window 2 <= q <= q_max - 1
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    ds = simulate(pi, k, 22, 5, seed=1)
    assert ds.layers.q_max == 2
    with pytest.raises(LayerOutOfRange) as info:
        check(ds, pi, k)
    assert str(info.value) == "graph too small: no interior window"


def test_z_process_logs_one_scored_line(caplog):
    pi = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    arms = [pi, pi.with_probs([0.5, 0.5]), uniform([0.8, 1.5, 3.0])]
    with caplog.at_level(logging.DEBUG, logger="lgmle.analysis"):
        z_process_concentration(arms, degree_model(), pi, N=40, n=3, replicates=2)
    assert [r.getMessage() for r in caplog.records if r.name == "lgmle.analysis"] == [
        "scored: arms=3 replicates=2 supports=2",
    ]


def test_replicate_scores_log_one_debug_line(caplog):
    pi = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    k = degree_model()
    params = RiskParams(N=60, n=2, replicates=3, base_seed=2, min_q_max=5)
    arms = [pi.with_probs([0.5, 0.5]), uniform([0.8, 1.5, 3.0])]
    with caplog.at_level(logging.DEBUG, logger="lgmle.analysis"):
        excess_risks(arms, k, pi, params)
        estimate_limit_likelihood(pi, k, pi, params)
    assert [r.getMessage() for r in caplog.records if r.name == "lgmle.analysis"] == [
        "scored: arms=3 replicates=3 supports=2",
        "scored: arms=1 replicates=3 supports=1",
    ]
