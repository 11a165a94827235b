import re

import numpy as np
import pytest

from lgmle import (
    DiscreteDistribution,
    FitConfig,
    InvalidValue,
    LgmleError,
    NonPositiveWeight,
    SupportMismatch,
    bradley_terry,
    custom_table,
    bt_ties,
    build_schedule,
    build_schedule_unchecked,
    degree_model,
    log_likelihood,
    point_mass,
    sample_outcomes,
    sample_weights,
    simulate,
    uniform,
    uniform_kernel,
)
from lgmle.analysis import simplex_entropy_integral, tv_log_of_tv
from lgmle.kernels import kernel_from_config
from lgmle.rr_graph import predicted_layers
from lgmle.simulator import (
    _simulate_replicates,
    dataset_from_json,
    dataset_from_json_dict,
    dataset_to_json,
    dataset_to_json_dict,
    outcomes_to_csv,
)


def test_point_mass_weights():
    w = sample_weights(point_mass(2.0), 5, seed=0)
    assert np.array_equal(w, np.full(5, 2.0))


def test_sample_weights_negative_N_raises():
    pi = uniform([1.0, 3.0])
    with pytest.raises(InvalidValue) as info:
        sample_weights(pi, -1, seed=0)
    assert str(info.value) == "N must be non-negative, got -1"
    assert sample_weights(pi, 0, seed=0).shape == (0,)


def test_law_of_large_numbers():
    pi = uniform([1.0, 3.0])
    w = sample_weights(pi, 100_000, seed=42)
    assert abs(np.mean(w == 1.0) - 0.5) < 0.01


def test_weight_determinism_and_prefix_stability():
    pi = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.5, 0.3])
    w1 = sample_weights(pi, 50, seed=9)
    w2 = sample_weights(pi, 50, seed=9)
    assert np.array_equal(w1, w2)
    # enlarging N keeps the draws of the shared node prefix
    w3 = sample_weights(pi, 80, seed=9)
    assert np.array_equal(w3[:50], w1)
    assert not np.array_equal(sample_weights(pi, 50, seed=10), w1)


def test_uniform_kernel_outcome_frequencies():
    g = build_schedule(2000, 3)
    k = uniform_kernel(2)
    ds = sample_outcomes(g, k, np.ones(2000), seed=5)
    freq = np.mean([x == 1 for x in ds.outcomes.values()])
    assert abs(freq - 0.5) < 0.03


def test_bt_equal_weights_balanced():
    g = build_schedule(2000, 3)
    ds = sample_outcomes(g, bradley_terry(), np.full(2000, 3.0), seed=8)
    freq = np.mean([x == 1 for x in ds.outcomes.values()])
    assert abs(freq - 0.5) < 0.03


def test_bt_strong_vs_weak_frequency():
    # round 1 pairs 10^4 disjoint edges with weight 9 against weight 1
    N = 20_000
    g = build_schedule_unchecked(N, 2)
    weights = np.where(np.arange(1, N + 1) % 2 == 1, 9.0, 1.0)
    ds = sample_outcomes(g, bradley_terry(), weights, seed=13)
    wins = [ds.outcomes[(i, i + 1)] for i in range(1, N, 2)]
    assert abs(np.mean(wins) - 0.9) < 0.01


def test_conditionally_independent_edges():
    # fixed equal weights: outcomes are i.i.d. Bernoulli(1/2); disjoint edge
    # pairs should be uncorrelated within Monte-Carlo error
    N = 20_000
    g = build_schedule_unchecked(N, 2)
    ds = sample_outcomes(g, bradley_terry(), np.ones(N), seed=3)
    round1 = np.array([ds.outcomes[(2 * i - 1, 2 * i)] for i in range(1, N // 2 + 1)], dtype=float)
    a, b = round1[: N // 4], round1[N // 4 :]
    corr = np.corrcoef(a, b[: a.size])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(a.size)


def test_simulate_deterministic():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    d1 = simulate(pi, k, 16, 3, seed=7)
    d2 = simulate(pi, k, 16, 3, seed=7)
    assert d1.outcomes == d2.outcomes
    assert np.array_equal(d1.true_weights, d2.true_weights)
    assert simulate(pi, k, 16, 3, seed=8).outcomes != d1.outcomes


def test_point_mass_pipeline_loglik():
    pm = point_mass(2.0)
    k = bradley_terry()
    ds = simulate(pm, k, 12, 2, seed=1)
    expected = sum(k.log_prob(x, 2.0, 2.0) for x in ds.outcomes.values())
    assert log_likelihood(ds, pm, k) == pytest.approx(expected, rel=1e-12)


def test_pipeline_smoke_finite_loglik():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 16, 3, seed=7)
    assert np.isfinite(log_likelihood(ds, pi, k))


def test_blind_mode_strips_weights():
    pi = uniform([1.0, 3.0])
    ds = simulate(pi, bradley_terry(), 16, 3, seed=7, blind=True)
    assert ds.true_weights is None


def test_weight_count_validated():
    g = build_schedule(16, 3)
    with pytest.raises(ValueError, match="16 weights"):
        sample_outcomes(g, bradley_terry(), np.ones(10), seed=0)


def test_json_roundtrip(tmp_path):
    pi = uniform([1.0, 3.0])
    ds = simulate(pi, bradley_terry(), 16, 3, seed=7)
    path = tmp_path / "ds.json"
    dataset_to_json(ds, path)
    back = dataset_from_json(path)
    assert back.outcomes == ds.outcomes
    assert np.array_equal(back.true_weights, ds.true_weights)
    assert back.seed == ds.seed
    doc = dataset_to_json_dict(ds)
    doc["outcomes"] = doc["outcomes"][:-1]
    with pytest.raises(ValueError, match="missing"):
        dataset_from_json_dict(doc)


def test_json_roundtrip_relaxed_schedule(tmp_path):
    pi = uniform([1.0, 3.0])
    ds = simulate(pi, bradley_terry(), 12, 4, seed=5, strict=False)
    path = tmp_path / "ds.json"
    dataset_to_json(ds, path)
    back = dataset_from_json(path)
    assert back.outcomes == ds.outcomes
    assert back.graph.edges == ds.graph.edges
    # strict graphs keep the flag out of the file
    assert "strict" not in dataset_to_json_dict(simulate(pi, bradley_terry(), 16, 3, seed=5))
    doc = dataset_to_json_dict(ds)
    doc["strict"] = "no"
    with pytest.raises(ValueError, match="strict"):
        dataset_from_json_dict(doc)


def test_json_rejects_unscheduled_edges():
    ds = simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=7)
    doc = dataset_to_json_dict(ds)
    doc["outcomes"].append([2, 1, doc["outcomes"][0][2]])
    with pytest.raises(ValueError, match=r"not in the schedule \[\(2, 1\)\]"):
        dataset_from_json_dict(doc)


def test_outcomes_csv(tmp_path):
    ds = simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=7)
    path = tmp_path / "o.csv"
    outcomes_to_csv(ds, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,x"
    assert len(lines) - 1 == len(ds.graph.edges)


@pytest.mark.parametrize("N, n", [(200, 2), (60, 3), (120, 4), (800, 2), (12, 4), (18, 5)])
def test_replicates_equal_per_seed_simulate(N, n):
    # Both drawing paths against the public building blocks; n >= N/4 takes
    # the relaxed scheduler.
    pi = DiscreteDistribution([0.5, 1.0, 2.0], [0.2, 0.5, 0.3])
    k = bt_ties(2.0) if n % 2 else degree_model()
    strict = 4 * n < N
    graph = (build_schedule if strict else build_schedule_unchecked)(N, n)
    seeds = [3, 917, 2**31 + 5]
    replicates = _simulate_replicates(pi, k, N, n, seeds, strict)
    assert len(replicates) == len(seeds)
    for ds, seed in zip(replicates, seeds):
        ref = sample_outcomes(graph, k, sample_weights(pi, N, seed), seed)
        assert ds.graph is replicates[0].graph and ds.layers is replicates[0].layers
        for got in (ds, simulate(pi, k, N, n, seed, strict=strict)):
            assert (got.graph, got.layers, got.outcomes, got.seed) == (
                ref.graph,
                ref.layers,
                ref.outcomes,
                ref.seed,
            )
            assert np.array_equal(got.true_weights, ref.true_weights)


@pytest.mark.parametrize(
    "call",
    [
        lambda: DiscreteDistribution([1.0, 2.0], [0.7, 0.7]),
        lambda: FitConfig(support=(1.0,), tol=0.0),
        lambda: bt_ties(1.0),
        lambda: uniform_kernel(0),
        lambda: kernel_from_config({"variant": "mystery"}),
        lambda: simplex_entropy_integral(0),
        lambda: simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=-1),
        lambda: sample_outcomes(build_schedule(16, 3), bradley_terry(), np.ones(10), seed=0),
        lambda: dataset_from_json_dict({"N": 16, "n": 3, "outcomes": []}),
        lambda: tv_log_of_tv(-0.5),
        lambda: predicted_layers(16, 3).block_edges(0),
    ],
    ids=[
        "probs", "tol", "theta", "num-outcomes", "variant", "support-size", "seed", "weights", "dataset-key",
        "negative-tv", "predicted-edges",
    ],
)
def test_caller_input_errors_are_package_errors(call):
    # a package error, so the CLI exits 2, and a ValueError as before
    with pytest.raises(InvalidValue) as info:
        call()
    assert isinstance(info.value, LgmleError) and isinstance(info.value, ValueError)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "support, probs, message",
    [
        ([1.0, 2.0], [NAN, NAN], "probs must be finite"),
        ([1.0, 2.0], [NAN, 1.0], "probs must be finite"),
        ([1.0, 2.0], [INF, 0.0], "probs must be finite"),
        ([1.0, NAN], [0.5, 0.5], "support values must be finite"),
        ([NAN, 2.0], [0.5, 0.5], "support values must be finite"),
        ([1.0, INF], [0.5, 0.5], "support values must be finite"),
        ([NAN], [1.0], "support values must be finite"),
    ],
)
def test_distribution_rejects_non_finite_values(support, probs, message):
    # NaN compares false both ways, so `nan < 0` and `abs(nan - 1) > tol`
    # let these through before
    with pytest.raises(InvalidValue, match=f"^{message}$"):
        DiscreteDistribution(support, probs)


def test_dataset_missing_key_named():
    doc = dataset_to_json_dict(simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=7))
    for key in ("N", "n", "seed", "outcomes"):
        broken = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(InvalidValue, match=f"^dataset is missing key {key}$"):
            dataset_from_json_dict(broken)


def test_dataset_file_errors_name_the_path(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(InvalidValue, match=f"^cannot read dataset {path}: "):
        dataset_from_json(path)


@pytest.mark.parametrize(
    "bad, shown", [(0.0, "0.0"), (-1.0, "-1.0"), (float("nan"), "nan"), (float("inf"), "inf")]
)
def test_sample_outcomes_rejects_bad_weights(bad, shown):
    # such weights give NaN outcome probabilities
    weights = np.ones(16)
    weights[[4, 9]] = bad
    with pytest.raises(NonPositiveWeight, match=f"^weights must be positive and finite, got {shown} at node 5$"):
        sample_outcomes(build_schedule(16, 3), bradley_terry(), weights, seed=0)


def test_dataset_with_an_edge_listed_twice_raises():
    # a second outcome would silently replace the first
    doc = dataset_to_json_dict(simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=7))
    i, j, x = doc["outcomes"][3]
    doc["outcomes"].append([i, j, 1 - x])
    with pytest.raises(InvalidValue, match=re.escape(f"outcomes listed more than once for edges [({i}, {j})]")):
        dataset_from_json_dict(doc)


@pytest.mark.parametrize("weights", [[1.0], [1.0] * 17, [[1.0] * 16]])
def test_dataset_weights_need_one_number_per_node(weights):
    doc = dataset_to_json_dict(simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=7))
    doc["weights"] = weights
    shape = np.shape(weights)
    with pytest.raises(InvalidValue, match=re.escape(f"dataset weights must be 16 numbers, one per node, got shape {shape}")):
        dataset_from_json_dict(doc)


@pytest.mark.parametrize(
    "draw",
    [
        lambda pi, k: simulate(pi, k, 20, 2, seed=5),
        lambda pi, k: _simulate_replicates(pi, k, 20, 2, [5, 6]),
    ],
    ids=["simulate", "replicates"],
)
def test_support_point_never_drawn_is_still_checked(draw):
    # no node draws 3.0, yet the model of this support would reject it
    k = custom_table((0, 1), [1.0, 2.0], [[[0.5, 0.25], [0.75, 0.5]], [[0.5, 0.75], [0.25, 0.5]]])
    pi = DiscreteDistribution([1.0, 3.0], [1.0, 0.0])
    with pytest.raises(SupportMismatch, match=re.escape("weight 3.0 is not on the kernel's table support [1.0, 2.0]")):
        draw(pi, k)
