import dataclasses
import itertools
import logging
import math
import operator
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmle import (
    DiscreteDistribution,
    FitConfig,
    H1Violated,
    InvalidValue,
    Kernel,
    LayerOutOfRange,
    OutcomeNotInSpace,
    TooLargeForBruteForce,
    bradley_terry,
    brute_force_log_likelihood,
    brute_force_node_marginals,
    bt_ties,
    custom_table,
    degree_model,
    epsilon_floor,
    fit_mle,
    log_likelihood,
    point_mass,
    point_mass_on,
    simulate,
    uniform,
    uniform_kernel,
)
from lgmle import likelihood
from lgmle.estimator import WEIGHT_FLOOR
from lgmle.likelihood import LayerChainModel
from lgmle.simulator import _simulate_replicates

from conftest import (
    block_log_kernel,
    enumerate_window_logprob,
    extreme_model as _extreme_model,
    kernel_variants,
    log_domain_node_marginals,
    model_on_engine as _model,
    oracle_backward_kernels,
    oracle_backward_messages,
    oracle_conditional_profile,
    oracle_contraction_tvs,
    random_distribution,
    small_instances,
)


def test_uniform_kernel_closed_form():
    k = uniform_kernel(3)
    ds = simulate(uniform([1.0, 2.0]), k, 20, 3, seed=4)
    expected = len(ds.graph.edges) * math.log(1.0 / 3.0)
    for pi in (uniform([1.0, 2.0]), DiscreteDistribution([1.0, 2.0], [0.9, 0.1])):
        assert log_likelihood(ds, pi, k) == pytest.approx(expected, rel=1e-14)


def test_point_mass_closed_form():
    k = bradley_terry()
    pm = point_mass(1.7)
    ds = simulate(pm, k, 16, 3, seed=9)
    expected = sum(k.log_prob(x, 1.7, 1.7) for x in ds.outcomes.values())
    assert log_likelihood(ds, pm, k) == pytest.approx(expected, rel=1e-13)


def test_matches_brute_force_on_random_instances():
    for ds, pi, kernel in small_instances(12, rng_seed=5):
        ve = log_likelihood(ds, pi, kernel)
        bf = brute_force_log_likelihood(ds, pi, kernel)
        assert abs(ve - bf) <= 1e-10 * abs(bf)


def test_two_node_toy_instance():
    # single pair: log sum over both weights of pi(v) pi(w) k(x, v, w)
    pi = DiscreteDistribution([1.0, 3.0], [0.25, 0.75])
    k = bradley_terry()
    ds = simulate(pi, k, 12, 2, seed=2)
    (i, j) = next(iter(ds.outcomes))
    x = ds.outcomes[(i, j)]
    direct = math.log(
        sum(
            pi.probs[a] * pi.probs[b] * k.prob(x, pi.support[a], pi.support[b])
            for a in range(2)
            for b in range(2)
        )
    )
    single = {(i, j): x}
    from lgmle.simulator import Dataset
    from lgmle.rr_graph import build_schedule_unchecked, layer_decomposition

    # a two-node graph carrying only that edge
    g = build_schedule_unchecked(2, 1)
    ds2 = Dataset(g, layer_decomposition(g), {(1, 2): x}, None, 0)
    assert brute_force_log_likelihood(ds2, pi, k) == pytest.approx(direct, rel=1e-14)
    assert log_likelihood(ds2, pi, k) == pytest.approx(direct, rel=1e-14)


_LSE_TERMS = st.one_of(
    st.sampled_from([-math.inf, 0.0, -1.0, 2.5]),
    st.floats(min_value=-800.0, max_value=800.0),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LSE_TERMS, min_size=1, max_size=40))
@example([3.0])
@example([-math.inf])
@example([-math.inf] * 5)
@example([0.0, 0.0, -1.0])
def test_oracle_reduction_equals_logsumexp(terms):
    # ties at the maximum are common in the oracle's assignment sums
    special = pytest.importorskip("scipy.special")
    a = np.array(terms)
    value = likelihood._log_sum_exp(a)
    assert value == float(special.logsumexp(a))
    if max(terms) == -math.inf:
        assert value == -math.inf


def test_brute_force_cap():
    pi = uniform([1.0, 2.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 16, 3, seed=1)
    with pytest.raises(TooLargeForBruteForce):
        brute_force_log_likelihood(ds, pi, k)


def test_h1_violated_on_zero_table():
    tbl = [[[0.0, 0.5], [1.0, 0.5]], [[1.0, 0.5], [0.0, 0.5]]]
    k = custom_table((0, 1), [1.0, 2.0], tbl)
    pi = uniform([1.0, 2.0])
    ds = simulate(pi, uniform_kernel(2), 12, 2, seed=3)
    with pytest.raises(H1Violated):
        log_likelihood(ds, pi, k)


_TABLE = [[[0.3, 0.6, 0.1], [0.5, 0.2, 0.9], [0.05, 0.7, 0.4]]]
_TABLE.append([[1.0 - p for p in row] for row in _TABLE[0]])


@pytest.mark.parametrize("engine", ["dense", "factored"])
@pytest.mark.parametrize("support", [[0.5, 2.0], [1.0, 2.0], [1.0]])
def test_table_kernel_on_part_of_its_grid_matches_brute_force(engine, support):
    kernel = custom_table((0, 1), [0.5, 1.0, 2.0], _TABLE)
    pi = uniform(support)
    ds = simulate(pi, kernel, 16, 3, seed=4)
    value = _model(ds, pi, kernel, engine).log_likelihood(pi.probs)
    oracle = brute_force_log_likelihood(ds, pi, kernel)
    assert abs(value - oracle) <= 1e-10 * abs(oracle)


_PROBS_METHODS = {
    "log_likelihood": lambda model, probs: model.log_likelihood(probs),
    "forward_constants": lambda model, probs: model.forward_constants(probs),
    "posterior_pass": lambda model, probs: model.posterior_pass(probs),
    "conditional_profiles": lambda model, probs: model.conditional_profiles(probs, 3),
    "backward_messages": lambda model, probs: model.backward_messages(probs, 2, 3),
    "backward_kernels": lambda model, probs: model.backward_kernels(probs, 2, 3),
    "contraction_profile": lambda model, probs: model.contraction_profile(probs, 2, 3),
}
_ONE_ROW = ("backward_messages", "backward_kernels", "contraction_profile")


@pytest.mark.parametrize("method", list(_PROBS_METHODS))
@pytest.mark.parametrize("probs", [[0.2, 0.3, 0.5], [1.0], [[0.5, 0.5, 0.0]], [[[0.5, 0.5]]], 0.5])
def test_simplex_weights_of_the_wrong_shape_raise(method, probs):
    # a third weight on a two-point support must not be dropped silently
    pi = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
    model = LayerChainModel(simulate(pi, bradley_terry(), 24, 2, seed=3), bradley_terry(), pi.support)
    shape = np.shape(probs)
    need = "(2,)" if method in _ONE_ROW else "(2,) or (K, 2)"
    with pytest.raises(InvalidValue) as info:
        _PROBS_METHODS[method](model, probs)
    assert str(info.value) == (
        f"simplex weights of shape {shape} do not fit the 2-point support; need shape {need}"
    )
    if method not in _ONE_ROW:
        _PROBS_METHODS[method](model, np.tile(pi.probs, (2, 1)))
    else:
        with pytest.raises(InvalidValue):
            _PROBS_METHODS[method](model, np.tile(pi.probs, (2, 1)))


@pytest.mark.parametrize(
    "kernel",
    kernel_variants() + [custom_table((0, 1), [0.5, 1.0, 2.0], _TABLE)],
    ids=lambda kernel: kernel.name,
)
def test_model_floor_equals_epsilon_floor(kernel):
    pi = DiscreteDistribution([0.5, 1.0, 2.0], [0.2, 0.3, 0.5])
    ds = simulate(pi, kernel, 20, 3, seed=5)
    model = LayerChainModel(ds, kernel, pi.support)
    cert = epsilon_floor(kernel, pi.support)
    assert model.floor == cert  # epsilon and attained_at
    assert model.block_nus() == [cert.epsilon**size for size in model.block_sizes]


def _spiked_kernel(log_value):
    """k = 1/2 everywhere except log k(0, 2.0, 1.0) = ``log_value``."""

    def log_fn(xi, v, w):
        out = np.full(np.broadcast(v, w).shape, math.log(0.5))
        return np.where((v == 2.0) & (w == 1.0), log_value, out) if xi == 0 else out

    return Kernel(name="spiked", outcomes=(0, 1), log_fn=log_fn)


@pytest.mark.parametrize(
    "kernel, shown",
    [
        (custom_table((0, 1), [1.0, 2.0], [[[0.0, 0.5], [1.0, 0.5]], [[1.0, 0.5], [0.0, 0.5]]]), "k(0, 1.0, 1.0) = 0.0"),
        (_spiked_kernel(math.inf), "k(0, 2.0, 1.0) = inf"),
        (_spiked_kernel(math.nan), "k(0, 2.0, 1.0) = nan"),
        (_spiked_kernel(-800.0), "k(0, 2.0, 1.0) = 0.0"),
    ],
    ids=["zero-entry", "inf", "nan", "underflow"],
)
def test_h1_raises_in_model_and_epsilon_floor_alike(kernel, shown):
    support = [1.0, 2.0]
    ds = simulate(uniform(support), uniform_kernel(2), 12, 2, seed=3)
    message = f"^kernel value {re.escape(shown)} on the support grid; H1 needs every value positive and finite$"
    with pytest.raises(H1Violated, match=message):
        epsilon_floor(kernel, support)
    with pytest.raises(H1Violated, match=message):
        LayerChainModel(ds, kernel, support)


def test_per_layer_normalizers_sum_to_total():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 3, seed=6)
    total, constants = LayerChainModel(ds, k, pi.support).forward_constants(pi.probs)
    assert constants.size == ds.layers.q_max + 1
    assert total == pytest.approx(constants.sum(), rel=1e-14)


def test_conditional_uniform_kernel():
    k = uniform_kernel(2)
    pi = uniform([1.0, 3.0])
    ds = simulate(pi, k, 24, 2, seed=4)
    model = LayerChainModel(ds, k, pi.support)
    for q, m in [(2, 2), (3, 7), (2, ds.layers.q_max - 1)]:
        expected = len(ds.layers.block_edges(q)) * math.log(0.5)
        assert model.conditional_profiles(pi.probs, m)[0, q] == pytest.approx(expected, rel=1e-13)


def test_conditional_matches_enumeration():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 2, seed=5)
    model = LayerChainModel(ds, k, pi.support)
    for q, m in [(2, 2), (2, 3), (3, 4)]:
        direct = enumerate_window_logprob(ds, pi, k, q, m) - enumerate_window_logprob(
            ds, pi, k, q + 1, m
        )
        assert model.conditional_profiles(pi.probs, m)[0, q] == pytest.approx(direct, abs=1e-11)


def test_conditional_window_validation():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 2, seed=5)
    top = ds.layers.q_max - 1
    model = LayerChainModel(ds, k, pi.support)
    with pytest.raises(LayerOutOfRange):
        model.backward_messages(pi.probs, 1, 3)
    with pytest.raises(LayerOutOfRange):
        model.backward_messages(pi.probs, 2, top + 1)
    with pytest.raises(LayerOutOfRange):
        model.backward_messages(pi.probs, 5, 4)
    with pytest.raises(LayerOutOfRange):
        model.conditional_profiles(pi.probs, top + 1)


def test_backward_messages_normalized():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 24, 3, seed=8)
    model = LayerChainModel(ds, k, pi.support)
    msgs = model.backward_messages(pi.probs, 2, ds.layers.q_max - 1)
    for log_msg in msgs.log_messages:
        assert abs(np.exp(log_msg).sum() - 1.0) < 1e-10
    assert msgs.log_normalizers[-1] == 0.0
    # normalizer differences are the conditional block log-probabilities
    cond = msgs.log_normalizers[0] - msgs.log_normalizers[1]
    assert cond == pytest.approx(
        model.conditional_profiles(pi.probs, ds.layers.q_max - 1)[0, 2], rel=1e-13
    )


def test_posterior_marginals_match_brute_force():
    for ds, pi, kernel in small_instances(6, rng_seed=11):
        model = LayerChainModel(ds, kernel, pi.support)
        exact, _ = model.posterior_pass(pi.probs)
        oracle = brute_force_node_marginals(ds, pi, kernel)
        assert np.max(np.abs(exact - oracle)) < 1e-10
        assert np.max(np.abs(np.exp(log_domain_node_marginals(model, pi.probs)) - oracle)) < 1e-10
        assert np.allclose(exact.sum(axis=1), 1.0, atol=1e-10)


def test_posterior_uniform_kernel_equals_prior():
    pi = DiscreteDistribution([1.0, 2.0], [0.3, 0.7])
    k = uniform_kernel(2)
    ds = simulate(pi, k, 20, 3, seed=2)
    marg, _ = LayerChainModel(ds, k, pi.support).posterior_pass(pi.probs)
    assert np.max(np.abs(marg - pi.probs[None, :])) < 1e-12


def test_posterior_point_mass_prior():
    pi = point_mass_on([1.0, 3.0], 1)
    k = bradley_terry()
    ds = simulate(pi, k, 16, 3, seed=3)
    marg, _ = LayerChainModel(ds, k, pi.support).posterior_pass(pi.probs)
    assert np.max(np.abs(marg - np.array([0.0, 1.0])[None, :])) < 1e-12


def test_block_matrices_respect_epsilon_floor():
    pi = DiscreteDistribution([1.0, 4.0], [0.5, 0.5])
    k = bradley_terry()
    ds = simulate(pi, k, 24, 3, seed=12)
    model = LayerChainModel(ds, k, pi.support)
    eps = epsilon_floor(k, pi.support).epsilon
    for q in range(model.num_blocks):
        logm = model._block_log_matrix(q)
        assert logm.min() >= model.block_sizes[q] * math.log(eps) - 1e-12


def test_block_matrix_matches_block_log_kernel():
    # dual route: the engine's block matrix entry at a joint state equals the
    # standalone block evaluation at the corresponding weights
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bt_ties(2.0)
    ds = simulate(pi, k, 20, 3, seed=14)
    model = LayerChainModel(ds, k, pi.support)
    q = 2
    layers = ds.layers
    nodes_q = list(layers.node_layers[q])
    nodes_q1 = list(layers.node_layers[q + 1])
    edges = list(layers.block_edges(q))
    xs = [ds.outcomes[e] for e in edges]
    logm = model._block_log_matrix(q)
    from lgmle.likelihood import _digits

    dq = _digits(pi.size, len(nodes_q))
    dq1 = _digits(pi.size, len(nodes_q1))
    rng = np.random.default_rng(0)
    for _ in range(5):
        si = int(rng.integers(0, logm.shape[0]))
        ti = int(rng.integers(0, logm.shape[1]))
        v_block = pi.support[dq[si]]
        w_block = pi.support[dq1[ti]]
        direct = block_log_kernel(k, edges, xs, nodes_q, nodes_q1, v_block, w_block)
        assert logm[si, ti] == pytest.approx(direct, rel=1e-12)


def test_posterior_invariant_under_support_relabeling():
    # permuting the support grid together with the kernel table permutes the
    # posterior columns and nothing else
    support = np.array([1.0, 2.0, 3.0])
    rng = np.random.default_rng(21)
    raw = rng.uniform(0.2, 0.8, size=(2, 3, 3))
    table = raw / raw.sum(axis=0, keepdims=True)
    k = custom_table((0, 1), support, table)
    pi = DiscreteDistribution(support, [0.2, 0.5, 0.3])
    ds = simulate(pi, k, 12, 2, seed=6)

    perm = np.array([2, 0, 1])  # new index -> old index, keeps grid increasing
    relabeled_support = np.array([0.5, 1.5, 2.5])
    k2 = custom_table((0, 1), relabeled_support, table[:, perm][:, :, perm])
    pi2 = DiscreteDistribution(relabeled_support, pi.probs[perm])
    ds2 = simulate(pi, k, 12, 2, seed=6)  # same outcomes, graph, seed
    ds2 = type(ds)(ds.graph, ds.layers, ds.outcomes, None, ds.seed)

    marg, _ = LayerChainModel(ds, k, pi.support).posterior_pass(pi.probs)
    marg2, _ = LayerChainModel(ds2, k2, pi2.support).posterior_pass(pi2.probs)
    assert np.max(np.abs(marg2 - marg[:, perm])) < 1e-12


def test_contraction_uniform_kernel_one_step():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = uniform_kernel(2)
    ds = simulate(pi, k, 24, 2, seed=7)
    prof = LayerChainModel(ds, k, pi.support).contraction_profile(pi.probs, 2, ds.layers.q_max - 1)
    assert prof.initial_tv == pytest.approx(2.0)
    assert prof.tv[0] < 1e-14  # backward kernel ignores its source state


def test_contraction_envelope():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 30, 2, seed=10)
    prof = LayerChainModel(ds, k, pi.support).contraction_profile(pi.probs, 2, ds.layers.q_max - 1)
    prev = prof.initial_tv
    for tv, factor, cumulative in zip(prof.tv, prof.step_factor, prof.cumulative_bound):
        assert tv <= factor * prev + 1e-12
        assert tv <= cumulative + 1e-12
        prev = tv


@pytest.mark.parametrize("engine", ["dense", "factored"])
@pytest.mark.parametrize("kernel", kernel_variants(), ids=lambda kernel: kernel.name)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_realized_kernels_match_dense_oracle(engine, kernel, n):
    rng = np.random.default_rng(n)
    pi = random_distribution(rng, 3 if n < 4 else 2)
    ds = simulate(pi, kernel, 8 * n + 6, n, seed=int(rng.integers(1, 2**31)))
    model = _model(ds, pi, kernel, engine)
    top = ds.layers.q_max - 1
    for q in (2, 3):
        kernels = model.backward_kernels(pi.probs, q, top)
        oracle = oracle_backward_kernels(model, pi.probs, q, top)
        assert len(kernels) == len(oracle) == top - q
        for got, want in zip(kernels, oracle):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13
        profile = model.contraction_profile(pi.probs, q, top)
        initial, *tvs = oracle_contraction_tvs(model, pi.probs, q, top)
        assert profile.initial_tv == initial
        assert profile.layer.tolist() == list(range(top - 1, q - 1, -1))
        np.testing.assert_allclose(profile.tv, tvs, rtol=0, atol=1e-13)
        # 1 - nu_k per step, and their running product from the initial TV, in step order
        factors = [1.0 - model.floor.nu(model.block_sizes[k]) for k in range(top - 1, q - 1, -1)]
        assert profile.step_factor.tolist() == factors
        cumulative = itertools.accumulate(factors, operator.mul, initial=initial)
        assert profile.cumulative_bound.tolist() == list(cumulative)[1:]


def _enumerated_kernel(ds, pi, kernel, q: int, k: int) -> np.ndarray:
    """R_k[w, a] = P(V_k = a | V_{k+1} = w, X_{q:k}) by enumeration: the sum
    over every weight assignment of layers q..k+1 of the layer priors times
    the kernels of blocks q..k."""
    layers = ds.layers
    nodes = [layers.node_layers[j] for j in range(q, k + 2)]
    joint = np.zeros((pi.size ** len(nodes[-1]), pi.size ** len(nodes[-2])))
    for assign in itertools.product(*[itertools.product(range(pi.size), repeat=len(ns)) for ns in nodes]):
        weight_of = {}
        prob = 1.0
        for layer_nodes, idxs in zip(nodes, assign):
            for node, ai in zip(layer_nodes, idxs):
                weight_of[node] = pi.support[ai]
                prob *= pi.probs[ai]
        for j in range(q, k + 1):
            for i, jj in layers.block_edges(j):
                prob *= kernel.prob(ds.outcomes[(i, jj)], weight_of[i], weight_of[jj])
        # block states: first node of a layer slowest
        w = np.ravel_multi_index(assign[-1], (pi.size,) * len(assign[-1]))
        a = np.ravel_multi_index(assign[-2], (pi.size,) * len(assign[-2]))
        joint[w, a] += prob
    return joint / joint.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("engine", ["dense", "factored"])
def test_realized_kernels_match_enumeration(engine):
    kernel = bt_ties(2.0)
    pi = DiscreteDistribution([0.5, 1.0, 3.0], [0.2, 0.5, 0.3])
    ds = simulate(pi, kernel, 12, 2, seed=5)
    model = _model(ds, pi, kernel, engine)
    top = ds.layers.q_max - 1
    assert top - 2 >= 2
    for q in range(2, top):
        for k, got in zip(range(q, top), model.backward_kernels(pi.probs, q, top)):
            np.testing.assert_allclose(got, _enumerated_kernel(ds, pi, kernel, q, k), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("engine", ["dense", "factored"])
def test_realized_kernels_raise_where_mass_is_lost(engine):
    # The chain of test_batched_forward_raises_where_one_row_loses_mass: under
    # the point mass on index 0 a block with two rare outcomes has no mass.
    support = [1.0, 2.0]
    table = np.full((2, 2, 2), 0.5)
    table[:, 0, 0] = [1.0 - 1e-200, 1e-200]
    kernel = custom_table((0, 1), support, table)
    fair = custom_table((0, 1), support, np.full((2, 2, 2), 0.5))
    pi = uniform(support)
    ds = simulate(pi, fair, 40, 2, seed=4)
    model = _model(ds, pi, kernel, engine)
    top = model.layers.q_max - 1
    lost = [q for q in range(2, top) if sum(ds.outcomes[e] == 1 for e in ds.layers.block_edges(q)) >= 2]
    assert len(lost) >= 2
    point = [1.0, 0.0]
    # The dense loop said "conditional" for the same block; the realized
    # kernels use the forward sweep's word.
    with pytest.raises(H1Violated, match=f"^zero conditional mass at block {lost[0]}$"):
        oracle_backward_kernels(model, point, 2, top)
    for method in (model.backward_kernels, model.contraction_profile):
        with pytest.raises(H1Violated, match=f"^zero likelihood mass at block {lost[0]}$"):
            method(point, 2, top)
        # the last block of the window is checked through d_k alone
        with pytest.raises(H1Violated, match=f"^zero likelihood mass at block {lost[1]}$"):
            method(point, lost[1], lost[1] + 1)
        method([0.5, 0.5], 2, top)  # these weights keep their mass
        # NaN weights: d_k is NaN, which the dense loop's denom <= 0 let through
        with pytest.raises(H1Violated, match="^zero likelihood mass at block 2$"):
            method([np.nan, 1.0], 2, 3)


@pytest.mark.parametrize("engine", ["dense", "factored"])
@pytest.mark.parametrize("N, n", [(14, 3), (18, 4)])
def test_wide_layers_match_enumeration(engine, N, n):
    # s=3 exceeds the enumeration cap at these N (3**14 > 1e6), so only s=2 runs
    rng = np.random.default_rng(N)
    for s in (2, 3):
        if s**N > likelihood._BRUTE_FORCE_CAP:
            continue
        for kernel in kernel_variants():
            pi = random_distribution(rng, s)
            ds = simulate(pi, kernel, N, n, seed=int(rng.integers(1, 2**31)))
            model = _model(ds, pi, kernel, engine)
            bf = brute_force_log_likelihood(ds, pi, kernel)
            assert abs(model.log_likelihood(pi.probs) - bf) <= 1e-10 * abs(bf)
            oracle = brute_force_node_marginals(ds, pi, kernel)
            assert np.max(np.abs(model.posterior_pass(pi.probs)[0] - oracle)) < 1e-10
            q = m = 2
            direct = enumerate_window_logprob(ds, pi, kernel, q, m) - enumerate_window_logprob(
                ds, pi, kernel, q + 1, m
            )
            assert model.conditional_profiles(pi.probs, m)[0, q] == pytest.approx(direct, abs=1e-11)


@given(
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    extra=st.integers(0, 3),
    kernel_index=st.integers(0, 3),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_factored_engine_matches_dense(n, s, extra, kernel_index, seed):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 2 + 2 * extra, n, seed=seed)
    dense = _model(ds, pi, kernel, "dense")
    factored = _model(ds, pi, kernel, "factored")

    total_d, const_d = dense.forward_constants(pi.probs)
    total_f, const_f = factored.forward_constants(pi.probs)
    np.testing.assert_allclose(const_f, const_d, rtol=1e-12)
    assert total_f == pytest.approx(total_d, rel=1e-12)

    marg_d, ll_d = dense.posterior_pass(pi.probs)
    marg_f, ll_f = factored.posterior_pass(pi.probs)
    assert np.max(np.abs(marg_f - marg_d)) <= 1e-12
    assert ll_f == pytest.approx(ll_d, rel=1e-12)

    top = ds.layers.q_max - 1
    if top < 2:
        return
    msgs_d = dense.backward_messages(pi.probs, 2, top)
    msgs_f = factored.backward_messages(pi.probs, 2, top)
    for a, b in zip(msgs_d.log_messages, msgs_f.log_messages):
        assert np.max(np.abs(np.exp(a) - np.exp(b))) <= 1e-12
    np.testing.assert_allclose(
        msgs_f.log_normalizers, msgs_d.log_normalizers, rtol=1e-12, atol=1e-12
    )
    for a, b in zip(
        dense.backward_kernels(pi.probs, 2, top), factored.backward_kernels(pi.probs, 2, top)
    ):
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("engine", ["dense", "factored"])
def test_model_logs_engine_at_debug(engine, caplog):
    pi = uniform([1.0, 2.0, 4.0])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 3, seed=1)
    with caplog.at_level(logging.DEBUG, logger="lgmle"):
        model = _model(ds, pi, k, engine)
    # a factored chain also names its compiled plans (push and pull of 4
    # positional plans) and the most index combinations one step loops over
    plans = {"dense": "", "factored": f" plans=8 max_step={3**5}"}[engine]
    assert [r.getMessage() for r in caplog.records] == [
        f"layer chain model: engine={engine} blocks={model.num_blocks} replicates=1 "
        f"distinct=5 max_state={3**4}{plans} segment=1"
    ]


@pytest.mark.parametrize("engine", ["dense", "factored"])
@pytest.mark.parametrize("N, n", [(20, 2), (22, 3)])
def test_layer_priors_match_per_layer_prior(engine, N, n):
    pi = DiscreteDistribution([1.0, 2.0, 4.0], [0.2, 0.5, 0.3])
    k = bradley_terry()
    model = _model(simulate(pi, k, N, n, seed=3), pi, k, engine)
    priors = model._priors(pi.probs)
    assert len(priors) == len(model.widths)
    for q, prior in enumerate(priors):
        assert np.array_equal(prior, model._prior(pi.probs, q))
    # one array per distinct width; at width 1 the weights themselves
    assert len({id(p) for p in priors}) == len(set(model.widths))
    assert priors[0] is pi.probs


def _oracle_block_ops(model, q):
    """Block q's (outcome, gather key) per cross edge and (outcome, position,
    position) per within edge, as the per-block builders described it."""
    layers, ds, kernel = model.layers, model.dataset, model.kernel
    layer_of = {v: k for k, layer in enumerate(layers.node_layers) for v in layer}
    pos_of = {v: p for layer in layers.node_layers for p, v in enumerate(layer)}
    wq, wq1 = model.widths[q], model.widths[q + 1]
    cross = [
        (
            kernel.outcome_index(ds.outcomes[(i, j)]),
            (model.s, wq, wq1, pos_of[i], pos_of[j], layer_of[i] == q),
        )
        for i, j in layers.cross_edges[q]
    ]
    within = [
        (kernel.outcome_index(ds.outcomes[(i, j)]), pos_of[i], pos_of[j])
        for i, j in layers.within_edges[q + 1]
    ]
    return cross, within


def _oracle_flat_index(s, wq, wq1, pos_lo, pos_hi, lo_in_q):
    """Flat gather indices into an (s, s) table for one cross edge."""
    dq = likelihood._digits(s, wq)
    dq1 = likelihood._digits(s, wq1)
    if lo_in_q:
        flat = dq[:, pos_lo][:, None] * s + dq1[None, :, pos_hi]
    else:
        flat = dq1[None, :, pos_lo] * s + dq[:, pos_hi][:, None]
    return np.ascontiguousarray(flat, dtype=np.int32)


def _oracle_block_log_matrix(model, q):
    """The per-block gather build of log M_q that block types replaced."""
    s = model.s
    cross, within = _oracle_block_ops(model, q)
    shape = (s ** model.widths[q], s ** model.widths[q + 1])
    log_m = np.zeros(shape)
    for xi, key in cross:
        log_m += model.log_table[xi].ravel()[_oracle_flat_index(*key)]
    if within:
        dq1 = likelihood._digits(s, model.widths[q + 1])
        vec = np.zeros(shape[1])
        for xi, pa, pb in within:
            vec += model.log_table[xi][dq1[:, pa], dq1[:, pb]]
        log_m += vec[None, :]
    return log_m


def _oracle_build_block(model, q):
    log_m = _oracle_block_log_matrix(model, q)
    shift = float(log_m.max())
    return np.exp(log_m - shift), shift


def _oracle_block_factors(model, q):
    """Block q's einsum subscripts and log tables, sorted by subscripts."""
    wq = model.widths[q]
    lower = likelihood._SUBSCRIPTS[1 : 1 + wq]
    upper = likelihood._SUBSCRIPTS[1 + wq : 1 + wq + model.widths[q + 1]]
    cross, within = _oracle_block_ops(model, q)
    factors = {}
    for xi, (_, _, _, pos_lo, pos_hi, lo_in_q) in cross:
        sub = lower[pos_lo] + upper[pos_hi] if lo_in_q else upper[pos_lo] + lower[pos_hi]
        factors[sub] = model.log_table[xi]
    for xi, pa, pb in within:
        factors[upper[pa] + upper[pb]] = model.log_table[xi]
    for c in lower:
        if not any(c in sub for sub in factors):
            factors[c] = np.zeros(model.s)
    subs = tuple(sorted(factors))
    return subs, [factors[sub] for sub in subs]


def _oracle_compile_factored(model):
    """The per-block factored build that block types replaced: per block,
    (push plan, its operands, pull plan, its operands), and the shifts."""
    plans = {}
    blocks, shifts = [], []
    for q in range(model.num_blocks):
        subs, tables = _oracle_block_factors(model, q)
        wq, wq1 = model.widths[q], model.widths[q + 1]
        key = (wq, wq1, subs)
        if key not in plans:
            lower = likelihood._SUBSCRIPTS[: 1 + wq]
            upper = likelihood._SUBSCRIPTS[0] + likelihood._SUBSCRIPTS[1 + wq : 1 + wq + wq1]
            plans[key] = (
                likelihood._compile_plan(model.s, lower, upper, subs),
                likelihood._compile_plan(model.s, upper, lower, subs),
            )
        push, pull = plans[key]
        maxima = [float(t.max()) for t in tables]
        factors = [np.exp(t - m) for t, m in zip(tables, maxima)]
        blocks.append((push, push.prepare(factors), pull, pull.prepare(factors)))
        shifts.append(sum(maxima))
    return blocks, shifts


def _assert_blocks_match_oracle(model):
    if model.engine == "dense":
        assert len(model._mats) == model.num_blocks
        for q in range(model.num_blocks):
            mat, shift = _oracle_build_block(model, q)
            assert np.array_equal(model._block_log_matrix(q), _oracle_block_log_matrix(model, q))
            assert np.array_equal(model._mats[q], mat)
            assert model._shifts[q] == shift
        return
    blocks, shifts = _oracle_compile_factored(model)
    assert len(model._mats) == len(model._pulls) == len(blocks)
    for push, pull, oracle in zip(model._mats, model._pulls, blocks):
        assert (push.plan, pull.plan) == (oracle[0], oracle[2])
        for ops, oracle_ops in ((push.operands, oracle[1]), (pull.operands, oracle[3])):
            assert len(ops) == len(oracle_ops)
            assert all(np.array_equal(a, b) for a, b in zip(ops, oracle_ops))
    assert np.array_equal(model._shifts, np.array(shifts))


@given(
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    extra=st.integers(0, 6),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
# n=5 with three outcomes: blocks of up to 20 edges
@example(n=5, s=2, extra=6, kernel_index=2, engine="dense", seed=5)
@example(n=5, s=2, extra=6, kernel_index=2, engine="factored", seed=5)
@settings(max_examples=30, deadline=None)
def test_block_types_match_per_block_builders_exactly(n, s, extra, kernel_index, engine, seed):
    # three replicates and a one-edge flip of the first, all on one structure
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    datasets = _simulate_replicates(pi, kernel, 4 * n + 2 + 2 * extra, n, [seed, seed + 1, seed + 2])
    budget = {"dense": 10**12, "factored": 0}[engine]
    with mock.patch.object(likelihood, "_BLOCK_CACHE_BUDGET", budget):
        structure = likelihood._ChainStructure(datasets[0].layers, kernel, pi.support)
    assert structure.engine == engine
    models = [LayerChainModel(ds, kernel, pi.support, structure) for ds in datasets]
    ds, layers = datasets[0], datasets[0].layers
    q = int(rng.integers(layers.q_max + 1))
    e = int(rng.integers(len(layers.block_edges(q))))
    edge = layers.block_edges(q)[e]
    size = len(kernel.outcomes)
    outcome = (kernel.outcome_index(ds.outcomes[edge]) + int(rng.integers(1, size))) % size
    flipped = models[0]._flipped(q, e, outcome)
    # the oracle reads the flipped outcomes from the model's dataset
    flipped.dataset = dataclasses.replace(ds, outcomes={**ds.outcomes, edge: kernel.outcomes[outcome]})
    for model in models + [flipped]:
        _assert_blocks_match_oracle(model)


# Blocks whose dense oracle matrix would exceed this many entries are left to
# the step bound alone (the middle blocks at n=5 with s >= 3 and at n=4, s=4).
_ORACLE_BLOCK_ENTRIES = 2**20


@given(
    n=st.integers(2, 5),
    s=st.integers(2, 4),
    extra=st.integers(0, 3),
    kernel_index=st.integers(0, 3),
    seed=st.integers(1, 2**31 - 1),
)
# N=18, n=4 ends in a (6, 1) block: two of its layer-q nodes get the unit factor
@example(n=4, s=3, extra=0, kernel_index=2, seed=3)
@example(n=5, s=2, extra=3, kernel_index=2, seed=5)
@settings(max_examples=40, deadline=None)
def test_factored_blocks_equal_dense_oracle_and_bound_each_step(n, s, extra, kernel_index, seed):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 2 + 2 * extra, n, seed=seed)
    model = _model(ds, pi, kernel, "factored")
    for q in range(model.num_blocks):
        wq, wq1 = model.widths[q], model.widths[q + 1]
        push, pull = model._mats[q], model._pulls[q]
        # no step loops over more than one state tensor times s
        for plan in (push.plan, pull.plan):
            assert s ** plan.loop_axes() <= s ** (max(wq, wq1) + 1)
        if s ** (wq + wq1) > _ORACLE_BLOCK_ENTRIES:
            continue
        mat, shift = _oracle_build_block(model, q)
        scale = math.exp(model._shifts[q] - shift)
        x = rng.uniform(0.1, 1.0, size=(3, s**wq))
        y = rng.uniform(0.1, 1.0, size=(3, s**wq1))
        np.testing.assert_allclose((x @ push) * scale, x @ mat, rtol=1e-12, atol=0)
        np.testing.assert_allclose((y @ pull) * scale, y @ mat.T, rtol=1e-12, atol=0)


def test_factored_build_runs_no_einsum_path(monkeypatch):
    # N=300, n=4, s=3 (perfbench's wide_layers loglik): no plan may search for a path
    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum_path called")

    monkeypatch.setattr(np, "einsum_path", refuse)
    monkeypatch.setattr(sys.modules[np.einsum.__module__], "einsum_path", refuse)
    pi = DiscreteDistribution([1.0, 2.0, 4.0], [0.2, 0.5, 0.3])
    k = bradley_terry()
    model = LayerChainModel(simulate(pi, k, 300, 4, seed=7), k, pi.support)
    assert model.engine == "factored"
    assert np.isfinite(model.log_likelihood(pi.probs))


@pytest.mark.parametrize("bad", [7, [1], float("nan")], ids=["int", "unhashable", "nan"])
def test_outcome_outside_the_space_raises_naming_the_first_in_block_order(bad):
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 2, seed=1)
    first, later = ds.layers.block_edges(3)[0], ds.layers.block_edges(5)[1]
    outcomes = {**ds.outcomes, later: "x", first: bad}
    with pytest.raises(OutcomeNotInSpace) as info:
        LayerChainModel(dataclasses.replace(ds, outcomes=outcomes), k, pi.support)
    assert str(info.value) == f"outcome {bad!r} not in outcome space (0, 1)"


def test_dense_chain_shares_matrices_across_repeated_blocks():
    # the periodic schedule repeats block types: a 200-block n=2 chain used
    # to store one matrix per block
    pi = uniform([1.0, 2.0, 4.0])
    k = bt_ties(2.0)
    model = _model(simulate(pi, k, 400, 2, seed=5), pi, k, "dense")
    assert model.num_blocks == 200
    assert len({id(mat) for mat in model._mats}) < 20


def _oracle_forward_constants(model, probs):
    """The per-block forward sweep that ``LayerChainModel._forward`` replaced."""
    priors = model._priors(np.asarray(probs, dtype=float))
    w = priors[0]
    constants = np.empty(model.num_blocks)
    total = 0.0
    for q in range(model.num_blocks):
        w = (w @ model._mats[q]) * priors[q + 1]
        c = float(w.sum())
        if c <= 0.0:
            raise H1Violated(f"zero likelihood mass at block {q}")
        w /= c
        constants[q] = np.log(c) + model._shifts[q]
        total += constants[q]
    return total, constants


def _oracle_betas(model, priors):
    """beta' = p * beta of every layer, pulled down from the top layer's prior
    one vector and one block at a time, each scaled by its sum."""
    betas = [priors[-1]]
    for q in range(model.num_blocks - 1, -1, -1):
        beta = (betas[0] @ model._pulls[q]) * priors[q]
        betas.insert(0, beta / beta.sum())
    return betas


def _oracle_posterior_pass(model, probs):
    """The per-block, per-node posterior sweep that ``posterior_pass`` replaced,
    on one vector: the betas' of ``_oracle_betas``, and gamma = alpha * beta' / p."""
    priors = model._priors(np.asarray(probs, dtype=float))
    alphas = []
    w = priors[0]
    alphas.append(w)
    loglik = 0.0
    for q in range(model.num_blocks):
        w = (w @ model._mats[q]) * priors[q + 1]
        c = float(w.sum())
        if c <= 0.0:
            raise H1Violated(f"zero likelihood mass at block {q}")
        w = w / c
        alphas.append(w)
        loglik += np.log(c) + model._shifts[q]
    out = np.empty((model.dataset.graph.N, model.s))
    for q, beta in enumerate(_oracle_betas(model, priors)):
        inverse = np.divide(1.0, priors[q], out=np.zeros_like(priors[q]), where=priors[q] > 0.0)
        gamma = alphas[q] * beta * inverse
        gamma /= gamma.sum()
        digits = likelihood._digits(model.s, model.widths[q])
        for pos, node in enumerate(model.layers.node_layers[q]):
            out[node - 1] = np.bincount(digits[:, pos], weights=gamma, minlength=model.s)
    return out, loglik


@given(
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    extra=st.integers(0, 6),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    floored=st.integers(0, 2),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_sweeps_match_per_block_oracle_exactly(n, s, extra, kernel_index, engine, floored, seed):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 2 + 2 * extra, n, seed=seed)
    model = _model(ds, pi, kernel, engine)
    probs = rng.dirichlet(np.ones(s))
    probs[: min(floored, s - 1)] = WEIGHT_FLOOR
    probs /= probs.sum()

    total, constants = model.forward_constants(probs)
    total_o, constants_o = _oracle_forward_constants(model, probs)
    assert np.array_equal(constants, constants_o)
    assert total == total_o

    marginals, loglik = model.posterior_pass(probs)
    marginals_o, loglik_o = _oracle_posterior_pass(model, probs)
    assert np.array_equal(marginals, marginals_o)
    assert loglik == loglik_o == total


@given(
    K=st.integers(1, 6),
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    extra=st.integers(0, 6),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_batched_forward_matches_per_row_oracle_exactly(K, n, s, extra, kernel_index, engine, seed):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 2 + 2 * extra, n, seed=seed)
    model = _model(ds, pi, kernel, engine)
    rows = rng.dirichlet(np.ones(s), size=K)
    for row, floored in zip(rows, rng.integers(0, s, size=K)):
        row[:floored] = WEIGHT_FLOOR
    rows /= rows.sum(axis=1, keepdims=True)

    totals, constants = model.forward_constants(rows)
    assert totals.shape == (K,)
    assert constants.shape == (K, model.num_blocks)
    for k in range(K):
        total_o, constants_o = _oracle_forward_constants(model, rows[k])
        assert totals[k] == total_o
        assert np.array_equal(constants[k], constants_o)
    assert np.array_equal(model.log_likelihood(rows), totals)

    total, row_constants = model.forward_constants(rows[0])
    assert np.ndim(total) == 0
    assert total == totals[0]
    assert np.array_equal(row_constants, constants[0])


def _oracle_outcome(model, probs):
    """The per-row oracle's (total, constants), or the message it raises."""
    try:
        return _oracle_forward_constants(model, probs)
    except H1Violated as exc:
        return str(exc)


def _assert_batch_matches_oracle_outcomes(model, rows):
    """The batched sweep raises at the first block where any row's oracle
    raises, and otherwise returns each row's oracle values."""
    outcomes = [_oracle_outcome(model, row) for row in rows]
    raised = [o for o in outcomes if isinstance(o, str)]
    if raised:
        first = min(raised, key=lambda message: int(message.rsplit(" ", 1)[1]))
        with pytest.raises(H1Violated, match=f"^{first}$"):
            model.forward_constants(rows)
        return first
    totals, constants = model.forward_constants(rows)
    assert np.all(np.isfinite(totals)) and np.all(np.isfinite(constants))
    for (total_o, constants_o), total, row_constants in zip(outcomes, totals, constants):
        assert total == total_o
        assert np.array_equal(row_constants, constants_o)
    return None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("engine", ["dense", "factored"])
def test_batched_forward_raises_where_one_row_loses_mass(engine):
    # Outcome 1 between two nodes at support index 0 has probability 1e-200,
    # so a block with two such outcomes has no mass under the point mass on
    # index 0 (1e-400 underflows); the other rows keep theirs.
    support = [1.0, 2.0]
    table = np.full((2, 2, 2), 0.5)
    table[:, 0, 0] = [1.0 - 1e-200, 1e-200]
    kernel = custom_table((0, 1), support, table)
    fair = custom_table((0, 1), support, np.full((2, 2, 2), 0.5))
    pi = uniform(support)
    ds = simulate(pi, fair, 40, 2, seed=4)
    model = _model(ds, pi, kernel, engine)
    first = next(
        q
        for q in range(model.num_blocks)
        if sum(ds.outcomes[e] == 1 for e in ds.layers.block_edges(q)) >= 2
    )
    assert first > 0
    rows = np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.7]])
    assert _assert_batch_matches_oracle_outcomes(model, rows) == (
        f"zero likelihood mass at block {first}"
    )
    with pytest.raises(H1Violated, match=f"^zero likelihood mass at block {first}$"):
        model.log_likelihood(rows[1])
    assert np.all(np.isfinite(model.log_likelihood(rows[[0, 2]])))
    assert _assert_posterior_batch_matches_rows(model, rows) == (
        f"zero likelihood mass at block {first}"
    )
    assert _assert_posterior_batch_matches_rows(model, rows[[0, 2]]) is None


@pytest.mark.filterwarnings("error")
@given(
    K=st.integers(2, 5),
    n=st.integers(2, 3),
    s=st.integers(2, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_batched_forward_with_extreme_tables_matches_per_row_oracle(K, n, s, engine, seed):
    rng = np.random.default_rng(seed)
    model = _extreme_model(n, s, engine, seed, rng)
    rows = rng.dirichlet(np.ones(s), size=K)
    rows[rng.integers(K)] = np.eye(s)[rng.integers(s)]  # zero prior off one index
    _assert_batch_matches_oracle_outcomes(model, rows)


def _extreme_draw(n, s, engine, floored, seed):
    """An ``_extreme_model`` and simplex weights with ``floored`` floored entries."""
    rng = np.random.default_rng(seed)
    model = _extreme_model(n, s, engine, seed, rng)
    probs = rng.dirichlet(np.ones(s))
    probs[: min(floored, s - 1)] = WEIGHT_FLOOR
    probs /= probs.sum()
    return model, probs


def _extreme_posterior(n, s, engine, floored, seed):
    """posterior_pass of an ``_extreme_draw``."""
    model, probs = _extreme_draw(n, s, engine, floored, seed)
    return model.posterior_pass(probs)


@given(
    n=st.integers(2, 3),
    s=st.integers(2, 3),
    engine=st.sampled_from(["dense", "factored"]),
    floored=st.integers(0, 2),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_posterior_pass_with_extreme_tables_is_finite_or_raises(n, s, engine, floored, seed):
    try:
        marginals, loglik = _extreme_posterior(n, s, engine, floored, seed)
    except H1Violated:
        return
    assert np.isfinite(loglik)
    assert np.all(np.isfinite(marginals))
    assert np.max(np.abs(marginals.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "s, seed, where", [(2, 13, "block 2"), (3, 99, "layer 3")]
)
def test_backward_underflow_raises_not_nan(s, seed, where):
    # These draws underflow the backward mass to zero although the forward
    # sweep keeps positive mass; the marginals used to come back NaN.
    with pytest.raises(H1Violated, match=f"zero posterior mass at {where}$"):
        _extreme_posterior(3, s, "dense", 1, seed)
    # Yet the posterior exists: in log space every node marginal is positive.
    assert np.isfinite(log_domain_node_marginals(*_extreme_draw(3, s, "dense", 1, seed))).all()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the pull loses mass without raising and the marginals are 1.0 off (ROADMAP item 6)",
)
def test_posterior_pass_on_an_extreme_chain_raises_or_matches_enumeration():
    # N=14, n=3, s=2, at uniform weights
    model = _extreme_model(3, 2, "dense", 7, np.random.default_rng(7))
    pi = uniform(model.support)
    try:
        marginals, _ = model.posterior_pass(pi.probs)
    except H1Violated:
        return
    oracle = brute_force_node_marginals(model.dataset, pi, model.kernel)
    assert np.max(np.abs(marginals - oracle)) <= 1e-9


def _posterior_outcome(model, probs):
    """A one-row posterior sweep's (marginals, log-likelihood), or the message it raises."""
    try:
        return model.posterior_pass(probs)
    except H1Violated as exc:
        return str(exc)


def _assert_posterior_batch_matches_rows(model, rows):
    """The batched posterior sweep returns every row's own sweep, bit for bit,
    or raises with the message of a failing row's own sweep: the lowest
    forward block, else the highest backward block, else a layer."""
    outcomes = [_posterior_outcome(model, row) for row in rows]
    raised = [o for o in outcomes if isinstance(o, str)]
    if raised:
        with pytest.raises(H1Violated) as info:
            model.posterior_pass(rows)
        message = str(info.value)
        assert message in raised
        forward = [m for m in raised if m.startswith("zero likelihood mass at block")]
        backward = [m for m in raised if m.startswith("zero posterior mass at block")]
        if forward:
            assert message == min(forward, key=lambda m: int(m.rsplit(" ", 1)[1]))
        elif backward:
            assert message == max(backward, key=lambda m: int(m.rsplit(" ", 1)[1]))
        return message
    marginals, logliks = model.posterior_pass(rows)
    assert marginals.shape == (len(rows), model.dataset.graph.N, model.s)
    assert logliks.shape == (len(rows),)
    assert np.all(np.isfinite(marginals)) and np.all(np.isfinite(logliks))
    for (marginals_r, loglik_r), row_marginals, loglik in zip(outcomes, marginals, logliks):
        assert np.array_equal(row_marginals, marginals_r)
        assert loglik == loglik_r
    assert np.array_equal(logliks, model.log_likelihood(rows))
    return None


@given(
    R=st.integers(1, 4),
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    extra=st.integers(0, 4),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_batched_posterior_matches_per_row_sweeps_exactly(R, n, s, extra, kernel_index, engine, seed):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 2 + 2 * extra, n, seed=seed)
    model = _model(ds, pi, kernel, engine)
    rows = rng.dirichlet(np.ones(s), size=R)
    for row, floored in zip(rows, rng.integers(0, s, size=R)):
        row[:floored] = WEIGHT_FLOOR
    rows /= rows.sum(axis=1, keepdims=True)
    assert _assert_posterior_batch_matches_rows(model, rows) is None


@pytest.mark.parametrize("engine, n, s", [("dense", 3, 6), ("factored", 3, 7)])
def test_batched_posterior_matches_per_row_sweeps_above_243_states(engine, n, s):
    # s**(2(n-1)) interior states: 1296 and 2401
    rng = np.random.default_rng(s)
    kernel = bt_ties(2.0)
    pi = random_distribution(rng, s)
    model = _model(simulate(pi, kernel, 4 * n + 8, n, seed=s), pi, kernel, engine)
    assert s ** max(model.widths) > 243
    assert _assert_posterior_batch_matches_rows(model, rng.dirichlet(np.ones(s), size=3)) is None


@pytest.mark.filterwarnings("error")
@given(
    R=st.integers(2, 5),
    n=st.integers(2, 3),
    s=st.integers(2, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_batched_posterior_with_extreme_tables_is_finite_or_raises(R, n, s, engine, seed):
    rng = np.random.default_rng(seed)
    model = _extreme_model(n, s, engine, seed, rng)
    rows = rng.dirichlet(np.ones(s), size=R)
    for row, floored in zip(rows, rng.integers(0, s, size=R)):
        row[:floored] = WEIGHT_FLOOR
    rows[rng.integers(R)] = np.eye(s)[rng.integers(s)]  # zero prior off one index
    rows /= rows.sum(axis=1, keepdims=True)
    _assert_posterior_batch_matches_rows(model, rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s, seed, where", [(2, 13, "block 2"), (3, 99, "layer 3")])
def test_batched_posterior_raises_where_one_row_underflows(s, seed, where):
    # The one-row draws of test_backward_underflow_raises_not_nan, with other rows around them.
    rng = np.random.default_rng(seed)
    model = _extreme_model(3, s, "dense", seed, rng)
    probs = rng.dirichlet(np.ones(s))
    probs[:1] = WEIGHT_FLOOR
    probs /= probs.sum()
    rows = np.array([np.full(s, 1.0 / s), probs, np.full(s, 1.0 / s)])
    assert _assert_posterior_batch_matches_rows(model, rows) == f"zero posterior mass at {where}"
    assert np.isfinite(log_domain_node_marginals(model, probs)).all()


def test_backward_messages_log_no_zero_weight_warning():
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    model = LayerChainModel(simulate(pi, k, 20, 2, seed=1), k, pi.support)
    point = np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        msgs = model.backward_messages(point, 2, 3)
    # The first message is the log prior of layer m + 1 = 4.
    prior = model._prior(point, 4)
    first = msgs.log_messages[-1]
    assert np.array_equal(np.isneginf(first), prior == 0.0)
    assert np.array_equal(first[prior > 0.0], np.log(prior[prior > 0.0]))


def _assert_conditional_sweep_matches_oracle(model, rng, K):
    """The pull of K (K, 1, S) rows and the conditional sweep against one-vector
    pulls and the single-vector sweep of ``conftest.oracle_backward_messages``."""
    for q in range(model.num_blocks):
        rows = rng.random((K, 1, model.s ** model.widths[q + 1]))
        pulled = rows @ model._pulls[q]
        for r in range(K):
            assert np.array_equal(pulled[r, 0], rows[r, 0] @ model._pulls[q])
            if model.engine == "dense":
                assert np.array_equal(pulled[r, 0], model._mats[q] @ rows[r, 0])
    top = model.layers.q_max - 1
    if top < 2:
        return
    probs = rng.dirichlet(np.ones(model.s), size=K)
    probs[rng.integers(K), : rng.integers(model.s)] = WEIGHT_FLOOR
    probs /= probs.sum(axis=1, keepdims=True)

    def oracle_row(row, m):
        out = np.full(model.layers.q_max, np.nan)
        out[2 : m + 1] = list(oracle_conditional_profile(model, row, m).values())
        return out

    # every horizon, in order and shuffled with repeats, on one simplex
    ordered = list(range(2, top + 1))
    shuffled = list(rng.permutation(ordered + ordered[-1:] + ordered[:1]))
    for horizons in (ordered, shuffled):
        profiles = model.conditional_profiles(probs[0], horizons)
        expected = np.array([oracle_row(probs[0], m) for m in horizons])
        assert np.array_equal(profiles, expected, equal_nan=True)
    # every arm, at one horizon and at one horizon each
    arm_horizons = rng.integers(2, top + 1, size=K)
    for horizons in (top, arm_horizons):
        profiles = model.conditional_profiles(probs, horizons)
        expected = [oracle_row(row, m) for row, m in zip(probs, np.broadcast_to(horizons, K))]
        assert np.array_equal(profiles, np.array(expected), equal_nan=True)
    q = int(rng.integers(2, top + 1))
    m = int(rng.integers(q, top + 1))
    msgs = model.backward_messages(probs[-1], q, m)
    messages, normalizers = oracle_backward_messages(model, probs[-1], q, m)
    assert len(msgs.log_messages) == len(messages) == m - q + 2
    assert all(np.array_equal(a, b) for a, b in zip(msgs.log_messages, messages))
    assert msgs.log_normalizers == tuple(normalizers)


@given(
    K=st.integers(1, 4),
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    extra=st.integers(0, 4),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_conditional_sweep_matches_single_vector_oracle_exactly(
    K, n, s, extra, kernel_index, engine, seed
):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 2 + 2 * extra, n, seed=seed)
    _assert_conditional_sweep_matches_oracle(_model(ds, pi, kernel, engine), rng, K)


@pytest.mark.parametrize("engine, n, s", [("dense", 3, 6), ("factored", 3, 7), ("factored", 4, 4)])
def test_conditional_sweep_matches_oracle_above_243_states(engine, n, s):
    # s**(2(n-1)) interior states: 1296, 2401 and 4096
    rng = np.random.default_rng(s)
    kernel = bt_ties(2.0)
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 8, n, seed=s)
    model = _model(ds, pi, kernel, engine)
    assert max(model.widths) == 2 * (n - 1) and model.layers.q_max == 4
    _assert_conditional_sweep_matches_oracle(model, rng, 3)


def test_conditional_profiles_without_interior_window_are_empty():
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    # N=12, n=4 on the relaxed schedule has q_max = 2: no interior window
    model = LayerChainModel(simulate(pi, k, 12, 4, seed=3, strict=False), k, pi.support)
    assert model.layers.q_max == 2
    assert model.conditional_profiles(pi.probs, []).shape == (0, model.layers.q_max)
    with pytest.raises(LayerOutOfRange):
        model.conditional_profiles(pi.probs, [model.layers.q_max - 1])


def test_conditional_sweep_raises_at_highest_block_without_mass():
    # Outcome 1 between two nodes at support index 0 has probability 1e-200;
    # a block holding two of them has no conditional mass under the point
    # mass on index 0.  The batch names the highest such block in the window.
    support = [1.0, 2.0]
    table = np.full((2, 2, 2), 0.5)
    table[:, 0, 0] = [1.0 - 1e-200, 1e-200]
    kernel = custom_table((0, 1), support, table)
    fair = custom_table((0, 1), support, np.full((2, 2, 2), 0.5))
    pi = uniform(support)
    ds = simulate(pi, fair, 40, 2, seed=4)
    model = LayerChainModel(ds, kernel, support)
    top = model.layers.q_max - 1
    lost = [
        q
        for q in range(2, top + 1)
        if sum(ds.outcomes[e] == 1 for e in ds.layers.block_edges(q)) >= 2
    ]
    assert lost
    point = [1.0, 0.0]
    for m in range(2, top + 1):
        failing = [q for q in lost if q <= m]
        if failing:
            with pytest.raises(H1Violated, match=f"^zero conditional mass at block {failing[-1]}$"):
                with np.errstate(divide="ignore"):
                    oracle_backward_messages(model, point, 2, m)
    with pytest.raises(H1Violated, match=f"^zero conditional mass at block {lost[-1]}$"):
        model.conditional_profiles(point, range(2, top + 1))
    with pytest.raises(H1Violated, match=f"^zero conditional mass at block {lost[-1]}$"):
        model.conditional_profiles([[0.5, 0.5], point], top)
    assert np.isfinite(model.conditional_profiles([0.5, 0.5], top)[0, 2:]).all()


# -- lockstep models of several datasets -----------------------------------------


def _layer_mean(m):
    """The z-process score: the layer mean of every row's conditional profile."""

    def score(model, rows):
        return np.mean(model.conditional_profiles(rows, m)[..., 2:], axis=-1)

    return score


@given(
    R=st.sampled_from([1, 2, 5]),
    K=st.sampled_from([1, 3]),
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    extra=st.integers(0, 4),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_lockstep_scores_equal_one_model_per_dataset(R, K, n, s, extra, kernel_index, engine, seed):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    datasets = _simulate_replicates(pi, kernel, 4 * n + 2 + 2 * extra, n, [seed + r for r in range(R)])
    arms = [pi.with_probs(probs) for probs in rng.dirichlet(np.ones(s), size=K)]
    rows = np.array([arm.probs for arm in arms])
    top = datasets[0].layers.q_max - 1
    scores = [LayerChainModel.log_likelihood] + ([_layer_mean(top)] if top >= 2 else [])
    budget = {"dense": 10**12, "factored": 0}[engine]
    with mock.patch.object(likelihood, "_BLOCK_CACHE_BUDGET", budget):
        structure = likelihood._ChainStructure(datasets[0].layers, kernel, pi.support)
        singles = [LayerChainModel(ds, kernel, pi.support) for ds in datasets]
        chunked = [likelihood._log_likelihoods(datasets, kernel, arms, score) for score in scores]
    assert structure.engine == engine
    assert (structure.max_replicates == 1) == (engine == "factored")
    for score, values in zip(scores, chunked):
        assert np.array_equal(values, np.array([score(single, rows) for single in singles]).T)
    if engine == "factored":
        return
    lockstep = LayerChainModel(datasets, kernel, pi.support, structure)
    assert lockstep.replicates == R
    totals, constants = lockstep.forward_constants(rows)
    total, row_constants = lockstep.forward_constants(rows[0])
    for r, single in enumerate(singles):
        expected, expected_constants = single.forward_constants(rows)
        assert np.array_equal(np.reshape(totals, (R, K))[r], expected)
        assert np.array_equal(np.reshape(constants, (R, K, -1))[r], expected_constants)
        assert np.reshape(total, R)[r] == expected[0]
        assert np.array_equal(np.reshape(row_constants, (R, -1))[r], expected_constants[0])
    if top >= 2:
        horizons = rng.integers(2, top + 1, size=K)
        profiles = np.reshape(lockstep.conditional_profiles(rows, horizons), (R, K, -1))
        for r, single in enumerate(singles):
            expected = single.conditional_profiles(rows, horizons)
            assert np.array_equal(profiles[r], expected, equal_nan=True)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_chunked_scores_equal_unchunked(chunk, monkeypatch):
    rng = np.random.default_rng(chunk)
    kernel = bt_ties(2.0)
    pi = random_distribution(rng, 3)
    datasets = _simulate_replicates(pi, kernel, 60, 2, list(range(7)))
    arms = [pi.with_probs(probs) for probs in rng.dirichlet(np.ones(3), size=3)]
    scores = [LayerChainModel.log_likelihood, _layer_mean(datasets[0].layers.q_max - 1)]
    whole = [likelihood._log_likelihoods(datasets, kernel, arms, score) for score in scores]
    widths = [len(layer) for layer in datasets[0].layers.node_layers]
    total_entries = sum(3 ** (a + b) for a, b in zip(widths, widths[1:]))
    sizes = []
    init = LayerChainModel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(self.replicates)

    monkeypatch.setattr(likelihood, "_BLOCK_CACHE_BUDGET", chunk * total_entries + chunk - 1)
    monkeypatch.setattr(LayerChainModel, "__init__", recording_init)
    chunked = [likelihood._log_likelihoods(datasets, kernel, arms, score) for score in scores]
    # each score runs in chunks of the budget's size: 1 x 7, 2 x 3 + 1, 3 x 2 + 1
    assert sizes == 2 * ([chunk] * (7 // chunk) + [7 % chunk] * (7 % chunk > 0))
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b)


@pytest.mark.filterwarnings("error")
def test_lockstep_raises_for_the_first_replicate_that_loses_mass():
    # Outcome 1 between two nodes at support index 0 has probability 1e-200;
    # a block holding two of them has no mass under the point mass on index
    # 0.  Seed 6 first loses forward mass at block 4 and seed 1 at block 2;
    # sweeping down from the top interior block, seed 6 first loses
    # conditional mass at block 10 and seed 1 at block 17.
    support = [1.0, 2.0]
    table = np.full((2, 2, 2), 0.5)
    table[:, 0, 0] = [1.0 - 1e-200, 1e-200]
    kernel = custom_table((0, 1), support, table)
    fair = custom_table((0, 1), support, np.full((2, 2, 2), 0.5))
    datasets = _simulate_replicates(uniform(support), fair, 40, 2, [6, 1])
    point = point_mass_on(support, 0)
    forward, conditional = LayerChainModel.log_likelihood, _layer_mean(datasets[0].layers.q_max - 1)

    def per_replicate_message(datasets, score):
        for ds in datasets:
            try:
                score(LayerChainModel(ds, kernel, support), point.probs[None])
            except H1Violated as exc:
                return str(exc)

    cases = [
        (datasets, forward, "zero likelihood mass at block 4"),
        (datasets, conditional, "zero conditional mass at block 10"),
        (datasets[::-1], forward, "zero likelihood mass at block 2"),
        (datasets[::-1], conditional, "zero conditional mass at block 17"),
    ]
    for chunk, score, message in cases:
        assert per_replicate_message(chunk, score) == message
        with pytest.raises(H1Violated, match=f"^{message}$"):
            likelihood._log_likelihoods(chunk, kernel, [point], score)


def test_matrix_methods_refuse_a_lockstep_model():
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    datasets = _simulate_replicates(pi, k, 40, 2, [1, 2])
    model = LayerChainModel(datasets, k, pi.support)
    top = model.layers.q_max - 1
    calls = {
        "posterior_pass": lambda: model.posterior_pass(pi.probs),
        "backward_kernels": lambda: model.backward_kernels(pi.probs, 2, top),
        "contraction_profile": lambda: model.contraction_profile(pi.probs, 2, top),
        "backward_messages": lambda: model.backward_messages(pi.probs, 2, top),
        "_flipped": lambda: model._flipped(2, 0, 0),
    }
    for method, call in calls.items():
        with pytest.raises(InvalidValue, match=f"^{method} needs a one-dataset model, not one of 2$"):
            call()
    # a factored chain holds one dataset per model
    with mock.patch.object(likelihood, "_BLOCK_CACHE_BUDGET", 0):
        with pytest.raises(InvalidValue, match="^a factored chain model takes 1 to 1 datasets, got 2$"):
            LayerChainModel(datasets, k, pi.support)


@pytest.mark.parametrize("N, n", [(40, 3), (60, 2)])
def test_dataset_on_another_schedule_raises(N, n):
    # At N=40, n=3 the model used to score only the n=2 edges; at N=60 it
    # raised a bare KeyError.
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    ds = simulate(pi, k, 40, 2, seed=1)
    other = simulate(pi, k, N, n, seed=2)
    structure = likelihood._ChainStructure(ds.layers, k, pi.support)
    message = f"^a dataset on the N={N}, n={n} schedule does not fit a chain structure of N=40, n=2$"
    for build in (
        lambda: LayerChainModel(other, k, pi.support, structure),
        lambda: LayerChainModel([ds, other], k, pi.support, structure),
        lambda: likelihood._log_likelihoods([ds, other], k, [pi], LayerChainModel.log_likelihood),
    ):
        with pytest.raises(InvalidValue, match=message):
            build()


def test_lockstep_model_logs_replicates_and_distinct_types(caplog):
    pi = uniform([1.0, 2.0, 4.0])
    k = bt_ties(2.0)
    datasets = _simulate_replicates(pi, k, 40, 2, [1, 2, 3])
    structure = likelihood._ChainStructure(datasets[0].layers, k, pi.support)
    singles = [LayerChainModel(ds, k, pi.support, structure) for ds in datasets]
    distinct = len(set().union(*(single._type_ids.tolist() for single in singles)))
    assert distinct > max(len(set(single._type_ids.tolist())) for single in singles)
    with caplog.at_level(logging.DEBUG, logger="lgmle"):
        model = LayerChainModel(datasets, k, pi.support, structure)
    assert [r.getMessage() for r in caplog.records] == [
        f"layer chain model: engine=dense blocks={model.num_blocks} replicates=3 "
        f"distinct={distinct} max_state={3 ** max(model.widths)} segment=1"
    ]


# -- segment sweeps of long dense chains ---------------------------------------------


def _segmented(build, min_run=2):
    """``build()`` with the segment rule's minimum run at ``min_run`` blocks."""
    with mock.patch.object(likelihood, "_SEGMENT_MIN_RUN", min_run):
        return build()


def _assert_close_to_per_block_sweep(model, probs, marginals, loglik):
    """The segment sweep's result, not a rerun's, within roundoff of the oracle;
    the blocks above its run are pulled as the oracle pulls them, bit for bit."""
    segmented = model._posterior(probs, model.segment)
    assert np.array_equal(marginals, segmented[0]) and loglik == segmented[1]
    marginals_o, loglik_o = _oracle_posterior_pass(model, probs)
    assert abs(loglik - loglik_o) <= 1e-13 * abs(loglik_o)
    assert np.max(np.abs(marginals - marginals_o)) <= 1e-15
    priors = model._priors(np.asarray(probs, dtype=float))
    end = model._run[0] + model._run[1] // model.segment * model.segment
    tail, _ = model._pull_rows(priors, priors[-1], range(end, model.num_blocks))
    assert all(map(np.array_equal, tail, _oracle_betas(model, priors)[end:]))


@given(
    n_s=st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2)]),
    extra=st.integers(0, 10),
    kernel_index=st.integers(0, 3),
    floored=st.integers(0, 2),
    floor=st.sampled_from([WEIGHT_FLOOR, 0.0]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_segment_sweep_matches_per_block_oracle(n_s, extra, kernel_index, floored, floor, seed):
    n, s = n_s
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 20 * (n - 1) + 2 * extra, n, seed=seed)
    model = _segmented(lambda: _model(ds, pi, kernel, "dense"))
    assert model.segment > 1
    probs = rng.dirichlet(np.ones(s))
    probs[: min(floored, s - 1)] = floor  # a zero weight keeps the segment sweep
    probs /= probs.sum()
    marginals, loglik = model.posterior_pass(probs)
    _assert_close_to_per_block_sweep(model, probs, marginals, loglik)
    # scoring stays block by block
    total_o, constants_o = _oracle_forward_constants(model, probs)
    assert model.log_likelihood(probs) == total_o


@pytest.mark.parametrize("kernel_index", range(4))
@pytest.mark.parametrize(
    "segment, pieces", [(2, ((0, 1, 1), (1, 2, 3), (7, 1, 2))), (3, ((0, 1, 1), (1, 3, 2), (7, 1, 2)))]
)
def test_segment_sweep_matches_enumeration(kernel_index, segment, pieces):
    # 2**18 assignments; the rule would give a run of 7 blocks L = 1, so the
    # model is set to the segment length under test.
    rng = np.random.default_rng(kernel_index)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, 2)
    ds = simulate(pi, kernel, 18, 2, seed=kernel_index + 1)
    model = LayerChainModel(ds, kernel, pi.support)
    model.segment = segment
    # head blocks 0..first-1, C segments of L blocks, tail blocks end..
    (_, _, first), (_, L, C), (end, _, tail) = pieces
    blocks = model._run_blocks()
    assert model._run[0] == first and blocks.shape[:3] == (L, 2, C)
    assert first + C * L == end and end + tail == model.num_blocks
    for i, j in itertools.product(range(L), range(C)):
        assert np.array_equal(blocks[i, 0, j], model._mats[first + j * L + i])
        assert np.array_equal(blocks[i, 1, j], model._mats[first + j * L + L - 1 - i].T)
    marginals, loglik = model.posterior_pass(pi.probs)
    _assert_close_to_per_block_sweep(model, pi.probs, marginals, loglik)
    assert abs(loglik - brute_force_log_likelihood(ds, pi, kernel)) <= 1e-10
    assert np.max(np.abs(marginals - brute_force_node_marginals(ds, pi, kernel))) <= 1e-10


@given(
    K=st.integers(2, 9),
    n_s=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    extra=st.integers(0, 6),
    kernel_index=st.integers(0, 3),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_segment_batch_equals_each_rows_own_sweep(K, n_s, extra, kernel_index, seed):
    n, s = n_s
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 20 * (n - 1) + 2 * extra, n, seed=seed)
    model = _segmented(lambda: _model(ds, pi, kernel, "dense"))
    assert model.segment > 1
    rows = rng.dirichlet(np.ones(s), size=K)
    for row, floored in zip(rows, rng.integers(0, s, size=K)):
        row[:floored] = WEIGHT_FLOOR
    rows /= rows.sum(axis=1, keepdims=True)
    marginals, logliks = model.posterior_pass(rows)
    assert np.array_equal(logliks, model._posterior(rows, model.segment)[1])  # no rerun
    for row, row_marginals, loglik in zip(rows, marginals, logliks):
        alone = model.posterior_pass(row)
        assert np.array_equal(row_marginals, alone[0])
        assert loglik == alone[1]
    one = model.posterior_pass(rows[:1])
    assert np.array_equal(one[0][0], marginals[0]) and one[1][0] == logliks[0]


def test_segment_sweep_of_no_rows_is_empty():
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    model = _segmented(lambda: LayerChainModel(simulate(pi, k, 40, 2, seed=1), k, pi.support))
    assert model.segment > 1
    marginals, logliks = model.posterior_pass(np.empty((0, 2)))
    assert marginals.shape == (0, 40, 2) and logliks.shape == (0,)


def test_segment_batch_reruns_only_the_rows_that_lose_mass():
    # Outcome 1 between two nodes at support index 0 has probability 1e-60,
    # and every outcome is 1.  A block's entry between the all-index-0
    # states is about 1e-120 of its peak, a normal float, but the product of
    # three blocks underflows there: the point mass on index 0 loses its
    # segment sweep, and only that row reruns block by block.
    support = [1.0, 2.0]
    table = np.full((2, 2, 2), 0.5)
    table[:, 0, 0] = [1.0 - 1e-60, 1e-60]
    kernel = custom_table((0, 1), support, table)
    ds = simulate(uniform(support), kernel, 40, 2, seed=4)
    ds = dataclasses.replace(ds, outcomes=dict.fromkeys(ds.outcomes, 1))
    model = _segmented(lambda: LayerChainModel(ds, kernel, support))
    block_by_block = _segmented(lambda: LayerChainModel(ds, kernel, support), math.inf)
    assert (model.segment, block_by_block.segment) == (3, 1)
    rows = np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.7]])
    with pytest.raises(H1Violated, match="^segment product underflows$"):
        model._posterior(rows[1], model.segment)
    marginals, logliks = model.posterior_pass(rows)
    for k, row in enumerate(rows):
        alone = model.posterior_pass(row)
        assert np.array_equal(marginals[k], alone[0]) and logliks[k] == alone[1]
    kept = model._posterior(rows[[0, 2]], model.segment)
    assert np.array_equal(marginals[[0, 2]], kept[0]) and np.array_equal(logliks[[0, 2]], kept[1])
    rerun = block_by_block.posterior_pass(rows[1])
    assert np.array_equal(marginals[1], rerun[0]) and logliks[1] == rerun[1]


def test_flipped_twin_of_a_segmented_model_equals_a_fresh_model():
    pi = uniform([1.0, 2.0, 4.0])
    k = bt_ties(2.0)
    ds = simulate(pi, k, 60, 2, seed=7)
    model = _segmented(lambda: LayerChainModel(ds, k, pi.support))
    assert model.segment > 1
    probs = np.array([0.2, 0.5, 0.3])
    before = model.posterior_pass(probs)  # gathers the parent's run blocks
    q = model._run[0] + 2
    edge = ds.layers.block_edges(q)[0]
    outcome = (k.outcome_index(ds.outcomes[edge]) + 1) % len(k.outcomes)
    twin = model._flipped(q, 0, outcome)
    flipped = dataclasses.replace(ds, outcomes={**ds.outcomes, edge: k.outcomes[outcome]})
    fresh = _segmented(lambda: LayerChainModel(flipped, k, pi.support))
    got, want = twin.posterior_pass(probs), fresh.posterior_pass(probs)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert got[1] != before[1]
    again = model.posterior_pass(probs)
    assert np.array_equal(again[0], before[0]) and again[1] == before[1]


def _posterior_or_message(model, probs):
    try:
        return model.posterior_pass(probs)
    except H1Violated as exc:
        return str(exc)


@pytest.mark.filterwarnings("error")
def test_segment_sweep_on_extreme_tables_raises_the_block_by_block_message():
    raised = rerun = 0
    for (n, s), seed in itertools.product([(2, 2), (2, 3), (3, 2)], range(1, 31)):
        rng = np.random.default_rng(seed)
        model = _segmented(lambda: _extreme_model(n, s, "dense", seed, rng, N=20 * n))
        block_by_block = LayerChainModel(model.dataset, model.kernel, model.support)
        assert model.segment > 1 and block_by_block.segment == 1
        probs = rng.dirichlet(np.ones(s))
        probs[:1] = WEIGHT_FLOOR
        probs /= probs.sum()
        got = _posterior_or_message(model, probs)
        want = _posterior_or_message(block_by_block, probs)
        if isinstance(want, str):
            raised += 1
            assert got == want
            continue
        try:
            model._posterior(probs, model.segment)
        except H1Violated:
            rerun += 1
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            continue
        _assert_close_to_per_block_sweep(model, probs, *got)
    assert raised > 0 and rerun > 0


def test_segment_em_fit_matches_block_by_block(caplog):
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    k = degree_model()
    ds = simulate(pi_star, k, 2000, 2, seed=12)
    config = FitConfig(support=(0.5, 2.0), mode="em", tol=1e-9, max_iters=200, restarts=2, seed=3)
    fits, logs = [], []
    for min_run in (likelihood._SEGMENT_MIN_RUN, math.inf):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="lgmle"):
            fits.append(_segmented(lambda: fit_mle(ds, k, config), min_run))
        logs.append([r.getMessage() for r in caplog.records])
    segmented, block_by_block = fits
    assert "segment=22" in logs[0][0] and "segment=1" in logs[1][0]
    assert logs[0][1:] == logs[1][1:]  # sweep counts, stop reasons, clipping
    assert np.max(np.abs(segmented.pi_hat.probs - block_by_block.pi_hat.probs)) <= 1e-12
    assert len(segmented.trajectory) == len(block_by_block.trajectory)
    np.testing.assert_allclose(segmented.trajectory, block_by_block.trajectory, rtol=1e-12, atol=0)
    assert segmented.restart_index == block_by_block.restart_index
    assert segmented.converged == block_by_block.converged


@pytest.mark.parametrize(
    "engine, n, s, segment", [("dense", 2, 2, 7), ("dense", 3, 2, 4), ("dense", 3, 3, 1), ("factored", 2, 2, 1)]
)
def test_model_logs_its_segment_length(engine, n, s, segment, caplog):
    # 200 nodes: a run of 98 blocks at n=2 and 48 at n=3; 81 states at n=3, s=3
    pi = uniform(np.arange(1.0, s + 1.0))
    k = bradley_terry()
    ds = simulate(pi, k, 200, n, seed=1)
    with caplog.at_level(logging.DEBUG, logger="lgmle"):
        model = _model(ds, pi, k, engine)
    assert model.segment == segment
    assert caplog.records[-1].getMessage().endswith(f" segment={segment}")


def test_outcome_ids_take_equal_outcomes_of_other_types():
    pi = uniform([1.0, 2.0])
    k = bt_ties(2.0)
    ds = simulate(pi, k, 20, 2, seed=3)
    recast = {-1: -1.0, 0: False, 1: np.int64(1)}
    other = dataclasses.replace(ds, outcomes={e: recast[x] for e, x in ds.outcomes.items()})
    model = LayerChainModel([ds, other], k, pi.support)
    assert np.array_equal(model._filled[0], model._filled[1])


@pytest.mark.parametrize("bad", [7, [1], float("nan")], ids=["int", "unhashable", "nan"])
def test_foreign_outcome_in_a_later_replicate_raises_naming_it(bad):
    pi = uniform([1.0, 2.0])
    k = bradley_terry()
    first, second = _simulate_replicates(pi, k, 20, 2, [1, 2])
    edge = first.layers.block_edges(4)[1]
    later = first.layers.block_edges(6)[0]
    second = dataclasses.replace(second, outcomes={**second.outcomes, later: "x", edge: bad})
    with pytest.raises(OutcomeNotInSpace) as info:
        LayerChainModel([first, second], k, pi.support)
    assert str(info.value) == f"outcome {bad!r} not in outcome space (0, 1)"
