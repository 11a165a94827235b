import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmle import (
    DiscreteDistribution,
    H1Violated,
    LayerOutOfRange,
    TooLargeForBruteForce,
    backward_contraction_profile,
    backward_messages,
    bradley_terry,
    brute_force_log_likelihood,
    brute_force_node_marginals,
    bt_ties,
    conditional_log_prob,
    custom_table,
    epsilon_floor,
    log_likelihood,
    log_likelihood_profile,
    point_mass,
    point_mass_on,
    posterior_node_marginals,
    simulate,
    uniform,
    uniform_kernel,
)
from lgmle import likelihood
from lgmle.kernels import block_log_kernel
from lgmle.likelihood import LayerChainModel

from conftest import (
    enumerate_window_logprob,
    kernel_variants,
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


def test_per_layer_normalizers_sum_to_total():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 3, seed=6)
    total, constants = log_likelihood_profile(ds, pi, k)
    assert constants.size == ds.layers.q_max + 1
    assert total == pytest.approx(constants.sum(), rel=1e-14)


def test_conditional_uniform_kernel():
    k = uniform_kernel(2)
    pi = uniform([1.0, 3.0])
    ds = simulate(pi, k, 24, 2, seed=4)
    for q, m in [(2, 2), (3, 7), (2, ds.layers.q_max - 1)]:
        expected = len(ds.layers.block_edges(q)) * math.log(0.5)
        assert conditional_log_prob(ds, pi, k, q, m) == pytest.approx(expected, rel=1e-13)


def test_conditional_matches_enumeration():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 2, seed=5)
    for q, m in [(2, 2), (2, 3), (3, 4)]:
        direct = enumerate_window_logprob(ds, pi, k, q, m) - enumerate_window_logprob(
            ds, pi, k, q + 1, m
        )
        assert conditional_log_prob(ds, pi, k, q, m) == pytest.approx(direct, abs=1e-11)


def test_conditional_window_validation():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 2, seed=5)
    top = ds.layers.q_max - 1
    with pytest.raises(LayerOutOfRange):
        conditional_log_prob(ds, pi, k, 1, 3)
    with pytest.raises(LayerOutOfRange):
        conditional_log_prob(ds, pi, k, 2, top + 1)
    with pytest.raises(LayerOutOfRange):
        conditional_log_prob(ds, pi, k, 5, 4)


def test_backward_messages_normalized():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 24, 3, seed=8)
    msgs = backward_messages(ds, pi, k, 2, ds.layers.q_max - 1)
    for log_msg in msgs.log_messages:
        assert abs(np.exp(log_msg).sum() - 1.0) < 1e-10
    assert msgs.log_normalizers[-1] == 0.0
    # normalizer differences are the conditional block log-probabilities
    cond = msgs.log_normalizers[0] - msgs.log_normalizers[1]
    assert cond == pytest.approx(
        conditional_log_prob(ds, pi, k, 2, ds.layers.q_max - 1), rel=1e-13
    )


def test_posterior_marginals_match_brute_force():
    for ds, pi, kernel in small_instances(6, rng_seed=11):
        exact = posterior_node_marginals(ds, pi, kernel)
        oracle = brute_force_node_marginals(ds, pi, kernel)
        assert np.max(np.abs(exact - oracle)) < 1e-10
        assert np.allclose(exact.sum(axis=1), 1.0, atol=1e-10)


def test_posterior_uniform_kernel_equals_prior():
    pi = DiscreteDistribution([1.0, 2.0], [0.3, 0.7])
    k = uniform_kernel(2)
    ds = simulate(pi, k, 20, 3, seed=2)
    marg = posterior_node_marginals(ds, pi, k)
    assert np.max(np.abs(marg - pi.probs[None, :])) < 1e-12


def test_posterior_point_mass_prior():
    pi = point_mass_on([1.0, 3.0], 1)
    k = bradley_terry()
    ds = simulate(pi, k, 16, 3, seed=3)
    marg = posterior_node_marginals(ds, pi, k)
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

    marg = posterior_node_marginals(ds, pi, k)
    marg2 = posterior_node_marginals(ds2, pi2, k2)
    assert np.max(np.abs(marg2 - marg[:, perm])) < 1e-12


def test_contraction_identical_initials():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 24, 2, seed=7)
    size = pi.size ** len(ds.layers.node_layers[ds.layers.q_max - 1])
    mu = np.full(size, 1.0 / size)
    prof = backward_contraction_profile(ds, pi, k, mu1=mu, mu2=mu.copy())
    assert all(step.tv < 1e-14 for step in prof.steps)


def test_contraction_uniform_kernel_one_step():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = uniform_kernel(2)
    ds = simulate(pi, k, 24, 2, seed=7)
    prof = backward_contraction_profile(ds, pi, k)
    assert prof.initial_tv == pytest.approx(2.0)
    assert prof.steps[0].tv < 1e-14  # backward kernel ignores its source state


def test_contraction_envelope():
    pi = DiscreteDistribution([1.0, 3.0], [0.4, 0.6])
    k = bradley_terry()
    ds = simulate(pi, k, 30, 2, seed=10)
    prof = backward_contraction_profile(ds, pi, k)
    prev = prof.initial_tv
    for step in prof.steps:
        assert step.tv <= step.step_factor * prev + 1e-12
        assert step.tv <= step.cumulative_bound + 1e-12
        prev = step.tv


def _model(ds, pi, kernel, engine):
    """A model on the given engine, chosen through the dense-block budget."""
    budget = {"dense": 10**12, "factored": 0}[engine]
    with mock.patch.object(likelihood, "_BLOCK_CACHE_BUDGET", budget):
        model = LayerChainModel(ds, kernel, pi.support)
    assert model.engine == engine
    return model


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
            assert np.max(np.abs(model.node_marginals(pi.probs) - oracle)) < 1e-10
            q = m = 2
            direct = enumerate_window_logprob(ds, pi, kernel, q, m) - enumerate_window_logprob(
                ds, pi, kernel, q + 1, m
            )
            assert model.conditional_log_prob(pi.probs, q, m) == pytest.approx(direct, abs=1e-11)


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
    assert [r.getMessage() for r in caplog.records] == [
        f"layer chain model: engine={engine} blocks={model.num_blocks} max_state={3**4}"
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
