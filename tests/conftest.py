import itertools
import math

import numpy as np
import pytest

from lgmle import (
    DiscreteDistribution,
    InconsistentBlockShapes,
    bradley_terry,
    bt_home_advantage,
    bt_ties,
    degree_model,
    simulate,
)


def kernel_variants():
    """The four closed-form kernel families, fixed parameters."""
    return [
        bradley_terry(),
        bt_home_advantage(1.5),
        bt_ties(2.0),
        degree_model(),
    ]


def random_distribution(rng, size, lo=0.5, hi=4.0):
    support = np.sort(rng.uniform(lo, hi, size=size))
    while np.any(np.diff(support) < 1e-3):
        support = np.sort(rng.uniform(lo, hi, size=size))
    probs = rng.dirichlet(np.ones(size))
    probs = np.maximum(probs, 0.05)
    probs /= probs.sum()
    return DiscreteDistribution(support, probs)


def small_instances(count, rng_seed=123, N_choices=(10, 12), n=2, s_choices=(2, 3)):
    """Randomized brute-forceable instances cycling through kernel variants."""
    rng = np.random.default_rng(rng_seed)
    kernels = kernel_variants()
    out = []
    for idx in range(count):
        kernel = kernels[idx % len(kernels)]
        N = int(rng.choice(N_choices))
        s = int(rng.choice(s_choices))
        pi = random_distribution(rng, s)
        ds = simulate(pi, kernel, N, n, seed=int(rng.integers(1, 2**31)))
        out.append((ds, pi, kernel))
    return out


def block_log_kernel(kernel, edges, outcomes, nodes_q, nodes_q1, v_block, w_block) -> float:
    """Oracle: sum of log k over one chain block, at fixed endpoint weights.

    ``edges`` may touch nodes of layer q (listed in ``nodes_q`` with weights
    ``v_block``) and of layer q+1 (``nodes_q1``/``w_block``); each edge must
    have both endpoints among them.  The first kernel argument is the
    smaller-id endpoint's weight.
    """
    if len(edges) != len(outcomes):
        raise InconsistentBlockShapes(
            f"{len(edges)} edges but {len(outcomes)} outcomes"
        )
    if len(nodes_q) != len(v_block) or len(nodes_q1) != len(w_block):
        raise InconsistentBlockShapes("node lists and weight blocks disagree in length")
    weight_of = {}
    for node, weight in zip(nodes_q, v_block):
        weight_of[node] = weight
    for node, weight in zip(nodes_q1, w_block):
        weight_of[node] = weight
    total = 0.0
    for (i, j), x in zip(edges, outcomes):
        if i not in weight_of or j not in weight_of:
            raise InconsistentBlockShapes(
                f"edge ({i},{j}) has an endpoint outside the two layer blocks"
            )
        total += kernel.log_prob(x, weight_of[i], weight_of[j])
    return total


def enumerate_window_logprob(ds, pi, kernel, a, b):
    """Independent enumeration of log P(X_a, ..., X_b): sums over every joint
    weight assignment of layers a..b+1.  Exponential; keep windows tiny."""
    layers = ds.layers
    if a > b:
        return 0.0
    widths = [len(layers.node_layers[q]) for q in range(a, b + 2)]
    nodes = [layers.node_layers[q] for q in range(a, b + 2)]
    sup = list(pi.support)
    total = 0.0
    for assign in itertools.product(
        *[list(itertools.product(range(pi.size), repeat=w)) for w in widths]
    ):
        weight_of = {}
        prob = 1.0
        for layer_nodes, idxs in zip(nodes, assign):
            for node, ai in zip(layer_nodes, idxs):
                weight_of[node] = sup[ai]
                prob *= pi.probs[ai]
        for q in range(a, b + 1):
            for (i, j) in layers.block_edges(q):
                prob *= kernel.prob(ds.outcomes[(i, j)], weight_of[i], weight_of[j])
        total += prob
    return math.log(total)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
