"""Reference log-likelihoods computed without ``lgmle.likelihood``.

The program's outputs are checked against these values.  The reference
takes only the schedule's edges, their outcomes and the kernel's log table
from ``lgmle``; it layers the graph by its own breadth-first search from
node 1 and eliminates each layer block with ``numpy.einsum``, carrying a
leading batch axis so several candidate distributions share one sweep.

Block q couples layer q with layer q+1 through the cross edges between
them, the within edges of layer q+1 and the priors of the layer q+1 nodes,
so ``log_partition(first, last)`` is log P(X_{first:last}) in the program's
notation, and ``log_partition(0, q_max)`` is the full log-likelihood.
"""

from __future__ import annotations

import string
from collections import deque

import numpy as np

_LETTERS = string.ascii_letters
# Below this many index combinations one direct einsum loop is cheaper than
# planning a pairwise contraction order.
_DIRECT_LIMIT = 4096


def bfs_layers(N: int, edges) -> list[list[int]]:
    """Nodes 1..N grouped by graph distance from node 1."""
    adjacent: list[list[int]] = [[] for _ in range(N + 1)]
    for i, j in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    dist = [-1] * (N + 1)
    dist[1] = 0
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in adjacent[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if min(dist[1:]) < 0:
        raise ValueError("graph is disconnected")
    layers: list[list[int]] = [[] for _ in range(max(dist) + 1)]
    for v in range(1, N + 1):
        layers[dist[v]].append(v)
    return layers


class ReferenceChain:
    """Exact chain sums for one dataset and one support grid.

    ``outcomes`` maps each edge (i, j), i < j, to the kernel outcome index;
    ``log_table[x, a, b]`` is log k(x, support[a], support[b]).
    """

    def __init__(self, N: int, outcomes: dict[tuple[int, int], int], log_table: np.ndarray):
        self.layers = bfs_layers(N, outcomes)
        self.q_max = len(self.layers) - 2
        self.s = log_table.shape[1]
        table = np.exp(np.asarray(log_table, dtype=float))
        layer_of = {v: q for q, layer in enumerate(self.layers) for v in layer}
        # blocks[q] = [(i, j, table)] for the edges that block q multiplies in.
        self.blocks: list[list[tuple[int, int, np.ndarray]]] = [
            [] for _ in range(len(self.layers) - 1)
        ]
        for (i, j), x in outcomes.items():
            q = max(layer_of[i], layer_of[j]) - 1
            self.blocks[q].append((i, j, table[x]))
        self._paths: dict[tuple, object] = {}

    def log_partition(self, probs, first: int, last: int) -> np.ndarray:
        """log P(X_{first:last}) per row of ``probs`` (shape (K, s))."""
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        K = probs.shape[0]
        msg = probs
        for _ in self.layers[first][1:]:
            msg = msg[..., None] * probs.reshape((K,) + (1,) * (msg.ndim - 1) + (self.s,))
        total = np.zeros(K)
        msg, total = self._rescale(msg, total)
        for q in range(first, last + 1):
            msg = self._eliminate(msg, probs, q)
            msg, total = self._rescale(msg, total)
        return total

    def log_likelihood(self, probs) -> np.ndarray:
        return self.log_partition(probs, 0, self.q_max)

    @staticmethod
    def _rescale(msg: np.ndarray, total: np.ndarray):
        axes = tuple(range(1, msg.ndim))
        c = msg.sum(axis=axes)
        if np.any(c <= 0.0):
            raise FloatingPointError("zero mass in the reference sweep")
        return msg / c.reshape((-1,) + (1,) * (msg.ndim - 1)), total + np.log(c)

    def _eliminate(self, msg: np.ndarray, probs: np.ndarray, q: int) -> np.ndarray:
        lower, upper = self.layers[q], self.layers[q + 1]
        letter = {v: _LETTERS[1 + k] for k, v in enumerate(lower + upper)}
        batch = _LETTERS[0]
        terms = [batch + "".join(letter[v] for v in lower)]
        operands = [msg]
        for v in upper:
            terms.append(batch + letter[v])
            operands.append(probs)
        for i, j, table in self.blocks[q]:
            terms.append(letter[i] + letter[j])
            operands.append(table)
        subscripts = ",".join(terms) + "->" + batch + "".join(letter[v] for v in upper)
        if probs.shape[0] * self.s ** (len(lower) + len(upper)) <= _DIRECT_LIMIT:
            return np.einsum(subscripts, *operands)
        key = (subscripts, probs.shape[0])
        path = self._paths.get(key)
        if path is None:
            path = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
            self._paths[key] = path
        return np.einsum(subscripts, *operands, optimize=path)


def chain_for(dataset, kernel, support) -> ReferenceChain:
    """Reference chain for an ``lgmle`` dataset, kernel and support grid."""
    outcomes = {
        (i, j): kernel.outcome_index(dataset.outcomes[(i, j)]) for i, j, _ in dataset.graph.edges
    }
    return ReferenceChain(dataset.graph.N, outcomes, kernel.log_table(support))


def closed_form_q_max(N: int, n: int) -> int:
    """Chain depth of the round-robin graph: quotient of N/2-1 by n-1, plus
    one when the tail arc is overfull (2 * remainder >= n)."""
    quotient, remainder = divmod(N // 2 - 1, n - 1)
    return quotient + 1 if 2 * remainder >= n else quotient


def self_check() -> list[str]:
    """Compare the reference with ``lgmle``'s enumeration oracle on small graphs."""
    import lgmle

    cases = [
        (lgmle.bradley_terry(), [1.0, 3.0], [0.4, 0.6], 10, 2, 5),
        (lgmle.bt_ties(2.0), [1.0, 2.0, 4.0], [0.3, 0.4, 0.3], 10, 2, 6),
        (lgmle.bt_home_advantage(1.5), [0.5, 2.0], [0.3, 0.7], 14, 3, 7),
        (lgmle.degree_model(), [0.5, 2.0], [0.6, 0.4], 18, 4, 8),
    ]
    problems = []
    for kernel, support, probs, N, n, seed in cases:
        pi = lgmle.DiscreteDistribution(support, probs)
        data = lgmle.simulate(pi, kernel, N, n, seed)
        oracle = lgmle.brute_force_log_likelihood(data, pi, kernel)
        chain = chain_for(data, kernel, support)
        value = float(chain.log_likelihood(probs)[0])
        if abs(value - oracle) > 1e-10 * abs(oracle):
            problems.append(
                f"reference {value!r} != enumeration {oracle!r} ({kernel.name}, N={N}, n={n})"
            )
        if chain.q_max != closed_form_q_max(N, n):
            problems.append(f"BFS depth {chain.q_max} != closed form at N={N}, n={n}")
    return problems
