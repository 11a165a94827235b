"""Synthetic data generation: i.i.d. latent weights, then independent edge outcomes.

Reproducibility: all draws come from numpy's Philox counter-based generator.
A run seed spawns two independent streams, one for the node weights and one
for the edge outcomes, so enlarging the graph never perturbs the weight draws
of the shared node prefix.  Sampling uses inverse-CDF lookups on the raw
uniform stream, which keeps the draws identical across platforms and numpy
versions.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .distributions import DiscreteDistribution
from .errors import InvalidValue, NonPositiveWeight
from .kernels import Kernel
from .rr_graph import (
    LayerStructure,
    RoundRobinGraph,
    build_schedule,
    build_schedule_unchecked,
    layer_decomposition,
)

log = logging.getLogger(__name__)

_WEIGHTS_STREAM = 0
_OUTCOMES_STREAM = 1


def _stream(seed: int, stream: int) -> Generator:
    if seed < 0:
        raise InvalidValue(f"seed must be non-negative, got {seed}")
    return Generator(Philox(SeedSequence([int(seed), stream])))


def _inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, uniforms, side="right")


@dataclass
class Dataset:
    """Observed edge outcomes on a scheduled graph.

    ``outcomes`` maps each edge (i, j), i < j, to its outcome value.
    ``true_weights`` (index 0 = node 1) is kept for experiments and is None
    for blind datasets.
    """

    graph: RoundRobinGraph
    layers: LayerStructure
    outcomes: dict[tuple[int, int], object]
    true_weights: np.ndarray | None
    seed: int

    def outcome_list(self) -> list[tuple[int, int, object]]:
        return [(i, j, self.outcomes[(i, j)]) for i, j, _ in self.graph.edges]

    def strip_weights(self) -> "Dataset":
        return Dataset(self.graph, self.layers, self.outcomes, None, self.seed)


def sample_weights(pi: DiscreteDistribution, N: int, seed: int) -> np.ndarray:
    """N i.i.d. draws from pi, reproducible from the weight stream of ``seed``."""
    if N < 0:
        raise InvalidValue(f"N must be non-negative, got {N}")
    rng = _stream(seed, _WEIGHTS_STREAM)
    idx = _inverse_cdf(pi.probs, rng.random(N))
    return pi.support[idx]


def _draw_outcomes(
    graph: RoundRobinGraph, kernel: Kernel, weights: np.ndarray, seed: int
) -> dict[tuple[int, int], object]:
    """One outcome per edge from k(., V_i, V_j), from the outcome stream of
    ``seed``: one uniform per edge in the graph's round-major edge order."""
    rng = _stream(seed, _OUTCOMES_STREAM)
    uniforms = rng.random(len(graph.edges))
    ivec = np.array([i for i, _, _ in graph.edges])
    jvec = np.array([j for _, j, _ in graph.edges])
    vi = weights[ivec - 1]
    vj = weights[jvec - 1]
    num_x = len(kernel.outcomes)
    cum = np.cumsum(
        np.exp(np.stack([kernel.log_fn(xi, vi, vj) for xi in range(num_x)])), axis=0
    )
    cum[-1] = 1.0
    drawn = np.sum(uniforms[None, :] >= cum, axis=0)
    return {(int(i), int(j)): kernel.outcomes[int(d)] for i, j, d in zip(ivec, jvec, drawn)}


def sample_outcomes(
    graph: RoundRobinGraph, kernel: Kernel, weights, seed: int
) -> Dataset:
    """Draw each edge outcome from k(., V_i, V_j), independently across edges.

    One uniform is consumed per edge in the graph's round-major edge order.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size != graph.N:
        raise InvalidValue(f"need {graph.N} weights, got {weights.size}")
    bad = ~((weights > 0) & np.isfinite(weights))
    if bad.any():
        node = int(np.argmax(bad)) + 1
        raise NonPositiveWeight(
            f"weights must be positive and finite, got {weights[node - 1]} at node {node}"
        )
    return Dataset(
        graph=graph,
        layers=layer_decomposition(graph),
        outcomes=_draw_outcomes(graph, kernel, weights, seed),
        true_weights=weights,
        seed=seed,
    )


def simulate(
    pi_star: DiscreteDistribution,
    kernel: Kernel,
    N: int,
    n: int,
    seed: int,
    blind: bool = False,
    strict: bool = True,
) -> Dataset:
    """Schedule, draw weights from pi_star, then draw outcomes: the replicate
    set of one seed, without its true weights if ``blind``.

    ``strict=False`` uses the relaxed scheduler (no n < N/4 bound) for
    exploratory runs; layer-formula oracles will refuse such graphs.  The
    kernel must be defined on all of pi_star's support, drawn or not (a table
    kernel raises ``SupportMismatch`` otherwise).
    """
    ds = _simulate_replicates(pi_star, kernel, N, n, [seed], strict)[0]
    return ds.strip_weights() if blind else ds


def _simulate_replicates(
    pi_star: DiscreteDistribution, kernel: Kernel, N: int, n: int, seeds, strict: bool = True
) -> list[Dataset]:
    """One dataset per seed, each drawn as :func:`sample_outcomes` draws it
    from ``sample_weights(pi_star, N, seed)``.  The schedule and its layers
    depend only on (N, n), so they are built once and every dataset shares
    the same ``graph`` and ``layers``; ``strict`` picks the scheduler as in
    :func:`simulate`."""
    kernel.log_table(pi_star.support)
    graph = build_schedule(N, n) if strict else build_schedule_unchecked(N, n)
    layers = layer_decomposition(graph)
    datasets = []
    for seed in seeds:
        weights = sample_weights(pi_star, N, seed)
        outcomes = _draw_outcomes(graph, kernel, weights, seed)
        datasets.append(Dataset(graph, layers, outcomes, weights, seed))
    log.debug("replicates: N=%d n=%d count=%d q_max=%d", N, n, len(datasets), layers.q_max)
    return datasets


def dataset_to_json_dict(ds: Dataset) -> dict:
    """JSON form of ``ds``.  ``"strict": false`` is written only for graphs
    outside the n < N/4 bound, which reload through the relaxed scheduler."""
    doc = {
        "N": ds.graph.N,
        "n": ds.graph.n,
        "seed": ds.seed,
        "outcomes": [[i, j, x] for i, j, x in ds.outcome_list()],
        "weights": None if ds.true_weights is None else ds.true_weights.tolist(),
    }
    if 4 * ds.graph.n >= ds.graph.N:
        doc["strict"] = False
    return doc


def dataset_to_json(ds: Dataset, path) -> None:
    with open(path, "w") as fh:
        json.dump(dataset_to_json_dict(ds), fh, sort_keys=True)
        fh.write("\n")


def dataset_from_json_dict(doc: dict) -> Dataset:
    """Inverse of :func:`dataset_to_json_dict`.  The graph is rebuilt with the
    relaxed scheduler if the document says ``"strict": false``."""
    if not isinstance(doc, dict):
        raise InvalidValue("dataset must be a JSON object")
    for key in ("N", "n", "seed", "outcomes"):
        if key not in doc:
            raise InvalidValue(f"dataset is missing key {key}")
        if key != "outcomes" and type(doc[key]) is not int:
            raise InvalidValue(f"dataset key {key} must be an integer, got {doc[key]!r}")
    strict = doc.get("strict", True)
    if not isinstance(strict, bool):
        raise InvalidValue(f"dataset key strict must be true or false, got {strict!r}")
    graph = (build_schedule if strict else build_schedule_unchecked)(doc["N"], doc["n"])
    try:
        outcomes = {(i, j): x for i, j, x in doc["outcomes"]}
    except (TypeError, ValueError) as exc:
        raise InvalidValue(f"dataset outcomes must be [i, j, x] triples: {exc}") from exc
    if len(outcomes) < len(doc["outcomes"]):
        counts = Counter((i, j) for i, j, _ in doc["outcomes"])
        twice = [e for e, count in counts.items() if count > 1]
        raise InvalidValue(f"outcomes listed more than once for edges {twice[:5]}")
    weights = doc.get("weights")
    try:
        weights = None if weights is None else np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidValue(f"dataset weights must be numbers: {exc}") from exc
    if weights is not None and weights.shape != (graph.N,):
        raise InvalidValue(
            f"dataset weights must be {graph.N} numbers, one per node, got shape {weights.shape}"
        )
    edges = graph.edge_pairs()
    missing = [e for e in edges if e not in outcomes]
    if missing:
        raise InvalidValue(f"outcomes missing for edges {missing[:5]}")
    if len(outcomes) > len(edges):
        scheduled = set(edges)
        extra = [e for e in outcomes if e not in scheduled]
        raise InvalidValue(f"outcomes for edges not in the schedule {extra[:5]}")
    return Dataset(
        graph=graph,
        layers=layer_decomposition(graph),
        outcomes=outcomes,
        true_weights=weights,
        seed=doc["seed"],
    )


def dataset_from_json(path) -> Dataset:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidValue(f"cannot read dataset {path}: {exc}") from exc
    return dataset_from_json_dict(doc)


def outcomes_to_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "x"])
        writer.writerows(ds.outcome_list())
