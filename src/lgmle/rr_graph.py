"""Round-robin n-regular graphs and their distance-layer decomposition.

The scheduler follows the classical circle method with node 1 pinned: two
rows of N/2 positions, round t pairs the nodes facing each other, and between
rounds every node except node 1 advances one position clockwise (bottom row
shifts toward node 1, the node below node 1 moves up next to it, the top row
shifts away, the top-right node drops down).

The layer decomposition groups nodes by graph distance from node 1 and splits
the edge set into within-layer and adjacent-layer groups; the same grouping
is also predicted in closed form without building the graph, which gives an
independent cross-check of the scheduler.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import dataclass

from .errors import DisconnectedGraph, InvalidDimensions, InvalidValue, LayerOutOfRange

Edge = tuple[int, int]


@dataclass(frozen=True)
class RoundRobinGraph:
    """An n-regular graph on nodes 1..N collected from n round-robin rounds.

    ``edges`` holds (i, j, round) triples with i < j, in round-major order.
    Node ids are 1-indexed.
    """

    N: int
    n: int
    edges: tuple[tuple[int, int, int], ...]

    def edge_pairs(self) -> list[Edge]:
        return [(i, j) for i, j, _ in self.edges]

    def rounds(self) -> list[list[Edge]]:
        out: list[list[Edge]] = [[] for _ in range(self.n)]
        for i, j, t in self.edges:
            out[t - 1].append((i, j))
        return out


@dataclass(frozen=True)
class LayerStructure:
    """Distance layers of a graph rooted at node 1.

    ``node_layers[q]`` is the sorted tuple of nodes at distance q, for
    q = 0..q_max+1 where q_max+1 is the maximal distance.  ``remainder`` is
    the Euclidean remainder of N/2-1 by n-1; q_max equals the Euclidean
    quotient except when the tail arc of the rotation circle is overfull
    (2*remainder >= n), where the farthest 2r-n+1 nodes sit one step deeper
    and q_max is the quotient plus one.  ``within_edges[q]`` are edges with
    both endpoints at distance q; ``cross_edges[q]`` are edges between
    distances q and q+1.  Structures produced by the closed-form predictor
    carry no edge lists (``within_edges``/``cross_edges`` are None); the
    interior edge-group cardinalities they imply come from
    :func:`predicted_edge_counts`.
    """

    N: int
    n: int
    q_max: int
    remainder: int
    node_layers: tuple[tuple[int, ...], ...]
    within_edges: tuple[tuple[Edge, ...], ...] | None
    cross_edges: tuple[tuple[Edge, ...], ...] | None

    @property
    def division_quotient(self) -> int:
        """Quotient of the Euclidean division of N/2-1 by n-1."""
        return (self.N // 2 - 1) // (self.n - 1) if self.n > 1 else self.q_max

    @property
    def num_layers(self) -> int:
        return len(self.node_layers)

    def block_edges(self, q: int) -> tuple[Edge, ...]:
        """Edges of the q-th chain block, 0 <= q <= q_max: cross q<->q+1 plus
        within q+1."""
        if self.within_edges is None or self.cross_edges is None:
            raise InvalidValue("edge layers are not available on a predicted structure")
        if not 0 <= q <= self.q_max:
            raise LayerOutOfRange(f"chain block q={q} is outside [0, {self.q_max}]")
        return self.cross_edges[q] + self.within_edges[q + 1]


def _validate_dims(N: int, n: int) -> None:
    if N % 2 != 0:
        raise InvalidDimensions(f"N must be even, got N={N}")
    if n < 2:
        raise InvalidDimensions(f"need at least 2 rounds, got n={n}")
    if 4 * n >= N:
        raise InvalidDimensions(f"need n < N/4 for the layer structure, got N={N}, n={n}")


def build_schedule(N: int, n: int) -> RoundRobinGraph:
    """Round-robin graph from the first n rounds; requires N even, 2 <= n < N/4."""
    _validate_dims(N, n)
    return build_schedule_unchecked(N, n)


def build_schedule_unchecked(N: int, n: int) -> RoundRobinGraph:
    """Scheduler without the n < N/4 bound, for exploratory use.

    Layer-formula oracles refuse graphs built this way unless the bound
    happens to hold; the scheduling rule itself only needs N even and
    1 <= n <= N-1 (beyond N-1 rounds pairs would repeat).
    """
    if N % 2 != 0 or N < 2:
        raise InvalidDimensions(f"N must be a positive even integer, got N={N}")
    if not 1 <= n <= N - 1:
        raise InvalidDimensions(f"rounds must satisfy 1 <= n <= N-1, got n={n}")
    top = list(range(1, N, 2))
    bottom = list(range(2, N + 1, 2))
    edges: list[tuple[int, int, int]] = []
    seen: set[Edge] = set()
    for t in range(1, n + 1):
        if t > 1:
            top, bottom = [top[0], bottom[0]] + top[1:-1], bottom[1:] + [top[-1]]
        for a, b in zip(top, bottom):
            i, j = (a, b) if a < b else (b, a)
            if (i, j) in seen:
                raise InvalidDimensions(f"pair ({i},{j}) repeats at round {t}")
            seen.add((i, j))
            edges.append((i, j, t))
    return RoundRobinGraph(N=N, n=n, edges=tuple(edges))


def layer_decomposition(graph: RoundRobinGraph) -> LayerStructure:
    """Breadth-first layers from node 1, with edge groups assigned by endpoint layers."""
    N = graph.N
    adj: list[list[int]] = [[] for _ in range(N + 1)]
    for i, j, _ in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = [-1] * (N + 1)
    dist[1] = 0
    queue = deque([1])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    unreachable = [v for v in range(1, N + 1) if dist[v] < 0]
    if unreachable:
        raise DisconnectedGraph(f"nodes unreachable from node 1: {unreachable[:5]}")

    max_dist = max(dist[1:])
    node_layers = [[] for _ in range(max_dist + 1)]
    for v in range(1, N + 1):
        node_layers[dist[v]].append(v)
    within: list[list[Edge]] = [[] for _ in range(max_dist + 1)]
    cross: list[list[Edge]] = [[] for _ in range(max_dist)]
    for i, j, _ in graph.edges:
        qi, qj = dist[i], dist[j]
        if qi == qj:
            within[qi].append((i, j))
        else:
            # BFS distance from a common root never differs by more than 1
            # across an edge.
            cross[min(qi, qj)].append((i, j))

    q_max = max_dist - 1
    remainder = (N // 2 - 1) % (graph.n - 1) if graph.n > 1 else 0
    return LayerStructure(
        N=N,
        n=graph.n,
        q_max=q_max,
        remainder=remainder,
        node_layers=tuple(tuple(sorted(layer)) for layer in node_layers),
        within_edges=tuple(tuple(sorted(e)) for e in within),
        cross_edges=tuple(tuple(sorted(e)) for e in cross),
    )


def predicted_layers(N: int, n: int) -> LayerStructure:
    """Closed-form node layers of the round-robin graph, no graph needed.

    Layer 1 holds the even nodes 2..2n; each interior layer q = 2..Q (Q the
    Euclidean quotient of N/2-1 by n-1) holds n-1 odd nodes and n-1 even
    nodes in consecutive index windows.  The remaining nodes form a tail arc
    of n-1+2r seats on the rotation circle (odd ids ascending, then even ids
    descending); the next layer takes the first n-1 and last n-1 seats of
    that arc.  For 2r < n this exhausts the arc; otherwise the middle
    2r-n+1 seats are one step farther, forming a final singleton layer
    beyond the quotient.  Cross-validated against BFS for every admissible
    (N, n) with N <= 400.

    Edge lists are not constructed; the interior edge-group cardinalities
    implied by the prediction come from :func:`predicted_edge_counts`.
    """
    _validate_dims(N, n)
    quotient, remainder = divmod(N // 2 - 1, n - 1)
    layers: list[tuple[int, ...]] = [(1,)]
    layers.append(tuple(2 * x for x in range(1, n + 1)))
    for q in range(2, quotient + 1):
        odd = [2 * x + 1 for x in range((q - 2) * (n - 1) + 1, (q - 1) * (n - 1) + 1)]
        even = [2 * x for x in range(2 + (q - 1) * (n - 1), 2 + q * (n - 1))]
        layers.append(tuple(sorted(odd + even)))
    # Tail arc in circle order: seat p holds node 2p+1 while odd ids last,
    # then the largest even ids in descending order.
    arc = [
        2 * p + 1 if p <= N // 2 - 1 else 2 * (N - p)
        for p in range((quotient - 1) * (n - 1) + 1, quotient * (n - 1) + 2 * remainder + 1)
    ]
    if 2 * remainder < n:
        layers.append(tuple(sorted(arc)))
        q_max = quotient
    else:
        layers.append(tuple(sorted(arc[: n - 1] + arc[-(n - 1):])))
        layers.append(tuple(sorted(arc[n - 1 : -(n - 1)])))
        q_max = quotient + 1
    return LayerStructure(
        N=N,
        n=n,
        q_max=q_max,
        remainder=remainder,
        node_layers=tuple(layers),
        within_edges=None,
        cross_edges=None,
    )


def predicted_edge_counts(n: int) -> tuple[int, int]:
    """(within-layer, adjacent-layer) edge counts per interior layer.

    Valid for within counts at layers 2..q_max and cross counts at layers
    2..q_max-1; together one chain block has n(n-1) edges there.
    """
    if n < 2:
        raise InvalidDimensions(f"need n >= 2, got n={n}")
    if (n - 1) % 2 == 0:
        p = (n - 1) // 2
        return 2 * p * p, 2 * p * (p + 1)
    p = (n - 1 - 1) // 2
    return 2 * p * (p + 1), 2 * (p + 1) * (p + 1)


def compare_layer_structures(observed: LayerStructure, predicted: LayerStructure) -> list[str]:
    """Mismatches between a BFS decomposition and the closed-form prediction.

    Checks q_max and remainder, every node layer as a set, the interior
    node-layer cardinality 2(n-1), and the interior edge-group counts of the
    observed structure against the closed-form values.  Returns a list of
    human-readable mismatch descriptions; empty means full agreement.
    """
    issues: list[str] = []
    if observed.q_max != predicted.q_max:
        issues.append(f"q_max: observed {observed.q_max} != predicted {predicted.q_max}")
    if observed.remainder != predicted.remainder:
        issues.append(
            f"remainder: observed {observed.remainder} != predicted {predicted.remainder}"
        )
    if observed.num_layers != predicted.num_layers:
        issues.append(
            f"layer count: observed {observed.num_layers} != predicted {predicted.num_layers}"
        )
    for q in range(min(observed.num_layers, predicted.num_layers)):
        if observed.node_layers[q] != predicted.node_layers[q]:
            issues.append(
                f"layer {q}: observed {observed.node_layers[q]} != predicted {predicted.node_layers[q]}"
            )
    n = predicted.n
    for q in range(2, predicted.q_max + 1):
        if q < observed.num_layers and len(observed.node_layers[q]) != 2 * (n - 1):
            issues.append(f"|V_{q}| = {len(observed.node_layers[q])} != 2(n-1)")
    if observed.within_edges is not None and observed.cross_edges is not None:
        quotient = predicted.division_quotient
        within_count, cross_count = predicted_edge_counts(n)
        for q in range(2, quotient + 1):
            if len(observed.within_edges[q]) != within_count:
                issues.append(
                    f"|within {q}| = {len(observed.within_edges[q])} != {within_count}"
                )
        for q in range(2, quotient):
            if len(observed.cross_edges[q]) != cross_count:
                issues.append(
                    f"|cross {q}| = {len(observed.cross_edges[q])} != {cross_count}"
                )
            block = len(observed.block_edges(q))
            if block != n * (n - 1):
                issues.append(f"block {q} has {block} edges != n(n-1)")
    return issues


def verify_schedule_layers(N: int, n: int) -> list[str]:
    """Build the schedule, decompose by BFS, and compare with the formulas."""
    observed = layer_decomposition(build_schedule(N, n))
    return compare_layer_structures(observed, predicted_layers(N, n))


def graph_to_csv(graph: RoundRobinGraph, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "round"])
        writer.writerows(graph.edges)


def layers_to_json_dict(layers: LayerStructure) -> dict:
    edge_layers = None
    if layers.within_edges is not None and layers.cross_edges is not None:
        edge_layers = {
            "within": [[list(e) for e in grp] for grp in layers.within_edges],
            "cross": [[list(e) for e in grp] for grp in layers.cross_edges],
        }
    return {
        "q_max": layers.q_max,
        "remainder": layers.remainder,
        "node_layers": [list(layer) for layer in layers.node_layers],
        "edge_layers": edge_layers,
    }


def layers_to_json(layers: LayerStructure, path) -> None:
    with open(path, "w") as fh:
        json.dump(layers_to_json_dict(layers), fh, indent=1, sort_keys=True)
        fh.write("\n")
