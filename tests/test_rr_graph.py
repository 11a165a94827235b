import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmle import (
    DisconnectedGraph,
    InvalidDimensions,
    LayerOutOfRange,
    build_schedule,
    build_schedule_unchecked,
    compare_layer_structures,
    layer_decomposition,
    predicted_edge_counts,
    predicted_layers,
    verify_schedule_layers,
)
from lgmle.rr_graph import graph_to_csv, layers_to_json


def test_round_one_is_consecutive_pairs():
    g = build_schedule_unchecked(8, 2)
    assert g.rounds()[0] == [(1, 2), (3, 4), (5, 6), (7, 8)]


def test_round_two_matches_rotation():
    # after one rotation node 4 sits below node 1
    g = build_schedule_unchecked(8, 2)
    round2 = g.rounds()[1]
    assert (1, 4) in round2
    assert round2 == [(1, 4), (2, 6), (3, 8), (5, 7)]


def test_odd_N_rejected():
    with pytest.raises(InvalidDimensions, match="N must be even"):
        build_schedule(7, 2)


def test_degree_bound_enforced_strictly():
    with pytest.raises(InvalidDimensions):
        build_schedule(8, 2)  # n >= N/4
    with pytest.raises(InvalidDimensions):
        build_schedule(20, 5)
    build_schedule(20, 4)  # 4 < 5 is fine
    with pytest.raises(InvalidDimensions):
        build_schedule(12, 1)


def test_unchecked_constructor_bounds():
    build_schedule_unchecked(8, 2)
    with pytest.raises(InvalidDimensions):
        build_schedule_unchecked(8, 8)  # more rounds than opponents
    with pytest.raises(InvalidDimensions):
        build_schedule_unchecked(7, 2)


def test_full_tournament_is_one_factorization():
    g = build_schedule_unchecked(10, 9)
    pairs = set(g.edge_pairs())
    assert len(pairs) == 45  # every pair exactly once
    for rnd in g.rounds():
        seen = [v for e in rnd for v in e]
        assert sorted(seen) == list(range(1, 11))


def test_euclidean_division_example():
    ls = layer_decomposition(build_schedule(20, 3))
    assert ls.q_max == 4
    assert ls.remainder == 1  # 9 = 4*2 + 1


def test_first_layers_N16_n3():
    ls = layer_decomposition(build_schedule(16, 3))
    assert ls.node_layers[1] == (2, 4, 6)
    assert ls.node_layers[2] == (3, 5, 8, 10)
    pred = predicted_layers(16, 3)
    assert pred.node_layers == ls.node_layers


def test_interior_cardinalities_N20_n3():
    ls = layer_decomposition(build_schedule(20, 3))
    for q in range(2, ls.q_max + 1):
        assert len(ls.node_layers[q]) == 4  # 2(n-1)
    within, cross = predicted_edge_counts(3)
    for q in range(2, ls.division_quotient):
        assert len(ls.block_edges(q)) == 6  # n(n-1)
        assert len(ls.cross_edges[q]) == cross
    assert within + cross == 6


def test_block_edges_cover_every_edge_once():
    g = build_schedule(20, 3)
    ls = layer_decomposition(g)
    blocks = [e for q in range(ls.q_max + 1) for e in ls.block_edges(q)]
    assert ls.within_edges[0] == ()
    assert sorted(blocks) == sorted(g.edge_pairs())


@pytest.mark.parametrize("offset", [-1, -2, 1, 2])
def test_block_edges_outside_chain_raise(offset):
    # a negative q used to index from the end, and q_max + 1 hit a bare IndexError
    ls = layer_decomposition(build_schedule(20, 3))
    q = offset if offset < 0 else ls.q_max + offset
    with pytest.raises(LayerOutOfRange, match=f"^chain block q={q} is outside \\[0, {ls.q_max}\\]$"):
        ls.block_edges(q)


def test_two_rounds_gives_width_two_layers():
    ls = layer_decomposition(build_schedule(20, 2))
    for q in range(2, ls.q_max + 1):
        assert len(ls.node_layers[q]) == 2


def test_overfull_tail_regime():
    # 2r >= n: the farthest nodes sit one layer beyond the quotient
    ls = layer_decomposition(build_schedule(18, 4))
    assert ls.division_quotient == 2 and ls.remainder == 2
    assert ls.q_max == 3
    assert ls.node_layers[-1] == (15,)
    assert not compare_layer_structures(ls, predicted_layers(18, 4))


@given(
    st.integers(min_value=6, max_value=60).map(lambda k: 2 * k),
    st.integers(min_value=2, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_layers_match_prediction(N, n):
    if 4 * n >= N:
        return
    assert verify_schedule_layers(N, n) == []


@given(
    st.integers(min_value=6, max_value=40).map(lambda k: 2 * k),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_schedule_structure(N, n):
    if n >= N - 1:
        return
    g = build_schedule_unchecked(N, n)
    pairs = g.edge_pairs()
    assert len(set(pairs)) == len(pairs) == N * n // 2
    for rnd in g.rounds():
        nodes = [v for e in rnd for v in e]
        assert sorted(nodes) == list(range(1, N + 1))


@given(
    st.integers(min_value=6, max_value=40).map(lambda k: 2 * k),
    st.integers(min_value=2, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_edge_layers_partition_and_adjacency(N, n):
    if 4 * n >= N:
        return
    g = build_schedule(N, n)
    ls = layer_decomposition(g)
    assert [v for layer in ls.node_layers for v in layer] != []
    assert sorted(v for layer in ls.node_layers for v in layer) == list(range(1, N + 1))
    layer_of = {v: k for k, layer in enumerate(ls.node_layers) for v in layer}
    grouped = sum(len(e) for e in ls.within_edges) + sum(len(e) for e in ls.cross_edges)
    assert grouped == len(g.edges)
    for i, j, _ in g.edges:
        assert abs(layer_of[i] - layer_of[j]) <= 1


def test_disconnected_graph_raises():
    g = build_schedule_unchecked(8, 1)  # a perfect matching is disconnected
    with pytest.raises(DisconnectedGraph):
        layer_decomposition(g)


def test_graph_csv_export(tmp_path):
    g = build_schedule(20, 3)
    path = tmp_path / "g.csv"
    graph_to_csv(g, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "round"]
    assert len(rows) - 1 == 30  # Nn/2


def test_layers_json_export(tmp_path):
    ls = layer_decomposition(build_schedule(16, 3))
    path = tmp_path / "l.json"
    layers_to_json(ls, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"q_max", "remainder", "node_layers", "edge_layers"}
    assert doc["q_max"] == ls.q_max
    assert doc["node_layers"][1] == [2, 4, 6]
    assert set(doc["edge_layers"]) == {"within", "cross"}
