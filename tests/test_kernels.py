import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmle import (
    DiscreteDistribution,
    H1Violated,
    InconsistentBlockShapes,
    InvalidValue,
    LayerChainModel,
    NonPositiveWeight,
    OutcomeNotInSpace,
    SupportMismatch,
    bradley_terry,
    bt_home_advantage,
    bt_ties,
    custom_table,
    degree_model,
    epsilon_floor,
    kernel_from_config,
    simulate,
    uniform,
    uniform_kernel,
)
from lgmle.kernels import custom_table_from_json

from conftest import block_log_kernel, kernel_variants

weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


def test_bradley_terry_values():
    k = bradley_terry()
    assert k.prob(1, 1, 1) == pytest.approx(0.5, abs=1e-15)
    assert k.prob(1, 3, 1) == pytest.approx(0.75, abs=1e-15)
    assert k.prob(0, 3, 1) == pytest.approx(0.25, abs=1e-15)


def test_ties_kernel_value():
    k = bt_ties(2.0)
    assert k.prob(0, 1, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert k.prob(1, 1, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_home_advantage_value():
    k = bt_home_advantage(2.0)
    assert k.prob(1, 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert k.prob(0, 1, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_degree_model_value():
    k = degree_model()
    assert k.prob(1, 1, 1) == pytest.approx(0.5, abs=1e-15)
    assert k.prob(0, 2, 2) == pytest.approx(0.2, abs=1e-15)


@given(weights, weights)
@settings(max_examples=100, deadline=None)
def test_normalization(v, w):
    for k in kernel_variants():
        total = sum(k.prob(x, v, w) for x in k.outcomes)
        assert abs(total - 1.0) < 1e-12


@given(weights, weights)
@settings(max_examples=50, deadline=None)
def test_bt_win_loss_symmetry(v, w):
    k = bradley_terry()
    assert k.prob(1, v, w) == pytest.approx(k.prob(0, w, v), rel=1e-14)


def test_outcome_not_in_space():
    with pytest.raises(OutcomeNotInSpace):
        bradley_terry().prob(2, 1, 1)


def test_non_positive_weight():
    with pytest.raises(NonPositiveWeight):
        bradley_terry().prob(1, 0.0, 1.0)
    with pytest.raises(NonPositiveWeight):
        degree_model().prob(1, 1.0, -2.0)


@pytest.mark.parametrize("v, w", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 2.0)])
@pytest.mark.parametrize("method", ["log_prob", "prob"])
def test_weight_not_finite_raises(method, v, w):
    # NaN passes the sign test, and would come back as a NaN probability
    with pytest.raises(NonPositiveWeight) as info:
        getattr(bradley_terry(), method)(1, v, w)
    assert str(info.value) == f"weights must be positive and finite, got v={v}, w={w}"


@pytest.mark.parametrize("point", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "build",
    [
        lambda k, support: k.log_table(support),
        lambda k, support: epsilon_floor(k, support),
        lambda k, support: LayerChainModel(
            simulate(uniform([1.0, 2.0]), k, 16, 3, seed=1), k, support
        ),
    ],
    ids=["log_table", "epsilon_floor", "LayerChainModel"],
)
def test_support_point_not_positive_and_finite_raises(build, point):
    # NaN and inf pass a sign test alone, and would come back as a NaN table
    with pytest.raises(NonPositiveWeight) as info:
        build(bradley_terry(), np.array([1.0, point]))
    assert str(info.value) == f"support values must be positive and finite, got {point}"


def test_epsilon_floor_bt():
    cert = epsilon_floor(bradley_terry(), [1.0, 3.0])
    assert cert.epsilon == pytest.approx(0.25, abs=1e-15)
    x, v, w = cert.attained_at
    assert bradley_terry().prob(x, v, w) == pytest.approx(cert.epsilon)


def test_epsilon_floor_singleton():
    cert = epsilon_floor(bradley_terry(), [1.0])
    assert cert.epsilon == pytest.approx(0.5, abs=1e-15)


def test_epsilon_floor_violated():
    k = custom_table((0, 1), [1.0, 2.0], [[[0.0, 0.5], [1.0, 0.5]], [[1.0, 0.5], [0.0, 0.5]]])
    with pytest.raises(H1Violated):
        epsilon_floor(k, [1.0, 2.0])


def test_custom_table_normalization_enforced():
    with pytest.raises(ValueError, match="normalize"):
        custom_table((0, 1), [1.0], [[[0.6]], [[0.3]]])


def test_custom_table_rejects_nan_entries():
    # NaN is false against every bound, so only a check that NaN fails rejects it
    table = [[[float("nan"), 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
    with pytest.raises(InvalidValue, match=r"^table entries must be probabilities in \[0, 1\]$"):
        custom_table((0, 1), [1.0, 2.0], table)


def test_custom_table_support_mismatch():
    k = custom_table((0, 1), [1.0, 2.0], [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
    with pytest.raises(SupportMismatch):
        k.log_table(np.array([1.0, 3.0]))
    with pytest.raises(SupportMismatch):
        k.log_prob(0, 1.5, 2.0)


def test_custom_table_rejects_repeated_outcome_labels():
    # outcome_index would map both labels to row 0 of a table whose rows differ
    table = [[[0.5, 0.25], [0.75, 0.5]], [[0.5, 0.75], [0.25, 0.5]]]
    with pytest.raises(InvalidValue) as info:
        custom_table([1, 1.0], [1.0, 2.0], table)
    assert str(info.value) == "outcome label 1.0 is listed more than once in [1, 1.0]"


_HALF = [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]


@pytest.mark.parametrize(
    "call, off",
    [
        (lambda k: k.log_prob(0, 1.0, 1.5), "1.5"),
        (lambda k: k.log_table([1.0, 3.0]), "3.0"),
        (lambda k: k.log_table([1.5, 3.0]), "1.5"),
        (lambda k: epsilon_floor(k, [1.0, 1.5]), "1.5"),
        (lambda k: simulate(DiscreteDistribution([1.0, 3.0], [0.4, 0.6]), k, 20, 2, seed=5), "3.0"),
    ],
    ids=["log_prob", "log_table", "log_table-first", "epsilon_floor", "simulate"],
)
def test_weight_off_the_table_grid_named(call, off):
    # every path reaches the table through log_fn, simulate included
    k = custom_table((0, 1), [1.0, 2.0], _HALF)
    with pytest.raises(SupportMismatch) as info:
        call(k)
    assert str(info.value) == f"weight {off} is not on the kernel's table support [1.0, 2.0]"


def test_table_accepts_supports_on_its_grid():
    loss = np.array([[0.4, 0.3, 0.2], [0.5, 0.6, 0.7], [0.1, 0.9, 0.8]])
    k = custom_table((0, 1), [1.0, 2.0, 4.0], np.stack([loss, 1.0 - loss]))
    full = k.log_table([1.0, 2.0, 4.0])
    assert np.array_equal(k.log_table([4.0, 1.0]), full[:, [2, 0]][:, :, [2, 0]])
    assert np.array_equal(k.log_table([2.0]), full[:, 1:2, 1:2])
    assert k.prob(1, 4.0, 2.0) == pytest.approx(0.1)
    assert epsilon_floor(k, [2.0]).epsilon == pytest.approx(0.4)


def test_custom_table_json_roundtrip(tmp_path):
    doc = {
        "outcomes": [0, 1],
        "support": [1.0, 2.0],
        "table": [[[0.4, 0.3], [0.2, 0.1]], [[0.6, 0.7], [0.8, 0.9]]],
    }
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    k = custom_table_from_json(path)
    assert k.prob(1, 2.0, 1.0) == pytest.approx(0.8)
    cert = epsilon_floor(k, [1.0, 2.0])
    assert cert.epsilon == pytest.approx(0.1)


def test_kernel_from_config():
    assert kernel_from_config({"variant": "bradley_terry"}).name == "bradley_terry"
    assert kernel_from_config({"variant": "bt_ties", "theta": 2.0}).theta == 2.0
    assert kernel_from_config({"variant": "degree_model"}).outcomes == (0, 1)
    with pytest.raises(ValueError):
        kernel_from_config({"variant": "nope"})


def test_parameter_validation():
    with pytest.raises(ValueError):
        bt_home_advantage(0.0)
    with pytest.raises(ValueError):
        bt_ties(1.0)


def test_block_log_kernel_uniform():
    k = uniform_kernel(2)
    edges = [(1, 3), (2, 3), (2, 4)]
    value = block_log_kernel(k, edges, [0, 1, 0], [1, 2], [3, 4], [1.0, 1.0], [2.0, 2.0])
    assert value == pytest.approx(3 * math.log(0.5), rel=1e-14)


def test_block_log_kernel_single_edge():
    k = bradley_terry()
    value = block_log_kernel(k, [(1, 2)], [1], [1], [2], [3.0], [1.0])
    assert value == pytest.approx(math.log(0.75), rel=1e-14)


def test_block_log_kernel_epsilon_saturation():
    # six edges all at the floor give exactly the interior block lower bound
    k = uniform_kernel(2)
    cert = epsilon_floor(k, [1.0, 2.0])
    edges = [(1, 4), (1, 6), (2, 4), (2, 6), (3, 5), (4, 6)]
    nodes_q, nodes_q1 = [1, 2, 3], [4, 5, 6]
    value = block_log_kernel(
        k, edges, [0] * 6, nodes_q, nodes_q1, [1.0] * 3, [2.0] * 3
    )
    assert value == pytest.approx(6 * math.log(cert.epsilon), rel=1e-14)
    assert value >= 6 * math.log(cert.epsilon) - 1e-12


def test_block_log_kernel_floor_property(rng):
    k = bradley_terry()
    support = np.array([0.5, 1.0, 2.0])
    cert = epsilon_floor(k, support)
    for _ in range(20):
        m = int(rng.integers(1, 8))
        edges = [(i + 1, 10 + i + 1) for i in range(m)]
        xs = rng.integers(0, 2, size=m).tolist()
        v = rng.choice(support, size=m).tolist()
        w = rng.choice(support, size=m).tolist()
        value = block_log_kernel(
            k, edges, xs, list(range(1, m + 1)), list(range(11, m + 11)), v, w
        )
        assert value >= m * math.log(cert.epsilon) - 1e-12


def test_block_log_kernel_shape_errors():
    k = bradley_terry()
    with pytest.raises(InconsistentBlockShapes):
        block_log_kernel(k, [(1, 2)], [1, 0], [1], [2], [1.0], [1.0])
    with pytest.raises(InconsistentBlockShapes):
        block_log_kernel(k, [(1, 5)], [1], [1], [2], [1.0], [1.0])
    with pytest.raises(InconsistentBlockShapes):
        block_log_kernel(k, [(1, 2)], [1], [1], [2], [1.0, 2.0], [1.0])


@pytest.mark.parametrize("num_outcomes", [0, -3])
def test_uniform_kernel_needs_an_outcome(num_outcomes):
    with pytest.raises(InvalidValue, match=f"^num_outcomes must be at least 1, got {num_outcomes}$"):
        uniform_kernel(num_outcomes)


@pytest.mark.parametrize(
    "variant, theta",
    [("bt_ties", 1.0), ("bt_ties", math.inf), ("bt_ties", math.nan), ("bt_ties", 1e300),
     ("bt_home_advantage", 0.0), ("bt_home_advantage", math.inf), ("bt_home_advantage", math.nan)],
)
def test_kernel_parameter_out_of_range_raises(variant, theta):
    # theta = 1e300 would overflow the ties table's theta**2
    with pytest.raises(InvalidValue, match=f"parameter must .*, got {re.escape(str(theta))}$"):
        kernel_from_config({"variant": variant, "theta": theta})


def test_custom_table_file_errors_name_the_path(tmp_path):
    path = tmp_path / "table.json"
    with pytest.raises(InvalidValue, match=f"^cannot read kernel table {path}: "):
        custom_table_from_json(path)
    path.write_text(json.dumps({"outcomes": [0, 1], "support": [1.0]}))
    with pytest.raises(InvalidValue, match=f"^kernel table {path} is missing key table$"):
        custom_table_from_json(path)
