"""Edge-outcome kernels k(x, v, w) and their uniform lower bounds.

Every kernel maps an outcome x from a finite ordered space and a pair of
positive weights (v, w) to a probability, normalized over x for each weight
pair.  Evaluation is done in log space throughout: interior chain blocks
multiply n(n-1) kernel values, which underflows quickly in probability scale.

For edge (i, j) with i < j the first weight argument is always node i's
weight.  In the home-advantage variant this means the smaller node index is
the home player; the scheduling rounds play no role in home assignment.
This is a convention of this implementation, documented here, not a
consequence of the model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    H1Violated,
    InconsistentBlockShapes,
    InvalidValue,
    NonPositiveWeight,
    OutcomeNotInSpace,
    SupportMismatch,
)

PROB_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class Kernel:
    """An outcome kernel: ordered outcome space plus a log-probability rule.

    ``log_fn(x_index, v, w)`` must accept numpy arrays for v and w and
    broadcast.  Instances are immutable and safe for concurrent use; the
    per-support log tables they produce are plain read-only arrays.
    """

    name: str
    outcomes: tuple
    log_fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    theta: float | None = None

    def outcome_index(self, x) -> int:
        try:
            return self.outcomes.index(x)
        except ValueError:
            raise OutcomeNotInSpace(
                f"outcome {x!r} not in outcome space {self.outcomes}"
            ) from None

    def log_prob(self, x, v, w) -> float:
        """log k(x, v, w) for scalar weights."""
        xi = self.outcome_index(x)
        v = float(v)
        w = float(w)
        if not (0 < v < np.inf and 0 < w < np.inf):
            raise NonPositiveWeight(f"weights must be positive and finite, got v={v}, w={w}")
        return float(self.log_fn(xi, np.asarray(v), np.asarray(w)))

    def prob(self, x, v, w) -> float:
        return float(np.exp(self.log_prob(x, v, w)))

    def log_table(self, support) -> np.ndarray:
        """(|X|, s, s) array of log k(x, support[a], support[b])."""
        support = np.asarray(support, dtype=float)
        bad = support[~((support > 0) & (support < np.inf))]
        if bad.size:
            raise NonPositiveWeight(
                f"support values must be positive and finite, got {float(bad[0])}"
            )
        va = support[:, None]
        wb = support[None, :]
        with np.errstate(divide="ignore"):
            table = np.stack(
                [self.log_fn(xi, va, wb) for xi in range(len(self.outcomes))]
            )
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class EpsilonCertificate:
    """Exact minimum of k over the finite grid, with its location."""

    epsilon: float
    attained_at: tuple  # (x, v, w)

    def nu(self, block_size: int) -> float:
        """Lower bound epsilon**block_size for a block of that many edges."""
        return self.epsilon**block_size


def bradley_terry() -> Kernel:
    def log_fn(xi, v, w):
        win = np.log(v) - np.log(v + w)
        lose = np.log(w) - np.log(v + w)
        return win if xi == 1 else lose

    return Kernel(name="bradley_terry", outcomes=(0, 1), log_fn=log_fn)


def bt_home_advantage(theta: float) -> Kernel:
    """Home player's weight is scaled by theta; first argument is home."""
    if not 0 < theta < np.inf:
        raise InvalidValue(f"home-advantage parameter must be positive and finite, got {theta}")

    def log_fn(xi, v, w):
        denom = np.log(theta * v + w)
        return (np.log(theta) + np.log(v) - denom) if xi == 1 else (np.log(w) - denom)

    return Kernel(
        name="bt_home_advantage", outcomes=(0, 1), log_fn=log_fn, theta=theta
    )


def bt_ties(theta: float) -> Kernel:
    """Win/tie/loss outcomes (1/0/-1); theta > 1 controls the tie mass."""
    if not (theta > 1 and np.isfinite(theta * theta)):
        raise InvalidValue(f"ties parameter must exceed 1 and have a finite square, got {theta}")

    def log_fn(xi, v, w):
        x = (-1, 0, 1)[xi]
        if x == 1:
            return np.log(v) - np.log(v + theta * w)
        if x == -1:
            return np.log(w) - np.log(theta * v + w)
        return (
            np.log(theta**2 - 1)
            + np.log(v)
            + np.log(w)
            - np.log(theta * v + w)
            - np.log(v + theta * w)
        )

    return Kernel(name="bt_ties", outcomes=(-1, 0, 1), log_fn=log_fn, theta=theta)


def degree_model() -> Kernel:
    """Presence/absence outcome with probability vw/(1+vw) of an edge."""

    def log_fn(xi, v, w):
        log1p = np.log1p(v * w)
        return (np.log(v) + np.log(w) - log1p) if xi == 1 else -log1p

    return Kernel(name="degree_model", outcomes=(0, 1), log_fn=log_fn)


def uniform_kernel(num_outcomes: int = 2) -> Kernel:
    """k(x, v, w) = 1/|X| regardless of weights; handy as an uninformative case."""
    if num_outcomes < 1:
        raise InvalidValue(f"num_outcomes must be at least 1, got {num_outcomes}")
    logp = -np.log(num_outcomes)

    def log_fn(xi, v, w):
        shape = np.broadcast(np.asarray(v), np.asarray(w)).shape
        return np.full(shape, logp)

    return Kernel(name="uniform", outcomes=tuple(range(num_outcomes)), log_fn=log_fn)


def custom_table(outcomes, support, table) -> Kernel:
    """Kernel given by an explicit (|X|, s, s) probability table on a grid.

    The outcome labels must be distinct.  The table must normalize over
    outcomes for every weight pair; zero entries are allowed at construction
    (they surface as H1 violations when a floor is requested).  The kernel
    is defined on the grid points only: any support whose points lie on the
    grid works, and a weight off the grid raises ``SupportMismatch``.
    """
    outcomes = tuple(outcomes)
    for k, x in enumerate(outcomes):
        if x in outcomes[:k]:
            raise InvalidValue(f"outcome label {x!r} is listed more than once in {list(outcomes)}")
    try:
        support = np.asarray(support, dtype=float)
        table = np.asarray(table, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidValue(f"table support and entries must be arrays of numbers: {exc}") from exc
    if table.shape != (len(outcomes), support.size, support.size):
        raise InconsistentBlockShapes(
            f"table shape {table.shape} != (|X|, s, s) = "
            f"({len(outcomes)}, {support.size}, {support.size})"
        )
    if not np.all((table >= 0) & (table <= 1)):  # NaN fails both comparisons
        raise InvalidValue("table entries must be probabilities in [0, 1]")
    sums = table.sum(axis=0)
    if np.max(np.abs(sums - 1.0)) > PROB_NORMALIZATION_TOL:
        raise InvalidValue(
            f"table must normalize over outcomes within {PROB_NORMALIZATION_TOL}"
        )
    with np.errstate(divide="ignore"):
        log_table = np.log(table)
    support.setflags(write=False)
    log_table.setflags(write=False)

    def grid_index(values):
        """The index of each weight on the grid (its first match)."""
        values = np.asarray(values)
        hits = values[..., None] == support
        found = hits.any(axis=-1)
        if not found.all():
            value = float(values[~found][0])
            raise SupportMismatch(
                f"weight {value} is not on the kernel's table support {support.tolist()}"
            )
        return hits.argmax(axis=-1)

    def log_fn(xi, v, w):
        return log_table[xi][grid_index(v), grid_index(w)]

    return Kernel(
        name="custom_table",
        outcomes=outcomes,
        log_fn=log_fn,
    )


def custom_table_from_json(path) -> Kernel:
    """The :func:`custom_table` of a JSON object with keys ``outcomes``,
    ``support`` and ``table``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidValue(f"cannot read kernel table {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidValue(f"kernel table {path} must be a JSON object")
    for key in ("outcomes", "support", "table"):
        if key not in doc:
            raise InvalidValue(f"kernel table {path} is missing key {key}")
    return custom_table(doc["outcomes"], doc["support"], doc["table"])


def kernel_from_config(config: dict) -> Kernel:
    """Build a kernel from a config mapping like {"variant": "bradley_terry"}."""
    variant = config["variant"]
    if variant == "bradley_terry":
        return bradley_terry()
    if variant == "bt_home_advantage":
        return bt_home_advantage(float(config["theta"]))
    if variant == "bt_ties":
        return bt_ties(float(config["theta"]))
    if variant == "degree_model":
        return degree_model()
    if variant == "uniform":
        return uniform_kernel(int(config.get("num_outcomes", 2)))
    if variant == "custom_table":
        if "path" in config:
            return custom_table_from_json(config["path"])
        return custom_table(config["outcomes"], config["support"], config["table"])
    raise InvalidValue(f"unknown kernel variant {variant!r}")


def epsilon_floor(kernel: Kernel, support) -> EpsilonCertificate:
    """Exact minimum of k over outcomes x support x support.

    Raises H1Violated if the minimum is zero or a value is not finite:
    downstream mixing bounds are vacuous without a positive floor.
    """
    support = np.asarray(support, dtype=float)
    return _table_floor(kernel, support, kernel.log_table(support))


def _table_floor(kernel: Kernel, support: np.ndarray, table: np.ndarray) -> EpsilonCertificate:
    """:func:`epsilon_floor` of the log table ``kernel.log_table(support)``.

    Names the first non-finite entry, else the minimum, which may underflow
    to zero in probability scale.
    """
    bad = ~np.isfinite(table)
    flat = int(np.argmax(bad)) if bad.any() else int(np.argmin(table))
    xi, ai, bi = np.unravel_index(flat, table.shape)
    eps = float(np.exp(table[xi, ai, bi]))
    at = (kernel.outcomes[xi], float(support[ai]), float(support[bi]))
    if bad[xi, ai, bi] or eps <= 0.0:
        raise H1Violated(
            f"kernel value k{at} = {eps} on the support grid; "
            "H1 needs every value positive and finite"
        )
    return EpsilonCertificate(epsilon=eps, attained_at=at)
