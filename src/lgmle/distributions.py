"""Finite-support candidate distributions for the latent node weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue

SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability distribution on a finite, strictly increasing positive grid.

    ``support`` holds the weight values, ``probs`` the simplex vector.  Both
    are stored as read-only float arrays; instances are safe to share.
    """

    support: np.ndarray
    probs: np.ndarray

    def __init__(self, support, probs):
        support = np.asarray(support, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if support.ndim != 1 or probs.shape != support.shape:
            raise InvalidValue("support and probs must be 1-d arrays of equal length")
        if support.size == 0:
            raise InvalidValue("support must be non-empty")
        # NaN passes every comparison check below, so finiteness comes first.
        if not np.all(np.isfinite(support)):
            raise InvalidValue("support values must be finite")
        if np.any(support <= 0):
            raise InvalidValue("support values must be strictly positive")
        if np.any(np.diff(support) <= 0):
            raise InvalidValue("support values must be strictly increasing")
        if not np.all(np.isfinite(probs)):
            raise InvalidValue("probs must be finite")
        if np.any(probs < 0):
            raise InvalidValue("probs must be non-negative")
        if abs(probs.sum() - 1.0) > SIMPLEX_TOL:
            raise InvalidValue(f"probs must sum to 1 within {SIMPLEX_TOL}")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return self.support.size

    def with_probs(self, probs) -> "DiscreteDistribution":
        """Same support, new simplex weights."""
        return DiscreteDistribution(self.support, probs)

    def same_support(self, other: "DiscreteDistribution") -> bool:
        return self.size == other.size and np.array_equal(self.support, other.support)

    def __eq__(self, other):
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.same_support(other) and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        pairs = ", ".join(f"{v:g}:{p:.6g}" for v, p in zip(self.support, self.probs))
        return f"DiscreteDistribution({pairs})"


def point_mass(value: float) -> DiscreteDistribution:
    return DiscreteDistribution([value], [1.0])


def point_mass_on(support, index: int) -> DiscreteDistribution:
    """Point mass at ``support[index]``, represented on the full grid."""
    support = np.asarray(support, dtype=float)
    probs = np.zeros(support.size)
    probs[index] = 1.0
    return DiscreteDistribution(support, probs)


def uniform(support) -> DiscreteDistribution:
    support = np.asarray(support, dtype=float)
    return DiscreteDistribution(support, np.full(support.size, 1.0 / max(support.size, 1)))


def random_simplex(support, rng: np.random.Generator) -> DiscreteDistribution:
    """Dirichlet(1,...,1) draw on the given support (used for EM restarts)."""
    support = np.asarray(support, dtype=float)
    return DiscreteDistribution(support, rng.dirichlet(np.ones(support.size)))
