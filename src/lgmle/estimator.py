"""Maximum likelihood over finite-support weight distributions.

The support grid is fixed and only the simplex weights are free.  EM is the
default: the expectation step is exact (posterior node marginals on the layer
chain) and the maximization step for an i.i.d. prior averages them, so the
log-likelihood never decreases.  Grid mode simply scans an explicit candidate
list and takes the argmax (ties broken by lowest candidate index).
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .distributions import DiscreteDistribution, random_simplex, uniform
from .errors import InvalidValue, NoCandidates
from .kernels import Kernel
from .likelihood import LayerChainModel, _log_likelihoods
from .simulator import Dataset, _stream

log = logging.getLogger(__name__)

# EM keeps every support point at this floor instead of letting weights hit
# exact zero: a zero would shrink the effective support and change the
# certified kernel floor mid-run.
WEIGHT_FLOOR = 1e-12


@dataclass
class FitConfig:
    """Settings for :func:`fit_mle`.

    ``mode`` is "em" or "grid".  EM initialization: "uniform" starts at the
    flat simplex (additional restarts use random draws), "random" draws every
    start from Dirichlet(1,..,1), "explicit" takes ``init_list``: one entry
    per restart, each a distribution or a plain probability list over
    ``support``.  Grid mode ignores the EM fields and scans ``candidates``.
    """

    support: tuple[float, ...]
    mode: str = "em"
    init: str = "uniform"
    init_list: list[DiscreteDistribution | Sequence[float]] | None = None
    max_iters: int = 200
    tol: float = 1e-8
    restarts: int = 1
    seed: int = 0
    candidates: list[DiscreteDistribution] | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidValue("tol must be positive")
        if self.max_iters < 1:
            raise InvalidValue("max_iters must be at least 1")
        if self.restarts < 1:
            raise InvalidValue("restarts must be at least 1")
        if self.mode not in ("em", "grid"):
            raise InvalidValue(f"unknown fit mode {self.mode!r}")
        if self.init not in ("uniform", "random", "explicit"):
            raise InvalidValue(f"unknown init {self.init!r}")


@dataclass
class FitResult:
    pi_hat: DiscreteDistribution
    final_log_lik: float
    trajectory: list[float]
    converged: bool
    restart_index: int
    restart_final_logliks: list[float] = field(default_factory=list)


def _m_step(marginals: np.ndarray) -> tuple[np.ndarray, int]:
    """The EM update from (N, s) node marginals: their average, with weights
    below ``WEIGHT_FLOOR`` clipped to it and renormalized (a documented
    deviation from the pure update).  Also returns how many were clipped."""
    mean = marginals.mean(axis=0)
    probs = np.maximum(mean, WEIGHT_FLOOR)
    return probs / probs.sum(), int(np.count_nonzero(mean < WEIGHT_FLOOR))


def em_step(dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel) -> DiscreteDistribution:
    """One EM update: average the exact posterior node marginals.

    Weights below the floor are clipped and renormalized (documented
    deviation from the pure update; see WEIGHT_FLOOR).
    """
    model = LayerChainModel(dataset, kernel, pi.support)
    probs, _ = _m_step(model.node_marginals(pi.probs))
    return pi.with_probs(probs)


def _em_run(model: LayerChainModel, start: np.ndarray, config: FitConfig):
    probs = np.asarray(start, dtype=float)
    marginals, ll = model.posterior_pass(probs)
    trajectory = [ll]
    converged = False
    clipped = 0
    for _ in range(config.max_iters):
        probs, clipped = _m_step(marginals)
        marginals, ll_new = model.posterior_pass(probs)
        trajectory.append(ll_new)
        converged = bool(ll_new - ll < config.tol * max(1.0, abs(ll)))
        ll = ll_new
        if converged:
            break
    log.debug(
        "em restart: sweeps=%d stop=%s clipped=%d",
        len(trajectory),
        "tol" if converged else "max_iters",
        clipped,
    )
    return probs, ll, trajectory, converged


def _em_starts(config: FitConfig) -> list[np.ndarray]:
    support = np.asarray(config.support, dtype=float)
    starts: list[np.ndarray] = []
    if config.init == "explicit":
        if not config.init_list or len(config.init_list) < config.restarts:
            raise InvalidValue("explicit init requires init_list with one entry per restart")
        for k, entry in enumerate(config.init_list[: config.restarts]):
            probs = entry.probs if isinstance(entry, DiscreteDistribution) else entry
            try:
                starts.append(DiscreteDistribution(support, probs).probs)
            except (TypeError, ValueError) as exc:
                raise InvalidValue(
                    f"init_list[{k}] is not a distribution on the support: {exc}"
                ) from exc
        return starts
    for r in range(config.restarts):
        if config.init == "uniform" and r == 0:
            starts.append(uniform(support).probs)
        else:
            starts.append(random_simplex(support, _stream(config.seed, 100 + r)).probs)
    return starts


def fit_mle(dataset: Dataset, kernel: Kernel, config: FitConfig) -> FitResult:
    """Best fit across restarts (EM) or candidates (grid).

    Grid mode returns the exhaustive argmax over ``config.candidates`` with
    ties broken by the lowest candidate index.  EM mode runs
    ``config.restarts`` starts and keeps the highest final log-likelihood
    (ties: lowest restart index); every restart's final value is reported.
    """
    if config.mode == "grid":
        if not config.candidates:
            raise NoCandidates("grid mode needs a non-empty candidate list")
        values = list(_log_likelihoods(dataset, kernel, config.candidates))
        best = 0
        for idx, value in enumerate(values):
            if value > values[best]:
                best = idx
        return FitResult(
            pi_hat=config.candidates[best],
            final_log_lik=values[best],
            trajectory=[values[best]],
            converged=True,
            restart_index=best,
            restart_final_logliks=values,
        )

    support = np.asarray(config.support, dtype=float)
    model = LayerChainModel(dataset, kernel, support)
    best_result = None
    best_index = -1
    finals: list[float] = []
    for r, start in enumerate(_em_starts(config)):
        probs, ll, trajectory, converged = _em_run(model, start, config)
        finals.append(ll)
        if best_result is None or ll > best_result[1]:
            best_result = (probs, ll, trajectory, converged)
            best_index = r
    probs, ll, trajectory, converged = best_result
    return FitResult(
        pi_hat=DiscreteDistribution(support, probs),
        final_log_lik=ll,
        trajectory=trajectory,
        converged=converged,
        restart_index=best_index,
        restart_final_logliks=finals,
    )


def profile_likelihood(
    dataset: Dataset, kernel: Kernel, candidates: list[DiscreteDistribution]
) -> list[tuple[DiscreteDistribution, float]]:
    """Per-candidate log-likelihood normalized by the layer count q_max."""
    q_max = dataset.layers.q_max
    values = _log_likelihoods(dataset, kernel, candidates) / q_max
    return list(zip(candidates, values))
