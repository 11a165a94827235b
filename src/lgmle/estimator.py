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
        uniform(self.support)  # raises for a support no distribution can have
        if not 0 < self.tol < np.inf:
            raise InvalidValue(f"tol must be positive and finite, got {self.tol}")
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


def _m_step(marginals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The EM update from (..., N, s) node marginals: their average over the
    nodes, with weights below ``WEIGHT_FLOOR`` clipped to it and renormalized
    (a documented deviation from the pure update).  Also returns how many
    were clipped, per row."""
    mean = marginals.mean(axis=-2)
    probs = np.maximum(mean, WEIGHT_FLOOR)
    return probs / probs.sum(axis=-1, keepdims=True), np.count_nonzero(mean < WEIGHT_FLOOR, axis=-1)


def _em_lockstep(model: LayerChainModel, starts: list[np.ndarray], config: FitConfig):
    """EM from every start at once: one (probs, log-likelihood, trajectory,
    converged) per start, in order.

    The rows of one ``posterior_pass`` are the restarts still running; each
    is bit-identical to its own sweep, so every restart takes the steps it
    would take alone.  The M-step and the stop test run on all of them at
    once, and a row leaves the batch when it stops.
    """
    probs = np.array(starts, dtype=float)
    active = np.arange(len(starts))
    marginals, lls = model.posterior_pass(probs)
    trajectories = [[ll] for ll in lls]
    converged = np.zeros(len(starts), dtype=bool)
    clipped = np.zeros(len(starts), dtype=int)
    for _ in range(config.max_iters):
        probs[active], clipped[active] = _m_step(marginals)
        marginals, lls_new = model.posterior_pass(probs[active])
        for r, ll_new in zip(active, lls_new):
            trajectories[r].append(ll_new)
        # A threshold that overflows to inf means "stop", which is what so
        # large a tol asks for.
        with np.errstate(over="ignore"):
            stop = lls_new - lls < config.tol * np.maximum(1.0, np.abs(lls))
        converged[active] = stop
        if stop.all():
            break
        active, marginals, lls = active[~stop], marginals[~stop], lls_new[~stop]
    for trajectory, stop, count in zip(trajectories, converged, clipped):
        log.debug(
            "em restart: sweeps=%d stop=%s clipped=%d",
            len(trajectory),
            "tol" if stop else "max_iters",
            count,
        )
    return [
        (row_probs, trajectory[-1], trajectory, bool(stop))
        for row_probs, trajectory, stop in zip(probs, trajectories, converged)
    ]


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

    Both modes keep the run with the highest final log-likelihood, ties going
    to the lowest index.  Grid mode scores every one of ``config.candidates``;
    EM mode runs ``config.restarts`` starts.  Every run's final value is
    reported.
    """
    if config.mode == "grid":
        if not config.candidates:
            raise NoCandidates("grid mode needs a non-empty candidate list")
        values = _log_likelihoods([dataset], kernel, config.candidates, LayerChainModel.log_likelihood)[:, 0]
        runs = [(pi.probs, ll, [ll], True) for pi, ll in zip(config.candidates, values)]
    else:
        support = np.asarray(config.support, dtype=float)
        model = LayerChainModel(dataset, kernel, support)
        runs = _em_lockstep(model, _em_starts(config), config)
    finals = [ll for _, ll, _, _ in runs]
    best = int(np.argmax(finals))
    probs, ll, trajectory, converged = runs[best]
    if config.mode == "grid":
        pi_hat = config.candidates[best]
    else:
        pi_hat = DiscreteDistribution(support, probs)
    return FitResult(
        pi_hat=pi_hat,
        final_log_lik=ll,
        trajectory=trajectory,
        converged=converged,
        restart_index=best,
        restart_final_logliks=finals,
    )


def profile_likelihood(
    dataset: Dataset, kernel: Kernel, candidates: list[DiscreteDistribution]
) -> list[tuple[DiscreteDistribution, float]]:
    """Per-candidate log-likelihood normalized by the layer count q_max."""
    q_max = dataset.layers.q_max
    values = _log_likelihoods([dataset], kernel, candidates, LayerChainModel.log_likelihood)[:, 0] / q_max
    return list(zip(candidates, values))
