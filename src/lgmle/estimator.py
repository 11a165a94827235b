"""Maximum likelihood over finite-support weight distributions.

The support grid is fixed and only the simplex weights are free.  EM is the
default: the expectation step is exact (posterior node marginals on the layer
chain) and the maximization step for an i.i.d. prior averages them.  EM runs
as SQUAREM (Varadhan and Roland, Scand. J. Stat. 2008): each cycle takes two
EM maps, extrapolates along them, and keeps the extrapolated point only if it
beats the first EM point, so the log-likelihood never decreases and the fixed
points are EM's.  The tol stop waits while a weight of the kept point below
``SMALL_WEIGHT`` still grows under EM, so an extrapolation that lands on the
weight floor past an interior MLE does not end the fit there.  SQUAREM needs
far fewer posterior sweeps than plain EM, which converges linearly, and only
sublinearly at an MLE on the simplex boundary.
Grid mode simply scans an explicit candidate list and takes the argmax (ties
broken by lowest candidate index).
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .distributions import DiscreteDistribution, random_simplex, uniform
from .errors import H1Violated, InvalidValue, NoCandidates
from .kernels import Kernel
from .likelihood import LayerChainModel, _log_likelihoods
from .simulator import Dataset, _stream

log = logging.getLogger(__name__)

# EM keeps every support point at this floor instead of letting weights hit
# exact zero: a zero would shrink the effective support and change the
# certified kernel floor mid-run.
WEIGHT_FLOOR = 1e-12

# SQUAREM's step cap, per restart, starts at 1.  It grows by this factor
# after an accepted step at the cap, the default of Varadhan and Roland's
# implementation.  A rejected step of length a sets it to a / STEP_GROWTH (no
# less than 1), whether or not a was at the cap: shrinking only after capped
# steps leaves a cap far above the steps that keep failing, and the fit then
# crawls at half EM's speed.
STEP_GROWTH = 4.0

# The tol stop waits while the kept point has a weight below this that its EM
# map raises (its raw mean marginal exceeds it).  An extrapolation can jump
# past an interior MLE onto the floor and still beat p1; EM then lifts that
# weight by a few percent per sweep, gaining less log-likelihood than any
# tol, and the fit would stop there, below the MLE.  sqrt(WEIGHT_FLOOR).
SMALL_WEIGHT = 1e-6


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


def _floor(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., s) weights with entries below ``WEIGHT_FLOOR`` clipped to it and
    renormalized, and how many were clipped, per row."""
    probs = np.maximum(weights, WEIGHT_FLOOR)
    return probs / probs.sum(axis=-1, keepdims=True), np.count_nonzero(weights < WEIGHT_FLOOR, axis=-1)


def _m_step(marginals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The EM update from (..., N, s) node marginals: their average over the
    nodes, floored (a documented deviation from the pure update), with its
    clipped count."""
    return _floor(marginals.mean(axis=-2))


def _extrapolate(p: np.ndarray, p1: np.ndarray, p2: np.ndarray, cap: np.ndarray):
    """SQUAREM's point from p and its two EM images p1, p2, one per (..., s)
    row: p + 2a r + a^2 v with r = p1 - p, v = p2 - 2 p1 + p and the step
    length a = |r| / |v| clipped to [1, cap] (1 where v = 0).  Returns the
    floored point, its clipped count and a."""
    r = p1 - p
    v = p2 - 2.0 * p1 + p
    r_norm = np.sqrt(np.sum(r * r, axis=-1))
    v_norm = np.sqrt(np.sum(v * v, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.minimum(np.maximum(np.where(v_norm > 0.0, r_norm / v_norm, 1.0), 1.0), cap)
        probs, clipped = _floor(p + 2.0 * a[..., None] * r + (a * a)[..., None] * v)
    return probs, clipped, a


def _sweep_extrapolated(model: LayerChainModel, probs: np.ndarray):
    """``posterior_pass`` at the extrapolated rows, with log-likelihood -inf
    for each row whose sweep raises ``H1Violated`` (as one that is not
    finite does): SQUAREM then keeps that row's EM point."""
    try:
        return model.posterior_pass(probs)
    except H1Violated:
        # The batch raises if any row does; every row alone gives what it
        # gives in the batch, so rerun them one by one.
        marginals = np.zeros((len(probs), model.dataset.graph.N, model.s))
        lls = np.full(len(probs), -np.inf)
        for k, row in enumerate(probs):
            try:
                marginals[k], lls[k] = model.posterior_pass(row)
            except H1Violated:
                pass
        return marginals, lls


def _em_lockstep(model: LayerChainModel, starts: list[np.ndarray], config: FitConfig):
    """SQUAREM EM from every start at once: one (probs, log-likelihood,
    trajectory, converged) per start, in order.

    A cycle from p takes the EM point p1 = M(p) and sweeps at it, forms
    p2 = M(p1) from those marginals, and sweeps at the extrapolated point
    of ``_extrapolate``.  It keeps that point unless its log-likelihood is
    below p1's or not finite, and then keeps p1 at no extra sweep, so the
    log-likelihood never falls.  Each row has its own step cap
    (``STEP_GROWTH``).  The stop test compares the kept log-likelihood with
    the one before, once per cycle, and does not fire while a weight of the
    kept point below ``SMALL_WEIGHT`` grows under its EM map.  ``max_iters``
    caps the posterior sweeps after the start's; a row whose budget runs
    out after its p1 sweep ends at p1.  A trajectory holds the start's
    log-likelihood and then one kept value per cycle.

    The rows of one ``posterior_pass`` are the restarts still running; each
    is bit-identical to its own sweep, so every restart takes the steps it
    would take alone.  The M-steps, extrapolations and stop test run on all
    of them at once, and a row leaves the batch when it stops.
    """
    probs = np.array(starts, dtype=float)
    count = len(probs)
    marginals, lls = model.posterior_pass(probs)
    trajectories = [[ll] for ll in lls]
    sweeps = np.ones(count, dtype=int)
    clipped = np.zeros(count, dtype=int)
    fallbacks = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    cap = np.ones(count)
    active = np.arange(count)
    budget = config.max_iters
    while budget and active.size:
        p1, clipped1 = _m_step(marginals)
        marginals1, lls1 = model.posterior_pass(p1)
        sweeps[active] += 1
        budget -= 1
        if budget:
            p2, _ = _m_step(marginals1)
            px, clipped_x, a = _extrapolate(probs[active], p1, p2, cap[active])
            marginals_x, lls_x = _sweep_extrapolated(model, px)
            sweeps[active] += 1
            budget -= 1
            take = lls_x >= lls1  # False where lls_x is -inf or NaN
            fallbacks[active] += ~take
            grown = np.where(a == cap[active], cap[active] * STEP_GROWTH, cap[active])
            cap[active] = np.where(take, grown, np.maximum(a / STEP_GROWTH, 1.0))
            p1 = np.where(take[:, None], px, p1)
            clipped1 = np.where(take, clipped_x, clipped1)
            marginals1 = np.where(take[:, None, None], marginals_x, marginals1)
            lls1 = np.where(take, lls_x, lls1)
        probs[active], clipped[active] = p1, clipped1
        for r, ll in zip(active, lls1):
            trajectories[r].append(ll)
        # A threshold that overflows to inf means "stop", which is what so
        # large a tol asks for.
        with np.errstate(over="ignore"):
            stop = lls1 - lls < config.tol * np.maximum(1.0, np.abs(lls))
        small = p1 < SMALL_WEIGHT
        if small.any():  # the raw EM map costs a pass over the marginals
            stop &= ~(small & (marginals1.mean(axis=-2) > p1)).any(axis=-1)
        converged[active] = stop
        active, marginals, lls = active[~stop], marginals1[~stop], lls1[~stop]
    for row_sweeps, stop, row_clipped, row_fallbacks in zip(sweeps, converged, clipped, fallbacks):
        log.debug(
            "em restart: sweeps=%d stop=%s clipped=%d fallbacks=%d",
            row_sweeps,
            "tol" if stop else "max_iters",
            row_clipped,
            row_fallbacks,
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
