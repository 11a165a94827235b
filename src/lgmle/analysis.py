"""Risk estimation, metric/entropy utilities, and numerical bound checks.

Total variation here is the full-sum convention: ||p - q||_tv = sum_a
|p_a - q_a|, with range [0, 2] (the supremum over test functions bounded by
1).  Every bound in this module uses that convention.

The limit likelihood of a candidate distribution is estimated by the
normalized full log-likelihood at large N.  The boundary blocks contribute a
deterministic O(1/q_max) bias (their conditional mass is sandwiched between
epsilon^(3 n^2) and 1), so estimates require a minimum number of layers.
Excess-risk estimates share the simulated datasets between the two arms
(common random numbers); the difference of the two normalized log-likelihoods
is far more stable than either arm alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution
from .errors import InvalidValue, LayerOutOfRange
from .estimator import FitConfig, fit_mle
from .kernels import Kernel, epsilon_floor
from .likelihood import (
    ContractionProfile,
    LayerChainModel,
    _digits,
    _log_likelihoods,
    _support_groups,
)
from .simulator import Dataset, _simulate_replicates

log = logging.getLogger(__name__)

# -- metrics ----------------------------------------------------------------


def _embed_union(pi: DiscreteDistribution, pi_prime: DiscreteDistribution):
    if pi.same_support(pi_prime):
        return pi.probs, pi_prime.probs
    union = np.union1d(pi.support, pi_prime.support)

    def embed(d: DiscreteDistribution) -> np.ndarray:
        idx = np.searchsorted(union, d.support)
        out = np.zeros(union.size)
        out[idx] = d.probs
        return out

    return embed(pi), embed(pi_prime)


def tv_distance(pi: DiscreteDistribution, pi_prime: DiscreteDistribution) -> float:
    """Full-sum total variation; distributions on different grids are embedded
    into the union grid first (support points identify by exact value)."""
    p, q = _embed_union(pi, pi_prime)
    return float(np.abs(p - q).sum())


def tv_log_distance(pi: DiscreteDistribution, pi_prime: DiscreteDistribution) -> float:
    """The covering metric: tv*log(1/tv) below 1/e, plain tv above.

    Continuous at 1/e and at 0 (limit value 0).  This is the metric whose
    covering numbers drive the risk bound.
    """
    return tv_log_of_tv(tv_distance(pi, pi_prime))


def tv_log_of_tv(tv: float) -> float:
    if tv < 0:
        raise InvalidValue("total variation cannot be negative")
    if tv == 0.0:
        return 0.0
    if tv <= math.exp(-1):
        return tv * math.log(1.0 / tv)
    return tv


def product_tv_distance(
    pi: DiscreteDistribution, pi_prime: DiscreteDistribution, m: int
) -> float:
    """Exact total variation between the m-fold product measures."""
    if m < 0:
        raise InvalidValue(f"product order m must be non-negative, got {m}")
    if not pi.same_support(pi_prime):
        raise InvalidValue("product TV requires a common support")
    digits = _digits(pi.size, m)
    p = pi.probs[digits].prod(axis=1)
    q = pi_prime.probs[digits].prod(axis=1)
    return float(np.abs(p - q).sum())


# -- limit likelihood and excess risk ----------------------------------------


@dataclass(frozen=True)
class LimitLikelihoodEstimate:
    value: float
    stderr: float
    per_replicate: np.ndarray
    q_max: int


@dataclass
class RiskParams:
    """Monte-Carlo settings shared by the risk estimators."""

    N: int = 2000
    n: int = 2
    replicates: int = 20
    base_seed: int = 7
    min_q_max: int = 30

    def seeds(self) -> list[int]:
        return _seeds(self.base_seed, self.replicates)


@dataclass(frozen=True)
class RiskReport:
    pi: DiscreteDistribution
    L_hat_star: float
    L_hat_star_stderr: float
    L_hat_pi: float
    L_hat_pi_stderr: float
    excess_risk: float
    excess_stderr: float
    N_used: int
    replicates: int
    window: str = "full"


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _seeds(base_seed: int, count: int, *keys: int) -> list[int]:
    """``count`` replicate seeds from ``SeedSequence([base_seed, *keys])``;
    a negative ``base_seed`` raises ``InvalidValue``."""
    if base_seed < 0:
        raise InvalidValue(f"base_seed must be non-negative, got {base_seed}")
    return [int(x) for x in np.random.SeedSequence([base_seed, *keys]).generate_state(count)]


def _require_counts(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise InvalidValue(f"{name} must be at least 1, got {count}")


def _replicate_scores(datasets: list[Dataset], kernel: Kernel, arms, score) -> np.ndarray:
    """(arms x replicates) array of ``score(model, rows)`` values: every arm
    is scored on every dataset (common random numbers), as the rows of one
    structure per distinct support, on which the datasets sweep in lockstep."""
    vals = _log_likelihoods(datasets, kernel, arms, score)
    log.debug(
        "scored: arms=%d replicates=%d supports=%d",
        len(arms),
        len(datasets),
        len(_support_groups(arms)),
    )
    return vals


def _risk_scores(arms, kernel: Kernel, pi_star: DiscreteDistribution, params: RiskParams):
    """(normalized log-likelihoods of the arms per replicate, q_max) on
    ``params.replicates`` datasets simulated from pi_star."""
    _require_counts(replicates=params.replicates)
    datasets = _simulate_replicates(pi_star, kernel, params.N, params.n, params.seeds())
    q_max = datasets[0].layers.q_max
    if q_max < params.min_q_max:
        raise InvalidValue(
            f"q_max = {q_max} is below the configured minimum {params.min_q_max}; "
            "the boundary bias of the normalized likelihood is O(1/q_max)"
        )
    return _replicate_scores(datasets, kernel, arms, LayerChainModel.log_likelihood) / q_max, q_max


def estimate_limit_likelihood(
    pi: DiscreteDistribution,
    kernel: Kernel,
    pi_star: DiscreteDistribution,
    params: RiskParams | None = None,
) -> LimitLikelihoodEstimate:
    """Mean and stderr of the q_max-normalized log-likelihood of ``pi`` over
    independent datasets simulated from ``pi_star``."""
    (vals,), q_max = _risk_scores([pi], kernel, pi_star, params or RiskParams())
    return LimitLikelihoodEstimate(
        value=float(vals.mean()),
        stderr=_stderr(vals),
        per_replicate=vals,
        q_max=q_max,
    )


def excess_risk(
    pi: DiscreteDistribution,
    kernel: Kernel,
    pi_star: DiscreteDistribution,
    params: RiskParams | None = None,
) -> RiskReport:
    """Estimated limit-likelihood gap of ``pi`` against ``pi_star``.

    Both arms are evaluated on the same simulated datasets, so for
    ``pi == pi_star`` the estimate is exactly zero.
    """
    return excess_risks([pi], kernel, pi_star, params)[0]


def excess_risks(
    candidates,
    kernel: Kernel,
    pi_star: DiscreteDistribution,
    params: RiskParams | None = None,
) -> list[RiskReport]:
    """:func:`excess_risk` of every candidate, on one set of datasets.

    Each replicate dataset is simulated once, and pi_star and every
    candidate are scored on it with one chain model per distinct support,
    built one at a time.  The reports equal those of per-candidate
    :func:`excess_risk` calls exactly.
    """
    params = params or RiskParams()
    arms = [pi_star, *candidates]
    vals, _ = _risk_scores(arms, kernel, pi_star, params)
    star_vals = vals[0]
    reports = []
    for pi, pi_vals in zip(arms[1:], vals[1:]):
        diffs = star_vals - pi_vals
        reports.append(
            RiskReport(
                pi=pi,
                L_hat_star=float(star_vals.mean()),
                L_hat_star_stderr=_stderr(star_vals),
                L_hat_pi=float(pi_vals.mean()),
                L_hat_pi_stderr=_stderr(pi_vals),
                excess_risk=float(diffs.mean()),
                excess_stderr=_stderr(diffs),
                N_used=params.N,
                replicates=params.replicates,
            )
        )
    return reports


# -- deviation-bound scale and entropy ----------------------------------------


# The tail level t of the reported bound scale: e^(-t^2) = 1/2 matches a median.
_MEDIAN_T = math.sqrt(math.log(2.0))
# C of the simplex net bound N(simplex, tv, u) <= (C/u)^(s-1).
_COVERING_CONSTANT = 10.0


def risk_bound_rhs(n: int, epsilon: float, N: int, entropy_integral: float, t: float) -> float:
    """Reference scale of the excess-risk deviation bound.

    Its constant c is unspecified by the theory and fixed to 1 for reporting;
    only shape and monotonicity statements should ever be asserted against
    this value.  ``epsilon`` must lie in (0, 1] and ``N`` be at least 1.
    """
    if not 0 < epsilon <= 1:
        raise InvalidValue(f"epsilon must lie in (0, 1], got {epsilon}")
    _require_counts(N=N)
    return n * epsilon ** (-6 * n * n) / math.sqrt(N) * (entropy_integral + t)


def simplex_entropy_integral(s: int, resolution: int = 4096) -> float:
    """Entropy integral of the (s-1)-simplex under the covering metric.

    Uses the textbook net bound N(simplex, tv, u) <= (C/u)^(s-1) (an external
    input, not part of the model; C is 10) together with the exact
    substitution between tv-radius u and metric radius tv*log(1/tv): the
    integral becomes the tv-entropy integrand weighted by the derivative
    log(1/u) - 1 below 1/e.  Log-spaced trapezoid quadrature; ``resolution``
    is the number of grid points, at least 2.
    """
    if s < 1:
        raise InvalidValue("support size must be at least 1")
    if resolution < 2:
        raise InvalidValue(f"resolution must be at least 2 grid points, got {resolution}")
    if s == 1:
        return 0.0
    u = np.geomspace(1e-15, 2.0, resolution)
    log_cover = (s - 1) * np.maximum(0.0, np.log(_COVERING_CONSTANT / u))
    dphi = np.where(u <= math.exp(-1), np.log(1.0 / u) - 1.0, 1.0)
    y = np.sqrt(log_cover) * dphi
    return float((np.diff(u) * (y[1:] + y[:-1]) / 2.0).sum())


# -- forgetting / bounded-difference / increment checks -----------------------


@dataclass(frozen=True)
class Envelope:
    """One envelope check as columns.  Row r is the window
    ``{key: col[r] for key, col in windows.items()}`` (e.g. q, m, ell), its
    measured ``value[r]`` and its ``bound[r]``."""

    windows: dict[str, np.ndarray]
    value: np.ndarray
    bound: np.ndarray

    def __len__(self) -> int:
        return self.value.size

    def rows(self) -> list[tuple]:
        """(*window, value, bound) per row, as Python scalars."""
        columns = [*self.windows.values(), self.value, self.bound]
        return list(zip(*(col.tolist() for col in columns)))

    def violations(self, tol: float) -> int:
        """Number of rows whose value exceeds the bound by more than ``tol``."""
        return int(np.count_nonzero(self.value > self.bound + tol))

    def slack_summary(self) -> str:
        """Row count, smallest slack (bound - value) and the tightest row
        (largest value / bound over rows with a positive bound), each with
        its window, for logs."""
        if not len(self):
            return "rows=0"
        slack = self.bound - self.value
        row = int(np.argmin(slack))
        summary = f"rows={len(self)} min_slack={float(slack[row])!r} at {self._where(row)}"
        bounded = np.flatnonzero(self.bound > 0)
        if bounded.size:
            ratio = self.value[bounded] / self.bound[bounded]
            k = int(np.argmax(ratio))
            summary += f" tightest={float(ratio[k])!r} at {self._where(int(bounded[k]))}"
        return summary

    def _where(self, row: int) -> str:
        return " ".join(f"{key}={int(col[row])}" for key, col in self.windows.items())


@dataclass(frozen=True)
class Diagnosis:
    """What ``lgmle diagnose`` reports, all from one model."""

    epsilon: float
    contraction: ContractionProfile
    envelopes: dict[str, Envelope]  # "forgetting", "magnitude", "contraction"


def _forgetting_bounds(model: LayerChainModel) -> np.ndarray:
    """``B[q, m] = nu_q^-1 prod_{k=q+1}^{m-1} (1 - nu_k)`` for every interior
    2 <= q <= m <= q_max - 1, nu_k from ``model.block_nus()``: the envelope of
    the change of log P(X_q | X_{q+1:m}) under a change at layer m or beyond.

    Row q is a running product over m, multiplied in the order of the
    product's factors, then divided by nu_q.  A nu_q that underflows to 0
    (an epsilon near 1e-300) makes row q inf: the bound is vacuous there.
    """
    nus = np.array(model.block_nus())
    top = model.layers.q_max - 1
    bounds = np.ones((top + 1, top + 1))
    for q in range(2, top + 1):
        bounds[q, q + 2 :] = np.cumprod(1.0 - nus[q + 1 : top])
        with np.errstate(divide="ignore"):
            bounds[q] /= nus[q]
    return bounds


def _interior_top(layers) -> int:
    """q_max - 1, the last layer of an interior window 2 <= q <= m <= q_max - 1;
    a graph with no such window (q_max <= 2) raises ``LayerOutOfRange``."""
    top = layers.q_max - 1
    if top < 2:
        raise LayerOutOfRange("graph too small: no interior window")
    return top


def _interior_profiles(dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel):
    """(model, profiles): ``profiles[m, q]`` is log P(X_q | X_{q+1:m}) for
    every interior window 2 <= q <= m <= q_max - 1 (NaN elsewhere), from one
    backward sweep over all horizons m."""
    top = _interior_top(dataset.layers)
    model = LayerChainModel(dataset, kernel, pi.support)
    profiles = np.full((top + 1, top + 1), np.nan)
    profiles[2:] = model.conditional_profiles(pi.probs, range(2, top + 1))
    return model, profiles


def _forgetting_envelope(model, profiles, q_values=None, max_ell=None) -> Envelope:
    """Gaps |log P(X_q | X_{q+1:m}) - log P(X_q | X_{q+1:m+ell})| against
    :func:`_forgetting_bounds`, ordered by q (as given), m, then ell."""
    if max_ell is not None and max_ell < 1:
        raise InvalidValue(f"max_ell must be at least 1, got {max_ell}")
    top = _interior_top(model.layers)
    q_values = range(2, top + 1) if q_values is None else list(q_values)
    for q in q_values:
        if not 2 <= q <= top:
            raise LayerOutOfRange(f"forgetting window q={q} is outside [2, {top}]")
    bounds = _forgetting_bounds(model)
    windows = [np.empty((3, 0), dtype=int)]
    for q in q_values:
        # (m - q, m + ell - q) over the upper triangle, m ascending, then ell
        i, j = np.triu_indices(top + 1 - q, 1)
        if max_ell is not None:
            keep = j - i <= max_ell
            i, j = i[keep], j[keep]
        windows.append(np.stack([np.full(i.size, q), q + i, j - i]))
    q, m, ell = np.concatenate(windows, axis=1)
    gap = np.abs(profiles[m, q] - profiles[m + ell, q])
    return Envelope({"q": q, "m": m, "ell": ell}, gap, bounds[q, m])


def _magnitude_envelope(model, profiles) -> Envelope:
    """|log P(X_q | X_{q+1:m})| against |X_q| log(1/epsilon), ordered by m,
    then q."""
    m, q = np.tril_indices(profiles.shape[0])
    interior = q >= 2
    m, q = m[interior], q[interior]
    epsilon = model.floor.epsilon
    bounds = np.array([size * math.log(1.0 / epsilon) for size in model.block_sizes])
    return Envelope({"q": q, "m": m}, np.abs(profiles[m, q]), bounds[q])


def _contraction_envelope(profile: ContractionProfile) -> Envelope:
    """Each backward step's total variation against 1 - nu_k times the total
    variation before the step."""
    steps = profile.steps
    tv = np.array([s.tv for s in steps])
    before = np.concatenate(([profile.initial_tv], tv[:-1]))
    bound = np.array([s.step_factor for s in steps]) * before
    return Envelope({"layer": np.array([s.layer for s in steps], dtype=int)}, tv, bound)


def forgetting_profile(
    dataset: Dataset,
    pi: DiscreteDistribution,
    kernel: Kernel,
    q_values=None,
    max_ell: int | None = None,
) -> Envelope:
    """Measured horizon-extension gaps of the conditional block likelihoods.

    For every interior q and every horizon pair (m, m + ell), window (q, m,
    ell) holds |log P(X_q | X_{q+1:m}) - log P(X_q | X_{q+1:m+ell})| as its
    value and its geometric envelope as its bound.  One backward sweep for
    all horizons.  Every q in ``q_values`` must lie in [2, q_max - 1].
    """
    profiles = _interior_profiles(dataset, pi, kernel)
    return _forgetting_envelope(*profiles, q_values, max_ell)


def conditional_magnitude_rows(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel
) -> Envelope:
    """|log P(X_q | X_{q+1:m})| against |X_q| log(1/epsilon), windows (q, m)
    over the interior."""
    return _magnitude_envelope(*_interior_profiles(dataset, pi, kernel))


def _diagnose(dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel) -> Diagnosis:
    """The forgetting, magnitude and contraction envelopes, from one model
    and one backward sweep for all horizons."""
    model, profiles = _interior_profiles(dataset, pi, kernel)
    forgetting = _forgetting_envelope(model, profiles)
    contraction = model.contraction_profile(pi.probs, 2, dataset.layers.q_max - 1)
    envelopes = {
        "forgetting": forgetting,
        "magnitude": _magnitude_envelope(model, profiles),
        "contraction": _contraction_envelope(contraction),
    }
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "diagnose envelopes: %s",
            "; ".join(f"{name} {env.slack_summary()}" for name, env in envelopes.items()),
        )
    return Diagnosis(model.floor.epsilon, contraction, envelopes)


def single_flip_rows(
    dataset: Dataset,
    pi: DiscreteDistribution,
    kernel: Kernel,
) -> Envelope:
    """Exhaustive single-outcome flips against their influence envelope.

    Every edge (i, j) of every interior block gets every alternative outcome
    (``outcome`` indexes ``kernel.outcomes``); window (q, flip_layer, i, j,
    outcome) holds the change of log P(X_q | X_{q+1:m}), m = q_max - 1, for
    each interior q <= flip layer, against nu_q^-1 *
    prod_{k=q+1}^{flip-1}(1 - nu_k).
    """
    m = _interior_top(dataset.layers)
    model = LayerChainModel(dataset, kernel, pi.support)
    bounds = _forgetting_bounds(model)
    (base,) = model.conditional_profiles(pi.probs, [m])
    windows: list[tuple[int, ...]] = []
    gaps = [np.empty(0)]
    for flip_layer in range(2, m + 1):
        for e, edge in enumerate(dataset.layers.block_edges(flip_layer)):
            original = kernel.outcome_index(dataset.outcomes[edge])
            for outcome in range(len(kernel.outcomes)):
                if outcome == original:
                    continue
                flipped = model._flipped(flip_layer, e, outcome)
                (prof,) = flipped.conditional_profiles(pi.probs, [m])
                windows += [(q, flip_layer, *edge, outcome) for q in range(2, flip_layer + 1)]
                gaps.append(np.abs(base[2 : flip_layer + 1] - prof[2 : flip_layer + 1]))
    q, flip_layer, i, j, outcome = np.array(windows, dtype=int).reshape(-1, 5).T
    columns = {"q": q, "flip_layer": flip_layer, "i": i, "j": j, "outcome": outcome}
    return Envelope(columns, np.concatenate(gaps), bounds[q, flip_layer])


def increment_envelope(nu: float, q: int, m: int, block_tv: float) -> float:
    """2 * block_tv * sum_{ell=0}^{m+1-q} nu^-3 (1-nu)^(ell-1).

    ``block_tv`` is the total variation between the two per-layer block
    priors; for layer width w it may be bounded by w * tv(pi, pi') (product
    inequality) or computed exactly.
    """
    total = sum((1.0 - nu) ** (ell - 1) for ell in range(0, m + 2 - q))
    return 2.0 * block_tv * total / nu**3


def increment_rows(
    dataset: Dataset,
    pi: DiscreteDistribution,
    pi_prime: DiscreteDistribution,
    kernel: Kernel,
) -> dict[str, Envelope]:
    """|log P_pi(X_q | X_{q+1:m}) - log P_pi'(X_q | X_{q+1:m})| vs envelopes,
    windows (q, m) for m = q_max - 1 and every interior q <= m.

    "product" bounds the block total variation by the product-TV inequality,
    "exact" computes it; the two share their window and value columns.
    """
    if not pi.same_support(pi_prime):
        raise InvalidValue("increment comparison requires a common support")
    m = _interior_top(dataset.layers)
    model = LayerChainModel(dataset, kernel, pi.support)
    n = dataset.graph.n
    nu = model.floor.nu(n * (n - 1))
    width = 2 * (n - 1)
    tv = tv_distance(pi, pi_prime)
    tv_product_bound = width * tv
    tv_exact = product_tv_distance(pi, pi_prime, width)
    prof_a, prof_b = model.conditional_profiles([pi.probs, pi_prime.probs], m)
    qs = range(2, m + 1)
    windows = {"q": np.array(qs, dtype=int), "m": np.full(len(qs), m)}
    gap = np.abs(prof_a[2 : m + 1] - prof_b[2 : m + 1])
    return {
        name: Envelope(windows, gap, np.array([increment_envelope(nu, q, m, tv) for q in qs]))
        for name, tv in (("product", tv_product_bound), ("exact", tv_exact))
    }


# -- scaling experiment --------------------------------------------------------


@dataclass(frozen=True)
class ScalingRow:
    N: int
    median_excess: float
    iqr: float
    rhs: float


@dataclass(frozen=True)
class ScalingTable:
    rows: tuple[ScalingRow, ...]
    n: int
    support: tuple[float, ...]
    t: float
    entropy_integral: float
    epsilon: float
    seeds_per_n: int
    fits: tuple[DiscreteDistribution, ...]  # pi_hat per dataset, in N_list x seed order


def scaling_experiment(
    pi_star: DiscreteDistribution,
    kernel: Kernel,
    N_list,
    n: int = 2,
    seeds_per_n: int = 20,
    base_seed: int = 20240,
    fit_config: FitConfig | None = None,
    eval_N: int = 4000,
    eval_replicates: int = 8,
) -> ScalingTable:
    """Median excess risk of the fitted MLE per graph size, with the bound scale.

    For each N, ``seeds_per_n`` datasets are simulated from pi_star and the
    MLE is fitted on pi_star's support.  Every fit is then scored against
    pi_star on the same ``eval_replicates`` datasets of size ``eval_N``
    (common random numbers).  For two-point supports the residual linear
    error of the plug-in difference at pi_star is removed with a
    central-difference slope correction, which keeps the medians of
    near-optimal fits unbiased.  The reported rhs uses c = 1 and t =
    sqrt(log 2), so that the tail level e^(-t^2) matches the median.  The
    table's ``fits`` hold every fitted pi_hat, N by N and seed by seed.
    """
    _require_counts(seeds_per_n=seeds_per_n, eval_replicates=eval_replicates)
    if fit_config is None:
        fit_config = FitConfig(support=tuple(pi_star.support), mode="em", tol=1e-9, max_iters=500)
    if fit_config.mode == "grid":
        fit_supports = [c.support for c in fit_config.candidates or ()]
    else:
        fit_supports = [fit_config.support]
    for support in fit_supports:
        support = np.asarray(support, dtype=float)
        if not np.array_equal(support, pi_star.support):
            raise InvalidValue(
                f"fit support {tuple(support.tolist())} differs from pi_star's support "
                f"{tuple(pi_star.support.tolist())}; excess risks are scored on pi_star's support"
            )
    epsilon = epsilon_floor(kernel, pi_star.support).epsilon
    integral = simplex_entropy_integral(pi_star.size)

    fits = []
    for N in N_list:
        for ds in _simulate_replicates(pi_star, kernel, N, n, _seeds(base_seed, seeds_per_n, N)):
            fits.append(fit_mle(ds, kernel, fit_config).pi_hat)

    # pi_star, then for two-point supports the slope probes hi and lo.
    arms = [pi_star]
    if pi_star.size == 2:
        delta = 0.02
        p = pi_star.probs[0]
        lo, hi = max(p - delta, 1e-6), min(p + delta, 1 - 1e-6)
        arms += [pi_star.with_probs([hi, 1.0 - hi]), pi_star.with_probs([lo, 1.0 - lo])]
    eval_seeds = _seeds(base_seed, eval_replicates, 424243)
    datasets = _simulate_replicates(pi_star, kernel, eval_N, n, eval_seeds)
    vals = _replicate_scores(datasets, kernel, arms + fits, LayerChainModel.log_likelihood)
    vals /= datasets[0].layers.q_max
    gaps = [float((vals[0] - v).mean()) for v in vals]
    slope = 0.0
    if pi_star.size == 2:
        slope = (gaps[1] - gaps[2]) / (arms[1].probs[0] - arms[2].probs[0])
    excess = []
    for pi, gap in zip(fits, gaps[len(arms) :]):
        if slope != 0.0:
            gap -= slope * (pi.probs[0] - pi_star.probs[0])
        excess.append(gap)

    rows = []
    for k, N in enumerate(N_list):
        arr = np.array(excess[k * seeds_per_n : (k + 1) * seeds_per_n])
        q25, q50, q75 = np.percentile(arr, [25, 50, 75])
        rows.append(
            ScalingRow(
                N=N,
                median_excess=float(q50),
                iqr=float(q75 - q25),
                rhs=risk_bound_rhs(n, epsilon, N, integral, _MEDIAN_T),
            )
        )
    return ScalingTable(
        rows=tuple(rows),
        n=n,
        support=tuple(pi_star.support),
        t=_MEDIAN_T,
        entropy_integral=integral,
        epsilon=epsilon,
        seeds_per_n=seeds_per_n,
        fits=tuple(fits),
    )


# -- Z-process concentration ----------------------------------------------------

# The tail levels t at which exceedances are measured.
_Z_T_GRID = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class ZProcessSummary:
    pi: DiscreteDistribution
    sums: np.ndarray  # per-replicate layer-averaged conditional log-likelihoods
    sigma_scaled: float  # std of sqrt(num_layers) * centered sums
    exceedance: dict[float, float]
    envelope: dict[float, float]
    num_layers: int


def z_process_concentration(
    pi_list,
    kernel: Kernel,
    pi_star: DiscreteDistribution,
    N: int = 200,
    n: int = 2,
    replicates: int = 200,
    base_seed: int = 99,
) -> list[ZProcessSummary]:
    """Tail behaviour of the centered layer-averaged conditional log-likelihoods.

    Z is the across-layer average of log P_pi(X_q | X_{q+1:m}) centered at its
    across-replicate mean.  Exceedance frequencies are measured at
    t * sqrt(2) * std(Z) for t in ``_Z_T_GRID`` (the subgaussian scale; a
    Gaussian tail then sits below 2 e^(-t^2) at every t).  All candidates
    share the same datasets.
    """
    _require_counts(replicates=replicates)
    datasets = _simulate_replicates(pi_star, kernel, N, n, _seeds(base_seed, replicates, 515151))
    m = _interior_top(datasets[0].layers)
    num_layers = m - 1
    pi_list = list(pi_list)

    def layer_mean(model: LayerChainModel, rows: np.ndarray) -> np.ndarray:
        return np.mean(model.conditional_profiles(rows, m)[..., 2:], axis=-1)

    out = []
    for pi, sums in zip(pi_list, _replicate_scores(datasets, kernel, pi_list, layer_mean)):
        centered = sums - sums.mean()
        sigma = centered.std(ddof=1) if replicates > 1 else 0.0
        degenerate = sigma <= 1e-12 * max(1.0, float(np.abs(sums).max()))
        exceedance = {}
        envelope = {}
        for t in _Z_T_GRID:
            threshold = t * math.sqrt(2.0) * sigma
            exceedance[t] = (
                0.0 if degenerate else float(np.mean(np.abs(centered) > threshold))
            )
            envelope[t] = 2.0 * math.exp(-t * t)
        out.append(
            ZProcessSummary(
                pi=pi,
                sums=sums,
                sigma_scaled=float(math.sqrt(num_layers) * sigma),
                exceedance=exceedance,
                envelope=envelope,
                num_layers=num_layers,
            )
        )
    return out
