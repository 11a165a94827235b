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
from scipy.integrate import trapezoid

from .distributions import DiscreteDistribution
from .errors import LayerOutOfRange
from .estimator import FitConfig, fit_mle
from .kernels import Kernel, epsilon_floor
from .likelihood import LayerChainModel, _digits, _log_likelihoods, _support_groups
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
        raise ValueError("total variation cannot be negative")
    if tv == 0.0:
        return 0.0
    if tv <= math.exp(-1):
        return tv * math.log(1.0 / tv)
    return tv


def product_tv_distance(
    pi: DiscreteDistribution, pi_prime: DiscreteDistribution, m: int
) -> float:
    """Exact total variation between the m-fold product measures."""
    if not pi.same_support(pi_prime):
        raise ValueError("product TV requires a common support")
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
        state = np.random.SeedSequence(self.base_seed).generate_state(self.replicates)
        return [int(x) for x in state]


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


def _require_counts(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")


def _replicate_scores(datasets: list[Dataset], kernel: Kernel, arms) -> np.ndarray:
    """(arms x replicates) array of q_max-normalized log-likelihoods: every
    arm is scored on every dataset (common random numbers), in one batched
    forward sweep per dataset and distinct support."""
    vals = np.empty((len(arms), len(datasets)))
    for r, ds in enumerate(datasets):
        vals[:, r] = _log_likelihoods(ds, kernel, arms) / ds.layers.q_max
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
        raise ValueError(
            f"q_max = {q_max} is below the configured minimum {params.min_q_max}; "
            "the boundary bias of the normalized likelihood is O(1/q_max)"
        )
    return _replicate_scores(datasets, kernel, arms), q_max


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


def risk_bound_rhs(n: int, epsilon: float, N: int, entropy_integral: float, t: float, c: float = 1.0) -> float:
    """Reference scale of the excess-risk deviation bound.

    c is unspecified by the theory and fixed to 1 for reporting; only shape
    and monotonicity statements should ever be asserted against this value.
    """
    return c * n * epsilon ** (-6 * n * n) / math.sqrt(N) * (entropy_integral + t)


def simplex_entropy_integral(
    s: int, resolution: int = 4096, covering_constant: float = 10.0
) -> float:
    """Entropy integral of the (s-1)-simplex under the covering metric.

    Uses the textbook net bound N(simplex, tv, u) <= (C/u)^(s-1) (an external
    input, not part of the model; C defaults to 10) together with the exact
    substitution between tv-radius u and metric radius tv*log(1/tv): the
    integral becomes the tv-entropy integrand weighted by the derivative
    log(1/u) - 1 below 1/e.  Log-spaced trapezoid quadrature; ``resolution``
    is the number of grid points.
    """
    if s < 1:
        raise ValueError("support size must be at least 1")
    if s == 1:
        return 0.0
    u = np.geomspace(1e-15, 2.0, resolution)
    log_cover = (s - 1) * np.maximum(0.0, np.log(covering_constant / u))
    dphi = np.where(u <= math.exp(-1), np.log(1.0 / u) - 1.0, 1.0)
    return float(trapezoid(np.sqrt(log_cover) * dphi, u))


# -- forgetting / bounded-difference / increment checks -----------------------


@dataclass(frozen=True)
class ForgettingRow:
    q: int
    m: int
    ell: int
    gap: float
    bound: float


def _interior_nus(model: LayerChainModel, epsilon: float) -> dict[int, float]:
    return {k: epsilon**model.block_sizes[k] for k in range(len(model.block_sizes))}


def forgetting_gap_bound(nus: dict[int, float], q: int, m: int) -> float:
    """nu_q^-1 * prod_{k=q+1}^{m-1} (1 - nu_k): horizon-extension envelope."""
    prod = 1.0
    for k in range(q + 1, m):
        prod *= 1.0 - nus[k]
    return prod / nus[q]


def _interior_profiles(dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel):
    """(model, epsilon, profiles): ``profiles[m][q]`` is log P(X_q | X_{q+1:m})
    for every interior window, from one backward sweep per horizon m."""
    model = LayerChainModel(dataset, kernel, pi.support)
    epsilon = epsilon_floor(kernel, pi.support).epsilon
    top = dataset.layers.q_max - 1
    profiles = {m: model.conditional_profile(pi.probs, m) for m in range(2, top + 1)}
    return model, epsilon, profiles


def _forgetting_rows(model, epsilon, profiles, q_values=None, max_ell=None):
    top = model.layers.q_max - 1
    if top < 2:
        raise LayerOutOfRange("graph too small: no interior window")
    nus = _interior_nus(model, epsilon)
    if q_values is None:
        q_values = range(2, top + 1)
    rows: list[ForgettingRow] = []
    for q in q_values:
        for m in range(q, top):
            bound = forgetting_gap_bound(nus, q, m)
            ell_cap = top - m if max_ell is None else min(max_ell, top - m)
            for ell in range(1, ell_cap + 1):
                gap = abs(profiles[m][q] - profiles[m + ell][q])
                rows.append(ForgettingRow(q=q, m=m, ell=ell, gap=gap, bound=bound))
    return rows


def _magnitude_rows(model, epsilon, profiles) -> list[tuple[int, int, float, float]]:
    rows = []
    for m, profile in profiles.items():
        for q, value in profile.items():
            rows.append((q, m, abs(value), model.block_sizes[q] * math.log(1.0 / epsilon)))
    return rows


def forgetting_profile(
    dataset: Dataset,
    pi: DiscreteDistribution,
    kernel: Kernel,
    q_values=None,
    max_ell: int | None = None,
) -> list[ForgettingRow]:
    """Measured horizon-extension gaps of the conditional block likelihoods.

    For every interior q and every horizon pair (m, m + ell) the row records
    |log P(X_q | X_{q+1:m}) - log P(X_q | X_{q+1:m+ell})| next to its
    geometric envelope.  One backward sweep per horizon.
    """
    return _forgetting_rows(*_interior_profiles(dataset, pi, kernel), q_values, max_ell)


def conditional_magnitude_rows(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel
) -> list[tuple[int, int, float, float]]:
    """(q, m, |log P(X_q | X_{q+1:m})|, |X_q| log(1/epsilon)) on the interior."""
    return _magnitude_rows(*_interior_profiles(dataset, pi, kernel))


def _diagnose_rows(dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel):
    """(forgetting_profile rows, conditional_magnitude_rows rows) from one
    model and one backward sweep per horizon."""
    profiles = _interior_profiles(dataset, pi, kernel)
    return _forgetting_rows(*profiles), _magnitude_rows(*profiles)


@dataclass(frozen=True)
class FlipRow:
    q: int
    flip_layer: int
    edge: tuple[int, int]
    new_outcome: object
    gap: float
    bound: float


def single_flip_rows(
    dataset: Dataset,
    pi: DiscreteDistribution,
    kernel: Kernel,
    q_min: int = 2,
    m: int | None = None,
) -> list[FlipRow]:
    """Exhaustive single-outcome flips against their influence envelope.

    Every edge of every interior block gets every alternative outcome; the
    row compares the change of log P(X_q | X_{q+1:m}) for each q <= flip
    layer with nu_q^-1 * prod_{k=q+1}^{flip-1}(1 - nu_k).
    """
    model = LayerChainModel(dataset, kernel, pi.support)
    top = dataset.layers.q_max - 1
    if m is None:
        m = top
    epsilon = epsilon_floor(kernel, pi.support).epsilon
    nus = _interior_nus(model, epsilon)
    base = model.conditional_profile(pi.probs, m, q_min=q_min)
    rows: list[FlipRow] = []
    for flip_layer in range(q_min, m + 1):
        for edge in dataset.layers.block_edges(flip_layer):
            original = dataset.outcomes[edge]
            for alt in kernel.outcomes:
                if alt == original:
                    continue
                flipped = dict(dataset.outcomes)
                flipped[edge] = alt
                flipped_ds = Dataset(
                    dataset.graph, dataset.layers, flipped, None, dataset.seed
                )
                flipped_model = LayerChainModel(flipped_ds, kernel, pi.support)
                prof = flipped_model.conditional_profile(pi.probs, m, q_min=q_min)
                for q in range(q_min, flip_layer + 1):
                    rows.append(
                        FlipRow(
                            q=q,
                            flip_layer=flip_layer,
                            edge=edge,
                            new_outcome=alt,
                            gap=abs(base[q] - prof[q]),
                            bound=forgetting_gap_bound(nus, q, flip_layer),
                        )
                    )
    return rows


def increment_envelope(nu: float, q: int, m: int, block_tv: float) -> float:
    """2 * block_tv * sum_{ell=0}^{m+1-q} nu^-3 (1-nu)^(ell-1).

    ``block_tv`` is the total variation between the two per-layer block
    priors; for layer width w it may be bounded by w * tv(pi, pi') (product
    inequality) or computed exactly.
    """
    total = sum((1.0 - nu) ** (ell - 1) for ell in range(0, m + 2 - q))
    return 2.0 * block_tv * total / nu**3


@dataclass(frozen=True)
class IncrementRow:
    q: int
    m: int
    gap: float
    bound_product: float  # envelope via the product-TV inequality
    bound_exact: float  # envelope via the exact block TV


def increment_rows(
    dataset: Dataset,
    pi: DiscreteDistribution,
    pi_prime: DiscreteDistribution,
    kernel: Kernel,
    m: int | None = None,
) -> list[IncrementRow]:
    """|log P_pi(X_q | X_{q+1:m}) - log P_pi'(X_q | X_{q+1:m})| vs envelopes."""
    if not pi.same_support(pi_prime):
        raise ValueError("increment comparison requires a common support")
    top = dataset.layers.q_max - 1
    if m is None:
        m = top
    model = LayerChainModel(dataset, kernel, pi.support)
    epsilon = epsilon_floor(kernel, pi.support).epsilon
    n = dataset.graph.n
    nu = epsilon ** (n * (n - 1))
    width = 2 * (n - 1)
    tv = tv_distance(pi, pi_prime)
    tv_product_bound = width * tv
    tv_exact = product_tv_distance(pi, pi_prime, width)
    prof_a = model.conditional_profile(pi.probs, m)
    prof_b = model.conditional_profile(pi_prime.probs, m)
    rows = []
    for q in range(2, m + 1):
        gap = abs(prof_a[q] - prof_b[q])
        rows.append(
            IncrementRow(
                q=q,
                m=m,
                gap=gap,
                bound_product=increment_envelope(nu, q, m, tv_product_bound),
                bound_exact=increment_envelope(nu, q, m, tv_exact),
            )
        )
    return rows


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
    t: float | None = None,
    covering_constant: float = 10.0,
) -> ScalingTable:
    """Median excess risk of the fitted MLE per graph size, with the bound scale.

    For each N, ``seeds_per_n`` datasets are simulated from pi_star and the
    MLE is fitted on pi_star's support.  Every fit is then scored against
    pi_star on the same ``eval_replicates`` datasets of size ``eval_N``
    (common random numbers).  For two-point supports the residual linear
    error of the plug-in difference at pi_star is removed with a
    central-difference slope correction, which keeps the medians of
    near-optimal fits unbiased.  The reported rhs uses c = 1 and, by default,
    t = sqrt(log 2) so that the tail level e^(-t^2) matches the median.
    """
    _require_counts(seeds_per_n=seeds_per_n, eval_replicates=eval_replicates)
    if t is None:
        t = math.sqrt(math.log(2.0))
    if fit_config is None:
        fit_config = FitConfig(support=tuple(pi_star.support), mode="em", tol=1e-9, max_iters=500)
    if fit_config.mode == "grid":
        fit_supports = [c.support for c in fit_config.candidates or ()]
    else:
        fit_supports = [fit_config.support]
    for support in fit_supports:
        support = np.asarray(support, dtype=float)
        if not np.array_equal(support, pi_star.support):
            raise ValueError(
                f"fit support {tuple(support.tolist())} differs from pi_star's support "
                f"{tuple(pi_star.support.tolist())}; excess risks are scored on pi_star's support"
            )
    epsilon = epsilon_floor(kernel, pi_star.support).epsilon
    integral = simplex_entropy_integral(pi_star.size, covering_constant=covering_constant)

    fits = []
    for N in N_list:
        seeds = np.random.SeedSequence([base_seed, N]).generate_state(seeds_per_n)
        for ds in _simulate_replicates(pi_star, kernel, N, n, [int(s) for s in seeds]):
            fits.append(fit_mle(ds, kernel, fit_config).pi_hat)

    # pi_star, then for two-point supports the slope probes hi and lo.
    arms = [pi_star]
    if pi_star.size == 2:
        delta = 0.02
        p = pi_star.probs[0]
        lo, hi = max(p - delta, 1e-6), min(p + delta, 1 - 1e-6)
        arms += [pi_star.with_probs([hi, 1.0 - hi]), pi_star.with_probs([lo, 1.0 - lo])]
    eval_seeds = np.random.SeedSequence([base_seed, 424243]).generate_state(eval_replicates)
    datasets = _simulate_replicates(pi_star, kernel, eval_N, n, [int(s) for s in eval_seeds])
    vals = _replicate_scores(datasets, kernel, arms + fits)
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
                rhs=risk_bound_rhs(n, epsilon, N, integral, t),
            )
        )
    return ScalingTable(
        rows=tuple(rows),
        n=n,
        support=tuple(pi_star.support),
        t=t,
        entropy_integral=integral,
        epsilon=epsilon,
        seeds_per_n=seeds_per_n,
    )


# -- Z-process concentration ----------------------------------------------------


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
    t_grid=(1.0, 2.0, 3.0),
) -> list[ZProcessSummary]:
    """Tail behaviour of the centered layer-averaged conditional log-likelihoods.

    Z is the across-layer average of log P_pi(X_q | X_{q+1:m}) centered at its
    across-replicate mean.  Exceedance frequencies are measured at
    t * sqrt(2) * std(Z) (the subgaussian scale; a Gaussian tail then sits
    below 2 e^(-t^2) at every t).  All candidates share the same datasets.
    """
    _require_counts(replicates=replicates)
    seeds = np.random.SeedSequence([base_seed, 515151]).generate_state(replicates)
    datasets = _simulate_replicates(pi_star, kernel, N, n, [int(s) for s in seeds])
    m = datasets[0].layers.q_max - 1
    if m < 2:
        raise LayerOutOfRange("graph too small: no interior window")
    num_layers = m - 1
    pi_list = list(pi_list)
    groups = _support_groups(pi_list)
    all_sums = np.empty((len(pi_list), replicates))
    for r, ds in enumerate(datasets):
        for indices in groups:
            model = LayerChainModel(ds, kernel, pi_list[indices[0]].support)
            for k in indices:
                profile = model.conditional_profile(pi_list[k].probs, m)
                all_sums[k, r] = np.mean(list(profile.values()))
    out = []
    for pi, sums in zip(pi_list, all_sums):
        centered = sums - sums.mean()
        sigma = centered.std(ddof=1) if replicates > 1 else 0.0
        degenerate = sigma <= 1e-12 * max(1.0, float(np.abs(sums).max()))
        exceedance = {}
        envelope = {}
        for t in t_grid:
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
