import itertools
import math
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest

from lgmle import (
    DiscreteDistribution,
    H1Violated,
    InconsistentBlockShapes,
    LayerChainModel,
    LayerOutOfRange,
    RiskParams,
    ScalingTable,
    bradley_terry,
    bt_home_advantage,
    bt_ties,
    custom_table,
    degree_model,
    epsilon_floor,
    fit_mle,
    risk_bound_rhs,
    simplex_entropy_integral,
    simulate,
    uniform,
)
from lgmle import likelihood
from lgmle.analysis import (
    RiskReport,
    ScalingRow,
    ZProcessSummary,
)
from lgmle.estimator import SMALL_WEIGHT, WEIGHT_FLOOR, _m_step


def kernel_variants():
    """The four closed-form kernel families, fixed parameters."""
    return [
        bradley_terry(),
        bt_home_advantage(1.5),
        bt_ties(2.0),
        degree_model(),
    ]


def random_distribution(rng, size, lo=0.5, hi=4.0):
    support = np.sort(rng.uniform(lo, hi, size=size))
    while np.any(np.diff(support) < 1e-3):
        support = np.sort(rng.uniform(lo, hi, size=size))
    probs = rng.dirichlet(np.ones(size))
    probs = np.maximum(probs, 0.05)
    probs /= probs.sum()
    return DiscreteDistribution(support, probs)


def small_instances(count, rng_seed=123, N_choices=(10, 12), n=2, s_choices=(2, 3)):
    """Randomized brute-forceable instances cycling through kernel variants."""
    rng = np.random.default_rng(rng_seed)
    kernels = kernel_variants()
    out = []
    for idx in range(count):
        kernel = kernels[idx % len(kernels)]
        N = int(rng.choice(N_choices))
        s = int(rng.choice(s_choices))
        pi = random_distribution(rng, s)
        ds = simulate(pi, kernel, N, n, seed=int(rng.integers(1, 2**31)))
        out.append((ds, pi, kernel))
    return out


def model_on_engine(ds, pi, kernel, engine):
    """A model on the given engine, chosen through the dense-block budget."""
    budget = {"dense": 10**12, "factored": 0}[engine]
    with mock.patch.object(likelihood, "_BLOCK_CACHE_BUDGET", budget):
        model = LayerChainModel(ds, kernel, pi.support)
    assert model.engine == engine
    return model


def extreme_model(n, s, engine, seed, rng, N=None):
    """A model of a binary custom_table whose rare outcome, per weight pair,
    has probability down to 1e-300, on data simulated from a fair coin
    (N nodes, or 4n + 2 to 4n + 8)."""
    support = np.arange(1.0, s + 1.0)
    rare = 10.0 ** -rng.uniform(0.3, 300.0, size=(s, s))
    swap = rng.random((s, s)) < 0.5
    table = np.stack([np.where(swap, 1.0 - rare, rare), np.where(swap, rare, 1.0 - rare)])
    extreme = custom_table((0, 1), support, table)
    fair = custom_table((0, 1), support, np.full((2, s, s), 0.5))
    pi = uniform(support)
    N = 4 * n + 2 + 2 * int(rng.integers(0, 4)) if N is None else N
    ds = simulate(pi, fair, N, n, seed=seed)
    return model_on_engine(ds, pi, extreme, engine)


def block_log_kernel(kernel, edges, outcomes, nodes_q, nodes_q1, v_block, w_block) -> float:
    """Oracle: sum of log k over one chain block, at fixed endpoint weights.

    ``edges`` may touch nodes of layer q (listed in ``nodes_q`` with weights
    ``v_block``) and of layer q+1 (``nodes_q1``/``w_block``); each edge must
    have both endpoints among them.  The first kernel argument is the
    smaller-id endpoint's weight.
    """
    if len(edges) != len(outcomes):
        raise InconsistentBlockShapes(
            f"{len(edges)} edges but {len(outcomes)} outcomes"
        )
    if len(nodes_q) != len(v_block) or len(nodes_q1) != len(w_block):
        raise InconsistentBlockShapes("node lists and weight blocks disagree in length")
    weight_of = {}
    for node, weight in zip(nodes_q, v_block):
        weight_of[node] = weight
    for node, weight in zip(nodes_q1, w_block):
        weight_of[node] = weight
    total = 0.0
    for (i, j), x in zip(edges, outcomes):
        if i not in weight_of or j not in weight_of:
            raise InconsistentBlockShapes(
                f"edge ({i},{j}) has an endpoint outside the two layer blocks"
            )
        total += kernel.log_prob(x, weight_of[i], weight_of[j])
    return total


def enumerate_window_logprob(ds, pi, kernel, a, b):
    """Independent enumeration of log P(X_a, ..., X_b): sums over every joint
    weight assignment of layers a..b+1.  Exponential; keep windows tiny."""
    layers = ds.layers
    if a > b:
        return 0.0
    widths = [len(layers.node_layers[q]) for q in range(a, b + 2)]
    nodes = [layers.node_layers[q] for q in range(a, b + 2)]
    sup = list(pi.support)
    total = 0.0
    for assign in itertools.product(
        *[list(itertools.product(range(pi.size), repeat=w)) for w in widths]
    ):
        weight_of = {}
        prob = 1.0
        for layer_nodes, idxs in zip(nodes, assign):
            for node, ai in zip(layer_nodes, idxs):
                weight_of[node] = sup[ai]
                prob *= pi.probs[ai]
        for q in range(a, b + 1):
            for (i, j) in layers.block_edges(q):
                prob *= kernel.prob(ds.outcomes[(i, j)], weight_of[i], weight_of[j])
        total += prob
    return math.log(total)


# -- the single-vector conditional backward sweep -------------------------------
# One horizon and one simplex per sweep, the loop the K-row sweep replaced.


def oracle_backward_messages(model, probs, q: int, m: int):
    """(messages, normalizers) of ``LayerChainModel.backward_messages``, for
    k = q..m+1."""
    priors = model._priors(np.asarray(probs, dtype=float))
    u = priors[m + 1]
    log_z = 0.0
    messages = [np.log(u)]
    normalizers = [0.0]
    for k in range(m, q - 1, -1):
        u = priors[k] * (u @ model._pulls[k])
        c = float(u.sum())
        if c <= 0.0:
            raise H1Violated(f"zero conditional mass at block {k}")
        u /= c
        log_z += np.log(c) + model._shifts[k]
        with np.errstate(divide="ignore"):
            messages.append(np.log(u))
        normalizers.append(log_z)
    messages.reverse()
    normalizers.reverse()
    return messages, normalizers


def oracle_conditional_profile(model, probs, m: int) -> dict[int, float]:
    """log P(X_q | X_{q+1:m}) for every q in [2, m], from one single-vector sweep."""
    _, z = oracle_backward_messages(model, probs, 2, m)
    return {2 + k: z[k] - z[k + 1] for k in range(m - 1)}


# -- the realized backward kernels as dense matrices ------------------------------
# The loop that the forward messages and the pull replaced: its own forward
# recursion, scaled to peak 1, and every block read as a dense S x S matrix.


def oracle_backward_kernels(model, probs, q: int, m: int) -> list[np.ndarray]:
    """``LayerChainModel.backward_kernels``: R_k[w, a] = P(V_k = a | V_{k+1} =
    w, X_{q:k}) for k = q..m-1, from g = P(X_{q:k-1} | V_k) scaled to peak 1."""
    priors = model._priors(np.asarray(probs, dtype=float))
    kernels = []
    g = np.ones(model.s ** model.widths[q])
    for k in range(q, m):
        mat = np.eye(model.s ** model.widths[k]) @ model._mats[k]
        weighted = priors[k][:, None] * g[:, None] * mat
        denom = weighted.sum(axis=0)
        if np.any(denom <= 0.0):
            raise H1Violated(f"zero conditional mass at block {k}")
        kernels.append(np.ascontiguousarray(weighted.T / denom[:, None]))
        g = denom / denom.max()
    return kernels


def oracle_contraction_tvs(model, probs, q: int, m: int) -> list[float]:
    """The initial and per-step total variations of
    ``LayerChainModel.contraction_profile``: the point masses on layer m's
    first and last states, stepped through ``oracle_backward_kernels`` from
    k = m-1 down to q."""
    kernels = oracle_backward_kernels(model, probs, q, m)
    states = np.eye(model.s ** model.widths[m])
    mu1, mu2 = states[0], states[-1]
    tvs = [float(np.abs(mu1 - mu2).sum())]
    for kern in reversed(kernels):
        mu1, mu2 = mu1 @ kern, mu2 @ kern
        tvs.append(float(np.abs(mu1 - mu2).sum()))
    return tvs


# -- the posterior in log space --------------------------------------------------
# No scaling, so it reaches chains where the scaled sweeps underflow.


def log_domain_node_marginals(model, probs) -> np.ndarray:
    """(N, s) logs of the node marginals of one dataset's posterior, from a
    forward-backward sweep in log space (log-sum-exp over each block's log
    matrix), so no message underflows where the posterior exists."""
    with np.errstate(divide="ignore"):
        log_priors = [np.log(p) for p in model._priors(np.asarray(probs, dtype=float))]
    log_mats = [model._block_log_matrix(q) for q in range(model.num_blocks)]
    alphas = [log_priors[0]]
    for q, log_mat in enumerate(log_mats):
        alphas.append(np.logaddexp.reduce(alphas[-1][:, None] + log_mat, axis=0) + log_priors[q + 1])
    betas = [np.zeros_like(log_priors[-1])]
    for q in range(model.num_blocks - 1, -1, -1):
        betas.append(np.logaddexp.reduce(log_mats[q] + log_priors[q + 1] + betas[-1], axis=1))
    betas.reverse()
    out = np.empty((model.dataset.graph.N, model.s))
    for q, nodes in enumerate(model.layers.node_layers):
        log_gamma = alphas[q] + betas[q]
        log_gamma -= np.logaddexp.reduce(log_gamma)
        digits = likelihood._digits(model.s, model.widths[q])
        for pos, node in enumerate(nodes):
            out[node - 1] = [np.logaddexp.reduce(log_gamma[digits[:, pos] == i]) for i in range(model.s)]
    return out


# -- one EM run per restart ---------------------------------------------------
# Plain EM, the loop SQUAREM replaced, is the reference a fit must reach; the
# SQUAREM run is what each row of the lockstep batch must equal.


def oracle_plain_em_run(model, start, config):
    """(probs, log-likelihood, trajectory, converged) of plain EM from one start:
    one M-step and one sweep per iteration."""
    probs = np.asarray(start, dtype=float)
    marginals, ll = model.posterior_pass(probs)
    trajectory = [ll]
    converged = False
    for _ in range(config.max_iters):
        probs, _ = _m_step(marginals)
        marginals, ll_new = model.posterior_pass(probs)
        trajectory.append(ll_new)
        converged = bool(ll_new - ll < config.tol * max(1.0, abs(ll)))
        ll = ll_new
        if converged:
            break
    return probs, ll, trajectory, converged


def oracle_squarem_run(model, start, config):
    """(probs, log-likelihood, trajectory, converged) of SQUAREM from one start,
    one vector at a time: per cycle the EM point p1 and its sweep, p2 = M(p1),
    the point p + 2a r + a^2 v with a = |r| / |v| in [1, cap], floored, and
    its sweep; p1 where that point's log-likelihood is lower or not finite,
    or its sweep raises ``H1Violated``.  The tol stop waits while a weight of
    the kept point below ``SMALL_WEIGHT`` grows under its EM map."""
    probs = np.asarray(start, dtype=float)
    marginals, ll = model.posterior_pass(probs)
    trajectory = [ll]
    converged = False
    cap = 1.0
    budget = config.max_iters
    while budget:
        p1, _ = _m_step(marginals)
        marginals1, ll1 = model.posterior_pass(p1)
        budget -= 1
        if budget:
            p2, _ = _m_step(marginals1)
            r = p1 - probs
            v = p2 - 2.0 * p1 + probs
            r_norm, v_norm = np.sqrt(np.sum(r * r)), np.sqrt(np.sum(v * v))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                a = min(max(r_norm / v_norm if v_norm > 0.0 else 1.0, 1.0), cap)
                point = np.maximum(probs + 2.0 * a * r + (a * a) * v, WEIGHT_FLOOR)
                point = point / point.sum()
            budget -= 1
            try:
                marginals_x, ll_x = model.posterior_pass(point)
            except H1Violated:
                ll_x = -np.inf
            if ll_x >= ll1:
                p1, marginals1, ll1 = point, marginals_x, ll_x
                cap = cap * 4.0 if a == cap else cap
            else:
                cap = max(a / 4.0, 1.0)
        trajectory.append(ll1)
        rising = np.any((p1 < SMALL_WEIGHT) & (marginals1.mean(axis=0) > p1))
        converged = bool(ll1 - ll < config.tol * max(1.0, abs(ll))) and not rising
        probs, marginals, ll = p1, marginals1, ll1
        if converged:
            break
    return probs, ll, trajectory, converged


# -- the Monte-Carlo estimators as they were before the shared replicate path --
# Each replicate is a separate ``simulate`` call and each arm a separate model.


def _oracle_risk_datasets(kernel, pi_star, params: RiskParams):
    datasets = [simulate(pi_star, kernel, params.N, params.n, seed) for seed in params.seeds()]
    q_max = datasets[0].layers.q_max
    if q_max < params.min_q_max:
        raise ValueError(
            f"q_max = {q_max} is below the configured minimum {params.min_q_max}; "
            "the boundary bias of the normalized likelihood is O(1/q_max)"
        )
    return datasets


def _oracle_normalized_logliks(datasets, pi, kernel) -> np.ndarray:
    vals = np.empty(len(datasets))
    for r, ds in enumerate(datasets):
        model = LayerChainModel(ds, kernel, pi.support)
        vals[r] = model.log_likelihood(pi.probs) / ds.layers.q_max
    return vals


def _oracle_stderr(values) -> float:
    return 0.0 if values.size < 2 else float(values.std(ddof=1) / math.sqrt(values.size))


def oracle_limit_likelihood(pi, kernel, pi_star, params):
    """(per-replicate values, q_max) of ``estimate_limit_likelihood``."""
    datasets = _oracle_risk_datasets(kernel, pi_star, params)
    return _oracle_normalized_logliks(datasets, pi, kernel), datasets[0].layers.q_max


def oracle_excess_risks(candidates, kernel, pi_star, params) -> list[RiskReport]:
    datasets = _oracle_risk_datasets(kernel, pi_star, params)
    star_vals = _oracle_normalized_logliks(datasets, pi_star, kernel)
    reports = []
    for pi in candidates:
        pi_vals = _oracle_normalized_logliks(datasets, pi, kernel)
        diffs = star_vals - pi_vals
        reports.append(
            RiskReport(
                pi=pi,
                L_hat_star=float(star_vals.mean()),
                L_hat_star_stderr=_oracle_stderr(star_vals),
                L_hat_pi=float(pi_vals.mean()),
                L_hat_pi_stderr=_oracle_stderr(pi_vals),
                excess_risk=float(diffs.mean()),
                excess_stderr=_oracle_stderr(diffs),
                N_used=params.N,
                replicates=params.replicates,
            )
        )
    return reports


class OracleRiskEvaluator:
    """Shared evaluation arm of ``scaling_experiment``: models on pi_star's
    support, one per evaluation dataset, with the two-point slope correction."""

    def __init__(self, pi_star, kernel, eval_N, n, replicates, base_seed):
        self.pi_star = pi_star
        seeds = np.random.SeedSequence([base_seed, 424243]).generate_state(replicates)
        datasets = [simulate(pi_star, kernel, eval_N, n, int(s)) for s in seeds]
        self.q_max = datasets[0].layers.q_max
        self.models = [LayerChainModel(ds, kernel, pi_star.support) for ds in datasets]
        self.star_values = np.array(
            [m.log_likelihood(pi_star.probs) / self.q_max for m in self.models]
        )
        self.slope = 0.0
        if pi_star.size == 2:
            delta = 0.02
            p = pi_star.probs[0]
            lo, hi = max(p - delta, 1e-6), min(p + delta, 1 - 1e-6)
            up = self._gap(np.array([hi, 1.0 - hi]))
            down = self._gap(np.array([lo, 1.0 - lo]))
            self.slope = (up - down) / (hi - lo)

    def _gap(self, probs) -> float:
        vals = np.array([m.log_likelihood(probs) / self.q_max for m in self.models])
        return float((self.star_values - vals).mean())

    def excess(self, pi) -> float:
        value = self._gap(pi.probs)
        if self.slope != 0.0:
            value -= self.slope * (pi.probs[0] - self.pi_star.probs[0])
        return value


def oracle_scaling_experiment(
    pi_star, kernel, N_list, n, seeds_per_n, base_seed, fit_config, eval_N, eval_replicates
) -> ScalingTable:
    t = math.sqrt(math.log(2.0))
    epsilon = epsilon_floor(kernel, pi_star.support).epsilon
    integral = simplex_entropy_integral(pi_star.size)
    evaluator = OracleRiskEvaluator(pi_star, kernel, eval_N, n, eval_replicates, base_seed)
    rows = []
    pi_hats = []
    for N in N_list:
        seeds = np.random.SeedSequence([base_seed, N]).generate_state(seeds_per_n)
        fits = [fit_mle(simulate(pi_star, kernel, N, n, int(s)), kernel, fit_config) for s in seeds]
        pi_hats += [fit.pi_hat for fit in fits]
        arr = np.array([evaluator.excess(fit.pi_hat) for fit in fits])
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
        fits=tuple(pi_hats),
    )


def oracle_z_process(pi_list, kernel, pi_star, N, n, replicates, base_seed, t_grid=(1.0, 2.0, 3.0)):
    seeds = np.random.SeedSequence([base_seed, 515151]).generate_state(replicates)
    datasets = [simulate(pi_star, kernel, N, n, int(s)) for s in seeds]
    m = datasets[0].layers.q_max - 1
    if m < 2:
        raise LayerOutOfRange("graph too small: no interior window")
    num_layers = m - 1
    out = []
    for pi in pi_list:
        models = [LayerChainModel(ds, kernel, pi.support) for ds in datasets]
        sums = np.array(
            [
                np.mean(list(oracle_conditional_profile(model, pi.probs, m).values()))
                for model in models
            ]
        )
        centered = sums - sums.mean()
        sigma = centered.std(ddof=1) if replicates > 1 else 0.0
        degenerate = sigma <= 1e-12 * max(1.0, float(np.abs(sums).max()))
        exceedance = {
            t: 0.0 if degenerate else float(np.mean(np.abs(centered) > t * math.sqrt(2.0) * sigma))
            for t in t_grid
        }
        out.append(
            ZProcessSummary(
                pi=pi,
                sums=sums,
                sigma_scaled=float(math.sqrt(num_layers) * sigma),
                exceedance=exceedance,
                envelope={t: 2.0 * math.exp(-t * t) for t in t_grid},
                num_layers=num_layers,
            )
        )
    return out


# -- the diagnose rows as they were built before the column envelopes ---------
# One row object per window, the forgetting bound re-multiplied per (q, m).

ForgettingRow = namedtuple("ForgettingRow", "q m ell gap bound")


def forgetting_gap_bound(nus, q: int, m: int) -> float:
    """nu_q^-1 * prod_{k=q+1}^{m-1} (1 - nu_k), with nu_k = ``nus[k]``:
    horizon-extension envelope."""
    prod = 1.0
    for k in range(q + 1, m):
        prod *= 1.0 - nus[k]
    return prod / nus[q]


def _oracle_diagnose_model(ds, pi, kernel):
    model = LayerChainModel(ds, kernel, pi.support)
    epsilon = epsilon_floor(kernel, pi.support).epsilon
    top = ds.layers.q_max - 1
    profiles = {m: oracle_conditional_profile(model, pi.probs, m) for m in range(2, top + 1)}
    return model, epsilon, top, profiles


def oracle_forgetting_rows(ds, pi, kernel, q_values=None, max_ell=None, nus=None):
    """``forgetting_profile``, row by row; ``nus`` (indexed by block)
    defaults to epsilon^|X_k|."""
    model, epsilon, top, profiles = _oracle_diagnose_model(ds, pi, kernel)
    if nus is None:
        nus = {k: epsilon**size for k, size in enumerate(model.block_sizes)}
    if q_values is None:
        q_values = range(2, top + 1)
    rows = []
    for q in q_values:
        for m in range(q, top):
            bound = forgetting_gap_bound(nus, q, m)
            ell_cap = top - m if max_ell is None else min(max_ell, top - m)
            for ell in range(1, ell_cap + 1):
                gap = abs(profiles[m][q] - profiles[m + ell][q])
                rows.append(ForgettingRow(q=q, m=m, ell=ell, gap=gap, bound=bound))
    return rows


def oracle_magnitude_rows(ds, pi, kernel):
    """``conditional_magnitude_rows``, row by row."""
    model, epsilon, _, profiles = _oracle_diagnose_model(ds, pi, kernel)
    rows = []
    for m, profile in profiles.items():
        for q, value in profile.items():
            rows.append((q, m, abs(value), model.block_sizes[q] * math.log(1.0 / epsilon)))
    return rows


def oracle_contraction_rows(ds, pi, kernel, nus=None):
    """(layer, tv, step bound) per backward step of ``lgmle diagnose``, from
    ``oracle_contraction_tvs``: the step bound is 1 - nu_k times the total
    variation before the step; ``nus`` (indexed by block) defaults to
    epsilon^|X_k|."""
    model, epsilon, top, _ = _oracle_diagnose_model(ds, pi, kernel)
    if nus is None:
        nus = {k: epsilon**size for k, size in enumerate(model.block_sizes)}
    prev, *tvs = oracle_contraction_tvs(model, pi.probs, 2, top)
    rows = []
    for layer, tv in zip(range(top - 1, 1, -1), tvs):
        rows.append((layer, tv, (1.0 - nus[layer]) * prev))
        prev = tv
    return rows


def oracle_diagnose_violations(ds, pi, kernel, nus=None, tol=1e-9) -> int:
    """The bound violations ``lgmle diagnose`` counts, row by row."""
    forgetting = oracle_forgetting_rows(ds, pi, kernel, nus=nus)
    count = sum(r.gap > r.bound + tol for r in forgetting)
    count += sum(value > bound + tol for _, _, value, bound in oracle_magnitude_rows(ds, pi, kernel))
    count += sum(tv > bound + tol for _, tv, bound in oracle_contraction_rows(ds, pi, kernel, nus=nus))
    return count


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
