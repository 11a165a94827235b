import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmle import (
    DiscreteDistribution,
    FitConfig,
    LayerChainModel,
    NoCandidates,
    bradley_terry,
    brute_force_node_marginals,
    degree_model,
    em_step,
    fit_mle,
    point_mass_on,
    profile_likelihood,
    simulate,
    uniform,
    uniform_kernel,
)
from lgmle.estimator import WEIGHT_FLOOR, _em_lockstep, _em_starts

from conftest import (
    kernel_variants,
    model_on_engine,
    oracle_em_run,
    random_distribution,
    small_instances,
)


def test_em_step_uniform_kernel_fixed_point():
    pi = DiscreteDistribution([1.0, 3.0], [0.35, 0.65])
    k = uniform_kernel(2)
    ds = simulate(pi, k, 30, 2, seed=1)
    out = em_step(ds, pi, k)
    assert np.max(np.abs(out.probs - pi.probs)) < 1e-10


def test_em_step_point_mass_absorbing():
    pi = point_mass_on([1.0, 3.0], 0)
    k = bradley_terry()
    ds = simulate(pi, k, 16, 3, seed=2)
    out = em_step(ds, pi, k)
    # the floor keeps a 1e-12 sliver on the empty support point
    assert np.max(np.abs(out.probs - pi.probs)) < 1e-10


def test_em_step_matches_brute_force_average():
    for ds, pi, kernel in small_instances(5, rng_seed=21):
        stepped = em_step(ds, pi, kernel)
        oracle = brute_force_node_marginals(ds, pi, kernel).mean(axis=0)
        assert np.max(np.abs(stepped.probs - oracle)) < 1e-10


def test_em_monotone_loglik():
    for ds, pi, kernel in small_instances(8, rng_seed=31, N_choices=(12, 20, 30)):
        cfg = FitConfig(support=tuple(pi.support), mode="em", max_iters=25, tol=1e-10)
        result = fit_mle(ds, kernel, cfg)
        diffs = np.diff(result.trajectory)
        assert np.all(diffs >= -1e-9)


def test_grid_mode_recovers_truth():
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    k = degree_model()
    ds = simulate(pi_star, k, 2000, 2, seed=17)
    far = DiscreteDistribution([0.5, 2.0], [0.9, 0.1])
    cfg = FitConfig(support=(0.5, 2.0), mode="grid", candidates=[far, pi_star])
    result = fit_mle(ds, k, cfg)
    assert result.pi_hat == pi_star
    assert result.restart_index == 1
    assert result.restart_final_logliks[1] > result.restart_final_logliks[0]


def test_grid_mode_tie_breaks_low_index():
    pi = uniform([1.0, 3.0])
    k = uniform_kernel(2)  # every candidate has the same likelihood
    ds = simulate(pi, k, 16, 3, seed=4)
    cands = [DiscreteDistribution([1.0, 3.0], [p, 1 - p]) for p in (0.2, 0.5, 0.8)]
    result = fit_mle(ds, k, FitConfig(support=(1.0, 3.0), mode="grid", candidates=cands))
    assert result.restart_index == 0
    assert result.pi_hat == cands[0]


def test_grid_mode_empty_candidates():
    ds = simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=4)
    with pytest.raises(NoCandidates):
        fit_mle(ds, bradley_terry(), FitConfig(support=(1.0, 3.0), mode="grid"))


def test_singleton_support_trivial():
    pm = point_mass_on([2.0], 0)
    k = bradley_terry()
    ds = simulate(pm, k, 16, 3, seed=5)
    result = fit_mle(ds, k, FitConfig(support=(2.0,), mode="em", max_iters=5))
    assert result.pi_hat.probs[0] == pytest.approx(1.0)
    assert result.converged


def test_flat_likelihood_restarts():
    # uninformative data: every restart is a fixed point with the same loglik
    pi = uniform([1.0, 3.0])
    k = uniform_kernel(2)
    ds = simulate(pi, k, 30, 2, seed=6)
    cfg = FitConfig(support=(1.0, 3.0), mode="em", init="random", restarts=5, max_iters=10, seed=3)
    result = fit_mle(ds, k, cfg)
    expected = len(ds.graph.edges) * math.log(0.5)
    assert len(result.restart_final_logliks) == 5
    for value in result.restart_final_logliks:
        assert value == pytest.approx(expected, rel=1e-12)


def test_explicit_init_validated():
    ds = simulate(uniform([1.0, 3.0]), bradley_terry(), 16, 3, seed=7)
    cfg = FitConfig(support=(1.0, 3.0), mode="em", init="explicit", restarts=2, init_list=[uniform([1.0, 3.0])])
    with pytest.raises(ValueError, match="init_list"):
        fit_mle(ds, bradley_terry(), cfg)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(support=(1.0,), tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(support=(1.0,), max_iters=0)
    with pytest.raises(ValueError):
        FitConfig(support=(1.0,), restarts=0)
    with pytest.raises(ValueError):
        FitConfig(support=(1.0,), mode="gradient")
    with pytest.raises(ValueError):
        FitConfig(support=(1.0,), init="warm")


def test_profile_likelihood_single_candidate():
    pi = uniform([1.0, 3.0])
    k = bradley_terry()
    ds = simulate(pi, k, 20, 2, seed=8)
    out = profile_likelihood(ds, k, [pi])
    assert len(out) == 1
    cand, value = out[0]
    assert cand is pi
    from lgmle import log_likelihood

    assert value == pytest.approx(log_likelihood(ds, pi, k) / ds.layers.q_max)


def test_profile_mirror_symmetry_ratio_kernel():
    # ratio-only kernels cannot distinguish a two-point simplex from its
    # mirror: profiles agree exactly
    pi = DiscreteDistribution([1.0, 3.0], [0.3, 0.7])
    mirror = DiscreteDistribution([1.0, 3.0], [0.7, 0.3])
    k = bradley_terry()
    ds = simulate(pi, k, 100, 2, seed=9)
    out = dict((tuple(c.probs), v) for c, v in profile_likelihood(ds, k, [pi, mirror]))
    assert out[(0.3, 0.7)] == pytest.approx(out[(0.7, 0.3)], rel=1e-13)


def test_consistency_trend_in_N():
    # median TV error of the MLE shrinks with the graph size (identifiable
    # level-dependent kernel; fixed seeds)
    from lgmle import tv_distance

    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    k = degree_model()
    medians = []
    for N in (500, 4000):
        errs = []
        for s in range(8):
            ds = simulate(pi_star, k, N, 2, seed=5000 + s)
            r = fit_mle(ds, k, FitConfig(support=(0.5, 2.0), mode="em", tol=1e-9, max_iters=400))
            errs.append(tv_distance(r.pi_hat, pi_star))
        medians.append(np.median(errs))
    assert medians[1] < medians[0]


def test_profile_peaks_near_truth():
    pi_star = DiscreteDistribution([0.5, 2.0], [0.3, 0.7])
    k = degree_model()
    ds = simulate(pi_star, k, 4000, 2, seed=10)
    grid = [DiscreteDistribution([0.5, 2.0], [p, 1 - p]) for p in np.linspace(0.05, 0.95, 19)]
    values = [v for _, v in profile_likelihood(ds, k, grid)]
    best_p = np.linspace(0.05, 0.95, 19)[int(np.argmax(values))]
    assert abs(best_p - 0.3) <= 0.1


def test_em_logs_sweeps_stop_reason_and_clipping(caplog):
    k = bradley_terry()
    truth = point_mass_on([1.0, 3.0], 0)
    ds = simulate(truth, k, 16, 3, seed=2)
    # From the point mass the marginals put exactly 0 on 3.0: one weight is
    # clipped and the log-likelihood stays put, so EM stops on tol.
    absorbed = FitConfig(support=(1.0, 3.0), init="explicit", init_list=[truth])
    # From uniform, two updates at a tol no step meets: stop on max_iters.
    capped = FitConfig(support=(1.0, 3.0), max_iters=2, tol=1e-300, restarts=2, seed=5)
    with caplog.at_level(logging.DEBUG, logger="lgmle.estimator"):
        fit_mle(ds, k, absorbed)
        fit_mle(ds, k, capped)
    assert [r.getMessage() for r in caplog.records] == [
        "em restart: sweeps=2 stop=tol clipped=1",
        "em restart: sweeps=3 stop=max_iters clipped=0",
        "em restart: sweeps=3 stop=max_iters clipped=0",
    ]


def _assert_lockstep_matches_oracle(model, config):
    """Every restart of the lockstep loop `==` its own oracle run; returns the oracle runs."""
    starts = _em_starts(config)
    runs = _em_lockstep(model, starts, config)
    oracle = [oracle_em_run(model, start, config) for start in starts]
    assert len(runs) == len(oracle) == config.restarts
    for (probs, ll, trajectory, converged), (probs_o, ll_o, trajectory_o, converged_o) in zip(
        runs, oracle
    ):
        assert np.array_equal(probs, probs_o)
        assert ll == ll_o == trajectory[-1]
        assert trajectory == trajectory_o
        assert converged == converged_o
    return oracle


@pytest.mark.parametrize("init", ["random", "explicit"])
@pytest.mark.parametrize("restarts", [2, 3, 4, 5])
def test_lockstep_restarts_match_oracle_runs(restarts, init, caplog):
    k = degree_model()
    support = (0.5, 2.0)
    ds = simulate(uniform(support), k, 60, 2, seed=3)
    # From the point mass EM stops on tol at sweep 2 with one weight
    # clipped; the random starts stop on tol at sweeps 4 and 5 or run into
    # max_iters (7 sweeps).
    starts = [point_mass_on(support, 0)] + list(np.random.default_rng(3).dirichlet([1, 1], size=4))
    config = FitConfig(
        support=support,
        init=init,
        init_list=starts[:restarts] if init == "explicit" else None,
        restarts=restarts,
        max_iters=6,
        tol=1e-3,
        seed=7,
    )
    oracle = _assert_lockstep_matches_oracle(LayerChainModel(ds, k, support), config)
    with caplog.at_level(logging.DEBUG, logger="lgmle.estimator"):
        result = fit_mle(ds, k, config)
    finals = [ll for _, ll, _, _ in oracle]
    best = max(range(restarts), key=lambda r: (finals[r], -r))
    probs, ll, trajectory, converged = oracle[best]
    assert result.pi_hat == DiscreteDistribution(support, probs)
    assert result.final_log_lik == ll
    assert result.trajectory == trajectory
    assert result.converged == converged
    assert result.restart_index == best
    assert result.restart_final_logliks == finals
    lines = [r.getMessage() for r in caplog.records]
    assert [int(line.split()[2][len("sweeps=") :]) for line in lines] == [
        len(t) for _, _, t, _ in oracle
    ]
    if init == "explicit":
        assert lines[0] == "em restart: sweeps=2 stop=tol clipped=1"
        assert not all(converged for *_, converged in oracle)


@given(
    restarts=st.integers(2, 4),
    n=st.integers(2, 4),
    s=st.integers(2, 3),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    max_iters=st.integers(1, 8),
    tol=st.sampled_from([1e-2, 1e-3, 1e-4, 1e-8]),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_lockstep_matches_oracle_runs_on_both_engines(
    restarts, n, s, kernel_index, engine, max_iters, tol, seed
):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    ds = simulate(pi, kernel, 4 * n + 6, n, seed=seed)
    starts = rng.dirichlet(np.ones(s), size=restarts)
    starts[0] = np.eye(s)[rng.integers(s)]
    starts[1, : rng.integers(s)] = WEIGHT_FLOOR
    starts /= starts.sum(axis=1, keepdims=True)
    config = FitConfig(
        support=tuple(pi.support),
        init="explicit",
        init_list=list(starts),
        restarts=restarts,
        max_iters=max_iters,
        tol=tol,
    )
    _assert_lockstep_matches_oracle(model_on_engine(ds, pi, kernel, engine), config)
