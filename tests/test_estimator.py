import dataclasses
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmle import (
    DiscreteDistribution,
    FitConfig,
    InvalidValue,
    H1Violated,
    LayerChainModel,
    NoCandidates,
    bradley_terry,
    brute_force_node_marginals,
    bt_ties,
    custom_table,
    degree_model,
    fit_mle,
    point_mass_on,
    profile_likelihood,
    simulate,
    uniform,
    uniform_kernel,
)
from lgmle import estimator
from lgmle.estimator import WEIGHT_FLOOR, _em_lockstep, _em_starts, _sweep_extrapolated

from conftest import (
    extreme_model,
    kernel_variants,
    model_on_engine,
    oracle_plain_em_run,
    oracle_squarem_run,
    random_distribution,
    small_instances,
)


def _em_step(ds, pi, kernel):
    """One EM update from ``pi``: a fit started at it and stopped after one iteration."""
    config = FitConfig(support=tuple(pi.support), init="explicit", init_list=[pi], max_iters=1)
    return fit_mle(ds, kernel, config).pi_hat


def test_em_step_uniform_kernel_fixed_point():
    pi = DiscreteDistribution([1.0, 3.0], [0.35, 0.65])
    k = uniform_kernel(2)
    ds = simulate(pi, k, 30, 2, seed=1)
    out = _em_step(ds, pi, k)
    assert np.max(np.abs(out.probs - pi.probs)) < 1e-10


def test_em_step_point_mass_absorbing():
    pi = point_mass_on([1.0, 3.0], 0)
    k = bradley_terry()
    ds = simulate(pi, k, 16, 3, seed=2)
    out = _em_step(ds, pi, k)
    # the floor keeps a 1e-12 sliver on the empty support point
    assert np.max(np.abs(out.probs - pi.probs)) < 1e-10


def test_em_step_matches_brute_force_average():
    for ds, pi, kernel in small_instances(5, rng_seed=21):
        stepped = _em_step(ds, pi, kernel)
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


def test_em_mode_tie_breaks_low_index():
    pi = DiscreteDistribution([1.0, 3.0], [0.3, 0.7])
    k = bradley_terry()
    ds = simulate(pi, k, 16, 3, seed=4)
    config = FitConfig(
        support=(1.0, 3.0), init="explicit", init_list=[pi, pi, pi], restarts=3, max_iters=5
    )
    result = fit_mle(ds, k, config)
    assert result.restart_index == 0
    finals = result.restart_final_logliks
    assert len(finals) == 3 and finals[0] == finals[1] == finals[2]


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


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf"), float("nan")])
def test_fit_config_needs_positive_finite_tol(tol):
    # an infinite tol stops EM after one step, a NaN one never stops it
    with pytest.raises(InvalidValue, match=f"^tol must be positive and finite, got {tol}$"):
        FitConfig(support=(1.0,), tol=tol)


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


def _fallback_fit():
    """bt_ties on 20 nodes, from uniform, at most 13 sweeps: the steps at caps
    1, 4 and 16 use their cap and are kept, the fourth stays under 64, and the
    fifth, at 64, lands near the point mass on 0.5 and is rejected."""
    support = (0.5, 2.0)
    k = bt_ties(2.0)
    ds = simulate(DiscreteDistribution(support, [0.7, 0.3]), k, 20, 2, seed=51)
    return LayerChainModel(ds, k, support), FitConfig(support=support, tol=1e-12, max_iters=12)


def test_em_logs_sweeps_stop_reason_and_clipping(caplog):
    k = bradley_terry()
    truth = point_mass_on([1.0, 3.0], 0)
    ds = simulate(truth, k, 16, 3, seed=2)
    # From the point mass the marginals put exactly 0 on 3.0, so p1 and p2
    # are the floored point mass, and so is the kept extrapolated point: one
    # weight clipped, and the log-likelihood stays put, so stop on tol.
    absorbed = FitConfig(support=(1.0, 3.0), init="explicit", init_list=[truth])
    # From uniform, a budget of two sweeps is one cycle at a tol no cycle
    # meets: stop on max_iters.
    capped = FitConfig(support=(1.0, 3.0), max_iters=2, tol=1e-300, restarts=2, seed=5)
    # A budget of one sweep ends at p1, and the stop test still runs on it.
    one_step = FitConfig(support=(1.0, 3.0), init="explicit", init_list=[truth], max_iters=1)
    with caplog.at_level(logging.DEBUG, logger="lgmle.estimator"):
        fit_mle(ds, k, absorbed)
        fit_mle(ds, k, capped)
        fit_mle(ds, k, one_step)
        model, config = _fallback_fit()
        fit_mle(model.dataset, model.kernel, config)
    assert [r.getMessage() for r in caplog.records] == [
        "em restart: sweeps=3 stop=tol clipped=1 fallbacks=0",
        "em restart: sweeps=3 stop=max_iters clipped=0 fallbacks=0",
        "em restart: sweeps=3 stop=max_iters clipped=0 fallbacks=0",
        "em restart: sweeps=2 stop=tol clipped=1 fallbacks=0",
        "em restart: sweeps=13 stop=max_iters clipped=0 fallbacks=1",
    ]


def test_rejected_extrapolation_keeps_em_point_and_quarters_cap():
    model, config = _fallback_fit()
    swept = []
    sweep = model.posterior_pass

    def recorded(probs):
        marginals, ll = sweep(probs)
        swept.append(float(np.squeeze(ll)))
        return marginals, ll

    with (
        mock.patch.object(model, "posterior_pass", recorded),
        mock.patch.object(estimator, "_extrapolate", wraps=estimator._extrapolate) as extrapolate,
    ):
        [(_, ll, trajectory, converged)] = _em_lockstep(model, _em_starts(config), config)
    # One sweep for the start and two per cycle, the fallback's included.
    assert len(swept) == config.max_iters + 1
    assert [float(c.args[3][0]) for c in extrapolate.call_args_list] == [1, 4, 16, 64, 64, 16]
    # Cycle c sweeps p1 at 2c - 1 and the extrapolated point at 2c; cycle 5
    # falls to p1, whose value is kept as it was swept.
    assert swept[10] < swept[9]
    assert trajectory == [swept[0], swept[2], swept[4], swept[6], swept[8], swept[9], swept[12]]
    assert ll == trajectory[-1] and not converged
    assert np.all(np.diff(trajectory) > 0)


def _lossy_model():
    """Outcome 1 between two index-0 nodes has probability 1e-200, so the
    point mass on index 0 loses its mass; rows with weight on index 1 keep
    theirs."""
    support = [1.0, 2.0]
    table = np.full((2, 2, 2), 0.5)
    table[:, 0, 0] = [1.0 - 1e-200, 1e-200]
    kernel = custom_table((0, 1), support, table)
    fair = custom_table((0, 1), support, np.full((2, 2, 2), 0.5))
    ds = simulate(uniform(support), fair, 40, 2, seed=4)
    return LayerChainModel(ds, kernel, support)


def test_extrapolated_rows_that_raise_or_are_not_finite_get_minus_inf():
    model = _lossy_model()
    rows = np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.7], [np.nan, np.nan]])
    for row in (rows[:3], rows[3]):
        with pytest.raises(H1Violated):
            model.posterior_pass(row)
    marginals, lls = _sweep_extrapolated(model, rows)
    assert lls[1] == lls[3] == -np.inf
    for k in (0, 2):
        marginals_k, ll_k = model.posterior_pass(rows[k])
        assert lls[k] == ll_k
        assert np.array_equal(marginals[k], marginals_k)


def test_restart_whose_extrapolated_sweep_raises_keeps_its_em_point(caplog):
    model = _lossy_model()
    starts = [np.array([0.5, 0.5]), np.array([0.3, 0.7])]
    config = FitConfig(
        support=(1.0, 2.0), init="explicit", init_list=starts, restarts=2, max_iters=2, tol=1e-300
    )
    extrapolate = estimator._extrapolate

    def lost_second_row(p, p1, p2, cap):
        probs, clipped, a = extrapolate(p, p1, p2, cap)
        probs[1] = [1.0, 0.0]
        return probs, clipped, a

    with (
        mock.patch.object(estimator, "_extrapolate", lost_second_row),
        caplog.at_level(logging.DEBUG, logger="lgmle.estimator"),
    ):
        [(probs, _, trajectory, _), (probs_lost, _, trajectory_lost, _)] = _em_lockstep(
            model, starts, config
        )
    # One cycle: the first row keeps its extrapolated point, the second its
    # EM point, as one plain EM step gives it.
    probs_o, _, trajectory_o, _ = oracle_squarem_run(model, starts[0], config)
    assert np.array_equal(probs, probs_o) and trajectory == trajectory_o
    one_step = dataclasses.replace(config, max_iters=1)
    probs_em, _, trajectory_em, _ = oracle_plain_em_run(model, starts[1], one_step)
    assert np.array_equal(probs_lost, probs_em) and trajectory_lost == trajectory_em
    assert [r.getMessage() for r in caplog.records] == [
        "em restart: sweeps=3 stop=max_iters clipped=0 fallbacks=0",
        "em restart: sweeps=3 stop=max_iters clipped=0 fallbacks=1",
    ]


def _counted_run(run, model, start, config):
    """``run(model, start, config)`` and the number of sweeps it made."""
    with mock.patch.object(model, "posterior_pass", wraps=model.posterior_pass) as sweep:
        out = run(model, start, config)
    return out, sweep.call_count


def _assert_lockstep_matches_oracle(model, config):
    """Every restart of the lockstep loop `==` its own one-restart SQUAREM
    run; returns those runs and the sweeps each made."""
    starts = _em_starts(config)
    runs = _em_lockstep(model, starts, config)
    oracle, sweeps = zip(
        *(_counted_run(oracle_squarem_run, model, start, config) for start in starts)
    )
    assert len(runs) == len(oracle) == config.restarts
    for (probs, ll, trajectory, converged), (probs_o, ll_o, trajectory_o, converged_o) in zip(
        runs, oracle
    ):
        assert np.array_equal(probs, probs_o)
        assert ll == ll_o == trajectory[-1]
        assert trajectory == trajectory_o
        assert converged == converged_o
    for (_, _, trajectory, _), count in zip(oracle, sweeps):
        assert len(trajectory) <= count <= config.max_iters + 1
    return oracle, sweeps


@pytest.mark.parametrize("init", ["random", "explicit"])
@pytest.mark.parametrize("restarts", [2, 3, 4, 5])
def test_lockstep_restarts_match_oracle_runs(restarts, init, caplog):
    k = degree_model()
    support = (0.5, 2.0)
    ds = simulate(uniform(support), k, 60, 2, seed=3)
    # From the point mass the floored weight grows under EM, so the tol stop
    # waits and the start uses its 6 sweeps, two cycles and a last p1, as the
    # random starts do; those stop on tol there or run into max_iters.
    starts = [point_mass_on(support, 0)] + list(np.random.default_rng(3).dirichlet([1, 1], size=4))
    config = FitConfig(
        support=support,
        init=init,
        init_list=starts[:restarts] if init == "explicit" else None,
        restarts=restarts,
        max_iters=5,
        tol=1e-5,
        seed=7,
    )
    oracle, sweeps = _assert_lockstep_matches_oracle(LayerChainModel(ds, k, support), config)
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
    assert [int(line.split()[2][len("sweeps=") :]) for line in lines] == list(sweeps)
    if init == "explicit":
        assert lines[0] == "em restart: sweeps=6 stop=max_iters clipped=0 fallbacks=0"
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


@given(
    n=st.integers(2, 3),
    s=st.integers(2, 3),
    kernel_index=st.integers(0, 3),
    engine=st.sampled_from(["dense", "factored"]),
    seed=st.integers(1, 2**31 - 1),
)
# A boundary MLE where a cap that shrinks only after capped steps crawls:
# steps of about 150 under a cap of 256 were rejected 188 times.
@example(n=2, s=3, kernel_index=3, engine="dense", seed=424105)
# An extrapolation past an interior MLE lands on the floor (a weight near
# 1e-12) and beats p1; EM lifts that weight by a few percent per sweep and
# gains about 4e-15, so without the floor guard the tol stop fired there,
# 3.7e-3, 2.5e-2 and 4.2e-3 below plain EM.
@example(n=3, s=2, kernel_index=1, engine="dense", seed=1668)
@example(n=2, s=2, kernel_index=3, engine="dense", seed=946797216)
@example(n=3, s=2, kernel_index=2, engine="dense", seed=1298144841)
@settings(max_examples=6, deadline=None)
def test_squarem_is_monotone_within_budget_and_reaches_plain_em(n, s, kernel_index, engine, seed):
    rng = np.random.default_rng(seed)
    kernel = kernel_variants()[kernel_index]
    pi = random_distribution(rng, s)
    model = model_on_engine(simulate(pi, kernel, 4 * n + 6, n, seed=seed), pi, kernel, engine)
    start = rng.dirichlet(np.ones(s))
    config = FitConfig(
        support=tuple(pi.support), init="explicit", init_list=[start], max_iters=400, tol=1e-13
    )
    ([(_, ll, trajectory, _)], sweeps) = _counted_run(
        lambda model, start, config: _em_lockstep(model, [start], config), model, start, config
    )
    assert len(trajectory) <= sweeps <= config.max_iters + 1
    trajectory = np.array(trajectory)
    assert np.all(np.diff(trajectory) >= -1e-9 * np.abs(trajectory[:-1]))
    # Plain EM with five times the budget: at a boundary MLE it crawls.
    reference = dataclasses.replace(config, max_iters=2000)
    _, ll_plain, _, _ = oracle_plain_em_run(model, start, reference)
    assert ll >= ll_plain - 1e-6


def _raises(run, model, start, config) -> bool:
    """Whether ``run(model, start, config)`` raises ``H1Violated``."""
    try:
        run(model, start, config)
    except H1Violated:
        return True
    return False


@given(
    n=st.integers(2, 3),
    s=st.integers(2, 3),
    engine=st.sampled_from(["dense", "factored"]),
    floored=st.integers(0, 2),
    seed=st.integers(1, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_fit_on_extreme_tables_raises_only_where_plain_em_raises(n, s, engine, floored, seed):
    # Extrapolated points with floored weights on tables down to 1e-300: a
    # sweep there that raises falls back to p1, so only an EM point's sweep
    # can raise, as in plain EM.
    rng = np.random.default_rng(seed)
    model = extreme_model(n, s, engine, seed, rng)
    starts = rng.dirichlet(np.ones(s), size=2)
    starts[0, : min(floored, s - 1)] = WEIGHT_FLOOR
    starts /= starts.sum(axis=1, keepdims=True)
    config = FitConfig(
        support=tuple(model.support),
        init="explicit",
        init_list=list(starts),
        restarts=2,
        max_iters=10,
        tol=1e-12,
    )
    squarem = [_raises(oracle_squarem_run, model, start, config) for start in starts]
    plain = [_raises(oracle_plain_em_run, model, start, config) for start in starts]
    assert all(p or not q for q, p in zip(squarem, plain))
    if any(squarem):
        with pytest.raises(H1Violated):
            _em_lockstep(model, list(starts), config)
    else:
        _assert_lockstep_matches_oracle(model, config)
