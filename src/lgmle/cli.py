"""Batch experiment runner.

Subcommands: schedule, simulate, loglik, fit, risk, diagnose.  Each command
reads an optional JSON config (``--config``), applies flag overrides, writes
its results together with the resolved config and the seeds it used, and
returns exit code 0 on success, 2 on validation failure, and 1 on runtime
error.  Outputs carry no timestamps: re-running a config reproduces them
byte for byte.  ``LGMLE_LOG`` sets the log level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import analysis, estimator, likelihood, rr_graph, simulator
from .distributions import DiscreteDistribution
from .errors import LgmleError
from .kernels import epsilon_floor, kernel_from_config

log = logging.getLogger("lgmle")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


class ConfigError(LgmleError):
    """The config file or flags do not describe a runnable experiment."""


def _setup_logging() -> None:
    level = os.environ.get("LGMLE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_config(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc


def _require(config: dict, *keys):
    node = config
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"config is missing key {'.'.join(keys)}")
        node = node[key]
    return node


def _section(config: dict, key: str, settings) -> dict:
    """A copy of the optional object ``config[key]``, whose keys must name
    fields of the dataclass ``settings``."""
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config key {key} must be an object")
    known = {f.name for f in dataclasses.fields(settings)}
    for name in section:
        if name not in known:
            raise ConfigError(f"unknown key {key}.{name}")
    return dict(section)


def _analysis_int(section: dict, name: str, default: int) -> int:
    """``section[name]`` (or ``default``) of the ``analysis`` section as an
    int; JSON null, booleans, strings and non-integral numbers are config
    errors."""
    value = section.get(name, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"config key analysis.{name} must be an integer, got {json.dumps(value)}")


def _distribution(config: dict, probs_key: str) -> DiscreteDistribution:
    model = _require(config, "model")
    support = _require(model, "support")
    probs = _require(model, probs_key)
    return DiscreteDistribution(support, probs)


def _dataset(config: dict, args) -> simulator.Dataset:
    if "dataset" in config:
        return simulator.dataset_from_json(config["dataset"])
    graph_cfg = _require(config, "graph")
    sim_cfg = config.get("sim", {})
    seed = args.seed if args.seed is not None else sim_cfg.get("seed", 0)
    kernel = kernel_from_config(_require(config, "model", "kernel"))
    pi_star = _distribution(config, "pi_star")
    return simulator.simulate(
        pi_star,
        kernel,
        int(graph_cfg["N"]),
        int(graph_cfg["n"]),
        int(seed),
        blind=bool(sim_cfg.get("blind", False)),
        strict=bool(sim_cfg.get("strict", True)),
    )


def _out_dir(args) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_schedule(args) -> int:
    graph = (
        rr_graph.build_schedule_unchecked(args.N, args.n)
        if args.unchecked
        else rr_graph.build_schedule(args.N, args.n)
    )
    if args.out:
        rr_graph.graph_to_csv(graph, args.out)
        log.info("wrote %s (%d edges)", args.out, len(graph.edges))
    if args.layers:
        rr_graph.layers_to_json(rr_graph.layer_decomposition(graph), args.layers)
    if args.verify_lemma1:
        issues = rr_graph.compare_layer_structures(
            rr_graph.layer_decomposition(graph), rr_graph.predicted_layers(args.N, args.n)
        )
        if issues:
            for issue in issues:
                print(f"mismatch: {issue}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"layers verified for N={args.N}, n={args.n}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args)
    ds = _dataset(config, args)
    out = _out_dir(args)
    simulator.dataset_to_json(ds, os.path.join(out, "dataset.json"))
    simulator.outcomes_to_csv(ds, os.path.join(out, "outcomes.csv"))
    _write_json(
        os.path.join(out, "simulate_config.json"),
        {"config": config, "seed": ds.seed},
    )
    return EXIT_OK


def cmd_loglik(args) -> int:
    config = _load_config(args)
    ds = _dataset(config, args)
    kernel = kernel_from_config(_require(config, "model", "kernel"))
    pi = _distribution(config, "pi")
    value, constants = likelihood.log_likelihood_profile(ds, pi, kernel)
    out = _out_dir(args)
    _write_json(
        os.path.join(out, "loglik.json"),
        {
            "log_likelihood": value,
            "q_max": ds.layers.q_max,
            "normalized": value / ds.layers.q_max,
            "config": config,
            "seed": ds.seed,
        },
    )
    if args.normalizers_out:
        _write_csv(
            args.normalizers_out,
            ["layer", "log_norm"],
            list(enumerate(constants.tolist())),
        )
    return EXIT_OK


def cmd_fit(args) -> int:
    config = _load_config(args)
    fit_cfg = _section(config, "fit", estimator.FitConfig)
    ds = _dataset(config, args)
    kernel = kernel_from_config(_require(config, "model", "kernel"))
    support = fit_cfg.pop("support", _require(config, "model", "support"))
    candidates = fit_cfg.pop("candidates", None)
    if candidates is not None:
        candidates = [DiscreteDistribution(support, p) for p in candidates]
    fc = estimator.FitConfig(support=tuple(support), candidates=candidates, **fit_cfg)
    result = estimator.fit_mle(ds, kernel, fc)
    out = _out_dir(args)
    _write_json(
        os.path.join(out, "fit.json"),
        {
            "pi_hat": {
                "support": result.pi_hat.support,
                "probs": result.pi_hat.probs,
            },
            "final_log_lik": result.final_log_lik,
            "trajectory": result.trajectory,
            "converged": result.converged,
            "restart_index": result.restart_index,
            "restart_final_logliks": result.restart_final_logliks,
            "config": config,
            "seed": ds.seed,
        },
    )
    return EXIT_OK


def cmd_risk(args) -> int:
    config = _load_config(args)
    kernel = kernel_from_config(_require(config, "model", "kernel"))
    pi_star = _distribution(config, "pi_star")
    support = _require(config, "model", "support")
    cand_probs = _require(config, "candidates")
    if not isinstance(cand_probs, list):
        raise ConfigError("config key candidates must be a list of probability lists")
    candidates = [DiscreteDistribution(support, p) for p in cand_probs]
    a_cfg = _section(config, "analysis", analysis.RiskParams)
    params = analysis.RiskParams(
        N=_analysis_int(a_cfg, "N", 2000),
        n=_analysis_int(a_cfg, "n", 2),
        replicates=_analysis_int(a_cfg, "replicates", 20),
        base_seed=args.seed if args.seed is not None else _analysis_int(a_cfg, "base_seed", 7),
        min_q_max=_analysis_int(a_cfg, "min_q_max", 30),
    )
    reports = analysis.excess_risks(candidates, kernel, pi_star, params)
    out = _out_dir(args)
    rows = [
        (
            idx,
            json.dumps(_jsonable(r.pi.probs)),
            r.excess_risk,
            r.excess_stderr,
            r.L_hat_star,
            r.L_hat_pi,
        )
        for idx, r in enumerate(reports)
    ]
    _write_csv(
        os.path.join(out, "risk.csv"),
        ["candidate", "probs", "excess_risk", "excess_stderr", "L_hat_star", "L_hat_pi"],
        rows,
    )
    _write_json(
        os.path.join(out, "risk.json"),
        {
            "reports": [
                {
                    "probs": r.pi.probs,
                    "excess_risk": r.excess_risk,
                    "excess_stderr": r.excess_stderr,
                    "L_hat_star": r.L_hat_star,
                    "L_hat_star_stderr": r.L_hat_star_stderr,
                    "L_hat_pi": r.L_hat_pi,
                    "L_hat_pi_stderr": r.L_hat_pi_stderr,
                    "N_used": r.N_used,
                    "replicates": r.replicates,
                    "window": r.window,
                }
                for r in reports
            ],
            "config": config,
            "seeds": params.seeds(),
        },
    )
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config = _load_config(args)
    ds = _dataset(config, args)
    kernel = kernel_from_config(_require(config, "model", "kernel"))
    pi = (
        _distribution(config, "pi")
        if "pi" in config.get("model", {})
        else _distribution(config, "pi_star")
    )
    out = _out_dir(args)
    forgetting, magnitude = analysis._diagnose_rows(ds, pi, kernel)
    _write_csv(
        os.path.join(out, "forgetting.csv"),
        ["q", "m", "ell", "gap", "bound"],
        [(r.q, r.m, r.ell, r.gap, r.bound) for r in forgetting],
    )
    _write_csv(
        os.path.join(out, "conditional_magnitude.csv"),
        ["q", "m", "abs_log_prob", "bound"],
        magnitude,
    )
    profile = likelihood.backward_contraction_profile(ds, pi, kernel)
    _write_csv(
        os.path.join(out, "contraction.csv"),
        ["layer", "tv", "step_factor", "cumulative_bound"],
        [(s.layer, s.tv, s.step_factor, s.cumulative_bound) for s in profile.steps],
    )
    _write_json(
        os.path.join(out, "diagnose_config.json"),
        {
            "config": config,
            "seed": ds.seed,
            "epsilon": epsilon_floor(kernel, pi.support).epsilon,
        },
    )
    tol = 1e-9
    violations = [r for r in forgetting if r.gap > r.bound + tol]
    violations += [r for r in magnitude if r[2] > r[3] + tol]
    prev = profile.initial_tv
    for step in profile.steps:
        if step.tv > step.step_factor * prev + tol:
            violations.append(step)
        prev = step.tv
    if violations:
        print(f"{len(violations)} bound violations; see CSVs in {out}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"diagnostics clean: {len(forgetting)} forgetting rows, "
          f"{len(magnitude)} magnitude rows, {len(profile.steps)} contraction steps")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmle",
        description="Round-robin latent-weight experiments: scheduling, simulation, "
        "likelihoods, fitting, risk, and mixing diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="build a round-robin graph and its layers")
    p.add_argument("--N", type=int, required=True, help="node count (even)")
    p.add_argument("--n", type=int, required=True, help="rounds / degree")
    p.add_argument("--out", help="graph CSV path (i,j,round)")
    p.add_argument("--layers", help="layer-structure JSON path")
    p.add_argument("--unchecked", action="store_true", help="skip the n < N/4 bound")
    p.add_argument(
        "--verify-lemma1",
        action="store_true",
        help="compare BFS layers against the closed-form prediction",
    )
    p.set_defaults(func=cmd_schedule)

    for name, func, extra in (
        ("simulate", cmd_simulate, ()),
        ("loglik", cmd_loglik, ("normalizers_out",)),
        ("fit", cmd_fit, ()),
        ("risk", cmd_risk, ()),
        ("diagnose", cmd_diagnose, ()),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
        if "normalizers_out" in extra:
            p.add_argument(
                "--normalizers-out",
                dest="normalizers_out",
                help="CSV path for per-layer log normalizers",
            )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LgmleError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - unexpected failures
        log.exception("runtime failure")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
