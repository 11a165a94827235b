"""Batch experiment runner.

Subcommands: schedule, simulate, loglik, fit, risk, diagnose.  Each command
but schedule checks every key of its JSON config (``--config``) against one
table, applies flag overrides, writes its results with the config as given
and the seeds it used, and returns 0 on success, 2 when the package rejects
an input (an ``LgmleError``), and 1 on any other exception, a bug.  Outputs
carry no timestamps: re-running a config reproduces them byte for byte.
``LGMLE_LOG`` names the log level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import os
import sys
import time

import numpy as np

from . import analysis, estimator, likelihood, rr_graph, simulator
from .distributions import DiscreteDistribution
from .errors import LgmleError
from .kernels import kernel_from_config

log = logging.getLogger("lgmle")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


class ConfigError(LgmleError):
    """The config file, flags or environment do not describe a runnable experiment."""


def _setup_logging() -> None:
    name = os.environ.get("LGMLE_LOG") or "WARNING"
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigError(f"LGMLE_LOG must be a logging level name such as DEBUG or INFO, got {name!r}")
    logging.basicConfig(level=level)


def _jsonable(obj):
    """json's ``default`` hook: numpy arrays and scalars as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_CHUNK_ROWS = 1 << 14


def _write_table(path, header, columns) -> None:
    """Numeric column arrays as the CSV ``csv.writer`` writes from their
    ``.tolist()`` rows: each cell the ``repr`` of a Python int or float, no
    quoting, CRLF line ends.

    Rows go out ``_CHUNK_ROWS`` at a time, and each distinct cell of a chunk
    is formatted once: a float column's values are told apart by bit pattern
    (so -0.0 is not 0.0), an int column's by a label table over its range.
    """
    start = time.perf_counter()
    rows = len(columns[0])
    ends = [","] * (len(columns) - 1) + ["\r\n"]
    formatted = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, rows, _CHUNK_ROWS):
            cells = []
            for col, end in zip(columns, ends):
                chunk = col[a:a + _CHUNK_ROWS]
                if chunk.dtype.kind == "f":
                    values, index = np.unique(chunk.view(np.int64), return_inverse=True)
                    values = values.view(chunk.dtype).tolist()
                else:
                    low = int(chunk.min())
                    values, index = range(low, int(chunk.max()) + 1), chunk - low
                labels = np.array([f"{v!r}{end}" for v in values], dtype=object)
                formatted += labels.size
                cells.append(labels[index].tolist())
            fh.write("".join(itertools.chain.from_iterable(zip(*cells))))
    log.debug("wrote %s: rows=%d distinct_cells=%d seconds=%.4f",
              os.path.basename(path), rows, formatted, time.perf_counter() - start)


# Every section and key a config may hold, with its JSON kind: int (an
# integral float such as 60.0 reads as an int), float (any number), bool, str,
# [kind] for a list of that kind, and a nested table for an object with those
# keys.  Ranges and names are checked by the library code that reads a value.
_FIT_KINDS = {"support": [float], "mode": str, "init": str, "tol": float,
              "init_list": [[float]], "candidates": [[float]]}
_CONFIG = {
    "model": {
        "kernel": {
            "variant": str,
            "theta": float,
            "num_outcomes": int,
            "outcomes": [float],
            "support": [float],
            "table": [[[float]]],
            "path": str,
        },
        "support": [float],
        "pi_star": [float],
        "pi": [float],
    },
    "graph": {"N": int, "n": int},
    "sim": {"seed": int, "blind": bool, "strict": bool},
    "fit": {f.name: _FIT_KINDS.get(f.name, int) for f in dataclasses.fields(estimator.FitConfig)},
    "analysis": {f.name: int for f in dataclasses.fields(analysis.RiskParams)},
    "candidates": [[float]],
    "dataset": str,
}
_SCALARS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
_LISTS = ("a list of numbers", "a list of probability lists", "a list of probability tables")


class _Section(dict):
    """A checked config object; looking up a key it lacks is a config error
    that names the key."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, name):
        raise ConfigError(f"config is missing key {self.prefix}{name}")


def _check(key: str, value, kind=_CONFIG):
    """``value``, found at dotted config key ``key`` ("" for the document),
    checked against ``kind``; objects come back as ``_Section``s."""
    if isinstance(kind, dict):
        if type(value) is not dict:
            raise ConfigError(f"config key {key} must be an object" if key else "config must be an object")
        section = _Section(f"{key}." if key else "")
        for name, item in value.items():
            if name not in kind:
                raise ConfigError(f"unknown key {section.prefix}{name}")
            section[name] = _check(section.prefix + name, item, kind[name])
        return section
    if isinstance(kind, list):
        if type(value) is not list:
            depth = str(kind).count("[")  # [float] is 1, [[float]] is 2, ...
            raise ConfigError(f"config key {key} must be {_LISTS[depth - 1]}")
        return [_check(f"{key}[{i}]", item, kind[0]) for i, item in enumerate(value)]
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"config key {key} must be {_SCALARS[kind]}, got {json.dumps(value)}")
    return value


def _load_config(args) -> tuple[dict, _Section]:
    """The config document as given, which outputs echo, and checked."""
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    return doc, _check("", doc)


def _kernel(config: _Section):
    return kernel_from_config(config["model"]["kernel"])


def _distribution(config: _Section, probs_key: str) -> DiscreteDistribution:
    model = config["model"]
    return DiscreteDistribution(model["support"], model[probs_key])


def _seeded(config: _Section, section: str, key: str, args) -> dict:
    """A copy of the optional ``section`` with ``--seed``, if given, as its ``key``."""
    values = dict(config.get(section, {}))
    if args.seed is not None:
        values[key] = args.seed
    return values


def _dataset(config: _Section, args, kernel) -> simulator.Dataset:
    """The config's dataset: loaded, with every outcome checked against
    ``kernel``, or simulated with it."""
    if "dataset" in config:
        ds = simulator.dataset_from_json(config["dataset"])
        for x in ds.outcomes.values():
            kernel.outcome_index(x)
        return ds
    pi_star = _distribution(config, "pi_star")
    graph = config["graph"]
    sim = {"seed": 0, **_seeded(config, "sim", "seed", args)}
    return simulator.simulate(pi_star, kernel, graph["N"], graph["n"], **sim)


def _checked_path(flag: str, path: str, *, directory: bool) -> str:
    """``path``, given for ``flag``, checked before any work.  A directory
    output, or the nearest existing ancestor of one that does not exist yet,
    must be a directory; a command makes it only once it has something to
    write.  A file output must not be a directory, and its parent directory
    must exist."""
    if os.path.exists(path):
        if directory and not os.path.isdir(path):
            raise ConfigError(f"{flag} {path} exists and is not a directory")
        if not directory and os.path.isdir(path):
            raise ConfigError(f"{flag} {path} is a directory")
        return path
    blocker = os.path.dirname(path)
    while blocker and not os.path.exists(blocker):
        blocker = os.path.dirname(blocker)
    if blocker and not os.path.isdir(blocker):
        raise ConfigError(f"{flag} {path} lies under {blocker}, which is not a directory")
    parent = os.path.dirname(path)
    if not directory and parent != blocker:
        raise ConfigError(f"{flag} {path}: directory {parent} does not exist")
    return path


def _out_dir(args) -> str:
    """The ``--out`` directory (default: the working directory), checked."""
    return _checked_path("--out", args.out or ".", directory=True)


def cmd_schedule(args) -> int:
    for flag, path in (("--out", args.out), ("--layers", args.layers)):
        if path:
            _checked_path(flag, path, directory=False)
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
    doc, config = _load_config(args)
    out = _out_dir(args)
    ds = _dataset(config, args, _kernel(config))
    os.makedirs(out, exist_ok=True)
    simulator.dataset_to_json(ds, os.path.join(out, "dataset.json"))
    simulator.outcomes_to_csv(ds, os.path.join(out, "outcomes.csv"))
    _write_json(os.path.join(out, "simulate_config.json"), {"config": doc, "seed": ds.seed})
    return EXIT_OK


def cmd_loglik(args) -> int:
    doc, config = _load_config(args)
    out = _out_dir(args)
    if args.normalizers_out:
        _checked_path("--normalizers-out", args.normalizers_out, directory=False)
    kernel = _kernel(config)
    ds = _dataset(config, args, kernel)
    pi = _distribution(config, "pi")
    model = likelihood.LayerChainModel(ds, kernel, pi.support)
    value, constants = model.forward_constants(pi.probs)
    os.makedirs(out, exist_ok=True)
    _write_json(
        os.path.join(out, "loglik.json"),
        {
            "log_likelihood": value,
            "q_max": ds.layers.q_max,
            "normalized": value / ds.layers.q_max,
            "config": doc,
            "seed": ds.seed,
        },
    )
    if args.normalizers_out:
        _write_table(args.normalizers_out, ["layer", "log_norm"], [np.arange(constants.size), constants])
    return EXIT_OK


def cmd_fit(args) -> int:
    doc, config = _load_config(args)
    out = _out_dir(args)
    fit_cfg = dict(config.get("fit", {}))
    kernel = _kernel(config)
    ds = _dataset(config, args, kernel)
    support = fit_cfg.pop("support") if "support" in fit_cfg else config["model"]["support"]
    if "candidates" in fit_cfg:
        fit_cfg["candidates"] = [DiscreteDistribution(support, p) for p in fit_cfg["candidates"]]
    fc = estimator.FitConfig(support=tuple(support), **fit_cfg)
    result = estimator.fit_mle(ds, kernel, fc)
    os.makedirs(out, exist_ok=True)
    fit_doc = dataclasses.asdict(result)
    _write_json(os.path.join(out, "fit.json"), {**fit_doc, "config": doc, "seed": ds.seed})
    return EXIT_OK


def cmd_risk(args) -> int:
    doc, config = _load_config(args)
    out = _out_dir(args)
    kernel = _kernel(config)
    pi_star = _distribution(config, "pi_star")
    candidates = [pi_star.with_probs(p) for p in config["candidates"]]
    params = analysis.RiskParams(**_seeded(config, "analysis", "base_seed", args))
    reports = analysis.excess_risks(candidates, kernel, pi_star, params)
    os.makedirs(out, exist_ok=True)
    rows = [
        (
            idx,
            json.dumps(r.pi.probs.tolist()),
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
    report_docs = [dataclasses.asdict(r) for r in reports]
    for report_doc in report_docs:
        report_doc["probs"] = report_doc.pop("pi")["probs"]
    _write_json(
        os.path.join(out, "risk.json"),
        {"reports": report_docs, "config": doc, "seeds": params.seeds()},
    )
    return EXIT_OK


def cmd_diagnose(args) -> int:
    doc, config = _load_config(args)
    out = _out_dir(args)
    kernel = _kernel(config)
    ds = _dataset(config, args, kernel)
    pi = _distribution(config, "pi" if "pi" in config["model"] else "pi_star")
    diagnosis = analysis._diagnose(ds, pi, kernel)
    envelopes = diagnosis.envelopes
    os.makedirs(out, exist_ok=True)
    for name, key, header in (
        ("forgetting.csv", "forgetting", ["q", "m", "ell", "gap", "bound"]),
        ("conditional_magnitude.csv", "magnitude", ["q", "m", "abs_log_prob", "bound"]),
    ):
        env = envelopes[key]
        _write_table(os.path.join(out, name), header, [*env.windows.values(), env.value, env.bound])
    contraction = diagnosis.contraction
    _write_table(
        os.path.join(out, "contraction.csv"),
        ["layer", "tv", "step_factor", "cumulative_bound"],
        [contraction.layer, contraction.tv, contraction.step_factor, contraction.cumulative_bound],
    )
    _write_json(
        os.path.join(out, "diagnose_config.json"),
        {"config": doc, "seed": ds.seed, "epsilon": diagnosis.epsilon},
    )
    violations = sum(env.violations(1e-9) for env in envelopes.values())
    vacuous = sum(int(np.count_nonzero(np.isinf(env.bound))) for env in envelopes.values())
    note = f"; {vacuous} rows have a vacuous (infinite) bound" if vacuous else ""
    if violations:
        print(f"{violations} bound violations{note}; see CSVs in {out}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"diagnostics clean: {len(envelopes['forgetting'])} forgetting rows, "
          f"{len(envelopes['magnitude'])} magnitude rows, {len(contraction.tv)} contraction steps{note}")
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
    args = _build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except LgmleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        # Anything else is a bug, not a bad input; LGMLE_LOG=DEBUG shows where.
        log.debug("runtime failure", exc_info=True)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
