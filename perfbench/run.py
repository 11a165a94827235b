"""End-to-end benchmark of the lgmle CLI, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run repeats whole rounds of its workload's steps for about ``--seconds``
seconds.  Every step runs in a fresh interpreter (``perfbench/child.py``),
so the CLI's module-level caches start cold, as they do for a user.  After
the rounds the outputs of the first round are checked against the
reference likelihood in ``perfbench/reference.py`` and against required
properties, and every later round must reproduce them byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end medians over rounds; with ``--trace 1``
untraced and traced rounds alternate and the metrics are the per-layer
figures of the traced rounds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # no step outlives this, so a run stays under 3 minutes
# Every timed process runs child.calibrate() right before and right after its
# step.  On workloads whose steps are interpreter-bound (SCALED), a step's
# time is reported scaled by REF_CAL_S / (the mean of its two calibrations):
# seconds on a machine on which the calibration takes REF_CAL_S, as it does
# on the 2-core machine of perfbench/README.md when nothing else slows it.
# Set-up times are scaled on every workload.
REF_CAL_S = 0.25

# Span names whose calls and self time are reported by the traced run.
CALLS_AND_SELF = (
    "rr_graph.build_schedule",
    "rr_graph.layer_decomposition",
    "simulator.simulate",
    "kernels.epsilon_floor",
    "likelihood.model_build",
    "likelihood.forward",
    "likelihood.posterior",
    "likelihood.backward",
    "likelihood.backward_kernels",
    "estimator.fit_mle",
    "analysis.excess_risk",
)
SELF_ONLY = (
    "analysis.scaling_experiment",
    "analysis.forgetting_profile",
    "analysis.conditional_magnitude",
    "cli.command",
)

# The one operation allowed to fail: an explicit-init refit from a JSON
# init_list, which estimator._em_starts reads as distributions (`.probs`).
EXPECTED_FAULT = "'list' object has no attribute 'probs'"

REL_TOL = 1e-9
TV_ROUNDOFF = 1e-12


# -- running steps ---------------------------------------------------------------


@dataclass
class Step:
    label: str
    timed: bool
    out: Path
    rc: int
    result: dict | None
    stderr: str
    output_bytes: int

    def doc(self, name: str) -> dict:
        with open(self.out / name) as fh:
            return json.load(fh)


class Bench:
    """Spawns steps as fresh interpreters under pinned thread settings."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("LGMLE_LOG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ):
            self.env[var] = "1"
        self.trace = False
        self._serial = 0

    def write_config(self, name: str, doc: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        return path

    def cli(self, label: str, out: Path, args: list[str], timed: bool = True) -> Step:
        return self._spawn(label, out, {"kind": "cli", "argv": args + ["--out", str(out)]}, timed)

    def scaling(self, label: str, out: Path, params: dict) -> Step:
        spec = {"kind": "scaling", "params": params, "table_out": str(out / "scaling.json")}
        return self._spawn(label, out, spec, True)

    def _spawn(self, label: str, out: Path, spec: dict, timed: bool) -> Step:
        out.mkdir(parents=True, exist_ok=True)
        self._serial += 1
        base = self.work / f"step{self._serial}"
        spec = dict(
            spec, trace=self.trace and timed, calibrate=timed, result=str(base) + ".result.json"
        )
        spec_path = Path(str(base) + ".spec.json")
        err_path = Path(str(base) + ".stderr")
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        spec["spawned"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"step {label} ran past the run's time limit") from None
            except BaseException:  # interrupted: leave no step running
                proc.kill()
                proc.wait()
                raise
        result = None
        if proc.returncode == 0:
            result = json.loads(Path(spec["result"]).read_text())
        stderr = err_path.read_text()
        rc = result["rc"] if result else proc.returncode
        size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return Step(label, timed, out, rc, result, stderr, size)


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# -- checks shared by the workloads ---------------------------------------------


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_trajectory(label: str, trajectory: list[float]) -> list[str]:
    return [
        f"{label}: EM log-likelihood fell from {a!r} to {b!r} at sweep {k + 1}"
        for k, (a, b) in enumerate(zip(trajectory, trajectory[1:]))
        if b < a - REL_TOL * abs(a)
    ]


def simulate_dataset(config: dict):
    import lgmle

    model = config["model"]
    kernel = lgmle.kernel_from_config(model["kernel"])
    pi_star = lgmle.DiscreteDistribution(model["support"], model["pi_star"])
    data = lgmle.simulate(
        pi_star, kernel, config["graph"]["N"], config["graph"]["n"], config["sim"]["seed"]
    )
    return data, kernel


def check_fit(label: str, step: Step, config: dict) -> tuple[list[str], dict]:
    """Final log-likelihood against the reference, and EM monotonicity."""
    from reference import chain_for

    doc = step.doc("fit.json")
    data, kernel = simulate_dataset(config)
    support = doc["pi_hat"]["support"]
    ref = float(chain_for(data, kernel, support).log_likelihood([doc["pi_hat"]["probs"]])[0])
    problems = check_trajectory(label, doc["trajectory"])
    if not close(doc["final_log_lik"], ref):
        problems.append(f"{label}: final_log_lik {doc['final_log_lik']!r} != reference {ref!r}")
    if doc["final_log_lik"] != max(doc["restart_final_logliks"]):
        problems.append(f"{label}: final_log_lik is not the best restart's")
    return problems, doc


# -- workloads -------------------------------------------------------------------


def step_seeds(seed: int, workload_index: int, count: int) -> list[int]:
    import numpy as np

    state = np.random.SeedSequence([seed, workload_index]).generate_state(count)
    return [int(x) for x in state]


class FitN2Large:
    """EM fit at N=3000, n=2, plus one explicit-init refit that fails today."""

    name = "fit_n2_large"
    SCALED = True
    # About five standard deviations of TV(pi_hat, pi_star) at N=3000.
    TV_BOUND = 0.2

    def __init__(self, bench: Bench, seed: int):
        (sim_seed,) = step_seeds(seed, 1, 1)
        self.config = {
            "model": {
                "kernel": {"variant": "degree_model"},
                "support": [0.5, 2.0],
                "pi_star": [0.3, 0.7],
            },
            "graph": {"N": 3000, "n": 2},
            "sim": {"seed": sim_seed},
            # A tolerance no sweep reaches: every restart makes exactly
            # max_iters + 1 posterior sweeps, so every seed does the same work.
            "fit": {"mode": "em", "tol": 1e-15, "max_iters": 20, "restarts": 2, "seed": sim_seed},
        }
        self.path = bench.write_config("fit_config.json", self.config)

    def round(self, bench: Bench, d: Path) -> list[Step]:
        fit = bench.cli("fit", d / "fit", ["fit", "--config", str(self.path)])
        probs = fit.doc("fit.json")["pi_hat"]["probs"] if fit.rc == 0 else [0.5, 0.5]
        refit_config = json.loads(json.dumps(self.config))
        refit_config["fit"].update(init="explicit", init_list=[probs], restarts=1)
        path = bench.write_config("refit_config.json", refit_config)
        refit = bench.cli("refit", d / "refit", ["fit", "--config", str(path)], timed=False)
        return [fit, refit]

    def check(self, steps: list[Step]) -> list[str]:
        fit, refit = steps
        problems, doc = check_fit("fit", fit, self.config)
        pi_star = self.config["model"]["pi_star"]
        tv = sum(abs(a - b) for a, b in zip(doc["pi_hat"]["probs"], pi_star))
        if not tv <= self.TV_BOUND:
            problems.append(f"fit: TV(pi_hat, pi_star) = {tv:.4f} > {self.TV_BOUND}")
        if refit.rc == 0:
            problems += check_fit("refit", refit, self.config)[0]
        return problems


class WideLayers:
    """Dense-block likelihood at n=4, s=3 and a capped EM fit at n=3, s=4."""

    name = "wide_layers"
    # Dense numpy kernels dominate: the machine's slow phases, which slow the
    # calibration, leave these steps' speed nearly unchanged.
    SCALED = False

    def __init__(self, bench: Bench, seed: int):
        ll_seed, fit_seed = step_seeds(seed, 2, 2)
        self.loglik_config = {
            "model": {
                "kernel": {"variant": "bradley_terry"},
                "support": [1.0, 2.0, 4.0],
                "pi_star": [0.2, 0.5, 0.3],
                "pi": [0.3, 0.4, 0.3],
            },
            "graph": {"N": 300, "n": 4},
            "sim": {"seed": ll_seed},
        }
        self.fit_config = {
            "model": {
                "kernel": {"variant": "bt_home_advantage", "theta": 1.5},
                "support": [0.5, 1.0, 2.0, 4.0],
                "pi_star": [0.1, 0.2, 0.3, 0.4],
            },
            "graph": {"N": 600, "n": 3},
            "sim": {"seed": fit_seed},
            "fit": {"mode": "em", "tol": 1e-15, "max_iters": 3, "restarts": 1},
        }
        self.loglik_path = bench.write_config("loglik_config.json", self.loglik_config)
        self.fit_path = bench.write_config("fit_config.json", self.fit_config)

    def round(self, bench: Bench, d: Path) -> list[Step]:
        return [
            bench.cli("loglik", d / "loglik", ["loglik", "--config", str(self.loglik_path)]),
            bench.cli("fit", d / "fit", ["fit", "--config", str(self.fit_path)]),
        ]

    def check(self, steps: list[Step]) -> list[str]:
        from reference import chain_for, closed_form_q_max

        loglik, fit = steps
        doc = loglik.doc("loglik.json")
        data, kernel = simulate_dataset(self.loglik_config)
        model = self.loglik_config["model"]
        chain = chain_for(data, kernel, model["support"])
        ref = float(chain.log_likelihood([model["pi"]])[0])
        problems = []
        if not close(doc["log_likelihood"], ref):
            problems.append(f"loglik: {doc['log_likelihood']!r} != reference {ref!r}")
        graph = self.loglik_config["graph"]
        if not doc["q_max"] == chain.q_max == closed_form_q_max(graph["N"], graph["n"]):
            problems.append(f"loglik: q_max {doc['q_max']} disagrees with BFS and closed form")
        if not close(doc["normalized"], doc["log_likelihood"] / doc["q_max"]):
            problems.append("loglik: normalized != log_likelihood / q_max")
        fit_problems, fit_doc = check_fit("fit", fit, self.fit_config)
        if len(fit_doc["trajectory"]) > self.fit_config["fit"]["max_iters"] + 1:
            fit_problems.append("fit: more EM sweeps than max_iters allows")
        return problems + fit_problems


class RiskSweep:
    """`lgmle risk` on six candidates, then a small scaling experiment."""

    name = "risk_sweep"
    SCALED = True
    SUPPORT = [1.0, 3.0]
    PI_STAR = [0.3, 0.7]
    # The truth, two mirror pairs, one other.
    CANDIDATES = [[0.3, 0.7], [0.2, 0.8], [0.8, 0.2], [0.4, 0.6], [0.6, 0.4], [0.5, 0.5]]
    MIRRORS = [(1, 2), (3, 4)]
    # analysis._RiskEvaluator's evaluation-seed key and slope-correction step.
    EVAL_SEED_KEY = 424243
    SLOPE_STEP = 0.02

    def __init__(self, bench: Bench, seed: int):
        risk_seed, scaling_seed = step_seeds(seed, 3, 2)
        self.config = {
            "model": {
                "kernel": {"variant": "bradley_terry"},
                "support": self.SUPPORT,
                "pi_star": self.PI_STAR,
            },
            "candidates": self.CANDIDATES,
            "analysis": {
                "N": 800,
                "n": 2,
                "replicates": 8,
                "base_seed": risk_seed,
                "min_q_max": 30,
            },
        }
        self.path = bench.write_config("risk_config.json", self.config)
        self.scaling_params = {
            "kernel": {"variant": "degree_model"},
            "support": [0.5, 2.0],
            "pi_star": [0.3, 0.7],
            "N_list": [250, 500],
            "n": 2,
            "seeds_per_n": 3,
            "base_seed": scaling_seed,
            "eval_N": 1000,
            "eval_replicates": 2,
            "fit": {"tol": 1e-15, "max_iters": 15},
        }

    def round(self, bench: Bench, d: Path) -> list[Step]:
        # One thread: a step on both cores runs at the speed of two cores'
        # loads, which a calibration in one process does not follow.
        args = ["risk", "--config", str(self.path), "--threads", "1"]
        return [
            bench.cli("risk", d / "risk", args),
            bench.scaling("scaling", d / "scaling", self.scaling_params),
        ]

    def check(self, steps: list[Step]) -> list[str]:
        risk, scaling = steps
        return self._check_risk(risk.doc("risk.json")) + self._check_scaling(
            scaling.doc("scaling.json")
        )

    def _check_risk(self, doc: dict) -> list[str]:
        import lgmle
        import numpy as np
        from reference import chain_for

        analysis = self.config["analysis"]
        seeds = np.random.SeedSequence(analysis["base_seed"]).generate_state(
            analysis["replicates"]
        )
        problems = []
        if doc["seeds"] != [int(s) for s in seeds]:
            problems.append("risk: replicate seeds differ from SeedSequence(base_seed)")
        kernel = lgmle.bradley_terry()
        pi_star = lgmle.DiscreteDistribution(self.SUPPORT, self.PI_STAR)
        values = []  # per replicate, per candidate: normalized log-likelihood
        for s in seeds:
            data = lgmle.simulate(pi_star, kernel, analysis["N"], analysis["n"], int(s))
            chain = chain_for(data, kernel, self.SUPPORT)
            values.append(chain.log_likelihood(self.CANDIDATES) / chain.q_max)
        values = np.array(values)
        star = values[:, 0]
        reports = doc["reports"]
        for idx, report in enumerate(reports):
            label = f"risk candidate {self.CANDIDATES[idx]}"
            ref_pi = float(values[:, idx].mean())
            ref_excess = float((star - values[:, idx]).mean())
            if not close(report["L_hat_pi"], ref_pi) or not close(
                report["L_hat_star"], float(star.mean())
            ):
                problems.append(f"{label}: L_hat disagrees with the reference")
            if abs(report["excess_risk"] - ref_excess) > REL_TOL * abs(ref_pi):
                problems.append(
                    f"{label}: excess {report['excess_risk']!r} != reference {ref_excess!r}"
                )
            if report["excess_risk"] < -3.0 * report["excess_stderr"]:
                problems.append(f"{label}: excess below -3 stderr")
        if reports[0]["excess_risk"] != 0.0:
            problems.append(f"risk: the truth's excess is {reports[0]['excess_risk']!r}, not 0")
        for a, b in self.MIRRORS:
            if abs(reports[a]["excess_risk"] - reports[b]["excess_risk"]) > 1e-12:
                problems.append(f"risk: mirror candidates {a} and {b} disagree")
        return problems

    def _check_scaling(self, doc: dict) -> list[str]:
        import numpy as np

        p = self.scaling_params
        problems = []
        if [r["N"] for r in doc["rows"]] != p["N_list"]:
            problems.append("scaling: rows do not follow N_list")
        # degree_model: k(1 | v, w) = vw / (1 + vw), k(0 | v, w) = 1 / (1 + vw).
        products = [v * w for v in p["support"] for w in p["support"]]
        epsilon = min(min(x / (1 + x), 1 / (1 + x)) for x in products)
        if not close(doc["epsilon"], epsilon, 1e-12):
            problems.append(f"scaling: epsilon {doc['epsilon']!r} != {epsilon!r}")
        t = math.sqrt(math.log(2.0))
        if not close(doc["t"], t, 1e-12) or not doc["entropy_integral"] > 0:
            problems.append("scaling: t or entropy integral out of range")
        n = p["n"]
        for row in doc["rows"]:
            rhs = n * epsilon ** (-6 * n * n) / math.sqrt(row["N"]) * (doc["entropy_integral"] + t)
            if not close(row["rhs"], rhs, 1e-12):
                problems.append(f"scaling: rhs at N={row['N']} is {row['rhs']!r}, not {rhs!r}")
        fits = doc["fits"]
        per_n = p["seeds_per_n"]
        if len(fits) != per_n * len(p["N_list"]):
            return problems + [f"scaling: {len(fits)} fits, not {per_n} per N"]
        if any(min(f) < 0 or abs(sum(f) - 1) > REL_TOL for f in fits):
            problems.append("scaling: a fitted pi_hat is not a distribution")
        excess, scale = self._reference_excesses(fits)
        for k, row in enumerate(doc["rows"]):
            q25, q50, q75 = np.percentile(excess[k * per_n : (k + 1) * per_n], [25, 50, 75])
            if abs(row["median_excess"] - q50) > REL_TOL * scale:
                problems.append(
                    f"scaling: median excess at N={row['N']} is {row['median_excess']!r}, "
                    f"reference {float(q50)!r}"
                )
            if abs(row["iqr"] - (q75 - q25)) > REL_TOL * scale:
                problems.append(f"scaling: IQR at N={row['N']} disagrees with the reference")
        return problems

    def _reference_excesses(self, fits: list[list[float]]):
        """Excess risk of each fitted pi_hat, scored with the reference chain
        the way analysis._RiskEvaluator scores it: on eval_replicates datasets
        seeded by SeedSequence([base_seed, EVAL_SEED_KEY]), as the mean gap of
        the normalized log-likelihood to pi_star's, less a central-difference
        slope correction at pi_star (the support has two points).  Returns the
        excesses and the magnitude of pi_star's normalized log-likelihood."""
        import lgmle
        import numpy as np
        from reference import chain_for

        p = self.scaling_params
        kernel = lgmle.kernel_from_config(p["kernel"])
        pi_star = lgmle.DiscreteDistribution(p["support"], p["pi_star"])
        seeds = np.random.SeedSequence([p["base_seed"], self.EVAL_SEED_KEY]).generate_state(
            p["eval_replicates"]
        )
        star = p["pi_star"][0]
        lo, hi = max(star - self.SLOPE_STEP, 1e-6), min(star + self.SLOPE_STEP, 1 - 1e-6)
        rows = [p["pi_star"], [hi, 1 - hi], [lo, 1 - lo]] + fits
        values = []
        for s in seeds:
            data = lgmle.simulate(pi_star, kernel, p["eval_N"], p["n"], int(s))
            chain = chain_for(data, kernel, p["support"])
            values.append(chain.log_likelihood(rows) / chain.q_max)
        values = np.array(values)
        gaps = (values[:, :1] - values).mean(axis=0)
        slope = (gaps[1] - gaps[2]) / (hi - lo)
        excess = gaps[3:] - slope * (np.array([f[0] for f in fits]) - star)
        return excess, abs(float(values[:, 0].mean()))


class DiagnoseN2:
    """`lgmle diagnose` with ties at N=200: backward sweeps and large CSVs."""

    name = "diagnose_n2"
    SCALED = True

    def __init__(self, bench: Bench, seed: int):
        (sim_seed,) = step_seeds(seed, 4, 1)
        self.config = {
            "model": {
                "kernel": {"variant": "bt_ties", "theta": 2.0},
                "support": [1.0, 2.0, 4.0],
                "pi_star": [0.3, 0.4, 0.3],
            },
            "graph": {"N": 200, "n": 2},
            "sim": {"seed": sim_seed},
        }
        self.path = bench.write_config("diagnose_config.json", self.config)

    def round(self, bench: Bench, d: Path) -> list[Step]:
        return [bench.cli("diagnose", d / "diagnose", ["diagnose", "--config", str(self.path)])]

    def check(self, steps: list[Step]) -> list[str]:
        from reference import chain_for, closed_form_q_max

        (step,) = steps
        graph, model = self.config["graph"], self.config["model"]
        data, kernel = simulate_dataset(self.config)
        chain = chain_for(data, kernel, model["support"])
        q_max = closed_form_q_max(graph["N"], graph["n"])
        top = q_max - 1
        problems = []
        if chain.q_max != q_max:
            problems.append(f"diagnose: BFS depth {chain.q_max} != closed form {q_max}")
        probs = [model["pi_star"]]
        partitions: dict[tuple[int, int], float] = {}

        def conditional(q: int, m: int) -> float:
            # log P(X_q | X_{q+1:m}) = log P(X_{q:m}) - log P(X_{q+1:m})
            for k in (q, q + 1):
                if (k, m) not in partitions:
                    partitions[(k, m)] = float(chain.log_partition(probs, k, m)[0])
            return partitions[(q, m)] - partitions[(q + 1, m)]

        mid = top // 2
        magnitude_samples = {(2, 2), (2, mid), (mid, mid), (2, top), (mid, top), (top, top)}
        forgetting_samples = {(2, 2, 1), (2, 2, top - 2), (mid, mid, 1), (3, mid, top - mid)}
        forgetting_samples.add((top - 1, top - 1, 1))

        with open(step.out / "forgetting.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            count = 0
            for row in reader:
                count += 1
                key = (int(row[0]), int(row[1]), int(row[2]))
                if key in forgetting_samples:
                    q, m, ell = key
                    gap = abs(conditional(q, m) - conditional(q, m + ell))
                    if abs(float(row[3]) - gap) > REL_TOL:
                        problems.append(f"diagnose: forgetting gap at {key} != reference {gap!r}")
        expected = (top - 2) * (top - 1) * top // 6
        if count != expected:
            problems.append(f"diagnose: {count} forgetting rows, closed form gives {expected}")

        with open(step.out / "conditional_magnitude.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != (top - 1) * top // 2:
            problems.append(f"diagnose: {len(rows)} magnitude rows for q_max={q_max}")
        for row in rows:
            key = (int(row[0]), int(row[1]))
            if key in magnitude_samples:
                ref = abs(conditional(*key))
                if not close(float(row[2]), ref):
                    problems.append(f"diagnose: |log P| at {key} {row[2]} != reference {ref!r}")

        with open(step.out / "contraction.csv", newline="") as fh:
            tvs = [float(row[1]) for row in list(csv.reader(fh))[1:]]
        if not tvs or any(not 0.0 <= tv <= 2.0 for tv in tvs):
            problems.append("diagnose: contraction TV outside [0, 2]")
        # Once TV reaches roundoff (~1e-16) it wobbles; allow that much.
        if any(b > a + TV_ROUNDOFF for a, b in zip(tvs, tvs[1:])):
            problems.append("diagnose: contraction TV increases")
        return problems


WORKLOADS = {w.name: w for w in (FitN2Large, WideLayers, RiskSweep, DiagnoseN2)}


# -- one run ---------------------------------------------------------------------


def is_expected_failure(step: Step) -> bool:
    return step.label == "refit" and step.rc == 1 and EXPECTED_FAULT in step.stderr


def at_ref_speed(step: Step, key: str) -> float:
    """A time of the step's process, scaled by its own calibration."""
    return step.result[key] * REF_CAL_S / statistics.fmean(step.result["cal_s"])


def round_figures(steps: list[Step], scaled: bool) -> dict:
    timed = [s for s in steps if s.timed]
    for step in timed:
        if step.result is None:
            raise RuntimeError(f"step {step.label} died (exit {step.rc}): {step.stderr[-400:]}")
    times = [at_ref_speed(s, "step_s") if scaled else s.result["step_s"] for s in timed]
    return {
        "setups": [at_ref_speed(s, "setup_s") for s in timed],
        "round_s": sum(times),
        "command_s": times[0],
        "peak_rss_mb": max(s.result["peak_rss_mb"] for s in timed),
        # As measured, for the summary line only.
        "wall_s": sum(s.result["step_s"] for s in timed),
        "measured": [s.result for s in timed],
    }


def layer_figures(steps: list[Step]) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its processes."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for step in steps:
        if not (step.timed and step.result and step.result["trace"]):
            continue
        for name, entry in step.result["trace"]["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += entry["calls"]
            agg["self_s"] += entry["self_s"]
        for name, value in step.result["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value
    empty = {"calls": 0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = spans.get(name, empty)["calls"]
        out[f"{name}.self_s"] = spans.get(name, empty)["self_s"]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = spans.get(name, empty)["self_s"]
    for sweep in ("forward", "posterior"):
        busy = out[f"likelihood.{sweep}.self_s"]
        blocks = counts.get(f"likelihood.{sweep}.blocks", 0)
        out[f"likelihood.{sweep}.blocks_per_s"] = blocks / busy if busy > 0 else 0.0
    fits = out["estimator.fit_mle.calls"]
    out["estimator.em_sweeps"] = counts.get("estimator.em_sweeps_total", 0) / fits if fits else 0
    out["simulator.edges_sampled"] = counts.get("simulator.edges_sampled", 0)
    out["analysis.forgetting_rows"] = counts.get("analysis.forgetting_rows", 0)
    out["cli.output_bytes"] = sum(
        s.output_bytes for s in steps if s.timed and s.result and s.label != "scaling"
    )
    return out


def run(args, root: Path, work: Path) -> dict:
    """One run; its metrics are the ones BENCHMARK.json declares, with its units."""
    from reference import self_check

    benchmark = json.loads((root / "BENCHMARK.json").read_text())

    start = time.monotonic()
    bench = Bench(root, work, start + RUN_LIMIT_S)
    problems = [f"reference: {p}" for p in self_check()]
    workload = WORKLOADS[args.workload](bench, args.seed)

    # Untimed warm-up: byte-compiles the package and pages in the libraries.
    subprocess.run(
        [sys.executable, "-c", "import lgmle.cli"], cwd=root, env=bench.env, check=True
    )

    rounds: list[list[Step]] = []
    digests: list[list[str]] = []
    durations: list[float] = []
    loop_start = time.monotonic()
    min_rounds = 2 if args.trace else 1
    while True:
        elapsed = time.monotonic() - loop_start
        if len(rounds) >= min_rounds and elapsed + max(durations) > args.seconds:
            break
        bench.trace = bool(args.trace) and len(rounds) % 2 == 1
        round_dir = work / f"round{len(rounds)}"
        t0 = time.monotonic()
        steps = workload.round(bench, round_dir)
        durations.append(time.monotonic() - t0)
        digests.append([digest(s.out) for s in steps])
        rounds.append(steps)
        if len(rounds) > 1:
            shutil.rmtree(round_dir)  # keep the first round's outputs for the checks

    attempted = sum(len(steps) for steps in rounds)
    failed = 0
    for index, steps in enumerate(rounds):
        for step in steps:
            if step.rc == 0:
                continue
            failed += 1
            if is_expected_failure(step):
                if index == 0:
                    print(f"{args.workload}: {step.label} failed as expected (exit {step.rc}): "
                          f"{EXPECTED_FAULT} in lgmle.estimator._em_starts")
            else:
                problems.append(f"{step.label} failed (exit {step.rc}): {step.stderr[-400:]}")
        if digests[index] != digests[0]:
            problems.append(f"round {index} outputs differ from round 0")
    if not problems:
        try:
            problems += workload.check(rounds[0])
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")

    scaled = workload.SCALED
    plain = [round_figures(s, scaled) for i, s in enumerate(rounds) if not (args.trace and i % 2)]
    measured = [x for f in plain for x in f["measured"]]
    print(f"{args.workload}: {len(rounds)} rounds, seed {args.seed}, "
          f"{time.monotonic() - loop_start:.1f} s measured; as measured, median wall "
          f"{statistics.median(f['wall_s'] for f in plain):.4f} s, set-up "
          f"{statistics.median(r['setup_s'] for r in measured):.4f} s and calibration "
          f"{statistics.median(c for r in measured for c in r['cal_s']):.4f} s")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        traced = [s for i, s in enumerate(rounds) if i % 2]
        figures = [layer_figures(s) for s in traced]
        values = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
        values["trace.overhead_s"] = statistics.median(
            round_figures(s, scaled)["round_s"] for s in traced
        ) - statistics.median(f["round_s"] for f in plain)
        declared = benchmark["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(x for f in plain for x in f["setups"]),
            "round_s": statistics.median(f["round_s"] for f in plain),
            "command_s": statistics.median(f["command_s"] for f in plain),
            "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in plain),
        }
        declared = benchmark["end_to_end"]
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running step is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "lgmle" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/lgmle not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    work = root / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
