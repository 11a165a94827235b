"""One benchmark step in a fresh interpreter.

Usage: python3 perfbench/child.py <spec.json>

The spec names the step (``"cli"``: ``lgmle.cli.main`` with ``argv``, the
function ``python -m lgmle`` runs; ``"scaling"``: one call to
``lgmle.analysis.scaling_experiment``), the monotonic time at which the
parent spawned this process, whether to trace and to calibrate, and where to
write the result.  The result holds the set-up time (spawn to ready:
interpreter start, imports and input preparation), the step's own time, its
exit code, the process's peak resident set, the calibration times and, when
traced, the span summary.

The calibration is a fixed computation that uses no ``lgmle`` code (small
matrix-vector products in a Python loop, a dense ``einsum`` and CSV-style
string formatting).  It runs twice in the same process, right before the
step and right after it, so that the parent can tell how fast the machine
ran while the step did (see ``run.at_ref_speed``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np


def _scaling_inputs(params: dict):
    from lgmle import DiscreteDistribution, FitConfig, kernel_from_config

    pi_star = DiscreteDistribution(params["support"], params["pi_star"])
    kernel = kernel_from_config(params["kernel"])
    kwargs = {k: params[k] for k in ("n", "seeds_per_n", "base_seed", "eval_N", "eval_replicates")}
    kwargs["fit_config"] = FitConfig(support=tuple(pi_star.support), mode="em", **params["fit"])
    return pi_star, kernel, params["N_list"], kwargs


def _record_fits(analysis) -> list[list[float]]:
    """Record the pi_hat of every fit ``analysis.scaling_experiment`` makes,
    in call order, so the parent can recompute the excess risks."""
    fits = []
    fit_mle = analysis.fit_mle

    def recording_fit_mle(*args, **kwargs):
        result = fit_mle(*args, **kwargs)
        fits.append([float(p) for p in result.pi_hat.probs])
        return result

    analysis.fit_mle = recording_fit_mle
    return fits


def calibrate() -> float:
    """Seconds taken by a fixed computation that uses no ``lgmle`` code."""
    rng = np.random.default_rng(0)
    small = rng.random((64, 4, 4)) + 0.1
    dense = rng.random((243, 243))
    start = time.perf_counter()
    v = np.ones(4)
    sums: dict[int, float] = {}
    for i in range(30000):
        v = small[i & 63] @ v
        total = v.sum()
        v = v / total
        sums[i & 255] = sums.get(i & 255, 0.0) + float(total)
    x = np.ones((243, 27))
    for _ in range(120):
        x = np.einsum("ij,jk->ik", dense, x)
        x /= x.sum()
    # Formatted and measured, not kept: the calibration leaves no mark on the
    # process's peak resident set.
    chars = sum(len(",".join(f"{a:.6g}" for a in (i, i * 0.5, i / 7.0))) for i in range(50000))
    elapsed = time.perf_counter() - start
    if not (np.isfinite(v).all() and np.isfinite(x).all() and chars > 0):
        raise RuntimeError("calibration went wrong")
    return elapsed


def _table_doc(table) -> dict:
    return {
        "rows": [
            {"N": r.N, "median_excess": r.median_excess, "iqr": r.iqr, "rhs": r.rhs}
            for r in table.rows
        ],
        "n": table.n,
        "support": [float(v) for v in table.support],
        "t": table.t,
        "entropy_integral": table.entropy_integral,
        "epsilon": table.epsilon,
        "seeds_per_n": table.seeds_per_n,
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import lgmle.analysis
    import lgmle.cli

    if spec["kind"] == "scaling":
        pi_star, kernel, N_list, kwargs = _scaling_inputs(spec["params"])
    ready = time.monotonic()
    cal_before = calibrate() if spec["calibrate"] else None

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "scaling":
        fits = _record_fits(lgmle.analysis)

    table = None
    rc = 0
    start = time.perf_counter()
    if spec["kind"] == "cli":
        with tracer.span("cli.command") if tracer else nullcontext():
            rc = lgmle.cli.main(spec["argv"])
    else:
        table = lgmle.analysis.scaling_experiment(pi_star, kernel, N_list, **kwargs)
    elapsed = time.perf_counter() - start

    if table is not None:
        with open(spec["table_out"], "w") as fh:
            json.dump(dict(_table_doc(table), fits=fits), fh, indent=1, sort_keys=True)
    result = {
        "setup_s": ready - spec["spawned"],
        "step_s": elapsed,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.summary() if tracer else None,
    }
    if spec["calibrate"]:
        result["cal_s"] = [cal_before, calibrate()]
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
