"""Per-stage timings of the likelihood pipeline, measured through the tracer.

Usage (from the repository root):

    python3 perfbench/stages.py

Prints a Markdown table with one row per (N, n, s): the best of
``REPEATS`` wall times of ``simulate`` (schedule and layers included),
the ``LayerChainModel`` build, one forward sweep (``log_likelihood``) and
one posterior sweep (``posterior_pass``), each read from the span the
tracer records around the call.  The kernel is Bradley-Terry on the support
1, 2, 4, ... with uniform weights, at seed 1, as in the roadmap's baseline
table.  BLAS threads should be pinned by the caller (OMP_NUM_THREADS=1 and
OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPEATS = 3
ROWS = ((2000, 2, 2), (20000, 2, 2), (2000, 3, 4), (2000, 4, 3))
STAGES = (
    ("simulate", "simulator.simulate"),
    ("model build", "likelihood.model_build"),
    ("ll", "likelihood.forward"),
    ("post", "likelihood.posterior"),
)


def measure(N: int, n: int, s: int) -> dict[str, float]:
    import lgmle
    from lgmle.likelihood import LayerChainModel
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        pi = lgmle.uniform([2.0**k for k in range(s)])
        kernel = lgmle.bradley_terry()
        data = lgmle.simulate(pi, kernel, N, n, 1)
        model = LayerChainModel(data, kernel, pi.support)
        model.log_likelihood(pi.probs)
        model.posterior_pass(pi.probs)
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    return {stage: spans[name]["total_s"] for stage, name in STAGES}


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    print("| N, n, s | " + " | ".join(stage for stage, _ in STAGES) + " |")
    print("|---|" + "---|" * len(STAGES))
    for N, n, s in ROWS:
        runs = [measure(N, n, s) for _ in range(REPEATS)]
        best = {stage: min(r[stage] for r in runs) for stage, _ in STAGES}
        cells = " | ".join(_fmt(best[stage]) for stage, _ in STAGES)
        print(f"| {N}, {n}, {s} | {cells} |", flush=True)
    return 0


def _fmt(seconds: float) -> str:
    return f"{seconds:.2f} s" if seconds >= 1 else f"{seconds * 1000:.0f} ms"


if __name__ == "__main__":
    sys.exit(main())
