"""Spans and counts recorded around calls into ``lgmle``'s layers.

``Tracer.install`` replaces the public functions and ``LayerChainModel``
methods listed below with timing wrappers, in every ``lgmle`` module that
holds them, so names imported into another module (``analysis.simulate``,
``simulator.build_schedule``, ``cli.epsilon_floor``) are covered as well.
Nothing under ``src/`` changes; the wrappers live only in the process that
installs them.

Each span records its name, its parent, and its start and end.  A span's
self time is its duration minus the part of that interval its children
cover.  A span opened on a worker thread with no open span of its own takes
the main thread's innermost open span as its parent, so under the thread
pool of ``lgmle risk`` concurrent children share one parent, and the self
times of concurrent spans can add up to more than the wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name)
FUNCTIONS = (
    ("lgmle.rr_graph", "build_schedule", "rr_graph.build_schedule"),
    ("lgmle.rr_graph", "layer_decomposition", "rr_graph.layer_decomposition"),
    ("lgmle.simulator", "simulate", "simulator.simulate"),
    ("lgmle.kernels", "epsilon_floor", "kernels.epsilon_floor"),
    ("lgmle.estimator", "fit_mle", "estimator.fit_mle"),
    ("lgmle.analysis", "excess_risk", "analysis.excess_risk"),
    ("lgmle.analysis", "scaling_experiment", "analysis.scaling_experiment"),
    ("lgmle.analysis", "forgetting_profile", "analysis.forgetting_profile"),
    ("lgmle.analysis", "conditional_magnitude_rows", "analysis.conditional_magnitude"),
)

# (LayerChainModel method, span name)
MODEL_METHODS = (
    ("__init__", "likelihood.model_build"),
    ("forward_constants", "likelihood.forward"),
    ("posterior_pass", "likelihood.posterior"),
    ("backward_messages", "likelihood.backward"),
    ("backward_kernels", "likelihood.backward_kernels"),
)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        # Per span: [name, parent index or None, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._replaced: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def open_names(self) -> list[str]:
        """Names of the spans open on the calling thread, outermost first."""
        return [self.spans[i][0] for i in self._stack()]

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
        stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of FUNCTIONS and MODEL_METHODS."""
        from lgmle.likelihood import LayerChainModel

        loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "lgmle"]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original, _AFTER.get(name))
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, traced)
        for method, name in MODEL_METHODS:
            original = vars(LayerChainModel)[method]
            self._replace(LayerChainModel, method, self.wrap(name, original, _AFTER.get(name)))

    def uninstall(self) -> None:
        """Put back everything ``install`` replaced."""
        while self._replaced:
            owner, key, original = self._replaced.pop()
            setattr(owner, key, original)

    def _replace(self, owner, key: str, value) -> None:
        self._replaced.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def summary(self) -> dict:
        """{"spans": {name: {"calls", "total_s", "self_s"}}, "counts": {...}}."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict[str, float]] = {}
        for index, (name, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - _covered(children.get(index, []))
        return {"spans": out, "counts": dict(self.counts)}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _count_edges(tracer, args, dataset):
    tracer.count("simulator.edges_sampled", len(dataset.outcomes))


def _count_forward_blocks(tracer, args, result):
    tracer.count("likelihood.forward.blocks", args[0].num_blocks)


def _count_posterior_blocks(tracer, args, result):
    tracer.count("likelihood.posterior.blocks", args[0].num_blocks)
    if "estimator.fit_mle" in tracer.open_names():
        tracer.count("estimator.em_sweeps_total")


def _count_forgetting_rows(tracer, args, rows):
    tracer.count("analysis.forgetting_rows", len(rows))


_AFTER = {
    "simulator.simulate": _count_edges,
    "likelihood.forward": _count_forward_blocks,
    "likelihood.posterior": _count_posterior_blocks,
    "analysis.forgetting_profile": _count_forgetting_rows,
}
