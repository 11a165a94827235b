"""The benchmark's traced run wraps lgmle functions and ``LayerChainModel``
methods by name (``perfbench/spans.py``); a rename would crash that run, so
every name it looks up must resolve here first."""

import importlib
import importlib.util
from pathlib import Path

from lgmle.likelihood import LayerChainModel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    functions = _spans().FUNCTIONS
    assert functions
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in functions
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_traced_model_methods_exist():
    methods = [method for method, _ in _spans().MODEL_METHODS]
    assert methods
    assert [m for m in methods if m not in vars(LayerChainModel)] == []
