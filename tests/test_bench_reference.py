"""The benchmark checks its outputs against ``perfbench/reference.py``,
which reads datasets, graphs and kernel tables through the library and
runs its ``self_check()`` before every run; a library change that breaks
the reference must fail here first."""

import importlib.util
from pathlib import Path

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def test_reference_self_check_passes():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.self_check() == []
