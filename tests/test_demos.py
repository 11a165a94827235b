import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# demos/04 (a fit and a risk sweep) takes several times as long as these three
# together, so it stays out of tier-1.
DEMOS = ["01_schedule_and_layers.py", "02_exact_likelihood.py", "03_forgetting_and_mixing.py"]


def _lgmle_imports(path: Path):
    """(module, name) for every ``from lgmle... import name`` in a script, and
    (module, None) for every ``import lgmle...``, read without running it."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "lgmle":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "lgmle")


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(demo):
    # every demo, the ones too slow to run here included, imports only names lgmle has
    imports = list(_lgmle_imports(ROOT / "demos" / demo))
    assert imports
    missing = []
    for module, name in imports:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
