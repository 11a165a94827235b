import csv
import dataclasses
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lgmle import (
    DiscreteDistribution,
    RiskParams,
    analysis,
    bradley_terry,
    cli,
    kernels,
    likelihood,
    rr_graph,
    simulate,
    simulator,
)
from lgmle.cli import _CONFIG, _check, main
from lgmle.likelihood import LayerChainModel

from conftest import oracle_diagnose_violations, oracle_forgetting_rows


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def base_config(tmp_path):
    def write(extra=None, **overrides):
        doc = {
            "model": {
                "kernel": {"variant": "bradley_terry"},
                "support": [1.0, 3.0],
                "pi_star": [0.4, 0.6],
                "pi": [0.5, 0.5],
            },
            "graph": {"N": 60, "n": 2},
            "sim": {"seed": 11},
        }
        doc.update(overrides)
        if extra:
            doc.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    return write


def test_schedule_verify_ok(capsys):
    assert run(["schedule", "--N", 20, "--n", 3, "--verify-lemma1"]) == 0
    assert "verified" in capsys.readouterr().out


def test_schedule_odd_N_exit_code(capsys):
    assert run(["schedule", "--N", 21, "--n", 3]) == 2
    assert "N must be even" in capsys.readouterr().err


def test_schedule_csv_edge_count(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["schedule", "--N", 20, "--n", 3, "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "round"]
    assert len(rows) - 1 == 30


def test_schedule_layers_json(tmp_path):
    layers = tmp_path / "layers.json"
    assert run(["schedule", "--N", 20, "--n", 3, "--layers", layers]) == 0
    doc = json.loads(layers.read_text())
    assert doc["q_max"] == 4 and doc["remainder"] == 1


def test_simulate_outputs(tmp_path, base_config):
    cfg = base_config()
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    assert (out / "dataset.json").exists()
    assert (out / "outcomes.csv").exists()
    resolved = json.loads((out / "simulate_config.json").read_text())
    assert resolved["seed"] == 11
    assert resolved["config"]["graph"]["N"] == 60


def test_loglik_normalizers(tmp_path, base_config):
    cfg = base_config()
    out = tmp_path / "ll"
    norms = tmp_path / "norms.csv"
    assert run(["loglik", "--config", cfg, "--out", out, "--normalizers-out", norms]) == 0
    doc = json.loads((out / "loglik.json").read_text())
    with open(norms) as fh:
        rows = list(csv.reader(fh))[1:]
    total = sum(float(r[1]) for r in rows)
    assert doc["log_likelihood"] == pytest.approx(total, rel=1e-12)
    assert doc["normalized"] == pytest.approx(doc["log_likelihood"] / doc["q_max"])


def test_fit_byte_identical_reruns(tmp_path, base_config):
    cfg = base_config(extra={"fit": {"mode": "em", "max_iters": 50, "tol": 1e-8}})
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert run(["fit", "--config", cfg, "--out", out1]) == 0
    assert run(["fit", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()
    doc = json.loads((out1 / "fit.json").read_text())
    assert doc["converged"] is True
    assert doc["config"]["fit"]["mode"] == "em"


def test_risk_truth_candidate_zero(tmp_path, base_config):
    cfg = base_config(
        extra={
            "candidates": [[0.4, 0.6], [0.9, 0.1]],
            "analysis": {"N": 300, "n": 2, "replicates": 4, "base_seed": 5, "min_q_max": 20},
        }
    )
    out = tmp_path / "risk"
    assert run(["risk", "--config", cfg, "--out", out, "--threads", 1]) == 0
    doc = json.loads((out / "risk.json").read_text())
    first = doc["reports"][0]
    assert abs(first["excess_risk"]) <= 3 * first["excess_stderr"] + 1e-15
    with open(out / "risk.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "candidate"
    assert len(rows) == 3


def test_risk_thread_count_does_not_change_results(tmp_path, base_config):
    cfg = base_config(
        extra={
            "candidates": [[0.4, 0.6], [0.9, 0.1]],
            "analysis": {"N": 300, "n": 2, "replicates": 3, "base_seed": 5, "min_q_max": 20},
        }
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["risk", "--config", cfg, "--out", out1, "--threads", 1]) == 0
    assert run(["risk", "--config", cfg, "--out", out2, "--threads", 4]) == 0
    assert (out1 / "risk.csv").read_bytes() == (out2 / "risk.csv").read_bytes()


def test_risk_accepts_integral_floats(tmp_path, base_config):
    analysis = {"N": 300, "n": 2, "replicates": 3, "base_seed": 5, "min_q_max": 20}
    outs = []
    for section in (analysis, {key: float(value) for key, value in analysis.items()}):
        cfg = base_config(extra={"candidates": [[0.4, 0.6]], "analysis": section})
        outs.append(tmp_path / f"r{len(outs)}")
        assert run(["risk", "--config", cfg, "--out", outs[-1]]) == 0
    assert (outs[0] / "risk.csv").read_bytes() == (outs[1] / "risk.csv").read_bytes()


def test_risk_builds_one_model_for_all_replicates(tmp_path, base_config, monkeypatch):
    replicates, candidates = 3, [[0.4, 0.6], [0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]
    cfg = base_config(
        extra={
            "candidates": candidates,
            "analysis": {"N": 300, "n": 2, "replicates": replicates, "base_seed": 5, "min_q_max": 20},
        }
    )
    counts = {"layers": 0, "model": 0}
    layer_decomposition, init = simulator.layer_decomposition, LayerChainModel.__init__

    def counting_layers(*args, **kwargs):
        counts["layers"] += 1
        return layer_decomposition(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["model"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(simulator, "layer_decomposition", counting_layers)
    monkeypatch.setattr(LayerChainModel, "__init__", counting_init)
    assert run(["risk", "--config", cfg, "--out", tmp_path / "risk", "--threads", 1]) == 0
    # The replicates share one schedule and its layers, and sweep in lockstep
    # on one model.
    assert counts == {"layers": 1, "model": 1}
    doc = json.loads((tmp_path / "risk" / "risk.json").read_text())
    assert len(doc["reports"]) == len(candidates)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"analysis": [1]}, "config key analysis must be an object"),
        ({"candidates": 5}, "config key candidates must be a list of probability lists"),
        ({"analysis": {"N": 300, "replicate": 3}}, "unknown key analysis.replicate"),
        ({"analysis": {"N": 300, "replicates": 0}}, "replicates must be at least 1, got 0"),
        ({"analysis": {"N": None}}, "config key analysis.N must be an integer, got null"),
        (
            {"analysis": {"replicates": True}},
            "config key analysis.replicates must be an integer, got true",
        ),
        ({"analysis": {"N": 800.7}}, "config key analysis.N must be an integer, got 800.7"),
        (
            {"analysis": {"base_seed": "7"}},
            'config key analysis.base_seed must be an integer, got "7"',
        ),
        (
            {"analysis": {"min_q_max": [5]}},
            "config key analysis.min_q_max must be an integer, got [5]",
        ),
    ],
    ids=[
        "analysis-not-object",
        "candidates-not-list",
        "unknown-analysis-key",
        "no-replicates",
        "null",
        "bool",
        "non-integral-float",
        "string",
        "list",
    ],
)
def test_risk_config_errors_exit_2(tmp_path, base_config, capsys, extra, message):
    cfg = base_config(extra={"candidates": [[0.5, 0.5]], **extra})
    assert run(["risk", "--config", cfg, "--out", tmp_path / "risk"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_relaxed_dataset_round_trips(tmp_path, base_config):
    # N=12, n=4 breaks the n < N/4 bound: only sim.strict=false schedules it
    cfg = base_config(graph={"N": 12, "n": 4}, sim={"seed": 3, "strict": False})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "sim"]) == 0
    dataset = tmp_path / "sim" / "dataset.json"
    assert json.loads(dataset.read_text())["strict"] is False
    model = json.loads(cfg.read_text())["model"]
    loaded = tmp_path / "loaded.json"
    loaded.write_text(json.dumps({"model": model, "dataset": str(dataset)}))
    assert run(["loglik", "--config", loaded, "--out", tmp_path / "a"]) == 0
    assert run(["loglik", "--config", cfg, "--out", tmp_path / "b"]) == 0
    a = json.loads((tmp_path / "a" / "loglik.json").read_text())
    b = json.loads((tmp_path / "b" / "loglik.json").read_text())
    assert a["log_likelihood"] == b["log_likelihood"]


def test_dataset_with_unscheduled_edge_exit_2(tmp_path, base_config, capsys):
    assert run(["simulate", "--config", base_config(), "--out", tmp_path / "sim"]) == 0
    dataset = tmp_path / "sim" / "dataset.json"
    doc = json.loads(dataset.read_text())
    assert "strict" not in doc
    doc["outcomes"].append([1, 60, doc["outcomes"][0][2]])
    dataset.write_text(json.dumps(doc))
    model = json.loads(base_config().read_text())["model"]
    cfg = tmp_path / "loaded.json"
    cfg.write_text(json.dumps({"model": model, "dataset": str(dataset)}))
    assert run(["loglik", "--config", cfg, "--out", tmp_path / "ll"]) == 2
    assert "not in the schedule" in capsys.readouterr().err


def test_diagnose_bounds_and_exit(tmp_path, base_config, capsys):
    cfg = base_config()
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", cfg, "--out", out]) == 0
    assert "diagnostics clean" in capsys.readouterr().out
    with open(out / "forgetting.csv") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header == ["q", "m", "ell", "gap", "bound"]
    assert data and all(float(r[3]) <= float(r[4]) + 1e-12 for r in data)
    with open(out / "contraction.csv") as fh:
        crows = list(csv.reader(fh))
    assert crows[0] == ["layer", "tv", "step_factor", "cumulative_bound"]


def _base_dataset():
    """The dataset and the diagnosed pi of ``base_config``."""
    kernel = bradley_terry()
    ds = simulate(DiscreteDistribution([1.0, 3.0], [0.4, 0.6]), kernel, 60, 2, seed=11)
    return ds, DiscreteDistribution([1.0, 3.0], [0.5, 0.5]), kernel


def _csv_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and ``rows``."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    return expected.getvalue().encode()


def test_diagnose_forgetting_csv_equals_row_oracle(tmp_path, base_config):
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", base_config(), "--out", out]) == 0
    rows = ((r.q, r.m, r.ell, r.gap, r.bound) for r in oracle_forgetting_rows(*_base_dataset()))
    assert (out / "forgetting.csv").read_bytes() == _csv_bytes(["q", "m", "ell", "gap", "bound"], rows)


def test_diagnose_magnitude_csv_equals_csv_writer(tmp_path, base_config):
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", base_config(), "--out", out]) == 0
    rows = analysis.conditional_magnitude_rows(*_base_dataset()).rows()
    expected = _csv_bytes(["q", "m", "abs_log_prob", "bound"], rows)
    assert (out / "conditional_magnitude.csv").read_bytes() == expected


def test_diagnose_contraction_csv_equals_csv_writer(tmp_path, base_config):
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", base_config(), "--out", out]) == 0
    ds, pi, kernel = _base_dataset()
    profile = LayerChainModel(ds, kernel, pi.support).contraction_profile(pi.probs, 2, ds.layers.q_max - 1)
    header = [f.name for f in dataclasses.fields(likelihood.ContractionStep)]
    expected = _csv_bytes(header, [dataclasses.astuple(step) for step in profile.steps])
    assert (out / "contraction.csv").read_bytes() == expected


def test_loglik_normalizers_csv_equals_csv_writer(tmp_path, base_config):
    norms = tmp_path / "norms.csv"
    assert run(["loglik", "--config", base_config(), "--out", tmp_path / "ll", "--normalizers-out", norms]) == 0
    ds, pi, kernel = _base_dataset()
    _, constants = LayerChainModel(ds, kernel, pi.support).forward_constants(pi.probs)
    assert norms.read_bytes() == _csv_bytes(["layer", "log_norm"], enumerate(constants.tolist()))


# Floats whose text or bits are easy to get wrong: signed zeros (equal as
# values, different cells), nan, infinities, the smallest subnormal, and the
# switches between positional and scientific notation.
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 9999999999999998.0, 1e-4]


@st.composite
def _tables(draw):
    """Int and float columns of one length, 0 to 14 rows, built from runs of
    repeated values."""
    rows = draw(st.integers(0, 14))
    columns = []
    for kind in draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=4)):
        if kind is int:
            values = st.integers(-20, 20)
        else:
            values = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
        runs = draw(st.lists(st.tuples(values, st.integers(1, 6)), min_size=rows, max_size=rows))
        cells = [value for value, length in runs for _ in range(length)][:rows]
        columns.append(np.array(cells, dtype=kind))
    return columns


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=_tables())
@example(columns=[np.array([0.0, -0.0, 0.0, -0.0]), np.array([1, 1, 2, 2])])
@example(columns=[np.array([], dtype=int), np.array([])])
def test_write_table_equals_csv_writer(tmp_path, monkeypatch, columns):
    # chunks of 3 rows put chunk boundaries inside runs and between signed zeros
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path / "table.csv"
    cli._write_table(path, header, columns)
    assert path.read_bytes() == _csv_bytes(header, zip(*(col.tolist() for col in columns)))


def test_write_table_logs_one_line_per_table(tmp_path, base_config, caplog):
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert run(["diagnose", "--config", base_config(), "--out", quiet]) == 0
    with caplog.at_level(logging.DEBUG, logger="lgmle"):
        assert run(["diagnose", "--config", base_config(), "--out", loud]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "lgmle"]
    names = ["forgetting.csv", "conditional_magnitude.csv", "contraction.csv"]
    assert [line.split(":")[0] for line in lines] == [f"wrote {name}" for name in names]
    for name, line in zip(names, lines):
        text = (loud / name).read_bytes()
        assert text == (quiet / name).read_bytes()
        header, *rows = text.decode().split("\r\n")[:-1]
        found = re.fullmatch(rf"wrote {name}: rows=(\d+) distinct_cells=(\d+) seconds=\d+\.\d+", line)
        assert found and int(found[1]) == len(rows)
        assert 0 < int(found[2]) <= len(rows) * len(header.split(","))


@pytest.mark.parametrize("command", ["simulate", "loglik", "fit", "risk", "diagnose"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_exit_2_before_any_work(tmp_path, base_config, capsys, monkeypatch, command, below):
    def computed(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    for owner, name in [(simulator, "simulate"), (analysis, "excess_risks"), (LayerChainModel, "__init__")]:
        monkeypatch.setattr(owner, name, computed)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if below else taken
    cfg = base_config(candidates=[[0.4, 0.6]])
    assert run([command, "--config", cfg, "--out", out]) == 2
    shown = f"lies under {taken}, which is not a directory" if below else "exists and is not a directory"
    assert capsys.readouterr().err == f"error: --out {out} {shown}\n"


@pytest.mark.parametrize("command, flag", [("loglik", "--normalizers-out"), ("schedule", "--out"), ("schedule", "--layers")])
@pytest.mark.parametrize("case", ["directory", "under-file", "missing-parent"])
def test_file_output_checked_before_any_work(tmp_path, base_config, capsys, monkeypatch, command, flag, case):
    def computed(*args, **kwargs):
        raise AssertionError(f"computed before {flag} was checked")

    for owner, name in [(simulator, "simulate"), (LayerChainModel, "__init__"), (rr_graph, "build_schedule")]:
        monkeypatch.setattr(owner, name, computed)
    cfg = base_config()
    taken = tmp_path / "taken"
    taken.write_text("")
    path, shown = {
        "directory": (tmp_path, f"{tmp_path} is a directory"),
        "under-file": (taken / "x.csv", f"{taken / 'x.csv'} lies under {taken}, which is not a directory"),
        "missing-parent": (tmp_path / "a" / "x.csv", f"{tmp_path / 'a' / 'x.csv'}: directory {tmp_path / 'a'} does not exist"),
    }[case]
    before = sorted(tmp_path.iterdir())
    args = ["--config", cfg, "--out", tmp_path / "ll"] if command == "loglik" else ["--N", 20, "--n", 3]
    assert run([command, *args, flag, path]) == 2
    assert capsys.readouterr().err == f"error: {flag} {shown}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_import_loads_only_stdlib_numpy_and_lgmle():
    # start-up time is import time; a heavy dependency must not creep back in
    code = (
        "import sys; before = set(sys.modules); import lgmle, lgmle.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "lgmle" in loaded and "numpy" in loaded
    # numpy.random's compiled extensions register Cython's shared runtime modules
    allowed = {"numpy", "lgmle", "cython_runtime"} | {m for m in loaded if m.startswith("_cython_")}
    assert [m for m in loaded if m not in sys.stdlib_module_names and m not in allowed] == []


def test_diagnose_counts_violations(tmp_path, base_config, monkeypatch, capsys):
    # nu_k near 1 shrinks the forgetting envelope to ~0 two layers out, and
    # the contraction step factors to 0.001
    def shrunk_nus(model):
        return np.full(len(model.block_sizes), 0.999)

    monkeypatch.setattr(LayerChainModel, "block_nus", shrunk_nus)
    ds, pi, kernel = _base_dataset()
    nus = shrunk_nus(LayerChainModel(ds, kernel, pi.support))
    expected = oracle_diagnose_violations(ds, pi, kernel, nus=nus)
    assert 0 < expected < len(oracle_forgetting_rows(ds, pi, kernel))
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", base_config(), "--out", out]) == 1
    assert capsys.readouterr().err == f"{expected} bound violations; see CSVs in {out}\n"


def test_diagnose_without_interior_window_exit_2(tmp_path, base_config, capsys):
    # N=12, n=4 (relaxed schedule) has q_max = 2: no window 2 <= q <= q_max - 1
    cfg = base_config(graph={"N": 12, "n": 4}, sim={"seed": 3, "strict": False})
    assert run(["diagnose", "--config", cfg, "--out", tmp_path / "diag"]) == 2
    assert capsys.readouterr().err == "error: graph too small: no interior window\n"


def test_diagnose_builds_one_model(tmp_path, base_config, monkeypatch):
    counts = {"model": 0, "floor": 0}
    init, table_floor = LayerChainModel.__init__, kernels._table_floor

    def counting_init(self, *args, **kwargs):
        counts["model"] += 1
        init(self, *args, **kwargs)

    def counting_table_floor(*args, **kwargs):
        counts["floor"] += 1
        return table_floor(*args, **kwargs)

    monkeypatch.setattr(LayerChainModel, "__init__", counting_init)
    # kernels.epsilon_floor computes its floor through kernels._table_floor too
    for module in (kernels, likelihood):
        monkeypatch.setattr(module, "_table_floor", counting_table_floor)
    assert run(["diagnose", "--config", base_config(), "--out", tmp_path / "diag"]) == 0
    assert counts == {"model": 1, "floor": 1}


@pytest.mark.parametrize("command", ["loglik", "diagnose"])
@pytest.mark.parametrize(
    "section, key, value, shown",
    [
        ("graph", "N", None, "null"),
        ("graph", "N", True, "true"),
        ("graph", "N", 60.5, "60.5"),
        ("graph", "N", "60", '"60"'),
        ("graph", "n", 2.5, "2.5"),
        ("sim", "seed", None, "null"),
        ("sim", "seed", "11", '"11"'),
    ],
    ids=["N-null", "N-bool", "N-non-integral", "N-string", "n-non-integral", "seed-null", "seed-string"],
)
def test_dataset_int_keys_exit_2(tmp_path, base_config, capsys, command, section, key, value, shown):
    doc = {"graph": {"N": 60, "n": 2}, "sim": {"seed": 11}}
    doc[section][key] = value
    assert run([command, "--config", base_config(**doc), "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: config key {section}.{key} must be an integer, got {shown}\n"


@pytest.mark.parametrize("command, output", [("loglik", "loglik.json"), ("diagnose", "forgetting.csv")])
def test_dataset_accepts_integral_floats(tmp_path, base_config, command, output):
    outs = []
    for graph, sim in (({"N": 60, "n": 2}, {"seed": 11}), ({"N": 60.0, "n": 2.0}, {"seed": 11.0})):
        outs.append(tmp_path / f"out{len(outs)}")
        assert run([command, "--config", base_config(graph=graph, sim=sim), "--out", outs[-1]]) == 0
    first, second = ((out / output).read_text() for out in outs)
    if command == "loglik":
        # loglik.json echoes the config as given, so compare the value only
        first, second = (json.loads(text)["log_likelihood"] for text in (first, second))
    assert first == second


def _model_with_kernel(kernel):
    return {"kernel": kernel, "support": [1.0, 3.0], "pi_star": [0.4, 0.6], "pi": [0.5, 0.5]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            # N=12, n=3 breaks the n < N/4 bound, which "false" used to keep
            {"graph": {"N": 12, "n": 3}, "sim": {"seed": 3, "strict": "false"}},
            'config key sim.strict must be true or false, got "false"',
        ),
        ({"sim": {"seed": 11, "blind": "false"}}, 'config key sim.blind must be true or false, got "false"'),
        ({"sim": {"seed": 11, "blind": 0}}, "config key sim.blind must be true or false, got 0"),
        ({"sim": {"seed": 11, "typo_key": 1}}, "unknown key sim.typo_key"),
        ({"graph": {"N": 60, "n": 2, "rounds": 2}}, "unknown key graph.rounds"),
        ({"sim": [11]}, "config key sim must be an object"),
        ({"model": _model_with_kernel("bradley_terry")}, "config key model.kernel must be an object"),
        (
            {"model": _model_with_kernel({"variant": "bt_ties", "theta": None})},
            "config key model.kernel.theta must be a number, got null",
        ),
        (
            {"model": _model_with_kernel({"variant": "bt_home_advantage", "theta": "1.5"})},
            'config key model.kernel.theta must be a number, got "1.5"',
        ),
        (
            {"model": _model_with_kernel({"variant": "uniform", "num_outcomes": None})},
            "config key model.kernel.num_outcomes must be an integer, got null",
        ),
        (
            {"model": _model_with_kernel({"variant": "uniform", "num_outcomes": 2.5})},
            "config key model.kernel.num_outcomes must be an integer, got 2.5",
        ),
        (
            {"model": _model_with_kernel({"variant": "uniform", "num_outcomes": 0})},
            "num_outcomes must be at least 1, got 0",
        ),
    ],
    ids=[
        "strict-string",
        "blind-string",
        "blind-int",
        "unknown-sim-key",
        "unknown-graph-key",
        "sim-not-object",
        "kernel-not-object",
        "theta-null",
        "theta-string",
        "num-outcomes-null",
        "num-outcomes-non-integral",
        "num-outcomes-zero",
    ],
)
def test_dataset_config_errors_exit_2(tmp_path, base_config, capsys, doc, message):
    assert run(["simulate", "--config", base_config(**doc), "--out", tmp_path / "sim"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "model, message",
    [
        ({"pi": [float("nan"), float("nan")]}, "probs must be finite"),
        ({"pi_star": [0.4, float("nan")]}, "probs must be finite"),
        ({"support": [1.0, float("nan")]}, "support values must be finite"),
        ({"support": [1.0, float("inf")]}, "support values must be finite"),
    ],
    ids=["pi-nan", "pi-star-nan", "support-nan", "support-inf"],
)
def test_non_finite_distribution_exit_2(tmp_path, base_config, capsys, model, message):
    # Python's json reads the NaN and Infinity literals
    doc = {
        "kernel": {"variant": "bradley_terry"},
        "support": [1.0, 3.0],
        "pi_star": [0.4, 0.6],
        "pi": [0.5, 0.5],
        **model,
    }
    assert run(["loglik", "--config", base_config(model=doc), "--out", tmp_path / "ll"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("loaded", [False, True], ids=["simulated", "loaded"])
@pytest.mark.parametrize("command", ["simulate", "loglik", "fit", "diagnose"])
def test_command_reads_kernel_table_once(tmp_path, base_config, monkeypatch, command, loaded):
    table = tmp_path / "table.json"
    table.write_text(
        json.dumps(
            {
                "outcomes": [0, 1],
                "support": [1.0, 3.0],
                "table": [[[0.5, 0.25], [0.75, 0.5]], [[0.5, 0.75], [0.25, 0.5]]],
            }
        )
    )
    model = {
        "kernel": {"variant": "custom_table", "path": str(table)},
        "support": [1.0, 3.0],
        "pi_star": [0.4, 0.6],
        "pi": [0.5, 0.5],
    }
    extra = {"graph": {"N": 20, "n": 2}, "fit": {"max_iters": 2}}
    if loaded:
        ds = simulate(DiscreteDistribution([1.0, 3.0], [0.4, 0.6]), bradley_terry(), 20, 2, seed=5)
        extra["dataset"] = str(tmp_path / "dataset.json")
        simulator.dataset_to_json(ds, extra["dataset"])
    cfg = base_config(model=model, **extra)
    reads = []
    original = kernels.custom_table_from_json

    def counting(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(kernels, "custom_table_from_json", counting)
    assert run([command, "--config", cfg, "--out", tmp_path / command]) == 0
    assert reads == [str(table)]


@pytest.mark.parametrize("command", ["simulate", "loglik", "fit", "diagnose"])
def test_dataset_outcomes_outside_the_kernel_exit_2(tmp_path, base_config, capsys, command):
    ds = simulate(DiscreteDistribution([1.0, 3.0], [0.4, 0.6]), bradley_terry(), 20, 2, seed=5)
    doc = simulator.dataset_to_json_dict(ds)
    doc["outcomes"] = [[i, j, 7] for i, j, _ in doc["outcomes"]]
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(doc))
    cfg = base_config(dataset=str(path))
    assert run([command, "--config", cfg, "--out", tmp_path / command]) == 2
    assert capsys.readouterr().err == "error: outcome 7 not in outcome space (0, 1)\n"
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize(
    "kernel, same",
    [
        ({"variant": "bt_ties", "theta": 2}, {"variant": "bt_ties", "theta": 2.0}),
        ({"variant": "uniform", "num_outcomes": 2.0}, {"variant": "uniform"}),
    ],
)
def test_kernel_config_accepts_whole_numbers(tmp_path, base_config, kernel, same):
    values = []
    for spec in (kernel, same):
        out = tmp_path / f"out{len(values)}"
        assert run(["loglik", "--config", base_config(model=_model_with_kernel(spec)), "--out", out]) == 0
        values.append(json.loads((out / "loglik.json").read_text())["log_likelihood"])
    assert values[0] == values[1]


def test_missing_config_key_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"support": [1.0, 2.0]}}))
    assert run(["loglik", "--config", path]) == 2
    assert "missing key" in capsys.readouterr().err


def test_unknown_kernel_exit_2(tmp_path, base_config, capsys):
    cfg = base_config(model={"kernel": {"variant": "mystery"}, "support": [1.0], "pi_star": [1.0], "pi": [1.0]})
    assert run(["loglik", "--config", cfg]) == 2
    assert "mystery" in capsys.readouterr().err


def test_fit_explicit_init_from_config(tmp_path, base_config, capsys):
    fit = {"mode": "em", "max_iters": 50, "tol": 1e-8}
    out = tmp_path / "fit"
    assert run(["fit", "--config", base_config(extra={"fit": fit}), "--out", out]) == 0
    first = json.loads((out / "fit.json").read_text())
    refit = dict(fit, init="explicit", init_list=[first["pi_hat"]["probs"]])
    assert run(["fit", "--config", base_config(extra={"fit": refit}), "--out", out]) == 0
    # EM restarted at the fitted weights begins at the fit's final value
    doc = json.loads((out / "fit.json").read_text())
    assert doc["trajectory"][0] == first["final_log_lik"]

    for bad in ([0.2, 0.3, 0.5], [0.7, 0.7], "uniform"):
        bad_fit = dict(fit, init="explicit", init_list=[bad])
        assert run(["fit", "--config", base_config(extra={"fit": bad_fit})]) == 2
        assert "init_list[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fit, message", [({"mode": "em", "bogus": 1}, "unknown key fit.bogus"), ([1], "fit must be")]
)
def test_fit_section_validated_exit_2(base_config, capsys, fit, message):
    assert run(["fit", "--config", base_config(extra={"fit": fit})]) == 2
    assert message in capsys.readouterr().err


def _with_fit(**fit):
    return {"fit": fit}


def _with_kernel(kernel):
    return {"model": _model_with_kernel(kernel)}


@pytest.mark.parametrize("command", ["simulate", "loglik", "fit", "risk", "diagnose"])
@pytest.mark.parametrize(
    "doc, message",
    [
        ({"sims": {"seed": 3}}, "unknown key sims"),
        ({"model": dict(_model_with_kernel({"variant": "bradley_terry"}), suport=[1.0])}, "unknown key model.suport"),
        (_with_kernel({"variant": "bt_ties", "theta": 2, "thetta": 2}), "unknown key model.kernel.thetta"),
        ([{"model": {}}], "config must be an object"),
        ({"model": []}, "config key model must be an object"),
        (_with_kernel({"variant": "bt_ties"}), "config is missing key model.kernel.theta"),
        (_with_kernel({"theta": 2}), "config is missing key model.kernel.variant"),
        (_with_kernel({"variant": "custom_table", "outcomes": [0, 1]}), "config is missing key model.kernel.support"),
        ({"model": dict(_model_with_kernel({"variant": "bradley_terry"}), support="1,2")},
         "config key model.support must be a list of numbers"),
        (_with_fit(tol="1e-8"), 'config key fit.tol must be a number, got "1e-8"'),
        (_with_fit(max_iters=2.5), "config key fit.max_iters must be an integer, got 2.5"),
        (_with_fit(restarts="2"), 'config key fit.restarts must be an integer, got "2"'),
        (_with_fit(seed=None, restarts=2), "config key fit.seed must be an integer, got null"),
    ],
    ids=[
        "top-level-typo",
        "model-key-typo",
        "kernel-key-typo",
        "document-is-list",
        "model-is-list",
        "ties-without-theta",
        "kernel-without-variant",
        "custom-table-without-support",
        "support-is-string",
        "tol-string",
        "max-iters-non-integral",
        "restarts-string",
        "fit-seed-null",
    ],
)
def test_config_checked_before_any_command_exit_2(tmp_path, base_config, capsys, command, doc, message):
    # every command checks every section, also those it does not read
    if isinstance(doc, list):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps(doc))
    else:
        cfg = base_config(extra={"candidates": [[0.5, 0.5]], **doc})
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_fit_tol_not_finite_exit_2(tmp_path, base_config, capsys, tol):
    # JSON configs may spell Infinity and NaN; neither is a tolerance
    assert run(["fit", "--config", base_config(**_with_fit(tol=tol)), "--out", tmp_path / "fit"]) == 2
    assert capsys.readouterr().err == f"error: tol must be positive and finite, got {tol}\n"
    assert not (tmp_path / "fit" / "fit.json").exists()


def test_fit_tol_overflowing_the_stop_test_exits_0_quietly(tmp_path, base_config, capsys):
    # tol * max(1, |ll|) overflows to inf, which stops EM after one step
    cfg = base_config(graph={"N": 40, "n": 2}, **_with_fit(tol=1e308))
    assert run(["fit", "--config", cfg, "--out", tmp_path / "fit"]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert doc["converged"] and len(doc["trajectory"]) == 2


@pytest.mark.parametrize("support", [[1e-300, 1.0], [1.0, 1e300]])
def test_diagnose_vacuous_bounds_are_inf_and_counted(tmp_path, base_config, capsys, support):
    # epsilon is about 1e-300, so nu_k = epsilon**2 underflows to 0 and every
    # forgetting bound nu_q^-1 prod (1 - nu_k) is inf
    model = {"kernel": {"variant": "bradley_terry"}, "support": support, "pi_star": [0.4, 0.6]}
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", base_config(model=model), "--out", out]) == 0
    shown = capsys.readouterr()
    assert shown.err == ""
    with open(out / "forgetting.csv") as fh:
        bounds = [row["bound"] for row in csv.DictReader(fh)]
    assert bounds and set(bounds) == {"inf"}
    assert shown.out.startswith(f"diagnostics clean: {len(bounds)} forgetting rows, ")
    assert shown.out.endswith(f" contraction steps; {len(bounds)} rows have a vacuous (infinite) bound\n")


_RISK = {"candidates": [[0.5, 0.5]], "analysis": {"N": 300, "replicates": 2, "min_q_max": 20}}


@pytest.mark.parametrize(
    "command, extra, flag, message",
    [
        ("fit", {"sim": {"seed": -1}}, [], "seed must be non-negative, got -1"),
        ("fit", {}, ["--seed", -2], "seed must be non-negative, got -2"),
        ("fit", _with_fit(seed=-1, restarts=2, max_iters=2), [], "seed must be non-negative, got -1"),
        ("risk", _RISK, ["--seed", -1], "base_seed must be non-negative, got -1"),
    ],
    ids=["sim-seed", "seed-flag", "fit-seed", "risk-base-seed"],
)
def test_negative_seeds_exit_2(tmp_path, base_config, capsys, command, extra, flag, message):
    assert run([command, "--config", base_config(extra=extra), "--out", tmp_path / "out", *flag]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_seed_flag_overrides_config(tmp_path, base_config):
    assert run(["simulate", "--config", base_config(), "--out", tmp_path / "sim", "--seed", 5]) == 0
    assert json.loads((tmp_path / "sim" / "simulate_config.json").read_text())["seed"] == 5
    assert run(["risk", "--config", base_config(extra=_RISK), "--out", tmp_path / "risk", "--seed", 9]) == 0
    seeds = json.loads((tmp_path / "risk" / "risk.json").read_text())["seeds"]
    assert seeds == RiskParams(base_seed=9, replicates=2).seeds()


def _saved_dataset(tmp_path, base_config):
    """A dataset document simulated from ``base_config``, and a config that
    loads it from ``tmp_path / "ds.json"``."""
    assert run(["simulate", "--config", base_config(), "--out", tmp_path / "sim"]) == 0
    doc = json.loads((tmp_path / "sim" / "dataset.json").read_text())
    cfg = tmp_path / "loaded.json"
    cfg.write_text(json.dumps({"model": json.loads(base_config().read_text())["model"], "dataset": str(tmp_path / "ds.json")}))
    return doc, cfg


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("N"), "dataset is missing key N"),
        (lambda doc: doc.pop("n"), "dataset is missing key n"),
        (lambda doc: doc.pop("seed"), "dataset is missing key seed"),
        (lambda doc: doc.pop("outcomes"), "dataset is missing key outcomes"),
        (lambda doc: doc.update(N="60"), "dataset key N must be an integer, got '60'"),
        (lambda doc: doc.update(seed=None), "dataset key seed must be an integer, got None"),
        (
            lambda doc: doc.update(outcomes=[[1, 2]]),
            "dataset outcomes must be [i, j, x] triples: not enough values to unpack (expected 3, got 2)",
        ),
        (lambda doc: doc.update(outcomes=5), "dataset outcomes must be [i, j, x] triples: 'int' object is not iterable"),
        (
            lambda doc: doc.update(weights=["a"] * 60),
            "dataset weights must be numbers: could not convert string to float: 'a'",
        ),
    ],
    ids=["no-N", "no-n", "no-seed", "no-outcomes", "N-string", "seed-null", "outcome-pair", "outcomes-int", "weights-string"],
)
def test_malformed_dataset_exit_2(tmp_path, base_config, capsys, edit, message):
    doc, cfg = _saved_dataset(tmp_path, base_config)
    edit(doc)
    (tmp_path / "ds.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["loglik", "--config", cfg, "--out", tmp_path / "ll"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read dataset {path}: [Errno 2] No such file or directory: '{path}'"),
        ("[1, 2]", "dataset must be a JSON object"),
        ("{", "cannot read dataset {path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ],
    ids=["missing", "list", "not-json"],
)
def test_unreadable_dataset_exit_2(tmp_path, base_config, capsys, content, message):
    _, cfg = _saved_dataset(tmp_path, base_config)
    path = tmp_path / "ds.json"
    if content is not None:
        path.write_text(content)
    capsys.readouterr()
    assert run(["loglik", "--config", cfg, "--out", tmp_path / "ll"]) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read kernel table {path}: [Errno 2] No such file or directory: '{path}'"),
        ({"outcomes": [0, 1], "table": []}, "kernel table {path} is missing key support"),
        ([0, 1], "kernel table {path} must be a JSON object"),
        (
            {"outcomes": [0, 1], "support": [1.0, 3.0], "table": [[[0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]},
            "table support and entries must be arrays of numbers: setting an array element with a sequence. "
            "The requested array has an inhomogeneous shape after 2 dimensions. "
            "The detected shape was (2, 2) + inhomogeneous part.",
        ),
    ],
    ids=["missing", "no-support", "list", "ragged"],
)
def test_kernel_table_file_errors_exit_2(tmp_path, base_config, capsys, content, message):
    path = tmp_path / "table.json"
    if content is not None:
        path.write_text(json.dumps(content))
    cfg = base_config(model=_model_with_kernel({"variant": "custom_table", "path": str(path)}))
    assert run(["loglik", "--config", cfg, "--out", tmp_path / "ll"]) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize("level", ["nonsense", "BASIC_FORMAT"])
def test_unknown_log_level_exit_2(tmp_path, base_config, capsys, monkeypatch, level):
    monkeypatch.setenv("LGMLE_LOG", level)
    assert run(["loglik", "--config", base_config(), "--out", tmp_path / "ll"]) == 2
    assert capsys.readouterr().err == (
        f"error: LGMLE_LOG must be a logging level name such as DEBUG or INFO, got {level!r}\n"
    )


@pytest.mark.parametrize(
    "exc, shown", [(ValueError("not a config error"), "not a config error"), (KeyError("layer"), "'layer'")]
)
def test_other_exceptions_exit_1(tmp_path, base_config, capsys, monkeypatch, exc, shown):
    # only package errors are input errors; a plain ValueError or KeyError is a bug
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(likelihood.LayerChainModel, "forward_constants", broken)
    assert run(["loglik", "--config", base_config(), "--out", tmp_path / "ll"]) == 1
    assert capsys.readouterr().err == f"runtime error: {shown}\n"


def test_runtime_error_traceback_at_debug(tmp_path, base_config):
    src = Path(likelihood.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from lgmle import cli, likelihood\n"
        "def broken(*args):\n"
        "    raise KeyError('layer')\n"
        "likelihood.LayerChainModel.forward_constants = broken\n"
        f"sys.exit(cli.main(['loglik', '--config', {str(base_config())!r}, '--out', {str(tmp_path)!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src), LGMLE_LOG="DEBUG")
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "Traceback (most recent call last)" in result.stderr
    assert "in broken\nKeyError: 'layer'\n" in result.stderr
    assert result.stderr.endswith("runtime error: 'layer'\n")


def _readme_config_example() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"A config is a single JSON file.*?```json\n(.*?)```", readme, re.S)
    return json.loads(block.group(1))


def test_readme_config_example_passes_the_checker():
    doc = _readme_config_example()
    checked = _check("", doc)
    assert checked == doc and set(doc) >= {"model", "graph", "sim", "fit", "candidates", "analysis"}


def _kind_name(kind) -> str:
    if isinstance(kind, dict):
        return "object"
    names = {int: "integer", float: "number", bool: "true/false", str: "string"}
    lists = {"[<class 'float'>]": "list of numbers", "[[<class 'float'>]]": "list of number lists",
             "[[[<class 'float'>]]]": "list of number tables"}
    return lists[str(kind)] if isinstance(kind, list) else names[kind]


def _dotted_kinds(table, prefix=""):
    for name, kind in table.items():
        yield prefix + name, _kind_name(kind)
        if isinstance(kind, dict):
            yield from _dotted_kinds(kind, f"{prefix}{name}.")


def test_readme_key_table_mirrors_the_checker():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| ([\w /]+) \|", readme, re.M)
    assert rows == list(_dotted_kinds(_CONFIG))


_TABLE_KERNEL = {
    "variant": "custom_table",
    "outcomes": [0, 1],
    "support": [1.0, 2.0, 4.0],
    "table": [
        [[0.5, 0.25, 0.5], [0.75, 0.5, 0.25], [0.5, 0.75, 0.5]],
        [[0.5, 0.75, 0.5], [0.25, 0.5, 0.75], [0.5, 0.25, 0.5]],
    ],
}
_TABLE_RISK = {"analysis": {"N": 40, "replicates": 2, "min_q_max": 5}}


@pytest.mark.parametrize("command", ["simulate", "loglik", "fit", "risk", "diagnose"])
@pytest.mark.parametrize("support, off", [([1.0, 3.0], "3.0"), ([1.0, 1.5], "1.5")])
def test_support_off_the_table_grid_exit_2(tmp_path, base_config, capsys, command, support, off):
    # every command, simulate included, must name the weight rather than index
    # past the table or read a neighbouring row
    kernel = {**_TABLE_KERNEL, "support": [1.0, 2.0], "table": [[[0.5, 0.25], [0.75, 0.5]], [[0.5, 0.75], [0.25, 0.5]]]}
    model = {"kernel": kernel, "support": support, "pi_star": [0.4, 0.6], "pi": [0.5, 0.5]}
    cfg = base_config(model=model, candidates=[[0.5, 0.5]], **_TABLE_RISK)
    assert run([command, "--config", cfg, "--out", tmp_path / command]) == 2
    assert capsys.readouterr().err == f"error: weight {off} is not on the kernel's table support [1.0, 2.0]\n"


@pytest.mark.parametrize("command", ["simulate", "loglik"])
def test_support_point_never_drawn_off_the_table_grid_exit_2(tmp_path, base_config, capsys, command):
    # pi_star puts no mass on 3.0, so no node draws it; the support is still off the grid
    kernel = {**_TABLE_KERNEL, "support": [1.0, 2.0], "table": [[[0.5, 0.25], [0.75, 0.5]], [[0.5, 0.75], [0.25, 0.5]]]}
    model = {"kernel": kernel, "support": [1.0, 3.0], "pi_star": [1.0, 0.0], "pi": [0.5, 0.5]}
    assert run([command, "--config", base_config(model=model), "--out", tmp_path / command]) == 2
    assert capsys.readouterr().err == "error: weight 3.0 is not on the kernel's table support [1.0, 2.0]\n"
    assert not (tmp_path / command / "dataset.json").exists()


@pytest.mark.parametrize("command", ["simulate", "loglik", "fit", "risk", "diagnose"])
def test_table_kernel_with_a_repeated_outcome_label_exit_2(tmp_path, base_config, capsys, command):
    kernel = {**_TABLE_KERNEL, "outcomes": [1, 1]}
    model = {"kernel": kernel, "support": [1.0, 2.0], "pi_star": [0.4, 0.6], "pi": [0.5, 0.5]}
    cfg = base_config(model=model, candidates=[[0.5, 0.5]], **_TABLE_RISK)
    assert run([command, "--config", cfg, "--out", tmp_path / command]) == 2
    assert capsys.readouterr().err == "error: outcome label 1 is listed more than once in [1, 1]\n"
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("command", ["loglik", "fit", "diagnose"])
def test_loaded_dataset_with_support_off_the_table_grid_exit_2(tmp_path, base_config, capsys, command):
    ds = simulate(DiscreteDistribution([1.0, 3.0], [0.4, 0.6]), bradley_terry(), 20, 2, seed=5)
    simulator.dataset_to_json(ds, tmp_path / "dataset.json")
    model = {"kernel": _TABLE_KERNEL, "support": [1.0, 3.0], "pi_star": [0.4, 0.6], "pi": [0.5, 0.5]}
    cfg = base_config(model=model, dataset=str(tmp_path / "dataset.json"))
    assert run([command, "--config", cfg, "--out", tmp_path / command]) == 2
    assert capsys.readouterr().err == "error: weight 3.0 is not on the kernel's table support [1.0, 2.0, 4.0]\n"


@pytest.mark.parametrize("command", ["simulate", "loglik", "fit", "risk", "diagnose"])
@pytest.mark.parametrize("support", [[2.0], [1.0, 4.0]])
def test_support_on_part_of_the_table_grid(tmp_path, base_config, command, support):
    # a support on part of the grid is as valid for loglik as for simulate
    uniform_probs = [1.0 / len(support)] * len(support)
    model = {"kernel": _TABLE_KERNEL, "support": support, "pi_star": uniform_probs, "pi": uniform_probs}
    cfg = base_config(model=model, candidates=[uniform_probs], **_TABLE_RISK)
    assert run([command, "--config", cfg, "--out", tmp_path / command]) == 0


def test_dataset_with_an_edge_listed_twice_exit_2(tmp_path, base_config, capsys):
    doc, cfg = _saved_dataset(tmp_path, base_config)
    i, j, x = doc["outcomes"][0]
    doc["outcomes"].append([i, j, x])
    (tmp_path / "ds.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["loglik", "--config", cfg, "--out", tmp_path / "ll"]) == 2
    assert capsys.readouterr().err == f"error: outcomes listed more than once for edges [({i}, {j})]\n"


def test_dataset_with_too_few_weights_exit_2(tmp_path, base_config, capsys):
    # a short list would load and be written back out by simulate
    doc, cfg = _saved_dataset(tmp_path, base_config)
    doc["weights"] = [1.0]
    (tmp_path / "ds.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["loglik", "--config", cfg, "--out", tmp_path / "ll"]) == 2
    assert capsys.readouterr().err == "error: dataset weights must be 60 numbers, one per node, got shape (1,)\n"


def test_json_outputs_write_numpy_values_as_python_ones(tmp_path):
    from lgmle.cli import _write_json

    doc = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True), "a": np.array([[1.5, 2.0]]), "t": (np.float32(0.5),)}
    _write_json(tmp_path / "out.json", doc)
    plain = {"f": 0.1, "i": 3, "b": True, "a": [[1.5, 2.0]], "t": [0.5]}
    assert (tmp_path / "out.json").read_text() == json.dumps(plain, indent=1, sort_keys=True) + "\n"
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        _write_json(tmp_path / "bad.json", {"s": {1}})
