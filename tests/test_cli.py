import csv
import io
import json

import numpy as np
import pytest

from lgmle import DiscreteDistribution, bradley_terry, kernels, likelihood, simulate, simulator
from lgmle.cli import main
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


def test_risk_builds_one_model_per_replicate(tmp_path, base_config, monkeypatch):
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
    # The replicates share one schedule and its layers.
    assert counts == {"layers": 1, "model": replicates}
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


def test_diagnose_forgetting_csv_equals_row_oracle(tmp_path, base_config):
    out = tmp_path / "diag"
    assert run(["diagnose", "--config", base_config(), "--out", out]) == 0
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["q", "m", "ell", "gap", "bound"])
    writer.writerows((r.q, r.m, r.ell, r.gap, r.bound) for r in oracle_forgetting_rows(*_base_dataset()))
    assert (out / "forgetting.csv").read_bytes() == expected.getvalue().encode()


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
    ],
)
def test_dataset_config_errors_exit_2(tmp_path, base_config, capsys, doc, message):
    assert run(["simulate", "--config", base_config(**doc), "--out", tmp_path / "sim"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
