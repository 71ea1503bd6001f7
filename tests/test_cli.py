import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsteleport import cli, experiments
from dfsteleport.experiments import (
    ConfigError,
    DEVIATION_FLAG,
    figure_curve,
    optimize_report,
    parse_config,
    run_report,
    sweep_table,
    table_pure,
    table_werner,
    to_csv,
)
from dfsteleport.noisekernel import NumericAccuracyError

TWO_PI = 2.0 * np.pi

TABLE1_CONFIG = {
    "resource": {"kind": "pure", "concurrence": 0.8},
    "bob_noise": {"gamma": 0.1, "lambda_c": 0.01},
    "tau": TWO_PI,
    "seed": 5,
}


def row_lookup(table, key_index, key):
    for row in table.rows:
        if abs(row[key_index] - key) < 1e-12:
            return row
    raise KeyError(key)


# --------------------------------------------------------------------- config


def test_parse_config_defaults():
    cfg = parse_config({})
    assert cfg.alice_noise == experiments.DEFAULT_ALICE
    assert cfg.bob_noise == experiments.DEFAULT_BOB
    assert cfg.strategy.value == "retain-psi"
    assert cfg.convention == "paper"
    assert cfg.input_state is not None


@pytest.mark.parametrize(
    "doc",
    [
        {"resource": {"kind": "ghz"}},
        {"resource": {"kind": "pure", "mu": 0.6, "lambda": 0.7}},
        {"resource": {"kind": "werner", "p": 1.5}},
        {"bob_noise": {"gamma": -0.1, "lambda_c": 1.0}},
        {"bob_noise": {"gamma": 0.1}},
        {"tau": -1.0},
        {"window": [2.0, 1.0]},
        {"window": [1.0]},
        {"input": {"theta": 9.0}},
        {"input": "mixed"},
        {"strategy": "keep-everything"},
        {"convention": "canonical"},
        {"seed": -3},
        {"seed": 1.5},
        {"n_points": 1},
        {"surprise": 1},
    ],
)
def test_parse_config_rejects_bad_documents(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


# arbitrary JSON values, with the floats JSON parsers accept beyond the standard
JSON_NUMBERS = st.integers() | st.floats(allow_nan=True, allow_infinity=True)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _fields(*names, **fixed):
    value = st.floats(0.0, 1.0) | JSON_NUMBERS | JSON_VALUES
    return st.fixed_dictionaries(fixed, optional={name: value for name in names})


CONFIG_DOCS = st.fixed_dictionaries({}, optional={
    "resource": _fields("concurrence", "mu", "lambda", "p", kind=st.sampled_from(["pure", "werner"]))
    | JSON_VALUES,
    "alice_noise": _fields("gamma", "lambda_c", "temperature", "omega0") | JSON_VALUES,
    "bob_noise": _fields("gamma", "lambda_c", "temperature", "omega0") | JSON_VALUES,
    "tau": JSON_NUMBERS | JSON_VALUES,
    "window": st.lists(JSON_NUMBERS, min_size=2, max_size=2) | JSON_VALUES,
    "input": _fields("theta", "phi") | st.just("average") | JSON_VALUES,
    "strategy": st.sampled_from(["retain-psi", "retain-all"]) | JSON_VALUES,
    "convention": st.sampled_from(["paper", "physical"]) | JSON_VALUES,
    "seed": JSON_NUMBERS | JSON_VALUES,
    "n_points": JSON_NUMBERS | JSON_VALUES,
})


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


@settings(max_examples=200, deadline=None)
@given(CONFIG_DOCS)
def test_parse_config_accepts_only_finite_numbers(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert all(math.isfinite(x) for x in _numbers(cfg.canonical))
    assert cfg.tau is None or math.isfinite(cfg.tau)


def test_parse_config_average_input():
    cfg = parse_config({"input": "average"})
    assert cfg.input_state is None


def test_config_hash_stable_and_sensitive():
    a = parse_config(dict(TABLE1_CONFIG))
    b = parse_config(dict(TABLE1_CONFIG))
    assert experiments.config_hash(a.canonical) == experiments.config_hash(b.canonical)
    c = parse_config({**TABLE1_CONFIG, "seed": 6})
    assert experiments.config_hash(a.canonical) != experiments.config_hash(c.canonical)


# --------------------------------------------------------------------- tables


def test_table_pure_rows_and_flags():
    table = table_pure()
    assert "config_sha256" in table.metadata
    f_flag = table.headers.index("avg_fidelity_flag")
    f_col = table.headers.index("avg_fidelity_computed")
    b_flag = table.headers.index("b_max_flag")
    row_04 = row_lookup(table, 0, 0.4)
    row_05 = row_lookup(table, 0, 0.5)
    assert row_04[f_flag] == DEVIATION_FLAG
    assert row_05[f_flag] == DEVIATION_FLAG
    for c in (0.1, 0.2, 0.3, 0.7, 0.8, 0.9, 1.0):
        assert row_lookup(table, 0, c)[f_flag] == ""
    # low-concurrence nonlocality rows carry the documented deviation
    for c in (0.1, 0.2, 0.3, 0.4, 0.5):
        assert row_lookup(table, 0, c)[b_flag] == DEVIATION_FLAG
    for c in (0.9, 1.0):
        assert row_lookup(table, 0, c)[b_flag] == ""
    assert row_lookup(table, 0, 1.0)[f_col] == pytest.approx(0.9997374321683202, rel=1e-10)


def test_table_werner_values():
    table2 = table_werner(2)
    row = row_lookup(table2, 0, 0.69)
    headers = table2.headers
    assert row[headers.index("concurrence_computed")] == pytest.approx(0.535, abs=1e-9)
    assert row[headers.index("b_max_computed")] == pytest.approx(1.9516, abs=5e-4)
    assert row[headers.index("avg_fidelity_computed")] == pytest.approx(0.8443, abs=5e-4)
    assert row[headers.index("violates_chsh")] == "no"
    table3 = table_werner(3)
    row85 = row_lookup(table3, 0, 0.85)
    assert row85[table3.headers.index("b_max_computed")] == pytest.approx(2.404, abs=1e-3)
    assert row85[table3.headers.index("violates_chsh")] == "yes"
    with pytest.raises(ConfigError):
        table_werner(4)


def test_table_csv_is_rectangular_and_finite():
    for table in (table_pure(), table_werner(2), table_werner(3)):
        text = to_csv(table)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        width = len(lines[0].split(","))
        assert all(len(l.split(",")) == width for l in lines)
        assert "nan" not in text and "inf" not in text


# -------------------------------------------------------------------- figures


def test_figure_curves_published_properties():
    fig2a = figure_curve(2, "a")
    curve = np.array([r for r in fig2a.rows])
    mask = (curve[:, 0] > 0.0) & (curve[:, 0] <= 6.0 * np.pi)
    assert curve[mask, 1].max() > 0.9
    fig2d = figure_curve(2, "d")
    curve_d = np.array([r for r in fig2d.rows])
    idx = np.argmin(np.abs(curve_d[:, 0] - TWO_PI))
    assert curve_d[idx, 1] < 0.75
    fig3a = figure_curve(3, "a")
    curve3 = np.array([r for r in fig3a.rows])
    mask3 = (curve3[:, 0] > 0.0) & (curve3[:, 0] <= 4.0 * np.pi)
    assert curve3[mask3, 1].max() >= 0.9
    with pytest.raises(ConfigError):
        figure_curve(4, "a")


def test_figure_has_enough_points():
    fig = figure_curve(3, "b")
    assert len(fig.rows) >= 600
    taus = np.array([r[0] for r in fig.rows])
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(12.0 * np.pi)


# ------------------------------------------------------------------- run/json


def test_run_report_table1_config():
    report = run_report(parse_config(dict(TABLE1_CONFIG)))
    assert report["average_fts"]["paper"]["analytic"] == pytest.approx(0.9331232790679895, rel=1e-10)
    assert report["average_fts"]["paper"]["quadrature"] == pytest.approx(0.9331232790679895, abs=1e-8)
    assert report["classical_bits"] == pytest.approx(1.5, abs=1e-12)
    assert report["config_sha256"] == experiments.config_hash(report["config"])
    assert len(report["branches"]) == 4


def test_run_report_werner_table3_value():
    cfg = parse_config({
        "resource": {"kind": "werner", "p": 0.95},
        "bob_noise": {"gamma": 0.1, "lambda_c": 0.02},
        "tau": TWO_PI,
    })
    report = run_report(cfg)
    assert report["average_fts"]["paper"]["analytic"] == pytest.approx(0.974, abs=1e-3)
    assert abs(report["average_fts"]["paper"]["analytic"] - 0.98) <= 0.015


def test_run_report_average_input_skips_branches():
    cfg = parse_config({**TABLE1_CONFIG, "input": "average"})
    report = run_report(cfg)
    assert "branches" not in report
    assert report["average_fts"]["paper"]["montecarlo_stderr"] > 0.0


def test_run_report_requires_tau():
    cfg = parse_config({"resource": {"kind": "werner", "p": 0.9}})
    with pytest.raises(ConfigError):
        run_report(cfg)


def test_optimize_report_fields():
    cfg = parse_config({
        "resource": {"kind": "pure", "concurrence": 0.8},
        "bob_noise": {"gamma": 0.1, "lambda_c": 0.05},
        "window": [np.pi, 3.0 * np.pi],
    })
    report = optimize_report(cfg)
    assert abs(report["tau_star"] - TWO_PI) <= 0.2
    assert report["f_star"] >= max(f for _, f in report["grid"]) - 1e-12
    assert report["config_sha256"] == experiments.config_hash(report["config"])


def test_sweep_requires_window():
    with pytest.raises(ConfigError):
        sweep_table(parse_config({"tau": 1.0}))


# ------------------------------------------------------------------------ cli


def test_cli_run_deterministic_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TABLE1_CONFIG))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_table_deterministic_bytes(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    assert cli.main(["table", "2", "--out", str(out1)]) == 0
    assert cli.main(["table", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "# config_sha256:" in text


def test_cli_sweep_and_figure(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "resource": {"kind": "werner", "concurrence": 0.8},
        "bob_noise": {"gamma": 0.1, "lambda_c": 0.02},
        "window": [0.0, 4.0 * np.pi],
        "n_points": 101,
    }))
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "omega0_tau,avg_fidelity"
    assert len(lines) == 102
    fig_out = tmp_path / "fig.csv"
    assert cli.main(["figure", "2", "--panel", "b", "--out", str(fig_out)]) == 0
    assert fig_out.exists()


def test_cli_strategy_override_changes_bits(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TABLE1_CONFIG))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", str(cfg_path), "--strategy", "retain-all", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["classical_bits"] == pytest.approx(2.0, abs=1e-12)
    assert report["config"]["strategy"] == "retain-all"


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"resource": {"kind": "ghz"}}')
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text('{"resource": ')
    assert cli.main(["run", "--config", str(broken)]) == 2
    # json refuses integer literals past Python's digit limit with a plain ValueError
    huge = tmp_path / "huge.json"
    huge.write_text('{"seed": ' + "9" * 5000 + "}")
    capsys.readouterr()
    assert cli.main(["run", "--config", str(huge)]) == 2
    assert f"config error: {huge}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,doc,field",
    [
        ("run", {"tau": math.nan}, "tau"),
        ("run", {"tau": math.inf}, "tau"),
        ("sweep", {"window": ["a", 2]}, "window"),
        ("sweep", {"window": [0, math.inf]}, "window"),
        ("sweep", {"window": [False, True]}, "window"),
        # finite, but the phases omega0*tau of the decoherence factors overflow
        ("run", {"tau": 1e308}, "tau"),
        ("run", {"tau": 1e300, "bob_noise": {"gamma": 0.1, "lambda_c": 0.01, "omega0": 1e9}}, "tau"),
        ("sweep", {"window": [0, 1e308], "n_points": 2}, "window"),
    ],
)
def test_cli_rejects_non_finite_or_non_numeric_config_values(tmp_path, capsys, command, doc, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, **doc}))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_cli_rejects_bad_tol_tau(tmp_path, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main(["optimize", f"--tol-tau={tol}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--tol-tau" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"tau": 1e200},
        {"tau": 1e307},
        {"tau": 2.0, "bob_noise": {"gamma": 0.1, "lambda_c": 1e300}},
        {"tau": 2.0, "alice_noise": {"gamma": 0.1, "lambda_c": 1e300}},
    ],
)
def test_cli_run_survives_huge_decay_arguments(tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, **doc}))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-finite {name} in the report")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["tau"] == doc["tau"]


@pytest.mark.parametrize(
    "command,doc,field",
    [
        ("optimize", {"window": [0, 1e300]}, "window"),
        ("optimize", {"window": [0, 1e6]}, "window"),
        ("optimize", {"window": [0, 8e307]}, "window"),
        ("sweep", {"window": [0, 1], "n_points": 100_001}, "n_points"),
        ("sweep", {"window": [0, 1], "n_points": 10**12}, "n_points"),
    ],
)
def test_cli_caps_the_tau_points_of_a_job(tmp_path, monkeypatch, capsys, command, doc, field):
    def never(*args, **kwargs):
        raise AssertionError("the job ran")

    monkeypatch.setattr(experiments, "sweep", never)
    monkeypatch.setattr(experiments, "maximize_timing", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, **doc}))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err and str(experiments.MAX_TAU_POINTS) in err
    assert not (tmp_path / "out").exists()


def test_cli_numeric_error_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericAccuracyError("stalled", estimate=0.1, error_estimate=0.5)

    monkeypatch.setattr(experiments, "factors_at", boom)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TABLE1_CONFIG))
    assert cli.main(["run", "--config", str(cfg_path)]) == 3
    assert "numeric accuracy failure" in capsys.readouterr().err


def test_cli_json_embeds_version(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TABLE1_CONFIG))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tool"] == "dfsteleport"
    assert report["version"]
