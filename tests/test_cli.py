import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfsteleport import cli, experiments, optimizer
from dfsteleport.experiments import (
    ConfigError,
    DEVIATION_FLAG,
    ResultTable,
    TOL_CONCURRENCE,
    figure_curve,
    optimize_report,
    parse_config,
    run_report,
    sweep_table,
    to_csv,
)
from dfsteleport.noisekernel import NoiseParams
from dfsteleport.protocol import PurePair, Strategy, Werner
from dfsteleport.qlinalg import BlochAngles
from dfsteleport.reference import chsh, concurrence, resource_state

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


def test_canonical_follows_the_fields():
    # a config built directly, or copied with a changed field, embeds and hashes what it holds
    cfg = parse_config(dict(TABLE1_CONFIG))
    direct = experiments.ExperimentConfig(
        cfg.resource, cfg.alice_noise, cfg.bob_noise, cfg.tau, cfg.window, cfg.input_state,
        cfg.strategy, cfg.convention, cfg.seed, cfg.n_points)
    assert direct.canonical == cfg.canonical
    assert direct.canonical["bob_noise"]["lambda_c"] == 0.01
    moved = dataclasses.replace(cfg, tau=7.0)
    assert moved.canonical == parse_config({**TABLE1_CONFIG, "tau": 7.0}).canonical
    report = run_report(moved)
    assert report["config"]["tau"] == report["tau"] == 7.0
    assert experiments.to_json(report) == experiments.to_json(run_report(parse_config({**TABLE1_CONFIG, "tau": 7.0})))


def test_parse_config_average_input():
    cfg = parse_config({"input": "average"})
    assert cfg.input_state is None


def test_config_hash_stable_and_sensitive():
    a = parse_config(dict(TABLE1_CONFIG))
    b = parse_config(dict(TABLE1_CONFIG))
    assert experiments.config_hash(a.canonical) == experiments.config_hash(b.canonical)
    c = parse_config({**TABLE1_CONFIG, "seed": 6})
    assert experiments.config_hash(a.canonical) != experiments.config_hash(c.canonical)
    # the standard SHA-256 of the canonical JSON, whichever implementation computes it
    blob = json.dumps(a.canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert experiments.config_hash(a.canonical) == hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------- tables


def test_table_pure_rows_and_flags():
    table = experiments.table(1)
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


def test_table_cells_match_the_eigen_solver_oracles():
    # the tables use closed forms; metrics.concurrence and metrics.chsh solve
    # for the same numbers.  The pure-state concurrence takes the square root
    # of a rank-1 state, whose rounding-level eigenvalues become ~sqrt(eps)
    # errors, so it agrees only to 1e-7; everything else to rounding
    for row in experiments.table(1).rows:
        state = resource_state(PurePair.from_concurrence(row[0]))
        assert row[1] == pytest.approx(concurrence(state), abs=1e-7)
        assert row[2] == pytest.approx(chsh(state).b_max, abs=1e-12)
    for which in (2, 3):
        table = experiments.table(which)
        col = {name: table.headers.index(name) for name in table.headers}
        for row in table.rows:
            state = resource_state(Werner(row[0]))
            report = chsh(state)
            assert row[col["concurrence_computed"]] == pytest.approx(concurrence(state), abs=1e-12)
            assert row[col["b_max_computed"]] == pytest.approx(report.b_max, abs=1e-12)
            assert row[col["violates_chsh"]] == ("yes" if report.violates else "no")


def test_table_werner_values():
    table2 = experiments.table(2)
    row = row_lookup(table2, 0, 0.69)
    headers = table2.headers
    assert row[headers.index("concurrence_computed")] == pytest.approx(0.535, abs=1e-9)
    assert row[headers.index("b_max_computed")] == pytest.approx(1.9516, abs=5e-4)
    assert row[headers.index("avg_fidelity_computed")] == pytest.approx(0.8443, abs=5e-4)
    assert row[headers.index("violates_chsh")] == "no"
    table3 = experiments.table(3)
    row85 = row_lookup(table3, 0, 0.85)
    assert row85[table3.headers.index("b_max_computed")] == pytest.approx(2.404, abs=1e-3)
    assert row85[table3.headers.index("violates_chsh")] == "yes"
    with pytest.raises(ConfigError):
        experiments.table(4)


def test_flags_leave_a_deviation_at_its_tolerance_unflagged():
    # (3p - 1)/2 lies 0.005 = TOL_CONCURRENCE from its printed two decimals at
    # these rows; in binary the deviation lands on either side of the tolerance
    for which, p in ((2, 0.69), (3, 0.75), (3, 0.85), (3, 0.95)):
        table = experiments.table(which)
        row = row_lookup(table, 0, p)
        assert abs(row[table.headers.index("concurrence_deviation")]) == pytest.approx(TOL_CONCURRENCE, abs=1e-12)
        assert row[table.headers.index("concurrence_flag")] == ""
    for which in (2, 3):
        assert DEVIATION_FLAG not in {cell for row in experiments.table(which).rows for cell in row}
    table = experiments.table(1)
    flagged = {
        name: [row[0] for row in table.rows if row[table.headers.index(f"{name}_flag")] == DEVIATION_FLAG]
        for name in ("b_max", "avg_fidelity")
    }
    assert flagged == {"b_max": [0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.8], "avg_fidelity": [0.4, 0.5]}
    assert experiments._flag(-0.0050000000000001155, TOL_CONCURRENCE) == ""
    assert experiments._flag(0.0051, TOL_CONCURRENCE) == DEVIATION_FLAG


def test_table_csv_is_rectangular_and_finite():
    for table in map(experiments.table, experiments.TABLES):
        text = to_csv(table)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        width = len(lines[0].split(","))
        assert all(len(l.split(",")) == width for l in lines)
        assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("rows,message", [
    ([[1.0, 2.0], [3.0, math.nan]], "finite"),
    ([[1.0, 2.0], [3.0, -math.inf]], "finite"),
    ([[1.0, 2.0], [3.0]], "width"),
    ([[1.0, 2.0, 3.0]], "width"),
])
def test_to_csv_rejects_a_non_finite_cell_or_a_ragged_row(rows, message):
    with pytest.raises(ValueError, match=message):
        to_csv(ResultTable(headers=["x", "y"], rows=rows, metadata={}))


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
        # finite, but the sender's bath phase 4*gamma*(L*tau - atan(L*tau)) overflows
        ("run", {"tau": 1e300, "alice_noise": {"gamma": 0.1, "lambda_c": 1e300}}, "tau"),
        ("run", {"tau": 1e150, "alice_noise": {"gamma": 0.1, "lambda_c": 1e160}}, "tau"),
        # finite, but mu**2 or lambda**2 overflows: rejected as above one before squaring
        ("run", {"resource": {"kind": "pure", "mu": 1e200, "lambda": 0.5}}, "resource"),
        ("run", {"resource": {"kind": "pure", "mu": 0.5, "lambda": 1e200}}, "resource"),
    ],
)
def test_cli_rejects_non_finite_or_non_numeric_config_values(tmp_path, capsys, command, doc, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, **doc}))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "out").exists()


def test_cli_optimize_ends_at_a_tol_tau_below_the_float_spacing(tmp_path, monkeypatch):
    # one bracket takes ~50 rate evaluations; a loop past the float spacing fails here instead of hanging
    calls = []
    real = optimizer.decay_rate

    def bounded(*args):
        calls.append(args)
        assert len(calls) <= 64, "bisection did not stop at the float spacing"
        return real(*args)

    monkeypatch.setattr(optimizer, "decay_rate", bounded)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, "window": [np.pi, 3.0 * np.pi]}))
    out = tmp_path / "opt.json"
    assert cli.main(["optimize", "--config", str(cfg_path), "--tol-tau", "1e-300", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["tau_star"] - TWO_PI) <= 0.2


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
        # hot receiver baths on which the frequency quadrature did not converge
        {"tau": 2000.0, "bob_noise": {"gamma": 0.1, "lambda_c": 50.0, "temperature": 5.0}},
        {"tau": 1e200, "bob_noise": {"gamma": 0.1, "lambda_c": 0.5, "temperature": 1e200}},
        # the sender's bath phase is 4e307, just inside the float range
        {"tau": 1e150, "alice_noise": {"gamma": 0.1, "lambda_c": 1e158}},
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


def test_cli_run_keeps_a_weak_decay_past_the_overflow_of_lambda_c_tau(tmp_path):
    # L*tau = 1e600 overflows, but G = 4*gamma*ln(L*tau) = 0.055 leaves |b| = 0.95
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, "tau": 1e300,
                                    "bob_noise": {"gamma": 1e-5, "lambda_c": 1e300}}))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    b = complex(*json.loads(out.read_text())["factors"]["b"])
    assert abs(b) == pytest.approx(math.exp(-4e-5 * 600.0 * math.log(10.0)), rel=1e-12)


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


def test_cli_names_the_receiver_omega0_when_the_default_window_is_too_fine(tmp_path, capsys):
    # with no window the grid's size follows bob_noise.omega0 over the default (pi, 4*pi)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bob_noise": {"gamma": 0.1, "lambda_c": 0.05, "omega0": 1000}}))
    assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bob_noise.omega0 = 1000.0 over the default window (pi, 4*pi): ")
    assert str(experiments.MAX_TAU_POINTS) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc,field,key",
    [
        ({"resource": {"kind": "werner", "p": 0.8, "concurence": 0.5}}, "resource", "concurence"),
        ({"resource": {"kind": "pure", "concurrence": 0.5, "p": 0.3}}, "resource", "'p'"),
        ({"alice_noise": {"gamma": 0.1, "lambda_c": 0.1, "omega": 2.0}}, "alice_noise", "omega"),
        ({"bob_noise": {"gamma": 0.1, "lambda_c": 0.01, "temprature": 1.0}}, "bob_noise", "temprature"),
        ({"input": {"theta": 1.0, "ph": 2.0}}, "input", "ph"),
    ],
)
def test_cli_rejects_unknown_fields_in_nested_objects(tmp_path, capsys, doc, field, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, **doc}))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: unknown fields" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "resource,fields",
    [
        ({"kind": "pure", "concurrence": 0.5, "mu": 0.6, "lambda": 0.8}, "['concurrence', 'lambda', 'mu']"),
        ({"kind": "pure", "concurrence": 0.5, "lambda": 0.8}, "['concurrence', 'lambda']"),
        ({"kind": "werner", "concurrence": 0.5, "p": 0.9}, "['concurrence', 'p']"),
    ],
)
def test_cli_rejects_conflicting_resource_fields(tmp_path, capsys, resource, fields):
    # concurrence fixes the whole resource, so a second description of it is not ignored
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TABLE1_CONFIG, "resource": resource}))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: resource: conflicting fields {fields}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_names_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.json"
    cfg_path.write_bytes('{"seed": 1} \xe9'.encode("latin-1"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg_path) in err


def test_cli_names_an_output_path_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "missing" / "table1.csv"
    assert cli.main(["table", "1", "--out", str(out)]) == 2
    assert f"cannot write output {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_cli_json_embeds_version(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TABLE1_CONFIG))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tool"] == "dfsteleport"
    assert report["version"]


# ---------------------------------------------------------------- config fuzz

# near misses of a config value: wrong types, null, NaN and magnitudes from
# the smallest subnormal to the largest float, of either sign
MAGNITUDES = st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 0.1, 1.0, 1e150, 1e300, 1.7e308])
POSITIVE = MAGNITUDES.filter(bool)
NEAR_MISSES = MAGNITUDES | MAGNITUDES.map(lambda x: -x) | st.sampled_from(["x", [], {}, True, None, math.nan])
UNIT = st.floats(0.0, 1.0)


def _broken(objects, keys, max_size=1):
    """Objects as drawn, or with up to ``max_size`` of ``keys`` dropped, and
    as many of them, or an unknown key, given a near miss."""
    keys = sorted(keys)

    def apply(obj, dropped, misses):
        for key in dropped:
            obj.pop(key, None)
        obj.update(misses)
        return obj

    return objects | st.builds(apply, objects, st.sets(st.sampled_from(keys), max_size=max_size),
                               st.dictionaries(st.sampled_from(keys + ["surprise"]), NEAR_MISSES, max_size=max_size))


def _config_object(cls, records):
    """Records written back through the config table, perhaps broken."""
    return _broken(records.map(experiments._as_dict), experiments.CONFIG_FIELDS[cls])


RESOURCES = st.builds(PurePair.from_concurrence, UNIT) | st.builds(Werner, UNIT)
NOISE_OBJECTS = _config_object(NoiseParams, st.builds(
    NoiseParams, gamma=st.floats(0.0, 0.5) | MAGNITUDES, lambda_c=st.floats(0.005, 5.0) | POSITIVE,
    temperature=st.sampled_from([0.0, 0.5]) | MAGNITUDES, omega0=st.floats(0.5, 2.0) | POSITIVE))
FUZZ_FIELDS = {
    "resource": _broken(
        RESOURCES.map(lambda r: {"kind": experiments.RESOURCE_KINDS[type(r)], **experiments._as_dict(r)})
        | RESOURCES.map(lambda r: {"kind": experiments.RESOURCE_KINDS[type(r)], "concurrence": r.concurrence}),
        {"kind", "concurrence"}.union(*(experiments.CONFIG_FIELDS[cls] for cls in experiments.RESOURCE_KINDS))),
    "alice_noise": NOISE_OBJECTS,
    "bob_noise": NOISE_OBJECTS,
    "tau": st.floats(0.0, 4.0 * math.pi) | MAGNITUDES,
    "window": st.tuples(st.floats(0.0, TWO_PI), st.floats(0.1, 4.0 * math.pi)).map(
        lambda w: [w[0], w[0] + w[1]]) | st.lists(NEAR_MISSES, min_size=2, max_size=2),
    "input": st.just("average") | _config_object(BlochAngles, st.builds(BlochAngles, st.floats(0.0, math.pi))),
    "strategy": st.sampled_from([s.value for s in Strategy]),
    "convention": st.sampled_from(experiments.CONVENTIONS),
    "seed": st.integers(0, 100) | st.integers(0, 2**200),  # past 2^64 the fold takes a step per word
    "n_points": st.integers(2, 50),
}
FUZZ_DOCS = _broken(st.fixed_dictionaries(FUZZ_FIELDS), FUZZ_FIELDS, max_size=2)
FUZZ_COMMANDS = ["run", "sweep", "optimize"]
# a JSON path as messages name it: "config" (the root), "tau", "window[0]", "alice_noise.lambda_c"
BARE_PATH = re.compile(r"[a-z_]+(?:\.[a-z_]+|\[\d+\])*")


def _in_document(doc, path: str) -> bool:
    """Whether ``path`` names the document's root or a value present in it."""
    if path == "config":
        return True
    node = doc
    for key, index in re.findall(r"([a-z_]+)|\[(\d+)\]", path):
        try:
            node = node[int(index)] if index else node[key]
        except (KeyError, IndexError, TypeError):
            return False
    return True


# a fixed set of documents, so the suite gives the same answer every run;
# tools/fuzz_config.py draws new ones from the same strategies
@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(FUZZ_COMMANDS), doc=FUZZ_DOCS)
# a huge receiver coupling over a decay term that underflows to 0: a NaN decay
@example(command="optimize", doc={"bob_noise": {"gamma": 1.7e308, "lambda_c": 1e-300}, "window": [12.5, 12.6]})
@example(command="run", doc={"bob_noise": {"gamma": 1.7e308, "lambda_c": 1e-300}, "tau": 12.5})
# a sender bath phase of ~3.2e145 that swallowed omega0 * tau
@example(command="run", doc={"alice_noise": {"gamma": 1e-5, "lambda_c": 1e150}, "tau": 0.8})
# messages that named the path twice
@example(command="run", doc={"bob_noise": {"gamma": 0.1}, "tau": 1.0})
@example(command="run", doc={"resource": {"kind": "pure", "mu": "x", "lambda": 0.8}, "tau": 1.0})
# a message that named a path absent from the document
@example(command="run", doc={"tau": "x"})
def test_cli_answers_every_config_with_exit_0_or_a_config_error(tmp_path_factory, command, doc):
    cfg_path = tmp_path_factory.getbasetemp() / "fuzz.json"
    cfg_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(cfg_path), "--out", os.devnull])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        path, _, rest = lines[0][len("config error: "):].partition(": ")
        assert not rest.startswith(path), "the message names its path twice"
        if BARE_PATH.fullmatch(path):
            assert _in_document(doc, path), f"the message names {path!r}, which the document lacks"
