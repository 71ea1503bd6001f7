import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfsteleport
from dfsteleport.experiments import parse_config, run_report, to_json


def test_every_exported_name_resolves():
    missing = [name for name in dfsteleport.__all__ if not hasattr(dfsteleport, name)]
    assert missing == []
    assert len(set(dfsteleport.__all__)) == len(dfsteleport.__all__)


SRC = str(Path(dfsteleport.__file__).resolve().parents[1])


def run_fresh(code: str, cwd=SRC) -> str:
    """Stripped stdout of ``code`` run in a fresh interpreter on this source tree."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC}, cwd=cwd)
    return out.stdout.strip()


def loaded(prefix: str) -> str:
    """Code that prints the sorted names of the loaded modules under ``prefix``."""
    return f"print(sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))"


def modules_loaded_by_cli_import(prefix: str) -> str:
    """Sorted names of the modules under ``prefix`` that a fresh ``import dfsteleport.cli`` loads."""
    return run_fresh("import sys, dfsteleport.cli; " + loaded(prefix))


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: importing it would double the CLI's start-up time
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_numpy():
    # numpy's import was most of every command's start-up; only run's arrays need it
    assert modules_loaded_by_cli_import("numpy") == "[]"


def test_cli_import_loads_no_openssl():
    # config hashes use CPython's built-in SHA-256, where the interpreter has one
    pytest.importorskip("_sha256")
    assert modules_loaded_by_cli_import("_hashlib") == "[]"


SCALAR_COMMANDS = [
    ["table", "1"],
    ["figure", "2", "--panel", "a"],
    ["sweep", "--config", "cfg.json"],
    ["optimize", "--config", "cfg.json"],
]


@pytest.mark.parametrize("argv", SCALAR_COMMANDS, ids=lambda argv: argv[0])
def test_scalar_commands_load_no_numpy(tmp_path, argv):
    (tmp_path / "cfg.json").write_text(json.dumps({
        "resource": {"kind": "pure", "mu": 0.6, "lambda": 0.8},
        "bob_noise": {"gamma": 0.1, "lambda_c": 0.05, "temperature": 1.0},
        "window": [3.0, 7.0],
        "convention": "physical",
    }))
    code = f"import sys; from dfsteleport import cli; print(cli.main({argv + ['--out', 'out']!r})); " + loaded("numpy")
    assert run_fresh(code, cwd=tmp_path) == "0\n[]"
    assert (tmp_path / "out").stat().st_size > 0


def test_run_works_as_the_first_call(tmp_path):
    # the array code imports numpy on its first use, and gives the same bytes as in this process
    cfg = {"resource": {"kind": "pure", "concurrence": 0.8}, "tau": 6.0,
           "input": {"theta": 1.0, "phi": 0.2}, "seed": 3}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = ("import sys; from dfsteleport import cli; "
            "print(cli.main(['run', '--config', 'cfg.json', '--out', 'out']), 'dfsteleport.reference' in sys.modules)")
    assert run_fresh(code, cwd=tmp_path) == "0 False"
    assert (tmp_path / "out").read_text() == to_json(run_report(parse_config(cfg)))


def test_run_protocol_works_as_the_first_call():
    # the first array state imports numpy; its matrices are the ones this process builds
    code = ("import sys, dfsteleport as d; "
            "run = d.run_protocol(d.BlochAngles(1.0, 0.2), d.PurePair.from_concurrence(0.8), "
            "d.NoiseParams(0.3, 0.1), d.NoiseParams(0.1, 0.05), 6.0, d.Strategy.RETAIN_ALL); "
            "print('dfsteleport.reference' in sys.modules, type(run.branches[0].bob_paper_scaled).__name__, "
            "[b.bob_paper_scaled.mat.tolist() for b in run.branches])")
    d = dfsteleport
    run = d.run_protocol(d.BlochAngles(1.0, 0.2), d.PurePair.from_concurrence(0.8),
                         d.NoiseParams(0.3, 0.1), d.NoiseParams(0.1, 0.05), 6.0, d.Strategy.RETAIN_ALL)
    assert run_fresh(code) == f"False DensityOp {[b.bob_paper_scaled.mat.tolist() for b in run.branches]}"


def test_cli_import_loads_no_reference_oracles():
    # the brute-force run and the eigen-solver criteria check the simulator; no command uses them
    assert modules_loaded_by_cli_import("dfsteleport.reference") == "[]"


def test_simulator_names_resolve_at_top_level():
    # the names README's library example and the benchmark's library jobs import from the package
    names = ("BlochAngles", "NoiseParams", "PurePair", "Werner", "Strategy", "BellOutcome",
             "run_protocol", "maximize_timing", "TimingProblem")
    # test_every_exported_name_resolves checks that each name in __all__ resolves
    assert sorted(set(names) - set(dfsteleport.__all__)) == []
