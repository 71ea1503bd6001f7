import os
import subprocess
import sys
from pathlib import Path

import dfsteleport


def test_every_exported_name_resolves():
    missing = [name for name in dfsteleport.__all__ if not hasattr(dfsteleport, name)]
    assert missing == []
    assert len(set(dfsteleport.__all__)) == len(dfsteleport.__all__)


def modules_loaded_by_cli_import(prefix: str) -> str:
    """Sorted names of the modules under ``prefix`` that a fresh ``import dfsteleport.cli`` loads."""
    code = ("import sys, dfsteleport.cli; "
            f"print(sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))")
    src = str(Path(dfsteleport.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, cwd=src)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: importing it would double the CLI's start-up time
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_import_loads_no_numpy_polynomial():
    # the Gauss-Legendre rules of the quadrature oracles are built on first use
    assert modules_loaded_by_cli_import("numpy.polynomial") == "[]"


def test_cli_import_loads_no_brute_force_channels():
    # the 8x8 factor matrices serve the brute-force oracle only, not the simulator
    assert modules_loaded_by_cli_import("dfsteleport.channels") == "[]"


def test_simulator_names_resolve_at_top_level():
    # the names README's library example and the benchmark's library jobs import from the package
    names = ("BlochAngles", "NoiseParams", "PurePair", "Werner", "Strategy", "BellOutcome",
             "run_protocol", "maximize_timing", "TimingProblem")
    # test_every_exported_name_resolves checks that each name in __all__ resolves
    assert sorted(set(names) - set(dfsteleport.__all__)) == []
