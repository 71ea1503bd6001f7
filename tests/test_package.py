import os
import subprocess
import sys
from pathlib import Path

import dfsteleport


def test_every_exported_name_resolves():
    missing = [name for name in dfsteleport.__all__ if not hasattr(dfsteleport, name)]
    assert missing == []
    assert len(set(dfsteleport.__all__)) == len(dfsteleport.__all__)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: importing it would double the CLI's start-up time
    code = "import sys, dfsteleport.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    src = str(Path(dfsteleport.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, cwd=src)
    assert out.stdout.strip() == "[]"
