"""Fuzz the config boundary: seeded documents through ``dfsteleport.cli.main``.

    python3 tools/fuzz_config.py [--src DIR] [--seed N] [--count N] [--messages]

The documents are drawn from the strategies of the Tier-1 config fuzz
property (``FUZZ_DOCS`` and ``FUZZ_COMMANDS`` in ``tests/test_cli.py``),
which build each config object from ``experiments.CONFIG_FIELDS`` and then
break it: keys dropped, near misses (wrong types, null, NaN, magnitudes
5e-324..1.7e308 of either sign) and unknown keys.  They are drawn with this
checkout's package under the fixed hypothesis seed ``--seed``, so they depend
on the seed and this checkout alone.  Then the tree whose package is at
``--src`` (default: this checkout's ``src``) is imported in its place, and
each document runs in process under ``run``, ``sweep`` or ``optimize``;
outputs go to the null device.

Prints the count of each exit code, then every exception that escaped
``cli.main`` with its document, and exits 1 if there was one.  With
``--messages`` it prints one line per document instead: its index, the
command and the exit code, then the config error, the escaped exception or,
on exit 0, the hash of the canonical config.  Two trees are compared by
diffing those lines.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def documents(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` ``(command, JSON text)`` pairs drawn under hypothesis seed ``seed``."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as fixed_seed
    from hypothesis import strategies as st

    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import FUZZ_COMMANDS, FUZZ_DOCS

    out = []

    @fixed_seed(seed)
    @settings(max_examples=count, deadline=None, database=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(command=st.sampled_from(FUZZ_COMMANDS), doc=FUZZ_DOCS)
    def draw(command, doc):
        out.append((command, json.dumps(doc)))

    draw()
    return out


def use_tree(src: Path) -> None:
    """Make ``import dfsteleport`` load the package at ``src`` from now on."""
    for name in [name for name in sys.modules if name.split(".")[0] == "dfsteleport"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    importlib.invalidate_caches()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the dfsteleport package to fuzz")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--messages", action="store_true", help="one line per document, for diffing trees")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    docs = documents(args.seed, args.count)
    use_tree(Path(args.src).resolve())
    from dfsteleport import cli, experiments

    codes: collections.Counter = collections.Counter()
    escaped = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        for index, (command, text) in enumerate(docs):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", path, "--out", os.devnull])
            except Exception as exc:
                code = "exception"
                escaped.append((index, command, text, traceback.format_exc()))
                line = f"{type(exc).__name__}: {exc}"
            else:
                line = (err.getvalue().strip().replace("\n", " | ") if code
                        else experiments.config_hash(experiments.parse_config(json.loads(text)).canonical))
            codes[code] += 1
            if args.messages:
                print(index, command, code, line)
    if not args.messages:
        for code, count in sorted(codes.items(), key=str):
            print(f"exit {code}: {count}")
        for index, command, text, trace in escaped:
            print(f"\n#{index} {command} {text}\n{trace}", end="")
    return 1 if escaped else 0


if __name__ == "__main__":
    raise SystemExit(main())
