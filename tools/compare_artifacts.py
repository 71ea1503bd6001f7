"""Compare the CLI artifacts of two source trees, artifact by artifact.

    python3 tools/compare_artifacts.py PARENT_DIR CHANGE_DIR

For each tree, every command runs in its own subprocess with
PYTHONPATH=<tree>/src: tables 1-3, the eight figure panels, a table and a
figure the CLI refuses (their exit code and usage text), and ``sweep``,
``optimize`` and ``run`` over a fixed list of 52 configs (pure and Werner
resources, the balanced pair and p = 0 and 1 among them, receivers at T = 0,
at T = 1 and at omega0 = 75.25, both conventions, a run with an input and
with ``"average"``, and a sender whose bath phase reaches 9.7-22 rad).  Prints one line per artifact: ``identical``, or the
largest absolute difference of each numeric JSON field or CSV column that
moved (list indices folded into ``[]``).  Exits 1 if any artifact differs in
anything but its numbers (text, keys, lengths, exit code, stderr), else 0.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TAU = 2.0 * math.pi
RESOURCES = [
    ("pure-c0.8", {"kind": "pure", "concurrence": 0.8}),
    ("pure-0.6-0.8", {"kind": "pure", "mu": 0.6, "lambda": 0.8}),
    ("pure-0.8-0.6", {"kind": "pure", "mu": 0.8, "lambda": 0.6}),
    ("werner-0.8", {"kind": "werner", "p": 0.8}),
    ("werner-0.4", {"kind": "werner", "p": 0.4}),
    # appended, so the configs above keep their names and seeds
    ("pure-c1.0", {"kind": "pure", "concurrence": 1.0}),
    ("werner-0.0", {"kind": "werner", "p": 0.0}),
    ("werner-1.0", {"kind": "werner", "p": 1.0}),
]
RECEIVERS = [
    ("T0", {"gamma": 0.1, "lambda_c": 0.01, "temperature": 0.0}),
    ("T1", {"gamma": 0.1, "lambda_c": 0.05, "temperature": 1.0}),
    ("w75", {"gamma": 0.1, "lambda_c": 0.05, "temperature": 0.0, "omega0": 75.25}),
]
# the run report holds both conventions, so each convention goes with one input kind
CONVENTIONS = [("paper", {"theta": 1.0, "phi": 0.2}), ("physical", "average")]
# a sender bath phase above 2*pi over the window (17.06 rad at the run's tau = 10)
SENDER = ("alice-phase17", {"gamma": 0.5, "lambda_c": 1.0})


def configs() -> list[tuple[str, dict]]:
    """The fixed ``(name, config)`` list the config commands run over."""
    out = []
    for i, ((res_name, resource), (bob_name, bob), (convention, input_obj)) in enumerate(
            itertools.product(RESOURCES, RECEIVERS, CONVENTIONS)):
        name = f"{i:02d}-{res_name}-{bob_name}-{convention}-{'average' if input_obj == 'average' else 'input'}"
        out.append((name, {
            "resource": resource,
            "bob_noise": bob,
            "tau": TAU,
            "window": [0.5 * TAU, 2.0 * TAU],
            "n_points": 301,
            "input": input_obj,
            "convention": convention,
            "seed": 10 + i,
        }))
    # appended, so the configs above keep their names and seeds
    sender_name, alice = SENDER
    for i, ((res_name, resource), (convention, input_obj)) in enumerate(
            itertools.product([RESOURCES[1], RESOURCES[3]], CONVENTIONS), start=len(out)):
        name = f"{i:02d}-{res_name}-{sender_name}-{convention}-{'average' if input_obj == 'average' else 'input'}"
        out.append((name, {
            "resource": resource,
            "alice_noise": alice,
            "bob_noise": RECEIVERS[0][1],
            "tau": 10.0,
            "window": [0.5 * TAU, 2.0 * TAU],
            "n_points": 301,
            "input": input_obj,
            "convention": convention,
            "seed": 10 + i,
        }))
    return out


def jobs(config_dir: Path) -> list[tuple[str, list[str]]]:
    """Every ``(artifact name, CLI arguments)`` pair, configs written under ``config_dir``."""
    out = [(f"table-{which}", ["table", str(which)]) for which in (1, 2, 3)]
    out += [(f"figure-{which}{panel}", ["figure", str(which), "--panel", panel])
            for which in (2, 3) for panel in "abcd"]
    # names the CLI refuses: exit code 2 and the usage text
    out += [("table-4", ["table", "4"]), ("figure-4a", ["figure", "4", "--panel", "a"])]
    for name, doc in configs():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out += [(f"{command}-{name}", [command, "--config", str(path)])
                for command in ("sweep", "optimize", "run")]
    return out


def run_cli(tree: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "dfsteleport.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=False)


def _json_leaves(doc, path: str, out: list) -> None:
    if isinstance(doc, dict):
        for key in sorted(doc):
            _json_leaves(doc[key], f"{path}.{key}" if path else key, out)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            _json_leaves(item, f"{path}[{i}]", out)
    else:
        out.append((path, doc))


def _csv_leaves(text: str) -> list:
    lines = text.splitlines()
    out = [(f"#{i}", line) for i, line in enumerate(lines) if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        return out
    headers = body[0].split(",")
    out.append(("header", body[0]))
    for r, line in enumerate(body[1:]):
        for c, cell in enumerate(line.split(",")):
            column = headers[c] if c < len(headers) else f"column{c}"
            try:
                value = float(cell)
            except ValueError:
                value = cell
            out.append((f"{column}[{r}]", value))
    return out


def leaves(text: str) -> list:
    """``(path, value)`` for every leaf of a JSON document or CSV table."""
    try:
        doc = json.loads(text)
    except ValueError:
        return _csv_leaves(text)
    out: list = []
    _json_leaves(doc, "", out)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old: str, new: str) -> tuple[dict, list]:
    """``({field: max |difference|}, [non-numeric differences])`` of two artifacts."""
    old_leaves, new_leaves = leaves(old), leaves(new)
    if [p for p, _ in old_leaves] != [p for p, _ in new_leaves]:
        return {}, ["fields or lengths differ"]
    diffs: dict = {}
    problems = []
    for (path, a), (_, b) in zip(old_leaves, new_leaves):
        if _is_number(a) and _is_number(b):
            same = a == b or (math.isnan(a) and math.isnan(b))
            diff = 0.0 if same else abs(a - b)
            field = re.sub(r"\[\d+\]", "[]", path)
            diffs[field] = max(diffs.get(field, 0.0), diff if math.isfinite(diff) else math.inf)
        elif type(a) is not type(b) or a != b:
            problems.append(f"{path}: {a!r} -> {b!r}")
    if not problems and not any(diffs.values()):
        problems.append("same values, different text")
    return {field: d for field, d in diffs.items() if d}, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_artifacts.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        for name, args in jobs(tmp_dir):
            old, new = (run_cli(tree, args, tmp_dir) for tree in trees)
            if (old.returncode, old.stdout, old.stderr) == (new.returncode, new.stdout, new.stderr):
                print(f"{name}: identical")
                continue
            if (old.returncode, old.stderr) != (new.returncode, new.stderr):
                diffs, problems = {}, [f"exit {old.returncode} -> {new.returncode} or stderr differs"]
            else:
                diffs, problems = compare(old.stdout, new.stdout)
            moved = ", ".join(f"{field} {d:.3g}" for field, d in diffs.items())
            print(f"{name}: {moved or 'no numeric change'}")
            for problem in problems[:5]:
                print(f"  NON-NUMERIC {problem}")
            failed += bool(problems)
    print(f"{failed} artifact(s) with non-numeric differences")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
