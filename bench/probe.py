"""Set-up probe: one fresh interpreter imports the CLI and runs a warm-up job.

    python3 bench/probe.py WORKLOAD WORKDIR

Prints the seconds from just before ``import dfsteleport.cli`` to the end of
the workload's warm-up job.  Only standard-library modules are loaded before
the clock starts, so numpy's import cost is counted.
"""

import os
import sys
import time
from pathlib import Path

from workloads import run_job, warmup_job, write_config


def main() -> None:
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(Path.cwd() / "src"))
    job = warmup_job(workload)
    stem = workdir / f"probe-{os.getpid()}"
    config_path, out_path = f"{stem}.cfg.json", f"{stem}{job.out_suffix}"
    write_config(job, config_path)
    start = time.perf_counter()
    import dfsteleport.cli  # noqa: F401  (timed: the import is the point)

    run_job(job, config_path, out_path)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
