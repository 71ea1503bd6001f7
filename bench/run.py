"""dfsteleport benchmark: seeded jobs through the public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs jobs in a closed loop (the next job starts when the
previous one returns).  CLI jobs go through ``dfsteleport.cli.main`` with a
temp config and ``--out`` path; library jobs call ``dfsteleport.run_protocol``.
Every output is checked by an independent oracle after the timed interval.

``--trace 0`` reports the end-to-end metrics: jobs per second and the p50/p90
job latency over whole rounds run for at least ``--seconds`` of job time (and
at least 100 jobs, so that p90 has 10 samples beyond it), the timing process's
peak RSS, and the median set-up time of fresh interpreters.  Times are scaled
to the calibration machine's speed (see ``MachineSpeed``).  ``--trace 1`` runs
a fixed number of rounds, each untraced and then traced, and reports per-layer
counts and self times plus the tracing overhead.  The last line of stdout is
the JSON result; diagnostics go to stderr.
"""

from __future__ import annotations

import os

# One client, no BLAS threads: the matrices are at most 8x8 and a second
# thread would only add scheduling noise on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_round, run_job, write_config

BENCH_DIR = Path(__file__).resolve().parent
MIN_JOBS = 100            # p90 needs at least 10 samples beyond it
SETUP_PROBES = 9
REFERENCE_S = 0.002       # median reference_work time on the calibration machine
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 1.0
PROBE_TIMEOUT_S = 60
TRACE_ROUNDS = {"artifacts": 3, "thermal": 2, "physical": 1, "branch-scan": 8}
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Runner:
    """Runs rounds of one workload, keeping job outputs on disk for the oracle."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.records = open(workdir / "records.bin", "wb")
        self.record_offsets = {}
        self.errors = {}          # (tag, round, job) -> message
        self.rounds = []          # (tag, round) in the order run
        self.tracer = None
        self.speed = None

    def close(self) -> None:
        self.records.close()

    def paths(self, tag: str, round_index: int, job_index: int, job):
        stem = self.workdir / f"{tag}-{round_index}-{job_index}"
        return str(stem) + ".cfg.json", str(stem) + job.out_suffix

    def run_round(self, round_index: int, tag: str) -> list:
        """Run one round; returns each job's (midpoint, wall time) in seconds."""
        from oracles import protocol_record

        latencies = []
        for job_index, job in enumerate(make_round(self.workload, self.seed, round_index)):
            config_path, out_path = self.paths(tag, round_index, job_index, job)
            write_config(job, config_path)
            if self.tracer is not None:
                self.tracer.job = f"{round_index}-{job_index}"
                self.tracer.active = True
            start = time.perf_counter()
            try:
                result = run_job(job, config_path, out_path)
            except (Exception, SystemExit) as exc:
                result = None
                self.errors[(tag, round_index, job_index)] = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
            latencies.append((start + 0.5 * elapsed, elapsed))
            if self.speed is not None:
                self.speed.after(elapsed)
            if result is not None:
                self.record_offsets[(tag, round_index, job_index)] = self.records.tell()
                for run in result:
                    protocol_record(run).tofile(self.records)
        self.rounds.append((tag, round_index))
        return latencies

    def check(self):
        """Oracle pass over every job run; returns (attempted, failed, messages)."""
        import numpy as np
        from oracles import RECORD_SIZE, Oracle

        self.records.close()
        recorded = np.fromfile(self.workdir / "records.bin", dtype=complex)
        oracle = Oracle()
        attempted = failed = 0
        messages = []
        for tag, round_index in self.rounds:
            for job_index, job in enumerate(make_round(self.workload, self.seed, round_index)):
                attempted += 1
                key = (tag, round_index, job_index)
                if key in self.errors:
                    failures = [self.errors[key]]
                else:
                    _, out_path = self.paths(tag, round_index, job_index, job)
                    record = None
                    if key in self.record_offsets:
                        start = self.record_offsets[key] // recorded.itemsize
                        record = recorded[start:start + RECORD_SIZE * len(job.params["inputs"])]
                    try:
                        failures = oracle.check(job, out_path, record)
                    except Exception as exc:  # a malformed artifact fails its job
                        failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
                if failures:
                    failed += 1
                    messages.append(f"{self.workload} round {round_index} job {job_index}: {failures[:3]}")
        if oracle.mc_z:
            log(f"Monte-Carlo checks: {len(oracle.mc_z)}, max |z| {max(abs(z) for z in oracle.mc_z):.2f}")
        return attempted, failed, messages


def setup_probe(workload: str, root: Path, workdir: Path) -> float:
    """Seconds a fresh interpreter takes to import the CLI and finish a warm-up job."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(workdir)],
        cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment(root: Path) -> dict:
    import numpy

    env = {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__}
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        env["git"] = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return env


def reference_work() -> float:
    """Fixed work independent of the program, in the program's style.

    Vector math on a thousand points (as in quadrature), small dense linear
    algebra (as in the 8x8 pipeline) and plain interpreter work.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 1024)
    m = np.eye(4, dtype=complex)
    acc = 0.0
    for i in range(40):
        acc += float(np.dot(np.sin(x * i), np.exp(-x)))
        acc += float(np.linalg.eigvalsh(m * (i + 1))[0])
        acc += sum(j * j for j in range(100))
    return acc


class MachineSpeed:
    """Rescales measured times to the calibration machine's speed.

    Other tenants of a shared machine slow it by up to half, in spells that
    last from a fraction of a second to minutes; the same figure job takes
    27 ms in one second and 50 ms in the next.  ``reference_work`` is timed
    about every ``every_s`` of job time, and each job or set-up time is
    multiplied by REFERENCE_S over the median reference time within
    ``window_s`` of it, so a slow spell moves the reference and the job
    alike and cancels.  A change to the program leaves the reference as it
    was.
    """

    def __init__(self, every_s: float, window_s: float, min_samples: int = 5):
        self.every_s = every_s
        self.window_s = window_s
        self.min_samples = min_samples
        self.samples = []         # (midpoint, seconds)
        self.pending = 0.0
        for _ in range(min_samples):
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append((0.5 * (start + end), end - start))

    def after(self, elapsed: float) -> None:
        self.pending += elapsed
        if self.pending >= self.every_s:
            self.pending = 0.0
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median reference time near ``at``."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - at))
        window = [v for t, v in near if abs(t - at) <= 0.5 * self.window_s]
        if len(window) < self.min_samples:
            window = [v for _, v in near[: self.min_samples]]
        return REFERENCE_S / statistics.median(window)


def end_to_end(runner: Runner, workload: str, seconds: float, root: Path, workdir: Path) -> dict:
    def probe():
        start = time.perf_counter()
        value = setup_probe(workload, root, workdir)
        setup.append((0.5 * (start + time.perf_counter()), value))

    runner.run_round(0, "w")   # warm-up: lazy imports and first-call paths
    speed = runner.speed = MachineSpeed(REFERENCE_EVERY_S, REFERENCE_WINDOW_S)
    setup = []                 # probes are spread over the run, between rounds
    probe()
    jobs = []
    job_time = 0.0
    round_index = 1
    while job_time < seconds or len(jobs) < MIN_JOBS:
        timings = runner.run_round(round_index, "t")
        jobs += timings
        job_time += sum(t for _, t in timings)
        round_index += 1
        if len(setup) < SETUP_PROBES and job_time >= len(setup) * seconds / SETUP_PROBES:
            probe()
            speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        probe()
        speed.sample()
    runner.speed = None
    latencies = [t * speed.scale(at) for at, t in jobs]
    setup_s = [t * speed.scale(at) for at, t in setup]
    raw = [t for _, t in jobs]
    log(f"{len(jobs)} jobs in {round_index - 1} rounds; raw: {len(raw) / sum(raw):.4f} jobs/s, "
        f"p50 {1e3 * percentile(raw, 0.5):.3f} ms, setup {statistics.median(t for _, t in setup):.4f} s; "
        f"{len(speed.samples)} reference samples, median {1e3 * statistics.median(v for _, v in speed.samples):.3f} ms")
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": 1e3 * percentile(latencies, 0.5),
        "job_p90_ms": 1e3 * percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s),
    }


def traced(runner: Runner, workload: str, root: Path) -> dict:
    """Per-layer metrics over TRACE_ROUNDS rounds, each run untraced and then traced.

    The untraced and traced runs of a round are back to back and both are
    scaled by ``MachineSpeed``, so a slow spell of the machine does not show
    as tracing overhead.
    """
    from tracing import Tracer

    runner.run_round(0, "w")
    speed = runner.speed = MachineSpeed(REFERENCE_EVERY_S, REFERENCE_WINDOW_S)
    tracer = Tracer()
    untraced, traced_jobs = [], []
    for r in range(1, TRACE_ROUNDS[workload] + 1):
        untraced += runner.run_round(r, "u")
        tracer.install()
        runner.tracer = tracer
        try:
            traced_jobs += runner.run_round(r, "t")
        finally:
            runner.tracer = None
            tracer.uninstall()
    speed.sample()
    runner.speed = None
    untraced_s = sum(t * speed.scale(at) for at, t in untraced)
    traced_s = sum(t * speed.scale(at) for at, t in traced_jobs)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-{runner.seed}.jsonl"
    tracer.write(str(trace_path))
    log(f"{len(tracer.spans)} spans written to {trace_path.relative_to(root)}; "
        f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s (scaled)")
    return tracer.metrics(traced_s - untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dfsteleport" / "__init__.py").is_file():
        log(f"no dfsteleport sources under {src}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    import dfsteleport

    if Path(dfsteleport.__file__).resolve().parent != (src / "dfsteleport").resolve():
        log(f"imported dfsteleport from {dfsteleport.__file__}, not from {src}")
        return 2
    log(json.dumps({"workload": args.workload, "seed": args.seed, **environment(root)}))

    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics = traced(runner, args.workload, root)
        else:
            values = end_to_end(runner, args.workload, args.seconds, root, workdir)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        attempted, failed, messages = runner.check()
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for message in messages[:20]:
        log(message)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
