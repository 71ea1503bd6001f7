"""Acceptance suite: one test per release criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import time

import numpy as np

from conftest import random_bloch, random_pure_pair, random_werner

from dfsteleport import cli, experiments
from dfsteleport.experiments import (
    DEVIATION_FLAG,
    TABLE1_PRINTED,
    TABLE2_PRINTED,
    TABLE3_PRINTED,
    figure_curve,
)
from dfsteleport.metrics import (
    average_fts_analytic,
    average_fts_numeric,
    bloch_fidelity_fn,
)
from dfsteleport.noisekernel import NoiseParams, cumulative_decay, factors_at
from dfsteleport.protocol import (
    BELL_ORDER,
    BellOutcome,
    PurePair,
    Strategy,
    Werner,
    analytic_branch_states,
    classical_bits_for,
    run_protocol,
    run_with_factors,
)
from dfsteleport.qlinalg import BlochAngles
from dfsteleport.reference import brute_force_run

TWO_PI = 2.0 * np.pi
SQRT_HALF = 1.0 / np.sqrt(2.0)
FLOAT_SLACK = 1e-9  # printed-value comparisons sit exactly on tolerance edges


def _criterion(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:2d}] {status}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _col(table, name):
    return table.headers.index(name)


def test_criterion_01_werner_tables():
    failures = []
    start = time.perf_counter()
    tables = {2: (experiments.table(2), TABLE2_PRINTED), 3: (experiments.table(3), TABLE3_PRINTED)}
    elapsed = time.perf_counter() - start
    for which, (table, printed) in tables.items():
        for row in table.rows:
            p = row[0]
            c_printed, b_printed, f_printed = printed[p]
            dev_c = abs(row[_col(table, "concurrence_computed")] - c_printed)
            dev_b = abs(row[_col(table, "b_max_computed")] - b_printed)
            dev_f = abs(row[_col(table, "avg_fidelity_computed")] - f_printed)
            if dev_c > 0.005 + FLOAT_SLACK:
                failures.append(f"table {which} p={p}: concurrence off by {dev_c:.4g}")
            if dev_b > 0.01 + FLOAT_SLACK:
                failures.append(f"table {which} p={p}: b_max off by {dev_b:.4g}")
            if dev_f > 0.015 + FLOAT_SLACK:
                failures.append(f"table {which} p={p}: fidelity off by {dev_f:.4g}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _criterion(1, "Werner tables match printed values (C +-0.005, B +-0.01, F +-0.015) in <1s", failures)


def test_criterion_02_pure_table():
    failures = []
    start = time.perf_counter()
    table = experiments.table(1)
    elapsed = time.perf_counter() - start
    matched = {0.1, 0.2, 0.3, 0.7, 0.8, 0.9, 1.0}
    flagged_f = {0.4, 0.5}
    low_b = {0.1, 0.2, 0.3, 0.4, 0.5}
    for row in table.rows:
        c = row[0]
        _, f_printed = TABLE1_PRINTED[c]
        dev_f = abs(row[_col(table, "avg_fidelity_computed")] - f_printed)
        f_flag = row[_col(table, "avg_fidelity_flag")]
        b_flag = row[_col(table, "b_max_flag")]
        if c in matched and dev_f > 0.01 + FLOAT_SLACK:
            failures.append(f"C={c}: fidelity off by {dev_f:.4g}")
        if c in flagged_f and f_flag != DEVIATION_FLAG:
            failures.append(f"C={c}: missing fidelity deviation flag")
        if c in matched and f_flag == DEVIATION_FLAG:
            failures.append(f"C={c}: spurious fidelity deviation flag")
        if c in low_b and b_flag != DEVIATION_FLAG:
            failures.append(f"C={c}: missing b_max deviation flag")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _criterion(2, "pure table fidelities match (+-0.01) with documented-deviation flags, <1s", failures)


def test_criterion_03_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(2024)
    worst = 0.0
    for draw in range(500):
        ang = random_bloch(rng)
        resource = random_pure_pair(rng) if draw % 2 == 0 else random_werner(rng)
        factors = factors_at(
            NoiseParams(rng.uniform(0.0, 1.0), rng.uniform(0.01, 5.0)),
            NoiseParams(rng.uniform(0.0, 1.0), rng.uniform(0.01, 5.0)),
            rng.uniform(0.0, 4.0 * np.pi),
        )
        run = brute_force_run(ang, resource, factors)
        states = analytic_branch_states(ang, resource, factors)
        for outcome in BELL_ORDER:
            diff = float(np.max(np.abs(run.branch(outcome).bob_paper_scaled.mat - states[outcome].mat)))
            worst = max(worst, diff)
            if diff > 1e-12:
                failures.append(f"draw {draw} {outcome.value}: max deviation {diff:.3e}")
    _criterion(3, f"brute-force 8x8 pipeline = closed-form branch states over 500 draws (worst {worst:.2e})", failures)


def test_criterion_04_dfs_invariance():
    failures = []
    ang = BlochAngles(theta=1.1, phi=0.8)
    bob = NoiseParams(gamma=0.1, lambda_c=0.02)
    tau = TWO_PI
    for resource in (PurePair(0.6, 0.8), Werner(0.85)):
        reference = None
        for gamma_a in (0.0, 0.1, 0.5, 2.0):
            for lam_a in (0.01, 1.0):
                for temp_a in (0.0, 1.0):
                    run = run_protocol(ang, resource, NoiseParams(gamma_a, lam_a, temp_a), bob, tau)
                    snapshot = []
                    for outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS):
                        branch = run.branch(outcome)
                        snapshot.append(branch.bob_conditional.mat)
                        snapshot.append(branch.bob_output.mat)
                        snapshot.append(np.array([branch.probability, branch.fidelity_vs_input,
                                                  branch.fidelity_paper]))
                    snapshot.append(np.array([average_fts_analytic(resource, run.factors.b)]))
                    if reference is None:
                        reference = snapshot
                        continue
                    drift = max(
                        float(np.max(np.abs(got - ref)))
                        for got, ref in zip(snapshot, reference)
                    )
                    if drift > 1e-12:
                        failures.append(
                            f"{type(resource).__name__} gammaA={gamma_a} lamA={lam_a} T={temp_a}: drift {drift:.3e}"
                        )
    _criterion(4, "psi branches and reported fidelities invariant over the sender-noise grid (<=1e-12)", failures)


def test_criterion_05_quadrature_vs_closed_form():
    failures = []
    gammas = (0.05, 0.1, 0.3, 1.0, 2.0)
    lams = (0.01, 0.05, 0.2, 1.0, 5.0)
    taus = np.geomspace(0.1, 12.0 * np.pi, 8)
    count = 0
    for gamma in gammas:
        for lam in lams:
            for tau in taus:
                count += 1
                p = NoiseParams(gamma=gamma, lambda_c=lam)
                closed = 2.0 * gamma * np.log1p((lam * tau) ** 2)
                quad = cumulative_decay(p, float(tau), method="quadrature")
                rel = abs(quad - closed) / abs(closed)
                if rel > 1e-6:
                    failures.append(f"gamma={gamma} lam={lam} tau={tau:.3g}: rel err {rel:.2e}")
    assert count == 200
    _criterion(5, "numerical cumulative decay matches 2*gamma*ln(1+L^2 tau^2) to 1e-6 over a 200-point grid", failures)


def test_criterion_06_average_fidelity_triangle():
    failures = []
    rng = np.random.default_rng(777)
    for kind in ("pure", "werner"):
        for i in range(20):
            resource = random_pure_pair(rng) if kind == "pure" else random_werner(rng)
            factors = factors_at(
                NoiseParams(rng.uniform(0.0, 0.5), rng.uniform(0.01, 2.0)),
                NoiseParams(rng.uniform(0.0, 0.5), rng.uniform(0.01, 2.0)),
                rng.uniform(0.0, 10.0),
            )
            analytic = float(average_fts_analytic(resource, factors.b))
            fn = bloch_fidelity_fn(resource, factors, "paper")
            quad = average_fts_numeric(fn, "quadrature")
            mc = average_fts_numeric(fn, "montecarlo", samples=100_000, seed=rng)
            if abs(quad.value - analytic) > 1e-8:
                failures.append(f"{kind} {i}: quadrature off by {abs(quad.value - analytic):.2e}")
            if abs(mc.value - analytic) > 3.0 * max(mc.stderr, 1e-15):
                failures.append(
                    f"{kind} {i}: montecarlo off by {abs(mc.value - analytic):.2e} vs 3*stderr {3 * mc.stderr:.2e}"
                )
    _criterion(6, "analytic/quadrature/Monte-Carlo averages agree (1e-8; 3 stderr) for 20 configs per resource", failures)


def test_criterion_07_noiseless_limits():
    failures = []
    no_noise = NoiseParams(gamma=0.0, lambda_c=1.0)
    resources = (PurePair(SQRT_HALF, SQRT_HALF), Werner(1.0))
    for resource in resources:
        for tau in np.linspace(0.0, 6.0 * np.pi, 49):
            b = factors_at(no_noise, no_noise, float(tau)).b
            got = float(average_fts_analytic(resource, b))
            want = 2.0 / 3.0 + np.cos(tau) / 3.0
            if abs(got - want) > 1e-14:
                failures.append(f"{type(resource).__name__} tau={tau:.3f}: off by {abs(got - want):.2e}")
        for n in (1, 2, 3, 4, 5):
            b = factors_at(no_noise, no_noise, n * TWO_PI).b
            got = float(average_fts_analytic(resource, b))
            if abs(got - 1.0) > 1e-14:
                failures.append(f"{type(resource).__name__} tau=2*{n}*pi: F={got!r}")
    _criterion(7, "zero receiver coupling gives F = 2/3 + cos(tau)/3 with F(2n*pi) = 1 to machine precision", failures)


def _interior_maxima(curve: np.ndarray):
    taus, vals = curve[:, 0], curve[:, 1]
    out = []
    for i in range(1, len(taus) - 1):
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]:
            out.append((taus[i], vals[i]))
    return out


def test_criterion_08_figure_properties():
    failures = []
    for which, panel in ((2, "a"), (2, "b"), (2, "c"), (2, "d"), (3, "a"), (3, "b"), (3, "c"), (3, "d")):
        curve = np.array(figure_curve(which, panel).rows)
        maxima = _interior_maxima(curve)
        values = [v for _, v in maxima]
        if not all(values[i] > values[i + 1] for i in range(len(values) - 1)):
            failures.append(f"figure {which}{panel}: successive maxima not decreasing")
        if which == 2 and panel == "a":
            for tau, _ in maxima:
                n = round(tau / TWO_PI)
                if abs(tau - n * TWO_PI) > 0.2:
                    failures.append(f"figure 2a: maximum at {tau:.3f} not within 0.2 of 2n*pi")
            window = curve[(curve[:, 0] > 0.0) & (curve[:, 0] <= 6.0 * np.pi)]
            if window[:, 1].max() <= 0.9:
                failures.append("figure 2a: no point above 0.9 on (0, 6pi]")
        if which == 3 and panel == "a":
            window = curve[(curve[:, 0] > 0.0) & (curve[:, 0] <= 4.0 * np.pi)]
            if window[:, 1].max() < 0.9:
                failures.append("figure 3a: maximum below 0.9 on (0, 4pi]")
    _criterion(8, "figure curves: maxima near 2n*pi, >0.9 / >=0.9 windows, monotone decay in all panels", failures)


def test_criterion_09_communication_cost():
    failures = []
    flat = {o: 0.25 for o in BELL_ORDER}
    if classical_bits_for(flat, Strategy.RETAIN_PSI_ONLY) != 1.5:
        failures.append("grouped entropy at exactly uniform probabilities is not exactly 1.5")
    rng = np.random.default_rng(15)
    for _ in range(10):
        run = run_with_factors(
            random_bloch(rng),
            random_werner(rng),
            factors_at(NoiseParams(0.3, 0.7), NoiseParams(0.2, 0.4), 3.0),
        )
        if abs(run.classical_bits - 1.5) > 1e-12:
            failures.append(f"uniform-probability run reports {run.classical_bits!r} bits")
    _criterion(9, "classical cost is 1.5 bits whenever branch probabilities are uniform", failures)


def test_criterion_10_determinism(tmp_path):
    failures = []
    cfg = {
        "resource": {"kind": "pure", "concurrence": 0.8},
        "bob_noise": {"gamma": 0.1, "lambda_c": 0.01},
        "tau": TWO_PI,
        "seed": 42,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    pairs = []
    for name, argv in (
        ("run-json", ["run", "--config", str(cfg_path)]),
        ("table-csv", ["table", "3"]),
        ("figure-csv", ["figure", "3", "--panel", "c"]),
    ):
        outs = []
        for attempt in (1, 2):
            out = tmp_path / f"{name}-{attempt}"
            assert cli.main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        pairs.append((name, outs))
    for name, (first, second) in pairs:
        if first != second:
            failures.append(f"{name}: artifacts differ between consecutive runs")
    _criterion(10, "identical config and seed produce byte-identical CSV/JSON artifacts", failures)
