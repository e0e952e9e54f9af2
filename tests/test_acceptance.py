"""Acceptance suite: one test per contract criterion, pass/fail line each.

Shared desk-scale batches are solved once per session (in parallel worker
processes) and reused across criteria. Tolerances are pinned here and nowhere
else; nothing is deferred to later calibration.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mcsp import driver
from mcsp.baselines import run_pba, solve_exact
from mcsp.cli import default_threads, main
from mcsp.columns import enumerate_columns
from mcsp.costs import check_feasibility, evaluate
from mcsp.driver import SolveReport, naive_round, run_rcga
from mcsp.generator import GeneratorConfig, generate_instance
from mcsp.instance import build_request_index, save_instance

import random
from pathlib import Path

from conftest import random_duals, random_tiny_instance
from reference import build_graph, pool_entries, reduced_cost, shortest_path

DATA = Path(__file__).parent / "data"

N_DESK = 50  # per cell layout; criterion 5 runs 100 desk instances total
N_GAP = 20  # criterion 6
N_SWEEP_SEEDS = 4  # criterion 8
RHO_B_LEVELS = (0.1, 0.15, 0.2, 0.25, 0.3)
RHO_B_BINDING = 0.04  # backhaul binds at the 7-cell desk size (criterion 8b)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    # write past pytest's capture so the line shows for passing tests too
    import sys

    print(
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}",
        file=sys.__stdout__,
    )


def desk_cfg(cells: str, seed: int, rho_b: float = 0.3) -> dict:
    if cells == "3-cell":
        contents, requests = 100, 500
    else:
        contents, requests = 200, 2000
    return {
        "cells": cells,
        "num_contents": contents,
        "num_requests": requests,
        "horizon": 12,
        "rho_m": 0.4,
        "rho_tt": 1.0,
        "rho_b": rho_b,
        "seed": seed,
    }


def _solve_job(payload):
    algo, cfg_doc = payload
    inst = generate_instance(GeneratorConfig(**cfg_doc))
    if algo == "rcga":
        report = run_rcga(inst)
    elif algo == "nrs":
        report = naive_round(inst)
    elif algo == "pba":
        report = run_pba(inst)
    else:
        raise ValueError(algo)
    return cfg_doc, report.to_dict()


def _run_batch(jobs):
    workers = min(default_threads(), 4)
    out = []
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cfg_doc, doc in pool.map(_solve_job, jobs):
                out.append((cfg_doc, SolveReport.from_dict(doc)))
    else:
        for job in jobs:
            cfg_doc, doc = _solve_job(job)
            out.append((cfg_doc, SolveReport.from_dict(doc)))
    return out


@pytest.fixture(scope="session")
def batch3():
    jobs = [("rcga", desk_cfg("3-cell", seed)) for seed in range(1, N_DESK + 1)]
    return _run_batch(jobs)


@pytest.fixture(scope="session")
def batch7():
    jobs = [("rcga", desk_cfg("7-cell", seed)) for seed in range(1, N_DESK + 1)]
    return _run_batch(jobs)


@pytest.fixture(scope="session")
def nrs7():
    jobs = [("nrs", desk_cfg("7-cell", seed)) for seed in range(1, N_DESK + 1)]
    return _run_batch(jobs)


@pytest.fixture(scope="session")
def pba40(batch3, batch7):
    jobs = [("pba", desk_cfg("3-cell", seed)) for seed in range(1, N_GAP + 1)]
    jobs += [("pba", desk_cfg("7-cell", seed)) for seed in range(1, N_GAP + 1)]
    return _run_batch(jobs)


@pytest.fixture(scope="session")
def sweep8():
    jobs = [
        ("rcga", desk_cfg("7-cell", seed, rho_b=rho_b))
        for seed in range(1, N_SWEEP_SEEDS + 1)
        for rho_b in RHO_B_LEVELS
    ]
    return _run_batch(jobs)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_pricing_oracle():
    """DAG shortest path equals brute-force min reduced cost, 200 trials,
    T <= 6, both settlement modes, |delta| <= 1e-6, under 30 s. The duals
    are drawn wider than any master solve would give, on purpose."""
    start = time.perf_counter()
    rng = random.Random(2024)
    trials, checks, max_delta, failures = 200, 0, 0.0, []
    for n in range(trials):
        inst = random_tiny_instance(rng, horizon_max=6)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst, pi_lo=0.0)
        columns = enumerate_columns(inst.horizon)
        for mode in ("paper", "min"):
            for h in range(1, inst.num_servers + 1):
                for i in range(1, inst.num_contents + 1):
                    expect = min(reduced_cost(col, h, i, duals, idx, mode=mode) for col in columns)
                    got = shortest_path(build_graph(h, i, duals, inst, idx, mode=mode)).path_value
                    checks += 1
                    max_delta = max(max_delta, abs(got - expect))
                    if abs(got - expect) > 1e-6:
                        failures.append(f"trial {n} pair ({h},{i}) mode {mode}: "
                                        f"path {got} vs brute force {expect}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _verdict(
        "1 pricing-oracle",
        ok,
        f"{checks} checks over {trials} trials, max |delta| {max_delta:.2e}, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 30.0


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_bijection():
    """For T <= 5: every valid column's path length equals its reduced cost
    and every source-sink path decodes to a valid column (exhaustive)."""
    from reference import column_is_valid

    rng = random.Random(555)
    checked_paths = 0
    for horizon in range(1, 6):
        inst = None
        while inst is None or inst.horizon != horizon:
            inst = random_tiny_instance(rng, horizon_max=horizon)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst, pi_lo=0.0)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                graph = build_graph(h, i, duals, inst, idx)
                succ = {}
                for u, v, w, _ in graph.arcs():
                    succ.setdefault(u, []).append((v, w))
                lengths = {}

                def walk(node, acc, cols):
                    nonlocal checked_paths
                    if node == ("sink",):
                        col = tuple(cols)
                        assert column_is_valid(col)
                        assert col not in lengths  # one path per column
                        lengths[col] = acc
                        checked_paths += 1
                        return
                    for nxt, w in succ.get(node, []):
                        step = []
                        if nxt[0] == "cached":
                            step = [(1, 1) if nxt[2] == 0 else (1, 0)]
                        elif nxt[0] == "uncached":
                            step = [(0, 0)]
                        walk(nxt, acc + w, cols + step)

                walk(("source",), 0.0, [])
                expected = set(enumerate_columns(horizon))
                assert set(lengths) == expected
                for col, length in lengths.items():
                    rc = reduced_cost(col, h, i, duals, idx, mode="paper")
                    assert abs(length - rc) <= 1e-6
    _verdict("2 bijection", True, f"{checked_paths} paths matched over T=1..5")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_sandwich(tiny1):
    """100 random toy instances: LB <= exact <= RCGA (deadline settlement)
    and repaired RCGA >= flexible exact, zero violations; the canonical
    fixture lands exactly on 3."""
    rng = random.Random(7)
    slop = lambda v: 1e-6 * (1 + abs(v))
    trials, failures = 100, []
    for n in range(1, trials + 1):
        inst = random_tiny_instance(rng)
        rcga = run_rcga(inst, mode="paper")
        lb, settled, repaired = rcga.lower_bound, rcga.settled_cost.total, rcga.cost.total
        exact = solve_exact(inst, "paper").cost.total
        flexible = solve_exact(inst, "min").cost.total
        for name, ok in (("lb <= exact", lb <= exact + slop(lb)),
                         ("exact <= rcga settled", exact <= settled + slop(exact)),
                         ("rcga repaired >= flexible exact", repaired >= flexible - slop(flexible)),
                         ("flexible exact <= deadline exact", flexible <= exact + slop(flexible))):
            if not ok:
                failures.append(f"trial {n}: {name} violated (lb={lb}, exact={exact}, "
                                f"settled={settled}, repaired={repaired}, flexible={flexible})")
    rcga = run_rcga(tiny1)
    exact = solve_exact(tiny1, "paper")
    tiny_ok = (
        abs(rcga.lower_bound - 3.0) <= 1e-9
        and abs(exact.cost.total - 3.0) <= 1e-9
        and abs(rcga.settled_cost.total - 3.0) <= 1e-9
        and abs(rcga.cost.total - 3.0) <= 1e-9
    )
    _verdict(
        "3 sandwich",
        not failures and tiny_ok,
        f"{trials} trials, {len(failures)} violations, "
        f"fixture LB=exact=RCGA=3 {'ok' if tiny_ok else 'BROKEN'}",
    )
    assert not failures, failures[:3]
    assert tiny_ok


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_integrality_equivalence(batch3, batch7, monkeypatch):
    """The likelihood/weight integrality equivalence is asserted inside every
    rounding cycle of every run (a violation raises and fails the batch);
    audited reruns, counting its calls, confirm the check actually executes."""
    checks = 0
    check = driver.chi_integral_iff

    def counted(*args):
        nonlocal checks
        checks += 1
        return check(*args)

    monkeypatch.setattr(driver, "chi_integral_iff", counted)
    rng = random.Random(4)
    for _ in range(6):
        before = checks
        run_rcga(random_tiny_instance(rng))
        assert checks - before >= 1
    audited = checks
    run_rcga(generate_instance(GeneratorConfig(**desk_cfg("3-cell", 99))))
    assert checks - audited >= 1
    n_batch = len(batch3) + len(batch7)
    _verdict(
        "4 integrality-equivalence",
        True,
        f"{audited} audited checks, {n_batch} batch runs all enforced in-run",
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_rcga_feasibility(batch3, batch7):
    """RCGA returns a feasible integer schedule on 100/100 desk instances."""
    failures = 0
    for cfg_doc, report in batch3 + batch7:
        inst = generate_instance(GeneratorConfig(**cfg_doc))
        if not report.feasible or check_feasibility(report.schedule, inst):
            failures += 1
        assert report.rounding_rounds <= cfg_doc["num_contents"] * cfg_doc["horizon"]
    ok = failures == 0
    _verdict("5 rcga-feasibility", ok, f"{len(batch3) + len(batch7) - failures}/100 feasible")
    assert ok


def test_criterion_5_nrs_success_rate(nrs7):
    """Naive whole-column fixing must succeed on at most 90% of the 7-cell
    batch at the stated parameters (rho_b = 0.3, R = 2000).

    NRS fails only by wedging the master infeasible, and only a capacity row
    can do that: the zero column, y <= 1 and the cloud default satisfy every
    other row. At these parameters no capacity row binds (the bound equals
    the bound with capacity relaxed), so NRS cannot wedge and this rate is
    structurally 100%. Where capacity binds (rho_b = 0.04, the same 50
    seeds) NRS wedges on every seed, but it re-runs column generation after
    every single pin and wedges only after 11 to 168 pins: 2.6 to 16.4 s of
    CPU per instance (median 7.3 s), and 224 s of wall time for the batch on
    2 worker processes, measured on a 2-core shared VM running about 2.8
    times slower than its quiet speed (roughly 80 s when quiet). The
    stressed-regime companion test below shows the qualitative claim on a
    smaller binding batch."""
    rate = sum(1 for _, r in nrs7 if r.feasible) / len(nrs7)
    ok = rate <= 0.90
    _verdict("5 nrs-success-rate", ok, f"NRS succeeded on {rate:.0%} of the 7-cell batch")
    assert ok, (
        f"NRS success rate {rate:.0%} exceeds 90%: at rho_b = 0.3 no capacity "
        "row binds, so naive fixing cannot wedge the master"
    )


def test_nrs_breaks_under_capacity_stress():
    """Companion to criterion 5: where capacity genuinely binds, naive
    whole-column fixing wedges the master while the likelihood rounding
    stays feasible."""
    jobs = []
    for seed in (1, 2, 3, 4):
        cfg = desk_cfg("7-cell", seed)
        cfg.update(num_contents=100, num_requests=1000, rho_b=0.05)
        cfg["cache_scale"] = 0.22
        jobs.append(("nrs", cfg))
        jobs.append(("rcga", cfg))
    results = _run_batch(jobs)
    nrs_fail = sum(1 for (c, r) in results[0::2] if not r.feasible)
    rcga_ok = all(r.feasible for c, r in results[1::2])
    _verdict(
        "5b stressed companion",
        nrs_fail >= 2 and rcga_ok,
        f"NRS failed {nrs_fail}/4 stressed instances, RCGA 4/4 feasible",
    )
    assert rcga_ok
    assert nrs_fail >= 2


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_gap(batch3):
    """20 seeded 3-cell instances: mean gap <= 2.5%, max <= 6%."""
    gaps = [report.gap for _, report in batch3[:N_GAP]]
    mean_gap = sum(gaps) / len(gaps)
    max_gap = max(gaps)
    ok = mean_gap <= 0.025 and max_gap <= 0.06
    _verdict("6 optimality-gap", ok, f"mean {mean_gap:.4%}, max {max_gap:.4%} over {len(gaps)} runs")
    assert mean_gap <= 0.025
    assert max_gap <= 0.06
    assert all(g >= -1e-6 for g in gaps)


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_pba_dominance(batch3, batch7, pba40):
    """RCGA total <= PBA total on at least 95% of the 40 shared instances."""
    rcga = {tuple(sorted(c.items())): r for c, r in batch3[:N_GAP] + batch7[:N_GAP]}
    wins = 0
    for cfg_doc, pba_report in pba40:
        rcga_report = rcga[tuple(sorted(cfg_doc.items()))]
        if rcga_report.cost.total <= pba_report.cost.total + 1e-9:
            wins += 1
    ok = wins >= math.ceil(0.95 * len(pba40))
    _verdict("7 pba-dominance", ok, f"RCGA at or below PBA on {wins}/{len(pba40)} instances")
    assert ok


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_backhaul_trend(sweep8):
    """Per matched seed: total non-increasing in rho_b, download share
    non-increasing, share zero at the top level on at least half the seeds.

    At these levels no capacity row binds (the bound is the same across the
    sweep). Capacity rows join the master only once a fixpoint primal
    violates them, so each level solves the same LP sequence and the
    schedule is the same at every level; a capacity that binds at no optimum
    must not change the outcome. The companion test below shows the trend
    where backhaul binds."""
    by_seed: dict[int, list] = {}
    for cfg_doc, report in sweep8:
        by_seed.setdefault(cfg_doc["seed"], []).append((cfg_doc["rho_b"], report))
    zero_at_top = 0
    monotone_seeds = 0
    share_ok = True
    for seed, rows in sorted(by_seed.items()):
        rows.sort(key=lambda kv: kv[0])
        totals = [r.cost.total for _, r in rows]
        shares = [
            (r.cost.download_cost / r.cost.total) if r.cost.total else 0.0
            for _, r in rows
        ]
        if all(b <= a + 1e-6 * (1 + abs(a)) for a, b in zip(totals, totals[1:])):
            monotone_seeds += 1
        share_ok &= all(b <= a + 1e-9 for a, b in zip(shares, shares[1:]))
        if shares[-1] <= 1e-12:
            zero_at_top += 1
    n = len(by_seed)
    ok = monotone_seeds == n and share_ok and zero_at_top * 2 >= n
    _verdict(
        "8 backhaul-trend",
        ok,
        f"totals non-increasing on {monotone_seeds}/{n} seeds, shares "
        f"{'monotone' if share_ok else 'NOT monotone'}, zero download share "
        f"at rho_b=0.3 on {zero_at_top}/{n}",
    )
    assert share_ok
    assert zero_at_top * 2 >= n
    assert monotone_seeds == n, (
        f"only {monotone_seeds}/{n} seeds monotone: a backhaul level that "
        "binds at no optimum changed the schedule"
    )


def test_backhaul_trend_where_it_binds():
    """Companion to criterion 8: with the capacity levels scaled the same
    way the request count was, the low end genuinely binds and the trend is
    unmistakable: costs drop steeply, the download share is positive under
    pressure, falls monotonically, and hits zero once backhaul is ample."""
    jobs = [
        ("rcga", dict(desk_cfg("7-cell", seed, rho_b=rho_b)))
        for seed in (1, 2)
        for rho_b in (RHO_B_BINDING, 0.08, 0.12)
    ]
    results = _run_batch(jobs)
    by_seed: dict[int, list] = {}
    for cfg_doc, report in results:
        by_seed.setdefault(cfg_doc["seed"], []).append((cfg_doc["rho_b"], report))
    for seed, rows in sorted(by_seed.items()):
        rows.sort(key=lambda kv: kv[0])
        totals = [r.cost.total for _, r in rows]
        shares = [r.cost.download_cost / r.cost.total for _, r in rows]
        assert totals[0] > totals[1] * 1.05, "expected a steep drop off the binding level"
        assert totals[1] >= totals[2] - 1e-6 * (1 + totals[1])
        assert shares[0] > 0.05
        assert all(b <= a + 1e-9 for a, b in zip(shares, shares[1:]))
        assert shares[-1] <= 1e-12
    _verdict(
        "8b binding companion",
        True,
        "steep cost drop and download share reaching zero on every seed",
    )


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_independent_evaluator(batch3, batch7, pba40, nrs7, tmp_path):
    """The evaluator reproduces every report's cost decomposition to 1e-9
    relative and finds zero feasibility violations."""
    reports = batch3 + batch7 + pba40 + [(c, r) for c, r in nrs7 if r.feasible]
    checked = 0
    for cfg_doc, report in reports:
        inst = generate_instance(GeneratorConfig(**cfg_doc))
        assert check_feasibility(report.schedule, inst) == []
        repaired = evaluate(report.schedule, inst, "min")
        settled = evaluate(report.schedule, inst, report.settlement_mode)
        for got, want in ((repaired, report.cost), (settled, report.settled_cost)):
            for name in ("aoi_cost", "download_cost", "update_cost", "total"):
                g, w = getattr(got, name), getattr(want, name)
                assert abs(g - w) <= 1e-9 * (1 + abs(w)), f"{name}: {g} vs {w}"
        checked += 1
    # the CLI evaluator agrees end to end on a sample
    for cfg_doc, report in (batch3[0], batch7[0], pba40[0]):
        inst = generate_instance(GeneratorConfig(**cfg_doc))
        inst_path = tmp_path / "inst.json"
        rep_path = tmp_path / "report.json"
        save_instance(inst, inst_path)
        import json

        rep_path.write_text(json.dumps(report.to_dict()))
        assert main(["eval", "--instance", str(inst_path), "--schedule", str(rep_path)]) == 0
    _verdict("9 evaluator", True, f"{checked} reports re-costed identically")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_runtime(batch7):
    """Every 7-cell desk solve fits the 60 s budget (stated for an 8-core
    desktop; asserted on whatever this host is)."""
    times = [report.wall_time_s for _, report in batch7]
    ok = max(times) <= 60.0
    _verdict(
        "10 runtime",
        ok,
        f"7-cell walls: median {sorted(times)[len(times) // 2]:.1f}s, max {max(times):.1f}s",
    )
    assert ok


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_termination(tiny1, monkeypatch):
    """At the end of a run every pool column prices at or above -1e-6 and the
    rounding pass count respects the contents x horizon bound."""
    instances = [
        tiny1,
        generate_instance(GeneratorConfig(**desk_cfg("3-cell", 3))),
    ]
    rng = random.Random(11)
    instances += [random_tiny_instance(rng) for _ in range(4)]
    final = {}
    decode = driver.decode_schedule

    def capture(pool, sol):
        final.update(pool=pool, solution=sol)
        return decode(pool, sol)

    monkeypatch.setattr(driver, "decode_schedule", capture)
    worst = math.inf
    for inst in instances:
        final.clear()
        report = run_rcga(inst)
        assert report.rounding_rounds <= inst.num_contents * inst.horizon
        pool, duals = final["pool"], final["solution"].duals
        for (h, i), entries in pool_entries(pool).items():
            for entry in entries:
                rc = reduced_cost(entry.column, h, i, duals, pool.idx, cost_S=entry.cost)
                worst = min(worst, rc)
                assert rc >= -1e-6
    _verdict("11 termination", True, f"worst final pool reduced cost {worst:.2e}")


def test_criterion_summary(batch3, batch7):
    """Aggregate status line for quick scanning."""
    gaps = [r.gap for _, r in batch3 + batch7]
    _verdict(
        "summary",
        True,
        f"{len(gaps)} desk runs, mean gap {sum(gaps) / len(gaps):.4%}, "
        f"max gap {max(gaps):.4%}",
    )
