import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from mcsp import driver
from mcsp.baselines import run_pba, solve_exact
from mcsp.columns import ColumnPool
from mcsp.costs import derive_assignment, evaluate
from mcsp.driver import (
    Solve,
    SolveReport,
    _next_pin,
    compute_gap,
    naive_round,
    report_costs,
    run_cga,
    run_lower_bound,
    run_rcga,
)
from mcsp.generator import GeneratorConfig, generate_instance
from mcsp.instance import build_request_index
from mcsp.rmp import MasterBasis, RmpSolution
from mcsp.rounding import TOL_INT, RoundingState

from conftest import TWO_CELL, all_capacity_rows, by_pair, random_tiny_instance
from reference import add_column, pool_columns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import toy_configs  # noqa: E402


def test_tiny1_cga_fixpoint(tiny1):
    solve = Solve("lb", tiny1, "paper")
    result = run_cga(solve)
    assert result.solution.objective == pytest.approx(3.0)
    assert result.rounds <= 3
    # idempotence: a cold rerun at the fixpoint, with fresh fixings, no
    # capacity rows and no basis, adds nothing
    cold = Solve("lb", tiny1, "paper")
    cold.pool, cold.statics = solve.pool, solve.statics
    n = solve.pool.total_columns()
    again = run_cga(cold)
    assert solve.pool.total_columns() == n
    assert again.rounds == 1


def test_tiny1_first_pricing_round(tiny1, tiny1_idx):
    from mcsp.pricing import PricingStatics, price_all
    from mcsp.rmp import build_rmp, solve_rmp

    pool = ColumnPool.initial(tiny1_idx, "paper")
    sol = solve_rmp(build_rmp(pool, all_capacity_rows(tiny1)), MasterBasis())
    assert sol.objective == pytest.approx(23.0)
    statics = PricingStatics(tiny1_idx, "paper", np.arange(len(tiny1_idx.pairs)))
    cands = price_all(pool, sol.duals, statics, RoundingState(tiny1))
    assert by_pair(cands, tiny1_idx.pairs) == {
        (1, 1): (((1, 1), (1, 0)), pytest.approx(3.0 - 23.0))}


def test_tiny1_rcga(tiny1):
    report = run_rcga(tiny1)
    assert report.cost.total == pytest.approx(3.0)
    assert report.settled_cost.total == pytest.approx(3.0)
    assert report.lower_bound == pytest.approx(3.0)
    assert report.gap == pytest.approx(0.0, abs=1e-9)
    assert report.feasible


def test_empty_instance_rcga():
    inst = generate_instance(
        GeneratorConfig(cells="3-cell", num_contents=4, num_requests=0, rho_m=0.0, seed=2)
    )
    report = run_rcga(inst)
    assert report.cost.total == 0.0
    assert report.lower_bound == pytest.approx(0.0)
    assert report.gap == pytest.approx(0.0)


def test_rcga_random_tiny_instances():
    rng = random.Random(60)
    for _ in range(12):
        inst = random_tiny_instance(rng)
        report = run_rcga(inst)
        assert report.feasible
        assert report.lower_bound <= report.settled_cost.total + 1e-6 * (
            1 + abs(report.lower_bound)
        )
        assert report.cost.total <= report.settled_cost.total + 1e-9
        assert report.gap >= -1e-6
        assert report.rounding_rounds <= inst.num_contents * inst.horizon


def test_lower_bound_report(tiny1):
    report = run_lower_bound(tiny1)
    assert report.algorithm == "lb"
    assert report.lower_bound == pytest.approx(3.0)
    assert report.cost is None and report.schedule is None


def _draws(seed: int, picks: tuple[int, ...]) -> list:
    """The 0-based draws ``picks`` of ``random_tiny_instance`` from one
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    drawn = [random_tiny_instance(rng) for _ in range(max(picks) + 1)]
    return [drawn[n] for n in picks]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 16: in min mode the pool and the pricing settle a single-choice "
    "request from the copy held at its deadline, capped at the cloud cost, not from "
    "any cached slot of its window, so the column-generation bound can exceed the "
    "min optimum"))
def test_min_bound_below_min_optimum():
    """The ``min``-mode lower bound is at most the ``min``-mode optimum on the
    instances where it is known to exceed it: ``toy-sandwich`` #155 and #94,
    criterion 3's draws #23 and #42, and the report-hash battery's draws #43
    and #52."""
    insts = ([generate_instance(toy_configs()[n]) for n in (155, 94)]
             + _draws(7, (23, 42)) + _draws(2024, (43, 52)))
    above = [(n, bound, optimum) for n, inst in enumerate(insts)
             if (bound := run_lower_bound(inst, "min").lower_bound)
             > (optimum := solve_exact(inst, "min").cost.total) + 1e-9]
    assert above == []


def test_nrs_tiny1_succeeds(tiny1):
    report = naive_round(tiny1)
    assert report.feasible
    assert report.cost.total == pytest.approx(3.0)


def test_nrs_generous_capacity_succeeds():
    inst = generate_instance(
        GeneratorConfig(
            cells="custom", custom_topology=TWO_CELL, num_contents=3,
            num_requests=8, horizon=3, rho_m=0.25, rho_tt=0.0, rho_b=1.0,
            cache_scale=1.0, size_range=(1, 3), seed=11,
        )
    )
    report = naive_round(inst)
    assert report.feasible


def test_nrs_failure_is_recorded_not_raised():
    # tight backhaul makes greedy whole-column fixing risky; whatever the
    # outcome, the call must return a report rather than raise
    rng = random.Random(14)
    outcomes = set()
    for _ in range(20):
        inst = random_tiny_instance(rng)
        report = naive_round(inst)
        outcomes.add(report.feasible)
        if not report.feasible:
            assert report.failure
            assert report.cost is None
    assert True in outcomes


def test_report_roundtrip(tiny1):
    report = run_rcga(tiny1)
    doc = report.to_dict()
    back = SolveReport.from_dict(doc)
    assert back.cost.total == pytest.approx(report.cost.total)
    assert back.schedule == report.schedule
    assert back.assignment == report.assignment
    assert back.lower_bound == report.lower_bound


def test_report_costs_reproduce_every_algorithms_report():
    """``report_costs`` gives the assignment, ``cost`` and ``settled_cost``
    of every report with a schedule, on 60 tiny instances in both modes:
    ``cost`` is the ``min`` repair's (the exact oracle's: its own mode's),
    ``settled_cost`` the run's mode's, and the same object where the two
    settlements agree."""
    rng = random.Random(2024)
    solvers = (("rcga", run_rcga), ("nrs", naive_round), ("exact", solve_exact),
               ("pba", lambda inst, mode: run_pba(inst)))
    checked = 0
    for _ in range(60):
        inst = random_tiny_instance(rng)
        for mode in ("paper", "min"):
            for algorithm, solve in solvers:
                report = solve(inst, mode)
                if report.schedule is None:
                    assert algorithm == "nrs" and not report.feasible
                    continue
                assert report.algorithm == algorithm
                run_mode = report.settlement_mode
                assignment, cost, settled = report_costs(algorithm, inst, report.schedule,
                                                         run_mode)
                assert (assignment, cost, settled) == (
                    report.assignment, report.cost, report.settled_cost)
                own = run_mode if algorithm == "exact" else "min"
                assert assignment == derive_assignment(report.schedule, inst, own)
                assert cost == evaluate(report.schedule, inst, own)
                assert settled == evaluate(report.schedule, inst, run_mode)
                assert (settled is cost) == (own == run_mode)
                checked += 1
    assert checked > 400


def test_compute_gap_edges():
    assert compute_gap(0.0, 0.0) == 0.0
    assert compute_gap(5.0, 0.0) == math.inf
    assert compute_gap(10.0, None) is None
    assert compute_gap(10.3, 10.0) == pytest.approx(0.03)


@pytest.mark.parametrize("mode, wedges", [("paper", [9, 3, 1]), ("min", [7, 3, 1])])
def test_reports_take_the_solves_counts(tiny1, monkeypatch, mode, wedges):
    """Each report's pricing rounds are the sum of its column generation
    runs' rounds, its bound is the first run's objective, and its rounding
    rounds are the runs after the first, plus the run of an NRS pin that
    wedged. On the binding 3-cell 20/150 instances NRS wedges after
    ``wedges`` pins; on tiny1 it reaches a schedule."""
    runs = []
    cga = driver.run_cga

    def recorded(solve, canonical=False):
        runs.append(cga(solve, canonical))
        return runs[-1]

    monkeypatch.setattr(driver, "run_cga", recorded)
    binding = [generate_instance(GeneratorConfig(
        cells="3-cell", num_contents=20, num_requests=150, horizon=6, rho_m=0.4, rho_tt=1.0,
        rho_b=0.05, seed=seed)) for seed in (1, 2, 3)]
    pins = []
    for inst in [tiny1, *binding]:
        for solver in (run_rcga, run_lower_bound, naive_round):
            runs.clear()
            report = solver(inst, mode)
            assert report.pricing_rounds == sum(run.rounds for run in runs)
            assert report.lower_bound == runs[0].solution.objective
            assert report.rounding_rounds == len(runs) - 1 + (not report.feasible)
            if solver is naive_round and not report.feasible:
                pins.append(report.rounding_rounds)
    assert pins == wedges


def test_cga_empty_requests_one_round():
    inst = generate_instance(
        GeneratorConfig(cells="3-cell", num_contents=3, num_requests=0, rho_m=0.0, seed=6)
    )
    result = run_cga(Solve("lb", inst, "paper"))
    assert result.solution.objective == pytest.approx(0.0)
    assert result.rounds == 1


def test_rcga_schedule_independent_of_slack_backhaul():
    """Capacity rows that never bind stay out of the master, so the solve is
    the same LP sequence and returns the same schedule at any slack level."""
    reports = []
    for rho_b in (0.3, 1.0):
        inst = generate_instance(
            GeneratorConfig(
                cells="3-cell", num_contents=100, num_requests=500, horizon=12,
                rho_m=0.4, rho_tt=1.0, rho_b=rho_b, seed=1,
            )
        )
        reports.append(run_rcga(inst))
    low, high = reports
    assert low.schedule == high.schedule
    assert low.lower_bound == high.lower_bound
    assert low.cost.total == high.cost.total


def test_next_pin_is_the_first_largest_fractional_weight():
    """The pin equals the scalar scan over the pairs and their entries in
    pool order that keeps a weight only when strictly larger, on random
    weights drawn from a few values, so that ties and integral weights are
    common."""
    from mcsp.columns import enumerate_columns

    rng = random.Random(17)
    values = [0.0, 1.0, 0.25, 0.5, 0.75, TOL_INT / 2, 1 - TOL_INT / 2]
    pinned = 0
    for _ in range(150):
        inst = random_tiny_instance(rng)
        pool = ColumnPool.initial(build_request_index(inst), "paper")
        columns = enumerate_columns(inst.horizon)
        for key in pool.pairs:
            for col in rng.sample(columns, rng.randint(0, min(3, len(columns)))):
                add_column(pool, *key, col)
        weights = np.array([rng.choice(values) for _ in range(pool.total_columns())])
        sol = RmpSolution(objective=0.0, weights=weights, duals=None, lp=None)
        best, at = None, 0
        for key in pool.pairs:
            for k in range(len(pool_columns(pool, *key))):
                v = weights[at]
                if TOL_INT < v < 1 - TOL_INT and (best is None or v > best[0]):
                    best = (float(v), key, k, at)
                at += 1
        if best is None:
            continue
        j = _next_pin(sol)
        assert j == best[3]
        pair = int(pool.arrays().pair[j])
        assert (pool.pairs[pair], j - int(pool.starts()[pair])) == (best[1], best[2])
        pinned += 1
    assert pinned > 75


def test_decode_schedule_takes_each_pairs_first_largest_weight():
    """The schedule holds, for every pair whose column is not the zero
    column, the column of the pair's first largest weight, as a per-pair
    argmax over its slice of ``sol.weights`` finds it; a pair whose largest
    weight is below one raises ValueError naming the first such pair. The
    fractional cases halve the unit weights of one random pair."""
    from mcsp.columns import enumerate_columns, zero_column
    from mcsp.driver import decode_schedule
    from reference import column_states

    rng = random.Random(19)
    fractional = 0
    for _ in range(60):
        inst = random_tiny_instance(rng)
        pool = ColumnPool.initial(build_request_index(inst), "paper")
        for key in pool.pairs:
            for col in rng.sample(enumerate_columns(inst.horizon), 2):
                add_column(pool, *key, col)
        x = np.concatenate([rng.choice([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1e-12, 1.0]])
                            + [0.0] * (n - 2) for n in pool.counts.tolist()] + [[0.5]])
        if rng.random() < 0.2:
            k = rng.randrange(len(pool.pairs))
            block = x[pool.starts()[k] : pool.starts()[k + 1]]
            block[block == 1.0] = 0.5
        sol = RmpSolution(objective=0.0, weights=x[: pool.total_columns()], duals=None, lp=None)
        want, first_fractional = {}, None
        for key, weights in zip(pool.pairs, np.split(sol.weights, pool.starts()[1:-1])):
            k = int(np.argmax(weights))
            if weights[k] < 1 - 1e-6:
                first_fractional = key
                break
            col = pool_columns(pool, *key)[k].column
            if col != zero_column(inst.horizon):
                want[key] = column_states(col)
        if first_fractional is not None:
            fractional += 1
            h, i = first_fractional
            message = rf"^column weights for \({h},{i}\) are fractional$"
            with pytest.raises(ValueError, match=message):
                decode_schedule(pool, sol)
            continue
        assert decode_schedule(pool, sol).states == want
    assert 0 < fractional < 60


def test_decode_schedule_names_the_fractional_pair():
    """A pair whose largest column weight is fractional raises ValueError
    naming that pair, here the last of several whose others are integral."""
    from mcsp.driver import decode_schedule

    inst = generate_instance(GeneratorConfig(
        cells="custom", custom_topology=TWO_CELL, num_contents=2, num_requests=4, horizon=2,
        rho_m=0.0, rho_tt=0.0, seed=3))
    pool = ColumnPool.initial(build_request_index(inst), "paper")
    h, i = pool.pairs[-1]
    add_column(pool, h, i, ((1, 1), (1, 0)))
    weights = np.ones(pool.total_columns())
    weights[-2:] = 0.5
    sol = RmpSolution(objective=0.0, weights=weights, duals=None, lp=None)
    with pytest.raises(ValueError, match=rf"^column weights for \({h},{i}\) are fractional$"):
        decode_schedule(pool, sol)
