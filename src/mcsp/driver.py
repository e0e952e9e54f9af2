"""End-to-end solves: column generation, rounding alternation, reports.

``run_cga`` alternates master solves with pricing until no column prices
negatively and the primal respects every capacity (capacity rows join the
master once violated, see ``mcsp.rmp``); the objective at that fixpoint is
the exact LP bound over all columns and rows. ``run_rcga`` records that
bound, then alternates rounding passes with re-generation until the column
weights are integral and decodes the schedule.

``finish_report`` is where every solver's schedule becomes a report, and
``report_costs`` is the one costing rule: ``cost`` is the free assignment
repair's (``min``; never worse, always feasible for the exact formulation,
and the figure the optimality gap is measured with), except the exact
oracle's, which is settled under its own mode; ``settled_cost`` is the
schedule under the run's settlement convention.

``naive_round`` is the cautionary baseline: it repeatedly pins the fractional
column weight closest to one, which can wedge the master into infeasibility;
that outcome is recorded as a failed run, not raised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .columns import ColumnPool, column_states
from .costs import (
    MODES,
    AssignmentPlan,
    CostBreakdown,
    Schedule,
    SettlementMode,
    check_feasibility,
    derive_assignment,
    evaluate,
    plan_cost,
)
from .instance import Instance, build_request_index
from .pricing import PricingStatics, price_all
from .rmp import CapacityRows, MasterBasis, RmpSolution, build_rmp, solve_rmp
from .rounding import (
    TOL_INT,
    RoundingState,
    chi_integral_iff,
    chi_is_integral,
    compute_indicators,
    round_once,
)
from .simplex import LpInfeasibleError

REPORT_SCHEMA = "mcsp-report/1"


class ConvergenceError(RuntimeError):
    pass


@dataclass
class SolveReport:
    algorithm: str
    settlement_mode: str
    cost: Optional[CostBreakdown] = None
    settled_cost: Optional[CostBreakdown] = None
    lower_bound: Optional[float] = None
    gap: Optional[float] = None
    pricing_rounds: int = 0
    rounding_rounds: int = 0
    wall_time_s: float = 0.0
    schedule: Optional[Schedule] = None
    assignment: Optional[AssignmentPlan] = None
    feasible: bool = True
    failure: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "algorithm": self.algorithm,
            "settlement_mode": self.settlement_mode,
            "cost": self.cost.to_dict() if self.cost else None,
            "settled_cost": self.settled_cost.to_dict() if self.settled_cost else None,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "pricing_rounds": self.pricing_rounds,
            "rounding_rounds": self.rounding_rounds,
            "wall_time_s": self.wall_time_s,
            "feasible": self.feasible,
            "failure": self.failure,
            "schedule": self.schedule.to_dict() if self.schedule else None,
            "assignment": _assignment_to_doc(self.assignment) if self.assignment else None,
        }

    @staticmethod
    def from_dict(doc: dict) -> "SolveReport":
        if doc.get("schema") != REPORT_SCHEMA:
            raise ValueError(f"expected schema {REPORT_SCHEMA!r}, got {doc.get('schema')!r}")
        if doc.get("settlement_mode") not in MODES:
            raise ValueError(f"settlement_mode must be one of {', '.join(MODES)}, "
                             f"got {doc.get('settlement_mode')!r}")

        def breakdown(d):
            if d is None:
                return None
            return CostBreakdown(*(float(d[name]) for name in
                                   ("aoi_cost", "download_cost", "update_cost")))

        try:
            return SolveReport(
                algorithm=doc["algorithm"],
                settlement_mode=doc["settlement_mode"],
                cost=breakdown(doc.get("cost")),
                settled_cost=breakdown(doc.get("settled_cost")),
                lower_bound=doc.get("lower_bound"),
                gap=doc.get("gap"),
                pricing_rounds=doc.get("pricing_rounds", 0),
                rounding_rounds=doc.get("rounding_rounds", 0),
                wall_time_s=doc.get("wall_time_s", 0.0),
                schedule=Schedule.from_dict(doc["schedule"]) if doc.get("schedule") else None,
                assignment=_assignment_from_doc(doc.get("assignment")),
                feasible=doc.get("feasible", True),
                failure=doc.get("failure"),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed {REPORT_SCHEMA} document ({type(exc).__name__}: {exc})"
            ) from exc


def _assignment_to_doc(plan: AssignmentPlan) -> list:
    out = []
    for r_id in sorted(plan.served):
        hit = plan.served[r_id]
        out.append(
            {"request": r_id, "served": None if hit is None
             else {"server": hit[0], "slot": hit[1], "age": hit[2]}}
        )
    return out


def _assignment_from_doc(doc) -> Optional[AssignmentPlan]:
    if doc is None:
        return None
    served = {}
    for row in doc:
        hit = row["served"]
        served[row["request"]] = None if hit is None else (hit["server"], hit["slot"], hit["age"])
    return AssignmentPlan(served=served)


def compute_gap(total: float, lb: Optional[float]) -> Optional[float]:
    if lb is None:
        return None
    if abs(lb) < 1e-12:
        return 0.0 if abs(total) < 1e-9 else math.inf
    return (total - lb) / lb


@dataclass
class CgaResult:
    solution: RmpSolution
    rounds: int


def run_cga(
    pool: ColumnPool,
    statics: PricingStatics,
    fixings: RoundingState,
    capacity_rows: CapacityRows,
    basis: MasterBasis,
    canonical: bool = False,
) -> CgaResult:
    """Alternate master solves and pricing under ``fixings`` until no column
    prices negative (below -``pricing.TOL_PRICE``) and the fixpoint primal
    violates no capacity.

    The master holds the capacity rows in ``capacity_rows``; at each pricing
    fixpoint the rows the primal violates are added to it and generation
    carries on. Every master starts from the optimal basis of the one
    before, kept in ``basis``, which is empty before a solve's first master.
    Pass the objects of one ``_set_up`` to every call of a solve, so rows
    found once stay in the master and each run starts where the last one
    ended.

    With ``canonical`` the fixpoint primal is re-selected canonically on the
    optimal face (see solve_rmp) before the capacity check; the likelihood
    rounding consumes it, so this steers the dive toward fewer and earlier
    updates. An LpError of that solve propagates like any other.
    """
    inst = pool.inst
    guard = 10 * inst.num_servers * inst.num_contents * inst.horizon
    rounds = 0
    while True:
        model = build_rmp(pool, capacity_rows)
        sol = solve_rmp(model, basis)
        rounds += 1
        candidates = price_all(pool, sol.duals, statics, fixings)
        if not candidates:
            if canonical:
                sol = solve_rmp(model, basis, canonical=True, lp=sol.lp)
            if not capacity_rows.add_violated(pool, sol.weights):
                return CgaResult(solution=sol, rounds=rounds)
        if candidates:
            pool.add(candidates.keys, candidates.flags)
        if rounds > guard:
            raise ConvergenceError(f"column generation did not settle in {guard} rounds")


def decode_schedule(pool: ColumnPool, sol: RmpSolution) -> Schedule:
    """The schedule of an integral ``sol``: every pair's column of largest
    weight (the first in pool order on ties), whose weight must be one; the
    pairs whose column is not the zero column are scheduled."""
    w = sol.weights
    a = pool.arrays()
    # by pair, then by falling weight; the sort is stable, so ties keep pool order
    best = np.lexsort((-w, a.pair))[pool.starts()[:-1]]
    fractional = np.flatnonzero(w[best] < 1 - TOL_INT)
    if len(fractional):
        h, i = pool.pairs[fractional[0]]
        raise ValueError(f"column weights for ({h},{i}) are fractional")
    ks = np.flatnonzero(a.flags[best].any(axis=(1, 2)))
    states = dict(zip([pool.pairs[k] for k in ks], column_states(a.flags[best[ks]])))
    return Schedule(horizon=pool.inst.horizon, states=states)


def report_costs(
    algorithm: str, inst: Instance, schedule: Schedule, mode: SettlementMode
) -> tuple[AssignmentPlan, CostBreakdown, CostBreakdown]:
    """The assignment, ``cost`` and ``settled_cost`` of ``algorithm``'s
    report of ``schedule`` in ``mode``. The assignment and ``cost`` are the
    ``min`` repair's, or the exact oracle's own mode's; ``settled_cost``
    settles in ``mode`` and is the ``cost`` object itself where the two
    settlements agree."""
    own = mode if algorithm == "exact" else "min"
    assignment = derive_assignment(schedule, inst, own)
    cost = plan_cost(schedule, assignment, inst)
    return assignment, cost, cost if own == mode else evaluate(schedule, inst, mode)


def finish_report(
    algorithm: str,
    inst: Instance,
    schedule: Schedule,
    mode: SettlementMode,
    lb: Optional[float],
    pricing_rounds: int,
    rounding_rounds: int,
    started: float,
) -> SolveReport:
    """The report of a solve that ``started`` (a ``time.perf_counter``
    reading) and returned ``schedule``, costed by ``report_costs``; an
    infeasible schedule raises."""
    problems = check_feasibility(schedule, inst)
    if problems:
        raise AssertionError(f"{algorithm} produced an infeasible schedule: {problems[:3]}")
    assignment, cost, settled = report_costs(algorithm, inst, schedule, mode)
    return SolveReport(
        algorithm=algorithm,
        settlement_mode=mode,
        cost=cost,
        settled_cost=settled,
        lower_bound=lb,
        gap=compute_gap(cost.total, lb),
        pricing_rounds=pricing_rounds,
        rounding_rounds=rounding_rounds,
        wall_time_s=time.perf_counter() - started,
        schedule=schedule,
        assignment=assignment,
    )


def _set_up(
    inst: Instance, mode: SettlementMode
) -> tuple[ColumnPool, PricingStatics, RoundingState, CapacityRows, MasterBasis]:
    """What every column generation run of one solve of ``inst`` shares, in
    ``run_cga``'s argument order: the pool of zero columns and the pricing
    statics, both made on one request index in ``mode``, no fixings, no
    capacity rows and no basis yet."""
    idx = build_request_index(inst)
    statics = PricingStatics(idx, mode, np.arange(len(idx.pairs)))
    return (ColumnPool.initial(idx, mode), statics, RoundingState(inst), CapacityRows(inst),
            MasterBasis())


def run_rcga(inst: Instance, mode: SettlementMode = "paper") -> SolveReport:
    """Column generation with likelihood rounding until integral."""
    started = time.perf_counter()
    pool, statics, state, rows, basis = _set_up(inst, mode)

    result = run_cga(pool, statics, state, rows, basis, canonical=True)
    lb = result.solution.objective
    pricing_rounds = result.rounds
    sol = result.solution

    max_cycles = inst.num_contents * inst.horizon
    cycles = 0
    while True:
        gamma, omega = compute_indicators(sol.weights, pool)
        if not chi_integral_iff(sol.weights, gamma, omega):
            raise AssertionError("integrality of likelihoods and weights disagree")
        if chi_is_integral(sol.weights):
            break
        if cycles >= max_cycles:
            raise ConvergenceError(f"rounding did not reach integrality in {max_cycles} passes")
        round_once(state, gamma, omega, pool)
        cycles += 1
        result = run_cga(pool, statics, state, rows, basis, canonical=True)
        pricing_rounds += result.rounds
        sol = result.solution
        if sol.objective < lb - 1e-6 * (1 + abs(lb)):
            raise AssertionError("master objective fell below the pre-rounding bound")

    schedule = decode_schedule(pool, sol)
    return finish_report("rcga", inst, schedule, mode, lb, pricing_rounds, cycles, started)


def run_lower_bound(inst: Instance, mode: SettlementMode = "paper") -> SolveReport:
    """Column generation without rounding: the optimality yardstick."""
    started = time.perf_counter()
    result = run_cga(*_set_up(inst, mode))
    return SolveReport(
        algorithm="lb",
        settlement_mode=mode,
        lower_bound=result.solution.objective,
        pricing_rounds=result.rounds,
        wall_time_s=time.perf_counter() - started,
    )


def _next_pin(sol: RmpSolution) -> int:
    """The pool position of the largest fractional column weight of a
    fractional ``sol``, the first in pool order on ties."""
    w = sol.weights
    frac = np.flatnonzero((w > TOL_INT) & (w < 1 - TOL_INT))
    return int(frac[np.argmax(w[frac])])


def naive_round(inst: Instance, mode: SettlementMode = "paper") -> SolveReport:
    """Fix whole column weights greedily; infeasibility is a recorded outcome.

    Each pin keeps one pool entry as its pair's only column
    (``ColumnPool.pin``) and fixes all its slots at once in a
    ``RoundingState`` (gamma and omega are its cached and updated flags),
    which leaves pricing that one path of the pair's graph."""
    started = time.perf_counter()
    pool, statics, pins, rows, basis = _set_up(inst, mode)

    result = run_cga(pool, statics, pins, rows, basis)
    lb = result.solution.objective
    pricing_rounds = result.rounds
    sol = result.solution
    fixes = 0
    try:
        while not chi_is_integral(sol.weights):
            j = _next_pin(sol)
            a = pool.arrays()  # the pin changes the pool's views
            cached, updated = pool.pin(j)
            pins.fix(a.server[j], a.content[j], slice(1, None), gamma=cached, omega=updated)
            fixes += 1
            result = run_cga(pool, statics, pins, rows, basis)
            pricing_rounds += result.rounds
            sol = result.solution
    except LpInfeasibleError:
        return SolveReport(
            algorithm="nrs",
            settlement_mode=mode,
            lower_bound=lb,
            pricing_rounds=pricing_rounds,
            rounding_rounds=fixes,
            wall_time_s=time.perf_counter() - started,
            feasible=False,
            failure="master became infeasible after fixing column weights",
        )
    schedule = decode_schedule(pool, sol)
    return finish_report("nrs", inst, schedule, mode, lb, pricing_rounds, fixes, started)
