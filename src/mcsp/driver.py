"""End-to-end solves: column generation, rounding alternation, reports.

``run_cga`` alternates master solves with pricing until no column prices
negatively and the primal respects every capacity (capacity rows join the
master once violated, see ``mcsp.rmp``); the objective at that fixpoint is
the exact LP bound over all columns and rows. Every run of one solve works
on the same ``Solve``: its pool, pricing statics, fixings, capacity rows and
warm basis, and the bound (the first run's objective) and round counts its
report takes. ``run_rcga`` alternates rounding passes with re-generation
until the column weights are integral and decodes the schedule.

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


def run_cga(solve: Solve, canonical: bool = False) -> CgaResult:
    """Alternate master solves and pricing under ``solve``'s fixings until no
    column prices negative (below -``pricing.TOL_PRICE``) and the fixpoint
    primal violates no capacity; add the rounds to ``solve.pricing_rounds``
    and, on ``solve``'s first run, take the fixpoint objective as its bound.

    The master holds ``solve``'s capacity rows; at each pricing fixpoint the
    rows the primal violates are added to them and generation carries on.
    Every master starts from the optimal basis of the one before, kept in
    ``solve.basis``, which is empty before a solve's first master. So rows
    found once stay in the master and each run starts where the last one
    ended.

    With ``canonical`` the fixpoint primal is re-selected canonically on the
    optimal face (see solve_rmp) before the capacity check; the likelihood
    rounding consumes it, so this steers the dive toward fewer and earlier
    updates. An LpError of that solve propagates like any other, and a run
    that raises counts no rounds.
    """
    pool, rows, basis = solve.pool, solve.rows, solve.basis
    inst = pool.inst
    guard = 10 * inst.num_servers * inst.num_contents * inst.horizon
    rounds = 0
    while True:
        model = build_rmp(pool, rows)
        sol = solve_rmp(model, basis)
        rounds += 1
        candidates = price_all(pool, sol.duals, solve.statics, solve.fixings)
        if not candidates:
            if canonical:
                sol = solve_rmp(model, basis, canonical=True, lp=sol.lp)
            if not rows.add_violated(pool, sol.weights):
                solve.pricing_rounds += rounds
                if solve.lb is None:
                    solve.lb = sol.objective
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


class Solve:
    """One solve of ``inst`` in ``mode`` by ``algorithm``: what every column
    generation run of it shares (the pool of zero columns and the pricing
    statics, both made on one request index in ``mode``, the fixings, the
    capacity rows held and the warm basis, none of these yet) and what its
    report takes (when it ``started``, a ``time.perf_counter`` reading; its
    bound and its pricing and rounding rounds)."""

    def __init__(self, algorithm: str, inst: Instance, mode: SettlementMode):
        self.started = time.perf_counter()
        self.algorithm, self.inst, self.mode = algorithm, inst, mode
        idx = build_request_index(inst)
        self.statics = PricingStatics(idx, mode, np.arange(len(idx.pairs)))
        self.pool = ColumnPool.initial(idx, mode)
        self.fixings = RoundingState(inst)
        self.rows = CapacityRows(inst)
        self.basis = MasterBasis()
        self.lb: Optional[float] = None
        self.pricing_rounds = 0
        self.rounding_rounds = 0

    def finish(self, sol: RmpSolution) -> SolveReport:
        """The report of the schedule the integral ``sol`` decodes to."""
        schedule = decode_schedule(self.pool, sol)
        return finish_report(self.algorithm, self.inst, schedule, self.mode, self.lb,
                             self.pricing_rounds, self.rounding_rounds, self.started)

    def report(self, **outcome) -> SolveReport:
        """The report of this solve without a schedule, with ``outcome``'s
        fields."""
        return SolveReport(self.algorithm, self.mode, lower_bound=self.lb,
                           pricing_rounds=self.pricing_rounds,
                           rounding_rounds=self.rounding_rounds,
                           wall_time_s=time.perf_counter() - self.started, **outcome)


def run_rcga(inst: Instance, mode: SettlementMode = "paper") -> SolveReport:
    """Column generation with likelihood rounding until integral."""
    solve = Solve("rcga", inst, mode)
    pool = solve.pool
    sol = run_cga(solve, canonical=True).solution
    max_cycles = inst.num_contents * inst.horizon
    while True:
        gamma, omega = compute_indicators(sol.weights, pool)
        if not chi_integral_iff(sol.weights, gamma, omega):
            raise AssertionError("integrality of likelihoods and weights disagree")
        if chi_is_integral(sol.weights):
            return solve.finish(sol)
        if solve.rounding_rounds >= max_cycles:
            raise ConvergenceError(f"rounding did not reach integrality in {max_cycles} passes")
        round_once(solve.fixings, gamma, omega, pool)
        solve.rounding_rounds += 1
        sol = run_cga(solve, canonical=True).solution
        if sol.objective < solve.lb - 1e-6 * (1 + abs(solve.lb)):
            raise AssertionError("master objective fell below the pre-rounding bound")


def run_lower_bound(inst: Instance, mode: SettlementMode = "paper") -> SolveReport:
    """Column generation without rounding: the optimality yardstick."""
    solve = Solve("lb", inst, mode)
    run_cga(solve)
    return solve.report()


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
    solve = Solve("nrs", inst, mode)
    pool, pins = solve.pool, solve.fixings
    sol = run_cga(solve).solution
    try:
        while not chi_is_integral(sol.weights):
            j = _next_pin(sol)
            a = pool.arrays()  # the pin changes the pool's views
            cached, updated = pool.pin(j)
            pins.fix(a.server[j], a.content[j], slice(1, None), gamma=cached, omega=updated)
            solve.rounding_rounds += 1
            sol = run_cga(solve).solution
    except LpInfeasibleError:
        return solve.report(feasible=False,
                            failure="master became infeasible after fixing column weights")
    return solve.finish(sol)
