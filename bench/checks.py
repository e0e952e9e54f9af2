"""Checks on the solvers' outputs, written without ``mcsp.costs``.

``check_report`` re-derives a returned schedule's validity, its per-slot
loads and its cost from the instance data alone. The property checks compare
the reports of one case with each other and with a reference bound. Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from typing import Optional

COST_RTOL = 1e-9  # reported cost against the recomputed one, relative
CAPACITY_RTOL = 1e-9  # load over capacity before a slot counts as overrun
SLOP = 1e-6  # relative slack of the inequalities between bounds and costs


def slop(v: float) -> float:
    return SLOP * (1 + abs(v))


def aoi_penalty(inst, age: int) -> float:
    """f(age) from the instance's age-penalty parameters."""
    p = inst.cost.aoi
    if p.kind == "exponential":
        return math.exp(p.rate * age)
    if p.kind == "linear":
        return p.base + p.slope * age
    if p.kind == "table":
        return p.values[age]
    raise ValueError(f"unknown age penalty {p.kind!r}")


def state_ages(states: str) -> list[Optional[int]]:
    """Per-slot age of a state string: 0 at 'U', one more per 'C', None at
    'A'. Raises ValueError for an unknown letter or a 'C' after no copy."""
    ages: list[Optional[int]] = []
    age: Optional[int] = None
    for t, s in enumerate(states, start=1):
        if s == "U":
            age = 0
        elif s == "C" and age is not None:
            age += 1
        elif s == "A":
            age = None
        else:
            raise ValueError(f"slot {t}: state {s!r} after age {age}")
        ages.append(age)
    return ages


def schedule_ages(schedule, inst) -> tuple[dict, list[str]]:
    """Ages of every scheduled (server, content) pair, and the problems
    found in the state strings."""
    ages, problems = {}, []
    for (h, i), states in sorted(schedule.states.items()):
        if not (1 <= h <= inst.num_servers and 1 <= i <= inst.num_contents):
            problems.append(f"({h},{i}): no such server or content")
        elif len(states) != inst.horizon:
            problems.append(f"({h},{i}): {len(states)} states for {inst.horizon} slots")
        else:
            try:
                ages[(h, i)] = state_ages(states)
            except ValueError as exc:
                problems.append(f"({h},{i}) {states!r}: {exc}")
    return ages, problems


def capacity_problems(schedule, inst) -> list[str]:
    """Every (server, slot) whose cached or updated size exceeds capacity,
    for a schedule whose pairs ``schedule_ages`` found valid."""
    cache, backhaul = {}, {}
    for (h, i), states in schedule.states.items():
        size = inst.contents[i - 1].size
        for t, s in enumerate(states, start=1):
            if s in "UC":
                cache[(h, t)] = cache.get((h, t), 0) + size
            if s == "U":
                backhaul[(h, t)] = backhaul.get((h, t), 0) + size
    problems = []
    for kind, loads in (("cache", cache), ("backhaul", backhaul)):
        for (h, t), load in sorted(loads.items()):
            cap = getattr(inst.servers[h - 1], f"{kind}_capacity")
            if load > cap + CAPACITY_RTOL * (1 + abs(cap)):
                problems.append(f"server {h} slot {t}: {kind} load {load} over capacity {cap}")
    return problems


def recompute_cost(schedule, inst, ages: dict, settlement: str) -> tuple[float, float, float]:
    """(age, download, update) cost of a schedule with every request served
    the cheapest way the settlement allows.

    ``min``: from any candidate's copy at any slot of the request's window,
    at the age held there, or from the cloud when that is cheaper.
    ``paper``: from a candidate holding the content at the deadline slot,
    at age max(0, a - window) for the age a held there, even when the cloud
    is cheaper; from the cloud only when no candidate holds it then.
    """
    alpha, beta = inst.cost.alpha, inst.cost.beta
    f0 = aoi_penalty(inst, 0)
    age_cost = download = 0.0
    for r in inst.requests:
        size = inst.contents[r.content - 1].size
        served = []
        for h in r.candidates:
            held = ages.get((h, r.content))
            if held is None:
                continue
            if settlement == "min":
                served += [aoi_penalty(inst, a) for a in held[r.origin - 1 : r.deadline]
                           if a is not None]
            elif held[r.deadline - 1] is not None:
                window = r.deadline - r.origin
                served.append(aoi_penalty(inst, max(0, held[r.deadline - 1] - window)))
        best = min(served, default=math.inf)
        if settlement == "min" and best > f0 + alpha * size:
            best = math.inf
        if best == math.inf:
            age_cost += f0
            download += alpha * size
        else:
            age_cost += best
    update = beta * sum(states.count("U") * inst.contents[i - 1].size
                        for (_, i), states in schedule.states.items())
    return age_cost, download, update


def _cost_problems(label: str, breakdown, expect: tuple[float, float, float]) -> list[str]:
    if breakdown is None:
        return [f"{label} missing"]
    got = (breakdown.aoi_cost, breakdown.download_cost, breakdown.update_cost)
    return [
        f"{label} {part} {g!r} != recomputed {e!r}"
        for part, g, e in zip(("age", "download", "update"), got, expect)
        if abs(g - e) > COST_RTOL * max(1.0, abs(e))
    ]


def check_report(report, inst) -> list[str]:
    """A returned schedule is valid, fits every capacity, and costs what the
    report says: ``cost`` under the ``min`` settlement (the exact oracle
    reports it under its own mode) and ``settled_cost`` under the report's
    settlement mode."""
    if report.schedule is None:
        return ["no schedule returned"]
    schedule = report.schedule
    if schedule.horizon != inst.horizon:
        return [f"schedule horizon {schedule.horizon} != {inst.horizon}"]
    ages, problems = schedule_ages(schedule, inst)
    if problems:
        return problems
    problems = capacity_problems(schedule, inst)
    if problems:
        return problems
    cost_mode = report.settlement_mode if report.algorithm == "exact" else "min"
    problems += _cost_problems("cost", report.cost, recompute_cost(schedule, inst, ages, cost_mode))
    problems += _cost_problems("settled_cost", report.settled_cost,
                               recompute_cost(schedule, inst, ages, report.settlement_mode))
    return problems


def check_bound(report) -> list[str]:
    """The certified bound does not exceed the returned cost."""
    lb, cost = report.lower_bound, report.cost
    if lb is None or cost is None or lb <= cost.total + slop(lb):
        return []
    return [f"{report.algorithm}: lower bound {lb!r} above cost {cost.total!r}"]


def check_nrs(report, inst) -> list[str]:
    """Naive rounding either wedges, reported as such, or returns a
    schedule that passes the output check."""
    if report.feasible:
        return check_report(report, inst)
    if report.schedule is not None or report.cost is not None or not report.failure:
        return ["nrs: an infeasible outcome must carry a failure and no schedule"]
    return []


def check_sandwich(rcga, exact_paper, exact_min) -> list[str]:
    """bound <= exact (deadline settlement) <= RCGA settled cost, and
    exact (min settlement) <= RCGA cost."""
    lb, ep, em = rcga.lower_bound, exact_paper.cost.total, exact_min.cost.total
    problems = []
    if not lb <= ep + slop(lb):
        problems.append(f"bound {lb!r} above exact {ep!r}")
    if not ep <= rcga.settled_cost.total + slop(ep):
        problems.append(f"exact {ep!r} above RCGA settled cost {rcga.settled_cost.total!r}")
    if not em <= rcga.cost.total + slop(em):
        problems.append(f"exact (min) {em!r} above RCGA cost {rcga.cost.total!r}")
    return problems


def check_binding(bound: float, free_bound: float) -> list[str]:
    """The instance binds: its bound exceeds the bound of the same instance
    without capacity limits by more than the slack."""
    if bound - free_bound > SLOP * abs(free_bound):
        return []
    return [f"bound {bound!r} not above the capacity-free bound {free_bound!r}: nothing binds"]


def check_case(inst, reports: dict, binding_free_bound: Optional[float] = None) -> list[str]:
    """Every check that applies to the reports of one case, keyed by solve
    label; ``binding_free_bound`` is given when the case must bind."""
    problems = []
    for label, report in reports.items():
        found = check_nrs(report, inst) if label == "nrs" else check_report(report, inst)
        found += check_bound(report)
        if binding_free_bound is not None and report.lower_bound is not None:
            found += check_binding(report.lower_bound, binding_free_bound)
        problems += [f"{label}: {p}" for p in found]
    if {"rcga", "exact-paper", "exact-min"} <= reports.keys():
        problems += check_sandwich(reports["rcga"], reports["exact-paper"], reports["exact-min"])
    return problems
