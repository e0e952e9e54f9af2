"""Schedule evaluation: age bookkeeping, request assignment, cost components.

A schedule fixes, for every (server, content) pair and slot, one of three
states: absent ('A'), cached and just updated ('U'), cached without an update
('C'). The age of a cached copy is zero at an update and grows by one per slot
while the copy stays cached without updates; a 'C' state therefore requires a
cached state in the previous slot.

Two settlement conventions decide how a request is priced against a
schedule, each written here once:

* ``paper`` -- the deadline rule: a request is served from a candidate server
  based on that server's state at the request's deadline slot. If the copy is
  cached there with age a, the best reachable age is max(0, a - window) and
  the request is served from cache even when the cloud would be cheaper.
* ``min`` -- a request may be served in any slot of its window at the age the
  schedule realizes there, or from the cloud, whichever is cheapest.

``serving_ages`` is the per-copy rule of both, by which ``derive_assignment``
and the exact oracle serve. The column pool and the pricing settle a
single-choice request by ``scr_settlement`` instead: the deadline rule, in
``min`` mode capped at the cloud cost. That is not the any-slot ``min`` rule,
so the ``min`` column-generation bound need not bound the ``min`` optimum.

The ``min`` assignment of a schedule never costs more than its ``paper``
assignment, and is feasible for the exact integer formulation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .instance import Instance, Request, RequestIndex

ABSENT = "A"
UPDATED = "U"
CACHED = "C"

SettlementMode = Literal["paper", "min"]

SCHEDULE_SCHEMA = "mcsp-schedule/1"

CAPACITY_EPS = 1e-9  # slack for float capacities derived from fractions


class ScheduleError(ValueError):
    """Raised for state sequences whose age is not derivable."""


@dataclass(frozen=True)
class Schedule:
    """Per (server, content) state strings over the horizon.

    Pairs absent from ``states`` are implicitly all-'A' (never cached).
    """

    horizon: int
    states: dict[tuple[int, int], str]

    def state(self, h: int, i: int) -> str:
        return self.states.get((h, i), ABSENT * self.horizon)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEDULE_SCHEMA,
            "horizon": self.horizon,
            "states": {f"{h}:{i}": s for (h, i), s in sorted(self.states.items())},
        }

    @staticmethod
    def from_dict(doc: dict) -> "Schedule":
        if doc.get("schema") != SCHEDULE_SCHEMA:
            raise ValueError(f"expected schema {SCHEDULE_SCHEMA!r}, got {doc.get('schema')!r}")
        try:
            horizon, states = doc["horizon"], {}
            for key, s in doc["states"].items():
                h, i = key.split(":")
                states[(int(h), int(i))] = s
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed {SCHEDULE_SCHEMA} document ({type(exc).__name__}: {exc})"
            ) from exc
        if type(horizon) is not int or not all(isinstance(s, str) for s in states.values()):
            raise ValueError(f"malformed {SCHEDULE_SCHEMA} document: "
                             "the horizon must be an integer and each state a string")
        return Schedule(horizon=horizon, states=states)


Served = tuple[int, int, int]  # (server, slot, age)


@dataclass(frozen=True)
class AssignmentPlan:
    """How each request is served: a (server, slot, age) triple or the cloud."""

    served: dict[int, Optional[Served]]  # request id -> triple, or None for cloud


@dataclass(frozen=True)
class CostBreakdown:
    aoi_cost: float
    download_cost: float
    update_cost: float

    @property
    def total(self) -> float:
        return self.aoi_cost + self.download_cost + self.update_cost

    def to_dict(self) -> dict:
        return {
            "aoi_cost": self.aoi_cost,
            "download_cost": self.download_cost,
            "update_cost": self.update_cost,
            "total": self.total,
        }


def derive_aoi(states: str) -> list[Optional[int]]:
    """Per-slot age of one (server, content) state string, None when absent."""
    ages: list[Optional[int]] = []
    prev: Optional[int] = None
    for t, st in enumerate(states, start=1):
        if st == UPDATED:
            prev = 0
        elif st == CACHED:
            if prev is None:
                raise ScheduleError(
                    f"slot {t}: cached-without-update requires a cached predecessor"
                )
            prev = prev + 1
        elif st == ABSENT:
            prev = None
        else:
            raise ScheduleError(f"slot {t}: unknown state {st!r}")
        ages.append(prev)
    return ages


def schedule_aoi(schedule: Schedule, h: int, i: int) -> list[Optional[int]]:
    return derive_aoi(schedule.state(h, i))


def serving_ages(ages: list, r: Request, mode: SettlementMode) -> list[tuple[int, int]]:
    """The (age, slot) pairs at which a copy with the per-slot ``ages`` (None
    where absent) can serve r. ``min``: every cached slot of r's window, at
    the age held there. ``paper``: when the copy is cached at r's deadline
    with age a, the age max(0, a - window), at the slot where it was held."""
    if mode == "min":
        return [(a, t) for t, a in enumerate(ages[r.origin - 1:r.deadline], start=r.origin)
                if a is not None]
    a = ages[r.deadline - 1]
    return [] if a is None else [(max(0, a - r.window), r.deadline - min(a, r.window))]


def scr_settlement(idx: RequestIndex, mode: SettlementMode) -> np.ndarray:
    """[single-choice request, a]: the settlement of each request of the
    request index by a copy held at age a = 0..horizon - 1 at its deadline,
    f(max(0, a - window)), in ``min`` mode capped at the cloud cost."""
    ages = np.arange(idx.inst.horizon)
    table = idx.aoi[np.maximum(0, ages - idx.scr_window[:, None])]
    if mode == "min":
        table = np.minimum(table, idx.cloud[idx.pair_content[idx.scr_pair]][:, None])
    return table


def derive_assignment(
    schedule: Schedule, inst: Instance, mode: SettlementMode = "min"
) -> AssignmentPlan:
    """Serve every request against a fixed schedule.

    mode 'min': cheapest of the cloud and every cached (slot, age) in the
    window, over all candidate servers. Ties prefer cache over cloud, then the
    lowest age, then the lowest server id, then the earliest slot.

    mode 'paper': deadline settlement as described in the module docstring;
    the request goes to the cloud only if no candidate holds the content at
    the deadline slot.
    """
    ages_for = functools.cache(lambda h, i: schedule_aoi(schedule, h, i))
    served: dict[int, Optional[Served]] = {}
    for r in inst.requests:
        options = [(inst.f(a), a, h, t)  # (cost, age, server, slot)
                   for h in r.candidates for a, t in serving_ages(ages_for(h, r.content), r, mode)]
        best = min(options, default=None)
        # min mode falls back to the cloud where it is strictly cheaper
        if best is None or (mode == "min" and best[0] > inst.cloud_cost(r.content)):
            served[r.id] = None
        else:
            _, a, h, t = best
            served[r.id] = (h, t, a)
    return AssignmentPlan(served=served)


def aoi_cost(plan: AssignmentPlan, inst: Instance) -> float:
    """Sum of f(age) over cache-served requests plus f(0) per cloud request."""
    total = 0.0
    for r in inst.requests:
        hit = plan.served.get(r.id)
        total += inst.f(hit[2]) if hit is not None else inst.f(0)
    return total


def download_cost(plan: AssignmentPlan, inst: Instance) -> float:
    """alpha times the total size of cloud-served requests."""
    total = 0.0
    for r in inst.requests:
        if plan.served.get(r.id) is None:
            total += inst.size(r.content)
    return inst.cost.alpha * total


def update_cost(schedule: Schedule, inst: Instance) -> float:
    """beta times the total size downloaded over the backhaul."""
    total = 0
    for (h, i), states in schedule.states.items():
        total += states.count(UPDATED) * inst.size(i)
    return inst.cost.beta * total


def evaluate(schedule: Schedule, inst: Instance, mode: SettlementMode) -> CostBreakdown:
    plan = derive_assignment(schedule, inst, mode)
    return plan_cost(schedule, plan, inst)


def plan_cost(schedule: Schedule, plan: AssignmentPlan, inst: Instance) -> CostBreakdown:
    return CostBreakdown(
        aoi_cost=aoi_cost(plan, inst),
        download_cost=download_cost(plan, inst),
        update_cost=update_cost(schedule, inst),
    )


def check_feasibility(schedule: Schedule, inst: Instance) -> list[str]:
    """Verify state-string validity plus per-slot cache and backhaul capacity."""
    out: list[str] = []
    if schedule.horizon != inst.horizon:
        out.append(f"schedule horizon {schedule.horizon} != instance horizon {inst.horizon}")
    cache_load = {(h, t): 0 for h in range(1, inst.num_servers + 1) for t in range(1, inst.horizon + 1)}
    backhaul_load = dict(cache_load)
    for (h, i), states in schedule.states.items():
        if len(states) != inst.horizon:
            out.append(f"({h},{i}): state string length {len(states)} != horizon")
            continue
        if not (1 <= h <= inst.num_servers) or not (1 <= i <= inst.num_contents):
            out.append(f"({h},{i}): unknown server or content")
            continue
        try:
            derive_aoi(states)
        except ScheduleError as exc:
            out.append(f"({h},{i}): {exc}")
            continue
        size = inst.size(i)
        for t, st in enumerate(states, start=1):
            if st in (UPDATED, CACHED):
                cache_load[(h, t)] += size
            if st == UPDATED:
                backhaul_load[(h, t)] += size
    for (h, t), load in sorted(cache_load.items()):
        cap = inst.server(h).cache_capacity
        if load > cap + CAPACITY_EPS:
            out.append(f"server {h} slot {t}: cache load {load} exceeds capacity {cap}")
    for (h, t), load in sorted(backhaul_load.items()):
        cap = inst.server(h).backhaul_capacity
        if load > cap + CAPACITY_EPS:
            out.append(f"server {h} slot {t}: backhaul load {load} exceeds capacity {cap}")
    return out

