"""Scalar references the array code of the solve path is checked against.

The paper defines a column's standalone cost S (``column_cost_S``) and its
coverage B (``coverage_B``); ``settlement_coverage`` is the part of B the
master's coverage rows may claim. ``ColumnPool`` once made each entry on its
own: ``make_entry`` walked the column per request to derive its cost and
coverage with these definitions. The pool now makes its entries in batches
from the request index's arrays; ``make_entry`` is the scalar form they are
checked against. ``pool_columns`` and ``pool_entries`` show a pool's entries
one by one as ``PricedEntry`` views and ``pool_contains`` asks whether a
column is pooled; the solve path reads the pool's arrays instead.
``column_of``, ``block`` and ``keep`` read a serial's column, list a pair's
serials and cut a pair's entries by position, as the pool did before the NRS
pin took a pool position. ``add_column`` pools one column tuple of a pair
(``pair_index`` numbers it) through the batch ``ColumnPool.add``, after
``column_is_valid`` checks the tuple, as the pool's own tuple method did. ``column_ages`` and ``column_states`` are the age
rule and the rendering of column tuples; the solve path renders flag arrays
and reads ages with ``costs.derive_aoi``.
``check_plan`` checks a plan against its schedule, and ``mcrs``/``scrs``
split an instance's requests.

The rounding pass and the pool purge once kept their fixings in a dict keyed
by (server, content, slot) and looped over it in Python; ``mcsp.rounding`` and
``ColumnPool.purge_incompatible`` now do the same work on int8 arrays. These
are the dict versions, kept so that tests can check the array code pass by
pass: same fixings, reports, headrooms and pools. ``fixed`` reads one cell
of the array fixings as the dict version's (gamma, omega) pair, and
``headroom_array`` lays dict headrooms out as ``RoundingState.headroom``. ``canonical_column`` is the
scalar rule the purge once ran pair by pair to derive a pair's canonical
column; ``columns.canonical_flags`` derives every pair's in one array pass,
and ``columns.anchor_slots`` stands in for ``RoundingState.update_reachable``
in the rounding pass. Both are checked against these on every fixing row of
short horizons.

The master LP was once assembled as scipy.sparse COO triplets, converted to
CSR, and converted to CSC by ``solve_lp``; the face LP of the canonical
re-solve stacked its row under the master's <= rows. ``master_lp``,
``face_lp`` and ``highs_model`` are that construction, kept so that tests can
check that HiGHS receives the same arrays from the column-wise builders.
``inserted_face_lp`` is the face LP as ``_canonical_primal`` later built it
from the master's arrays with ``np.insert``, before it wrote the face row's
entries into preallocated arrays.
``solve_exact`` is the exhaustive oracle's search as it was before its
per-depth tables, its packed capacity word and its memoised settlement: per
(server, slot) float loads, added and taken off around each child, and every
settling request costed anew at every node. It is the reference the oracle's
reports are checked against.

``RequestIndex`` once built its service arrays one service at a time and
kept each pair's requests in dicts; ``LoopRequestIndex`` is that loop, with
the scalar ``scr(h, i)``/``mcr(h, i)`` lookups, kept to check the array
passes against. ``loop_index`` gives the scalar references those lookups for
any index, and ``service_saving`` is the scalar form of
``RequestIndex.svc_saving``.

``build_lp``, ``a_matrix``, ``reduced_costs``, ``dual_objective`` and
``max_primal_violation`` build small LPs from sparse row dicts and check
``solve_lp``'s solutions; the solve path never needed them.

Pricing reads the duals as whole arrays and prices every pair in one batch.
``PairWeights`` computes one pair's arc weights reading one dual entry at a
time, by service triple through ``svc_pos``; ``PricingGraph.arcs`` lists the
pair's DAG arc by arc, and ``shortest_path`` runs the batch kernel on it
alone. ``reduced_cost`` walks a column request by request and slot by slot.
They are the references the batched weights, the path-column bijection and
the pricing oracle are checked against; ``explicit_duals`` builds dual
arrays from sparse dicts keyed as those lookups are.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np
from scipy import sparse

from mcsp.columns import (
    FREE,
    Column,
    ColumnPool,
    UnfixablePoolError,
    _flags_of,
    enumerate_columns,
    zero_column,
)
from mcsp.costs import (
    ABSENT,
    CACHED,
    CAPACITY_EPS,
    UPDATED,
    AssignmentPlan,
    Schedule,
    derive_assignment,
    evaluate,
    plan_cost,
    schedule_aoi,
)
from mcsp.driver import SolveReport
from mcsp.instance import Instance, Request, RequestIndex
from mcsp.pricing import PricerTables, decode_moves, forward_values
from mcsp.rmp import DualPrices
from mcsp.rounding import TOL_INT, RoundReport
from mcsp.simplex import BASIC, EQ, LE, LOWER, UPPER, LpBasis, LpProblem, LpSolution

Fixing = tuple[Optional[int], Optional[int]]  # (gamma, omega), None = free


# -- the paper's column definitions and the per-entry pool view -------------


def column_ages(col: Column) -> list[Optional[int]]:
    """Age of the copy in every slot, None where absent."""
    ages: list[Optional[int]] = []
    age: Optional[int] = None
    for q, p in col:
        if p == 1:
            age = 0
        elif q == 1:
            age = age + 1  # type: ignore[operator]
        else:
            age = None
        ages.append(age)
    return ages


def column_states(col: Column) -> str:
    """A column as a state string, 'U' update, 'C' cached, 'A' absent: the
    scalar form of ``columns.column_states``, which renders flag arrays."""
    return "".join(UPDATED if p else (CACHED if q else ABSENT) for q, p in col)


def column_aoi(col: Column, t: int) -> Optional[int]:
    """Age of the copy at slot t (1-based), or None when absent."""
    age: Optional[int] = None
    for q, p in col[:t]:
        if p == 1:
            age = 0
        elif q == 1:
            age = age + 1  # type: ignore[operator]  # validity guarantees a predecessor
        else:
            age = None
    return age


def update_slots(col: Column) -> tuple[int, ...]:
    return tuple(t for t, (_, p) in enumerate(col, start=1) if p == 1)


def column_from_states(states: str) -> Column:
    """The column of a state string: 'U' update, 'C' cached, 'A' absent."""
    mapping = {UPDATED: (1, 1), CACHED: (1, 0), ABSENT: (0, 0)}
    return tuple(mapping[st] for st in states)


def settle_scr(inst: Instance, i: int, age: int, back: int, mode) -> float:
    """Age cost a deadline-slot single-choice request pays when the copy has
    the given age at the deadline and arrived ``back`` slots earlier."""
    reach = inst.f(max(0, age - back))
    if mode == "min":
        return min(reach, inst.cloud_cost(i))
    return reach


def column_cost_S(col: Column, h: int, i: int, inst: Instance, idx: RequestIndex, mode) -> float:
    """Standalone cost S of a column: update cost plus the owning server's
    single-choice request costs under the settlement convention."""
    total = inst.cost.beta * inst.size(i) * sum(p for _, p in col)
    ages = column_ages(col)
    for r in loop_index(idx).scr(h, i):
        age = ages[r.deadline - 1]
        if age is None:
            total += inst.cloud_cost(i)
        else:
            total += settle_scr(inst, i, age, r.window, mode)
    return total


def coverage_B(col: Column, r: Request, h: int, a: int) -> int:
    """Coverage B: 1 iff the column realizes age ``a`` in some slot of the
    request window."""
    if h not in r.candidates:
        raise ValueError(f"server {h} is not a candidate of request {r.id}")
    if not (0 <= a <= r.deadline - 1):
        raise ValueError(f"age {a} outside 0..{r.deadline - 1}")
    ages = column_ages(col)
    return int(any(ages[t - 1] == a for t in range(r.origin, r.deadline + 1)))


def settlement_coverage(col: Column, r: Request) -> tuple[Optional[int], bool]:
    """Which service options the pricing settlement credits this column for r.

    Returns (arrival_age, update_in_window): the copy's age at the request's
    origin slot if cached there (the request can be served at that age), and
    whether any update falls inside the window (the request can be served at
    age zero). These are the only options the per-age coverage rows of the
    master problem may claim; anything wider cannot be priced exactly.
    """
    arrival_age = column_aoi(col, r.origin)
    upd = any(r.origin <= u <= r.deadline for u in update_slots(col))
    return arrival_age, upd


@dataclass
class PricedEntry:
    """One pool entry as ``pool_columns`` shows it, read off the pool's
    arrays."""

    column: Column
    cost: float  # standalone cost under the pool's settlement mode
    # (request id, age) pairs the settlement convention lets this column
    # serve, in rank order (by request id, then age: the order of the
    # master's coverage rows)
    coverage: tuple[tuple[int, int], ...] = ()
    svc: tuple[int, ...] = ()  # their positions in the request index's service index
    serial: int = 0  # the entry's number in its pool, in order of insertion
    flags: bytes = b""  # the cached then the updated flag of every slot, a byte each


def column_is_valid(col: Column) -> bool:
    prev_cached = 0
    for q, p in col:
        if p > q:
            return False  # updated but not cached
        if q == 1 and p == 0 and not prev_cached:
            return False  # age would be underivable
        prev_cached = q
    return True


def pair_index(pool: ColumnPool, h: int, i: int) -> int:
    """The number of the pair (h, i) in the pool's request index."""
    return (h - 1) * pool.inst.num_contents + (i - 1)


def add_column(pool: ColumnPool, h: int, i: int, col: Column) -> bool:
    """Pool the column tuple ``col`` of the pair (h, i) if it is not pooled
    yet; returns True when it was added."""
    if not column_is_valid(col):
        raise ValueError(f"invalid column {col}")
    return pool.add(np.array([pair_index(pool, h, i)]), _flags_of([col])) == 1


def column_of(pool: ColumnPool, s: int) -> Column:
    """The column of the pool's entry with serial s."""
    return tuple(zip(*pool.flags[s].view(np.uint8).tolist()))


def block(pool: ColumnPool, h: int, i: int) -> np.ndarray:
    """The live serials of a pair, in pool order."""
    k = pair_index(pool, h, i)
    start = pool.starts()[k]
    return pool.order[start : start + pool.counts[k]]


def keep(pool: ColumnPool, h: int, i: int, positions: Sequence[int]) -> None:
    """Keep only the pair's entries at the given distinct positions of
    ``pool_columns(pool, h, i)``, in that order."""
    k = pair_index(pool, h, i)
    start, end = pool.starts()[k], pool.starts()[k + 1]
    serials = pool.order[start:end]
    kept = serials[np.asarray(positions, dtype=np.int64)]
    pool._reorder(np.concatenate([pool.order[:start], kept, pool.order[end:]]),
                  np.setdiff1d(serials, kept))


def entry_view(pool: ColumnPool, s: int) -> PricedEntry:
    """The pool's entry with serial s."""
    svc = pool.svc[pool.svc_start[s] : pool.svc_start[s + 1]]
    return PricedEntry(
        column=column_of(pool, s),
        cost=float(pool.cost[s]),
        coverage=tuple(zip(pool.idx.svc_request_ids[svc].tolist(),
                           pool.idx.svc_age[svc].tolist())),
        svc=tuple(svc.tolist()),
        serial=int(s),
        flags=pool.flags[s].tobytes(),
    )


def pool_columns(pool: ColumnPool, h: int, i: int) -> list[PricedEntry]:
    """The pair's live entries, in pool order."""
    return [entry_view(pool, s) for s in block(pool, h, i)]


def pool_entries(pool: ColumnPool) -> dict[tuple[int, int], list[PricedEntry]]:
    """Every pair's entries in pool order, made afresh from the arrays."""
    return {key: pool_columns(pool, *key) for key in pool.pairs}


def pool_contains(pool: ColumnPool, h: int, i: int, col: Column) -> bool:
    return pool.pooled(np.array([pair_index(pool, h, i)]), _flags_of([col]))[0]


def make_entry(
    col: Column, h: int, i: int, inst: Instance, idx: RequestIndex, mode
) -> PricedEntry:
    """One pool entry from its column: standalone cost, coverage in the
    settlement convention's order (per request in ``mcr(h, i)`` order, the
    arrival age, then age zero), service positions in rank order, flags."""
    cov: list[tuple[int, int]] = []
    for r in loop_index(idx).mcr(h, i):
        arrival_age, upd = settlement_coverage(col, r)
        if arrival_age is not None and arrival_age >= 1:
            cov.append((r.id, arrival_age))
        if upd:
            cov.append((r.id, 0))
    return PricedEntry(
        column=col,
        cost=column_cost_S(col, h, i, inst, idx, mode),
        coverage=tuple(cov),
        svc=tuple(svc_pos(idx)[(r_id, h, a)] for r_id, a in sorted(cov)),
        flags=bytes(q for q, _ in col) + bytes(p for _, p in col),
    )



def check_plan(plan: AssignmentPlan, schedule: Schedule, inst: Instance) -> list[str]:
    """Verify that a plan only claims (server, slot, age) the schedule realizes."""
    out = []
    for r in inst.requests:
        hit = plan.served.get(r.id)
        if hit is None:
            continue
        h, t, a = hit
        if h not in r.candidates:
            out.append(f"request {r.id}: served by non-candidate server {h}")
            continue
        if not (r.origin <= t <= r.deadline):
            out.append(f"request {r.id}: served outside its window at slot {t}")
            continue
        ages = schedule_aoi(schedule, h, r.content)
        if ages[t - 1] != a:
            out.append(
                f"request {r.id}: schedule realizes age {ages[t - 1]} at "
                f"({h},{t}), plan claims {a}"
            )
    return out


def mcrs(inst: Instance) -> tuple[Request, ...]:
    """The instance's multiple-choice requests, in request order."""
    return tuple(r for r in inst.requests if r.is_mcr)


def scrs(inst: Instance) -> tuple[Request, ...]:
    """The instance's single-choice requests, in request order."""
    return tuple(r for r in inst.requests if not r.is_mcr)


def service_saving(inst: Instance, i: int, a: int) -> float:
    """Objective coefficient of a service variable: f(a) minus the cloud cost
    (the scalar form of ``RequestIndex.svc_saving``)."""
    return inst.f(a) - inst.cloud_cost(i)

@dataclass
class RoundingState:
    inst: Instance
    fixings: dict[tuple[int, int, int], Fixing] = field(default_factory=dict)

    def fixed(self, h: int, i: int, t: int) -> Fixing:
        return self.fixings.get((h, i, t), (None, None))

    def fix(self, h, i, t, gamma: Optional[int] = None, omega: Optional[int] = None) -> bool:
        """Merge a fixing; returns True when anything new was pinned."""
        old_g, old_o = self.fixed(h, i, t)
        new_g = old_g if gamma is None else gamma
        new_o = old_o if omega is None else omega
        if old_g is not None and gamma is not None and old_g != gamma:
            raise AssertionError(f"contradictory cache fixing at {(h, i, t)}")
        if old_o is not None and omega is not None and old_o != omega:
            raise AssertionError(f"contradictory update fixing at {(h, i, t)}")
        if (new_g, new_o) == (old_g, old_o):
            return False
        self.fixings[(h, i, t)] = (new_g, new_o)
        return True

    def remaining_cache(self) -> dict[tuple[int, int], float]:
        out = {
            (h, t): self.inst.server(h).cache_capacity
            for h in range(1, self.inst.num_servers + 1)
            for t in range(1, self.inst.horizon + 1)
        }
        for (h, i, t), (gamma, _) in self.fixings.items():
            if gamma == 1:
                out[(h, t)] -= self.inst.size(i)
        return out

    def remaining_backhaul(self) -> dict[tuple[int, int], float]:
        out = {
            (h, t): self.inst.server(h).backhaul_capacity
            for h in range(1, self.inst.num_servers + 1)
            for t in range(1, self.inst.horizon + 1)
        }
        for (h, i, t), (_, omega) in self.fixings.items():
            if omega == 1:
                out[(h, t)] -= self.inst.size(i)
        return out

    def headroom(self) -> np.ndarray:
        return headroom_array(self.inst, self.remaining_cache(), self.remaining_backhaul())

    def mask_arrays(self, h: int, i: int, T: int):
        allow_u = np.ones(T + 1, dtype=bool)
        allow_k0 = np.ones(T + 1, dtype=bool)
        allow_ka = np.ones(T + 1, dtype=bool)
        for t in range(1, T + 1):
            gamma, omega = self.fixed(h, i, t)
            if omega == 1:
                allow_u[t] = False
                allow_ka[t] = False
            if omega == 0:
                allow_k0[t] = False
            if gamma == 0:
                allow_k0[t] = False
                allow_ka[t] = False
            if gamma == 1:
                allow_u[t] = False
        return allow_u, allow_k0, allow_ka

    def update_reachable(self, h: int, i: int, t: int) -> bool:
        for t_prime in range(t, 0, -1):
            gamma, omega = self.fixed(h, i, t_prime)
            if gamma == 0:
                return False
            if omega != 0:
                return True
        return False


def compute_indicators(chi: dict, pool: ColumnPool) -> tuple[dict, dict]:
    """Caching and updating likelihoods per (server, content), slot-indexed
    arrays with entry 0 unused, of the column weights ``chi`` by pair."""
    T = pool.inst.horizon
    gamma: dict[tuple[int, int], np.ndarray] = {}
    omega: dict[tuple[int, int], np.ndarray] = {}
    for key, weights in chi.items():
        g = np.zeros(T + 1)
        o = np.zeros(T + 1)
        for w, entry in zip(weights, pool_columns(pool, *key)):
            if w <= 0:
                continue
            for t, (q, p) in enumerate(entry.column, start=1):
                if q:
                    g[t] += w
                if p:
                    o[t] += w
        gamma[key], omega[key] = g, o
    return gamma, omega


def _is_int(x: float, tol: float = TOL_INT) -> bool:
    return x <= tol or x >= 1 - tol


def round_once(
    state: RoundingState, gamma: dict, omega: dict, pool: ColumnPool, tol: float = TOL_INT
) -> RoundReport:
    """One rounding pass on the per-pair likelihoods of ``compute_indicators``."""
    inst = state.inst
    T = inst.horizon
    report = RoundReport()

    for (h, i) in sorted(gamma):
        g, o = gamma[(h, i)], omega[(h, i)]
        for t in range(1, T + 1):
            if o[t] >= 1 - tol:
                if state.fix(h, i, t, gamma=1, omega=1):
                    report.frozen += 1
            if g[t] <= tol:
                if state.fix(h, i, t, gamma=0, omega=0):
                    report.frozen += 1

    remaining_cache = state.remaining_cache()
    remaining_backhaul = state.remaining_backhaul()

    for h in range(1, inst.num_servers + 1):
        frac_omega = [
            (min(omega[(h, i)][t], 1 - omega[(h, i)][t]), i, t)
            for i in range(1, inst.num_contents + 1)
            for t in range(1, T + 1)
            if not _is_int(omega[(h, i)][t], tol)
        ]
        if frac_omega:
            _, i, t = min(frac_omega)
            value = omega[(h, i)][t]
            size = inst.size(i)
            cache_needed = 0 if state.fixed(h, i, t)[0] == 1 else size
            if (
                value < 0.5
                or size > remaining_backhaul[(h, t)] + CAPACITY_EPS
                or cache_needed > remaining_cache[(h, t)] + CAPACITY_EPS
            ):
                state.fix(h, i, t, omega=0)
                report.rounded_down += 1
            else:
                state.fix(h, i, t, gamma=1, omega=1)
                remaining_backhaul[(h, t)] -= size
                remaining_cache[(h, t)] -= cache_needed
                report.rounded_up += 1
            continue

        frac_gamma = [
            (min(gamma[(h, i)][t], 1 - gamma[(h, i)][t]), i, t)
            for i in range(1, inst.num_contents + 1)
            for t in range(1, T + 1)
            if not _is_int(gamma[(h, i)][t], tol)
        ]
        if not frac_gamma:
            continue
        for i in range(1, inst.num_contents + 1):
            g = gamma[(h, i)]
            for t in range(1, T + 1):
                if g[t] >= 1 - tol and state.fixed(h, i, t)[0] != 1:
                    state.fix(h, i, t, gamma=1)
                    remaining_cache[(h, t)] -= inst.size(i)
                    report.frozen += 1
        _, i, t = min(frac_gamma)
        size = inst.size(i)
        if (
            gamma[(h, i)][t] < 0.5
            or size > remaining_cache[(h, t)] + CAPACITY_EPS
            or not state.update_reachable(h, i, t)
        ):
            state.fix(h, i, t, gamma=0, omega=0)
            report.rounded_down += 1
        else:
            state.fix(h, i, t, gamma=1)
            remaining_cache[(h, t)] -= size
            report.rounded_up += 1

    report.purged_columns = purge_incompatible(
        pool, state.fixings, state.remaining_cache(), state.remaining_backhaul()
    )
    return report


def _column_compatible(col, h, size, fixed, remaining_cache, remaining_backhaul) -> bool:
    for t, (q, p), (gamma, omega) in zip(range(1, len(col) + 1), col, fixed):
        if gamma is not None and q != gamma:
            return False
        if omega is not None and p != omega:
            return False
        if gamma is None and q == 1 and size > remaining_cache[(h, t)] + CAPACITY_EPS:
            return False
        if omega is None and p == 1 and size > remaining_backhaul[(h, t)] + CAPACITY_EPS:
            return False
    return True


def canonical_column(gamma: Sequence[int], omega: Sequence[int]) -> Optional[Column]:
    """Minimal column consistent with one pair's fixings, if one exists;
    ``gamma``/``omega`` hold the fixed value of each slot 1..T, or ``FREE``.

    Caches exactly the slots fixed to cached, updates where fixed to updated,
    and adds the fewest extra cached/updated slots needed to give every cached
    run a derivable age. Returns None when the fixings are contradictory.
    """
    horizon = len(gamma)
    gamma_fix = {t: int(v) for t, v in enumerate(gamma, start=1) if v != FREE}
    omega_fix = {t: int(v) for t, v in enumerate(omega, start=1) if v != FREE}
    if any(gamma_fix.get(t) == 0 for t, v in omega_fix.items() if v == 1):
        return None
    q = [
        1 if (gamma_fix.get(t) == 1 or omega_fix.get(t) == 1) else 0
        for t in range(1, horizon + 1)
    ]
    p = [1 if omega_fix.get(t) == 1 else 0 for t in range(1, horizon + 1)]
    # give every cached run an anchoring update, extending the run backwards
    # through unfixed slots when the run head cannot host one
    for t in range(1, horizon + 1):
        if not q[t - 1]:
            continue
        run_start = t
        while run_start > 1 and q[run_start - 2]:
            run_start -= 1
        if any(p[u - 1] for u in range(run_start, t + 1)):
            continue
        anchor = None
        u = t
        while u >= 1:
            if gamma_fix.get(u) == 0:
                break  # cannot cache through here
            if omega_fix.get(u) != 0:
                anchor = u
                break
            u -= 1
        if anchor is None:
            return None
        for v in range(anchor, t + 1):
            q[v - 1] = 1
        p[anchor - 1] = 1
    col = tuple(zip(q, p))
    if not column_is_valid(col):
        return None
    # the extension must not have violated any explicit zero fixing
    for t in range(1, horizon + 1):
        if gamma_fix.get(t) is not None and col[t - 1][0] != gamma_fix[t]:
            return None
        if omega_fix.get(t) is not None and col[t - 1][1] != omega_fix[t]:
            return None
    return col


def purge_incompatible(pool: ColumnPool, fixings, remaining_cache, remaining_backhaul) -> int:
    """``ColumnPool.purge_incompatible`` on dict fixings and headrooms,
    deriving every canonical column afresh."""
    removed = 0
    slots = range(1, pool.inst.horizon + 1)
    for (h, i), entries in pool_entries(pool).items():
        size = pool.inst.size(i)
        fixed = tuple(fixings.get((h, i, t), (None, None)) for t in slots)
        kept = []
        for k, e in enumerate(entries):
            if _column_compatible(e.column, h, size, fixed, remaining_cache, remaining_backhaul):
                kept.append(k)
            else:
                removed += 1
        col = canonical_column(*fixing_rows(fixed))
        if col is None:
            raise UnfixablePoolError(
                f"no column can satisfy the fixings for server {h}, content {i}"
            )
        keep(pool, h, i, kept)
        if not any(entries[k].column == col for k in kept):
            add_column(pool, h, i, col)
    return removed


# -- conversions between the dict and the array forms ------------------------


def fixing_rows(fixed) -> tuple[list[int], list[int]]:
    """A pair's (gamma, omega) fixings of slots 1..T as the two rows
    ``canonical_column`` takes."""
    return ([FREE if g is None else g for g, _ in fixed],
            [FREE if o is None else o for _, o in fixed])


def fixing_arrays(inst: Instance, fixings) -> tuple[np.ndarray, np.ndarray]:
    """Dict fixings as the int8 [server, content, slot] arrays."""
    shape = (inst.num_servers + 1, inst.num_contents + 1, inst.horizon + 1)
    gamma = np.full(shape, FREE, dtype=np.int8)
    omega = np.full(shape, FREE, dtype=np.int8)
    for key, (g, o) in fixings.items():
        if g is not None:
            gamma[key] = g
        if o is not None:
            omega[key] = o
    return gamma, omega


def headroom_array(inst: Instance, remaining_cache, remaining_backhaul) -> np.ndarray:
    """(server, slot) -> capacity dicts of the cache and the backhaul as the
    [cache/backhaul, server, slot] array of ``RoundingState.headroom``."""
    out = np.zeros((2, inst.num_servers + 1, inst.horizon + 1))
    for kind, remaining in enumerate((remaining_cache, remaining_backhaul)):
        for (h, t), value in remaining.items():
            out[kind, h, t] = value
    return out


def fixed(state, h: int, i: int, t: int) -> Fixing:
    """The (gamma, omega) fixing of one cell of a ``rounding.RoundingState``,
    None where free, as the dict reference's ``fixed`` gives it."""
    g, o = int(state.gamma[h, i, t]), int(state.omega[h, i, t])
    return (None if g == FREE else g, None if o == FREE else o)


def indicator_arrays(inst: Instance, likelihoods: dict) -> np.ndarray:
    """Per-pair likelihood rows as the [server, content, slot] array."""
    out = np.zeros((inst.num_servers + 1, inst.num_contents + 1, inst.horizon + 1))
    for key, row in likelihoods.items():
        out[key] = row
    return out


# -- the scipy.sparse master and face LP -------------------------------------


@dataclass
class SparseLp:
    """min c.x  s.t.  A x <= b in rows 0..num_le-1, A x = b in the rest,
    0 <= x <= upper, with A a CSR matrix."""

    c: np.ndarray
    a_matrix: sparse.csr_matrix
    num_le: int
    b: np.ndarray
    upper: np.ndarray


def master_lp(pool: ColumnPool, capacity_rows) -> SparseLp:
    """The master LP of ``build_rmp`` from COO triplets summed into CSR."""
    inst, idx = pool.inst, pool.idx
    by_pair = pool_entries(pool)
    pairs = sorted(by_pair)
    counts = [len(by_pair[key]) for key in pairs]
    entries = [e for key in pairs for e in by_pair[key]]
    n_chi = len(entries)
    col_pair = np.repeat(np.arange(len(pairs)), counts)
    pair_server = np.array([h for h, _ in pairs], dtype=np.int64)
    pair_size = np.array([float(inst.size(i)) for _, i in pairs])

    lengths = [len(e.svc) for e in entries]
    svc = np.fromiter(chain.from_iterable(e.svc for e in entries), dtype=np.int64,
                      count=sum(lengths))
    cover_col = np.repeat(np.arange(n_chi), lengths)
    paying = idx.svc_saving[svc] < 0
    rank, cover_col = idx.svc_rank[svc[paying]], cover_col[paying]
    covered = np.zeros(len(idx.svc_rank), dtype=bool)
    covered[rank] = True
    cover_svc = idx.svc_by_rank[covered]
    cover_of = (np.cumsum(covered) - 1)[rank]
    request_ids = idx.svc_request_ids[cover_svc]
    first = np.ones(len(request_ids), dtype=bool)
    first[1:] = request_ids[1:] != request_ids[:-1]
    serve_ids, serve_of = request_ids[first], np.cumsum(first) - 1

    cache_keys, backhaul_keys = (
        [(h, t) for h in range(1, inst.num_servers + 1) for t in range(1, inst.horizon + 1)
         if capacity_rows.held[kind, h, t]]
        for kind in (0, 1))
    n_y = len(cover_svc)
    starts = list(accumulate(map(len, (serve_ids, cover_svc, cache_keys, backhaul_keys, pairs)),
                             initial=0))
    n_rows = starts[-1]

    rows = [starts[1] + cover_of]
    cols = [cover_col]
    vals = [np.full(len(cover_col), -1.0)]
    flags = np.frombuffer(b"".join(e.flags for e in entries), dtype=bool).reshape(
        n_chi, 2, inst.horizon)
    for keys, start, kind in ((cache_keys, starts[2], 0), (backhaul_keys, starts[3], 1)):
        if not keys:
            continue
        row_of = np.full((inst.num_servers + 1, inst.horizon + 1), -1, dtype=np.int64)
        row_of[tuple(np.array(keys, dtype=np.int64).T)] = start + np.arange(len(keys))
        col, t = np.nonzero(flags[:, kind])
        row = row_of[pair_server[col_pair[col]], t + 1]
        held = row >= 0
        rows.append(row[held])
        cols.append(col[held])
        vals.append(pair_size[col_pair[col[held]]])
    y_cols = n_chi + np.arange(n_y)
    rows += [starts[4] + col_pair, starts[0] + serve_of, starts[1] + np.arange(n_y)]
    cols += [np.arange(n_chi), y_cols, y_cols]
    vals += [np.ones(n_chi), np.ones(n_y), np.ones(n_y)]
    a_matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, n_chi + n_y),
    )
    c = np.concatenate([np.fromiter((e.cost for e in entries), dtype=float, count=n_chi),
                        idx.svc_saving[cover_svc]])
    upper = np.concatenate([np.full(n_chi, np.inf), np.ones(n_y)])
    b = np.zeros(n_rows)
    b[: starts[1]] = 1.0
    for lo, keys, attr in ((starts[2], cache_keys, "cache_capacity"),
                           (starts[3], backhaul_keys, "backhaul_capacity")):
        b[lo : lo + len(keys)] = [getattr(inst.server(h), attr) for h, _ in keys]
    b[starts[4] :] = 1.0
    return SparseLp(c=c, a_matrix=a_matrix, num_le=starts[4], b=b, upper=upper)


def face_lp(prob: SparseLp, flags: np.ndarray, objective: float,
            basis_rows: np.ndarray) -> tuple[SparseLp, np.ndarray]:
    """The canonical re-solve's face LP, its face row stacked under the
    master's <= rows, and its start basis's row statuses."""
    w = np.zeros(len(prob.c))
    updated = flags[:, 1]
    w[: len(flags)] = (updated.sum(axis=1)
                       + (updated @ np.arange(1, updated.shape[1] + 1)) / 100.0)
    face_eps = 1e-7 * (1.0 + abs(objective))
    at = prob.num_le
    face_row = sparse.csr_matrix(prob.c.reshape(1, -1))
    lp = SparseLp(
        c=w,
        a_matrix=sparse.vstack([prob.a_matrix[:at], face_row, prob.a_matrix[at:]]).tocsr(),
        num_le=at + 1,
        b=np.concatenate([prob.b[:at], [objective + face_eps], prob.b[at:]]),
        upper=prob.upper,
    )
    return lp, np.concatenate([basis_rows[:at], [True], basis_rows[at:]])


def highs_model(prob: SparseLp, basis_rows: Optional[np.ndarray] = None) -> dict:
    """The arrays ``solve_lp`` handed HiGHS's passModel for ``prob``: its
    rows as they come, <= rows with no lower bound, converted to CSC; and,
    given a start basis's basic-row mask, the row statuses of the start."""
    a = prob.a_matrix.tocsc()
    a.sort_indices()
    upper = np.asarray(prob.b, dtype=float)
    lower = upper.copy()
    lower[: prob.num_le] = -np.inf
    out = dict(c=np.asarray(prob.c, dtype=float), col_upper=np.asarray(prob.upper, dtype=float),
               lower=lower, upper=upper, start=a.indptr.astype(np.int32),
               index=a.indices.astype(np.int32), value=a.data)
    if basis_rows is not None:
        nonbasic = np.where(np.arange(len(upper)) < prob.num_le, UPPER, LOWER)
        out["row_status"] = np.where(basis_rows, BASIC, nonbasic)
    return out


def inserted_face_lp(model, sol) -> tuple[LpProblem, LpBasis]:
    """The canonical re-solve's face LP and start basis as ``_canonical_primal``
    built them with ``np.insert``: the face row's entries, right-hand side
    and basic status inserted at row ``model.starts[4]``, the last <= row."""
    prob = model.problem
    w = np.zeros(prob.num_vars)
    updated = model.flags[:, 1]
    w[: len(model.serials)] = (updated.sum(axis=1)
                               + (updated @ np.arange(1, updated.shape[1] + 1)) / 100.0)
    face_eps = 1e-7 * (1.0 + abs(sol.objective))
    at = model.starts[4]
    start, index = prob.start, prob.index
    face = np.flatnonzero(prob.c)
    above = np.concatenate([[0], np.cumsum(index < at)])
    place = start[face] + above[start[face + 1]] - above[start[face]]
    grown = np.zeros(prob.num_vars + 1, dtype=np.int32)
    grown[face + 1] = 1
    face_lp = LpProblem(
        c=w,
        start=start + np.cumsum(grown, dtype=np.int32),
        index=np.insert(index + (index >= at), place, at),
        value=np.insert(prob.value, place, prob.c[face]),
        num_le=at + 1,
        b=np.insert(prob.b, at, sol.objective + face_eps),
        upper=prob.upper,
    )
    return face_lp, LpBasis(sol.basis.cols, np.insert(sol.basis.rows, at, True))


# -- LP helpers the tests check solutions with --------------------------------


def build_lp(
    c: Sequence[float],
    rows: Iterable[tuple[dict[int, float], str, float]],
    upper: Optional[Sequence[float]] = None,
) -> LpProblem:
    """An ``LpProblem`` from rows given as (sparse coefficient dict, rel, rhs),
    rel LE or EQ, every LE row before every EQ row (a >= row is written as
    its negated <= row)."""
    c_arr = np.asarray(c, dtype=float)
    n = len(c_arr)
    data, row_of, col_of, b = [], [], [], []
    num_le = 0
    for coeffs, r, rhs in rows:
        if r not in (LE, EQ):
            raise ValueError(f"unknown relation {r!r}")
        if r == LE:
            if num_le < len(b):
                raise ValueError("a <= row after an = row")
            num_le += 1
        for j, v in coeffs.items():
            if not (0 <= j < n):
                raise ValueError(f"column index {j} out of range")
            if not math.isfinite(v):
                raise ValueError("coefficients must be finite")
            row_of.append(len(b))
            col_of.append(j)
            data.append(float(v))
        b.append(float(rhs))
    col_of = np.array(col_of, dtype=np.int32)
    by_col = np.argsort(col_of, kind="stable")  # rows stay ascending in a column
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col_of, minlength=n), out=start[1:])
    up = (
        np.full(n, np.inf)
        if upper is None
        else np.asarray([math.inf if u is None else float(u) for u in upper])
    )
    return LpProblem(c=c_arr, start=start, index=np.array(row_of, dtype=np.int32)[by_col],
                     value=np.array(data, dtype=float)[by_col], num_le=num_le,
                     b=np.array(b), upper=up)


def a_matrix(prob: LpProblem) -> sparse.csc_matrix:
    """The constraint matrix of ``prob`` as a scipy.sparse matrix."""
    return sparse.csc_matrix((prob.value, prob.index, prob.start),
                             shape=(prob.num_rows, prob.num_vars))


def reduced_costs(sol: LpSolution, prob: LpProblem) -> np.ndarray:
    return prob.c - a_matrix(prob).T @ sol.duals


def dual_objective(sol: LpSolution, prob: LpProblem) -> float:
    """b.y plus the upper-bound contributions of variables parked at upper:
    the price of a finite upper bound shows as a negative reduced cost."""
    rc = reduced_costs(sol, prob)
    bound_part = 0.0
    for j in np.nonzero(np.isfinite(prob.upper))[0]:
        if rc[j] < 0:
            bound_part += prob.upper[j] * rc[j]
    return float(sol.duals @ prob.b + bound_part)


def max_primal_violation(sol: LpSolution, prob: LpProblem) -> float:
    ax = a_matrix(prob) @ sol.x
    worst = 0.0
    for i in range(prob.num_rows):
        if i < prob.num_le:
            worst = max(worst, ax[i] - prob.b[i])
        else:
            worst = max(worst, abs(ax[i] - prob.b[i]))
    worst = max(worst, float(np.max(-sol.x, initial=0.0)))
    finite = np.isfinite(prob.upper)
    if finite.any():
        worst = max(worst, float(np.max(sol.x[finite] - prob.upper[finite], initial=0.0)))
    return worst


# -- the request index's per-service loop ------------------------------------


class LoopRequestIndex(RequestIndex):
    """``RequestIndex`` as it was built before its array passes: one Python
    iteration per service, with ``Instance.f`` and ``cloud_cost`` called for
    each saving and the rank order sorted from the ``svc_pos`` keys."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self._scr: dict[tuple[int, int], list[Request]] = {}
        self._mcr: dict[tuple[int, int], list[Request]] = {}
        for r in inst.requests:
            if r.is_mcr:
                for h in r.candidates:
                    self._mcr.setdefault((h, r.content), []).append(r)
            else:
                self._scr.setdefault((r.candidates[0], r.content), []).append(r)
        self.num_request_ids = max((r.id for r in inst.requests), default=0) + 1
        self.svc_pos: dict[tuple[int, int, int], int] = {}
        request_ids, saving, ages = [], [], []
        mcr_start, mcr_origin, mcr_deadline, mcr_svc, mcr_pair = [0], [], [], [], []
        scr_start, scr_deadline, scr_window, scr_pair = [0], [], [], []
        self.pairs = [(h, i) for h in range(1, inst.num_servers + 1)
                      for i in range(1, inst.num_contents + 1)]
        self.pair_server, self.pair_content = np.divmod(np.arange(len(self.pairs)),
                                                        inst.num_contents)
        self.pair_server += 1
        self.pair_content += 1
        for k, (h, i) in enumerate(self.pairs):
            for r in self._mcr.get((h, i), ()):
                mcr_pair.append(k)
                mcr_origin.append(r.origin)
                mcr_deadline.append(r.deadline)
                mcr_svc.append(len(self.svc_pos))
                for a in range(r.deadline):
                    self.svc_pos[(r.id, h, a)] = len(self.svc_pos)
                    request_ids.append(r.id)
                    saving.append(inst.f(a) - inst.cloud_cost(i))
                    ages.append(a)
            mcr_start.append(len(mcr_origin))
            for r in self._scr.get((h, i), ()):
                scr_pair.append(k)
                scr_deadline.append(r.deadline)
                scr_window.append(r.window)
            scr_start.append(len(scr_deadline))
        self.svc_request_ids = np.array(request_ids, dtype=np.int64)
        self.svc_saving = np.array(saving, dtype=float)
        self.svc_age = np.array(ages, dtype=np.int64)
        self.mcr_start, self.scr_start = np.array(mcr_start), np.array(scr_start)
        self.mcr_origin, self.mcr_deadline, self.mcr_svc, self.mcr_pair = np.array(
            [mcr_origin, mcr_deadline, mcr_svc, mcr_pair], dtype=np.int64).reshape(4, -1)
        self.scr_deadline, self.scr_window, self.scr_pair = np.array(
            [scr_deadline, scr_window, scr_pair], dtype=np.int64).reshape(3, -1)
        self.aoi = np.array([inst.f(a) for a in range(inst.horizon)])
        self.cloud = np.array([0.0] + [inst.cloud_cost(i) for i in range(1, inst.num_contents + 1)])
        keys = list(self.svc_pos)
        self.svc_by_rank = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
        self.svc_rank = np.empty(len(keys), dtype=np.int64)
        self.svc_rank[self.svc_by_rank] = np.arange(len(keys))
        self.mcr_cloud_cost = sum(inst.cloud_cost(r.content) for r in inst.requests if r.is_mcr)

    def scr(self, h: int, i: int) -> tuple[Request, ...]:
        """The SCRs whose sole candidate is h and content is i."""
        return tuple(self._scr.get((h, i), ()))

    def mcr(self, h: int, i: int) -> tuple[Request, ...]:
        """The MCRs with h among the candidates and content i."""
        return tuple(self._mcr.get((h, i), ()))


_LOOP_INDEX: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def loop_index(idx: RequestIndex) -> LoopRequestIndex:
    """``idx`` with the scalar ``scr``/``mcr`` lookups: itself when it has
    them, else the ``LoopRequestIndex`` of its instance, made once per index."""
    if isinstance(idx, LoopRequestIndex):
        return idx
    if idx not in _LOOP_INDEX:
        _LOOP_INDEX[idx] = LoopRequestIndex(idx.inst)
    return _LOOP_INDEX[idx]


# -- the scalar pricing references -------------------------------------------

_SVC_POS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def svc_pos(idx: RequestIndex) -> dict[tuple[int, int, int], int]:
    """The position of each service triple (request id, server, age) in the
    request index's service index, made once per index."""
    if idx not in _SVC_POS:
        servers = idx.pair_server[idx.mcr_pair].repeat(idx.mcr_deadline)
        triples = zip(idx.svc_request_ids.tolist(), servers.tolist(), idx.svc_age.tolist())
        _SVC_POS[idx] = dict(zip(triples, range(len(servers))))
    return _SVC_POS[idx]


def explicit_duals(idx: RequestIndex, sigma=None, pi=None, mu=None, phi=None,
                   lam=None) -> DualPrices:
    """Dual arrays from sparse dicts keyed by request id; (request id, server,
    age); (server, slot); (server, content). A missing entry is zero."""
    inst = idx.inst
    slots = (inst.num_servers + 1, inst.horizon + 1)
    out = DualPrices(np.zeros(idx.num_request_ids), np.zeros(len(idx.svc_rank)),
                     np.zeros(slots), np.zeros(slots),
                     np.zeros((inst.num_servers + 1, inst.num_contents + 1)))
    for array, entries in ((out.sigma, sigma), (out.mus, mu), (out.phis, phi), (out.lams, lam)):
        for key, value in (entries or {}).items():
            array[key] = value
    for key, value in (pi or {}).items():
        out.pis[svc_pos(idx)[key]] = value
    return out


class PairWeights:
    """All arc weights for one (server, content) pair at the given duals,
    each dual read as one entry of its array."""

    def __init__(self, h: int, i: int, duals: DualPrices, inst: Instance, idx: RequestIndex,
                 mode: str):
        self.h, self.i = h, i
        self.horizon = T = inst.horizon
        size = inst.size(i)
        cloud = inst.cloud_cost(i)
        scrs, mcrs = loop_index(idx).scr(h, i), loop_index(idx).mcr(h, i)
        pos = svc_pos(idx)

        # deadline-t SCR counts and their settlement deltas on purple arcs
        n_xi = np.zeros(T + 1)
        psi = np.zeros((T + 1, T + 1))  # [t, a] for a >= 1
        for r in scrs:
            n_xi[r.deadline] += 1
            for a in range(1, T):
                reach = inst.f(max(0, a - r.window))
                if mode == "min":
                    reach = min(reach, cloud)
                psi[r.deadline, a] += reach - cloud

        # age-zero credits: g0[tau, t] sums pi(r, h, 0) over MCRs arriving at
        # tau whose deadline reaches t
        g0 = np.zeros((T + 2, T + 2))
        ga = np.zeros((T + 1, T + 1))  # [t, a] age-a credits for arrivals at t
        for r in mcrs:
            g0[r.origin, 1 : r.deadline + 1] += duals.pis[pos[(r.id, h, 0)]]
            for a in range(1, r.deadline):
                pi = duals.pis[pos[(r.id, h, a)]]
                if pi:
                    ga[r.origin, a] += pi
        cum = np.cumsum(g0, axis=0)  # over arrival slots

        mu, phi = duals.mus[h], duals.phis[h]  # by slot, slot 0 unused
        base_upd = (
            inst.cost.beta * size
            - n_xi * inst.cost.alpha * size
            - size * (mu + phi)
        )

        # update[t, w]: into cached(t, 0) from a predecessor last updated w+1
        # slots ago (w = 0 blue, w >= 1 black/red)
        self.update = np.full((T + 1, T + 1), math.inf)
        for t in range(1, T + 1):
            for w in range(0, t):
                self.update[t, w] = base_upd[t] + (cum[t, t] - cum[t - w - 1, t])
        # purple[t, a]: into cached(t, a)
        self.purple = np.full((T + 1, T + 1), math.inf)
        for t in range(2, T + 1):
            for a in range(1, t):
                self.purple[t, a] = psi[t, a] + ga[t, a] - size * mu[t]
        self.orange = len(scrs) * cloud - duals.lams[h, i]


@dataclass
class PricingGraph:
    """Explicit per-pair DAG: nodes, weighted arcs, and removal masks."""

    h: int
    i: int
    horizon: int
    weights: PairWeights
    allow_uncached: np.ndarray  # [t], all uncached(t, *) removed when False
    allow_cached_zero: np.ndarray  # [t], cached(t, 0) removed when False
    allow_cached_aged: np.ndarray  # [t], cached(t, age>=1) removed when False

    def arcs(self) -> list[tuple[tuple, tuple, float, str]]:
        """Materialize the arc list."""
        T = self.horizon
        out: list[tuple[tuple, tuple, float, str]] = []

        def unc(t, gap):
            return ("uncached", t, gap)

        def cac(t, age):
            return ("cached", t, age)

        if self.allow_uncached[1]:
            out.append((("source",), unc(1, 1), 0.0, "gray"))
        if self.allow_cached_zero[1]:
            out.append((("source",), cac(1, 0), self.weights.update[1, 0], "blue"))
        for t in range(2, T + 1):
            if self.allow_uncached[t - 1]:
                for gap in range(1, t):  # uncached(t-1, gap) sources
                    if self.allow_uncached[t]:
                        out.append((unc(t - 1, gap), unc(t, gap + 1), 0.0, "gray"))
                    if self.allow_cached_zero[t]:
                        out.append((unc(t - 1, gap), cac(t, 0), self.weights.update[t, gap], "red"))
            for age in range(0, t - 1):  # cached(t-1, age) sources
                if age == 0 and not self.allow_cached_zero[t - 1]:
                    continue
                if age >= 1 and not self.allow_cached_aged[t - 1]:
                    continue
                if self.allow_uncached[t]:
                    out.append((cac(t - 1, age), unc(t, age + 1), 0.0, "gray"))
                if self.allow_cached_zero[t]:
                    kind = "blue" if age == 0 else "black"
                    out.append((cac(t - 1, age), cac(t, 0), self.weights.update[t, age], kind))
                if self.allow_cached_aged[t]:
                    out.append((cac(t - 1, age), cac(t, age + 1), self.weights.purple[t, age + 1], "purple"))
        for gap in range(1, T + 1):
            if self.allow_uncached[T]:
                out.append((unc(T, gap), ("sink",), self.weights.orange, "orange"))
        for age in range(0, T):
            if (age == 0 and self.allow_cached_zero[T]) or (age >= 1 and self.allow_cached_aged[T]):
                out.append((cac(T, age), ("sink",), self.weights.orange, "orange"))
        return out


def build_graph(h: int, i: int, duals: DualPrices, inst: Instance, idx: RequestIndex,
                allow=None, mode: str = "paper") -> PricingGraph:
    """The pair's DAG; ``allow`` holds the [slot, pair] node masks of all
    pairs (``RoundingState.masks()``), None removes no node."""
    T = inst.horizon
    if allow is None:
        allow_u, allow_k0, allow_ka = (np.ones(T + 1, dtype=bool) for _ in range(3))
    else:  # the pair's column of the masks
        k = (h - 1) * inst.num_contents + (i - 1)
        allow_u, allow_k0, allow_ka = (m[:, k] for m in allow)
    return PricingGraph(h=h, i=i, horizon=T, weights=PairWeights(h, i, duals, inst, idx, mode),
                        allow_uncached=allow_u, allow_cached_zero=allow_k0,
                        allow_cached_aged=allow_ka)


class ShortestPath(NamedTuple):
    column: Column
    path_value: float  # equals the column's reduced cost


def decode_columns(tab: PricerTables, values: np.ndarray) -> list[Column]:
    """The column of a minimum path of every pair, given its path value
    (``pricing.decode_moves``, each move spelled as a column entry)."""
    entry = ((1, 1), (0, 0), (1, 0))  # update, drop, keep
    return [tuple(entry[m] for m in row) for row in decode_moves(tab, values).T.tolist()]


def shortest_path(graph: PricingGraph) -> ShortestPath:
    """Exact minimum path and its decoded column: the kernel with K = 1."""
    w = graph.weights
    tables = PricerTables(
        w.update[..., None], w.purple[..., None], np.array([w.orange]),
        graph.allow_uncached[:, None], graph.allow_cached_zero[:, None],
        graph.allow_cached_aged[:, None],
    )
    values = forward_values(tables)
    (column,) = decode_columns(tables, values)
    return ShortestPath(column, float(values[0]))


def reduced_cost(col: Column, h: int, i: int, duals: DualPrices, idx: RequestIndex,
                 cost_S: Optional[float] = None, mode: str = "paper") -> float:
    """Reduced cost of a column against the given duals, walked request by
    request and slot by slot. The coverage term follows the settlement
    convention of ``mcsp.rmp``, which is what makes it coincide with the
    pricing graph's shortest-path value."""
    inst, pos = idx.inst, svc_pos(idx)
    total = column_cost_S(col, h, i, inst, idx, mode) if cost_S is None else cost_S
    for r in loop_index(idx).mcr(h, i):
        arrival_age, upd = settlement_coverage(col, r)
        if arrival_age is not None and arrival_age >= 1:
            total += duals.pis[pos[(r.id, h, arrival_age)]]
        if upd:
            total += duals.pis[pos[(r.id, h, 0)]]
    size = inst.size(i)
    for t, (q, p) in enumerate(col, start=1):
        if q:
            total -= size * duals.mus[h, t]
        if p:
            total -= size * duals.phis[h, t]
    return float(total - duals.lams[h, i])


# -- the exhaustive oracle's search ------------------------------------------


def solve_exact(inst: Instance, mode: str = "paper") -> SolveReport:
    """``baselines.solve_exact`` as it searched before its per-depth tables
    (no size caps)."""
    T = inst.horizon
    columns = enumerate_columns(T)
    ages_of = [column_ages(col) for col in columns]
    n_updates = [sum(p for _, p in col) for col in columns]
    pairs = [
        (h, i)
        for i in range(1, inst.num_contents + 1)
        for h in range(1, inst.num_servers + 1)
    ]
    last_deadline: dict[tuple[int, int], int] = {hi: 0 for hi in pairs}
    for r in inst.requests:
        for h in r.candidates:
            key = (h, r.content)
            last_deadline[key] = max(last_deadline[key], r.deadline)
    candidate_cols: dict[tuple[int, int], list[int]] = {}
    for hi in pairs:
        dmax = last_deadline[hi]
        candidate_cols[hi] = [
            k for k, col in enumerate(columns)
            if all(q == 0 for q, _ in col[dmax:])
        ]
    level: dict[int, int] = {}
    pair_pos = {hi: d for d, hi in enumerate(pairs)}
    for r in inst.requests:
        level[r.id] = max(pair_pos[(h, r.content)] for h in r.candidates)
    by_level: dict[int, list[Request]] = {}
    for r in inst.requests:
        by_level.setdefault(level[r.id], []).append(r)
    floor_after = [0.0] * (len(pairs) + 1)
    for d in range(len(pairs) - 1, -1, -1):
        floor_after[d] = floor_after[d + 1] + sum(
            inst.f(0) for r in by_level.get(d, [])
        )

    svc: dict[int, list[float]] = {}
    for r in inst.requests:
        per_col = []
        for k, col in enumerate(columns):
            ages = ages_of[k]
            if mode == "min":
                val = math.inf
                for t in range(r.origin, r.deadline + 1):
                    a = ages[t - 1]
                    if a is not None:
                        val = min(val, inst.f(a))
            else:
                a = ages[r.deadline - 1]
                val = math.inf if a is None else inst.f(max(0, a - r.window))
            per_col.append(val)
        svc[r.id] = per_col

    cache_cap = [inst.server(h).cache_capacity for h in range(1, inst.num_servers + 1)]
    backhaul_cap = [
        inst.server(h).backhaul_capacity for h in range(1, inst.num_servers + 1)
    ]
    cache_load = [[0.0] * (T + 1) for _ in range(inst.num_servers + 1)]
    backhaul_load = [[0.0] * (T + 1) for _ in range(inst.num_servers + 1)]
    chosen: dict[tuple[int, int], int] = {}
    best = {"cost": math.inf, "schedule": None}

    def request_cost(r: Request) -> float:
        served = min(svc[r.id][chosen[(h, r.content)]] for h in r.candidates)
        cloud = inst.cloud_cost(r.content)
        if mode == "min":
            return min(served, cloud)
        return cloud if math.isinf(served) else served

    def dfs(depth: int, acc: float) -> None:
        if acc + floor_after[depth] >= best["cost"] - 1e-12:
            return
        if depth == len(pairs):
            states = {
                hi: column_states(columns[k])
                for hi, k in chosen.items()
                if columns[k] != zero_column(T)
            }
            schedule = Schedule(horizon=T, states=states)
            total = evaluate(schedule, inst, mode).total
            assert abs(total - acc) <= 1e-9 * (1 + abs(total))
            if total < best["cost"] - 1e-12:
                best["cost"] = total
                best["schedule"] = schedule
            return
        h, i = pairs[depth]
        size = inst.size(i)
        beta_size = inst.cost.beta * size
        ch, bh = cache_load[h], backhaul_load[h]
        c_cap, b_cap = cache_cap[h - 1] + CAPACITY_EPS, backhaul_cap[h - 1] + CAPACITY_EPS
        settlers = by_level.get(depth, ())
        for k in candidate_cols[(h, i)]:
            col = columns[k]
            ok = True
            for t, (q, p) in enumerate(col, start=1):
                if q and ch[t] + size > c_cap:
                    ok = False
                    break
                if p and bh[t] + size > b_cap:
                    ok = False
                    break
            if not ok:
                continue
            for t, (q, p) in enumerate(col, start=1):
                ch[t] += size * q
                bh[t] += size * p
            chosen[(h, i)] = k
            settled = 0.0
            for r in settlers:
                settled += request_cost(r)
            dfs(depth + 1, acc + beta_size * n_updates[k] + settled)
            del chosen[(h, i)]
            for t, (q, p) in enumerate(col, start=1):
                ch[t] -= size * q
                bh[t] -= size * p

    dfs(0, 0.0)
    schedule = best["schedule"]
    assignment = derive_assignment(schedule, inst, mode)
    cost = plan_cost(schedule, assignment, inst)
    return SolveReport(algorithm="exact", settlement_mode=mode, cost=cost, settled_cost=cost,
                       schedule=schedule, assignment=assignment)
