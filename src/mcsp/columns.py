"""Columns: per (server, content) cache/update decision sequences.

A column is a tuple of (cached, updated) flag pairs over the horizon. Legal
patterns per slot are (1,1) update, (1,0) keep cached, (0,0) absent; (0,1) is
impossible. A (1,0) slot needs a cached predecessor so the age is derivable,
and a copy cached in slot 1 must have been downloaded there.

Each column carries a standalone cost: its backhaul update cost plus the
age/download cost of the owning server's single-choice requests under the
chosen settlement convention. Pools keep one ordered set of distinct columns
per (server, content), seeded with the all-zero column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .costs import ABSENT, CACHED, UPDATED, SettlementMode
from .instance import Instance, Request, RequestIndex

Column = tuple[tuple[int, int], ...]

ENUMERATION_CAP = 12  # 3^T growth; refuse anything past desk scale


class UnfixablePoolError(RuntimeError):
    """No column can satisfy the accumulated fixings for some (server, content)."""


def zero_column(horizon: int) -> Column:
    return ((0, 0),) * horizon

def column_is_valid(col: Column) -> bool:
    prev_cached = 0
    for q, p in col:
        if p > q:
            return False  # updated but not cached
        if q == 1 and p == 0 and not prev_cached:
            return False  # age would be underivable
        prev_cached = q
    return True


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


def column_ages(col: Column) -> list[Optional[int]]:
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


def update_slots(col: Column) -> tuple[int, ...]:
    return tuple(t for t, (_, p) in enumerate(col, start=1) if p == 1)


def column_states(col: Column) -> str:
    """Render as a state string: 'U' update, 'C' cached, 'A' absent."""
    return "".join(UPDATED if p else (CACHED if q else ABSENT) for q, p in col)


def column_from_states(states: str) -> Column:
    mapping = {UPDATED: (1, 1), CACHED: (1, 0), ABSENT: (0, 0)}
    return tuple(mapping[st] for st in states)


def settle_scr(inst: Instance, i: int, age: int, back: int, mode: SettlementMode) -> float:
    """Age cost a deadline-slot single-choice request pays when the copy has
    the given age at the deadline and arrived ``back`` slots earlier."""
    reach = inst.f(max(0, age - back))
    if mode == "min":
        return min(reach, inst.cloud_cost(i))
    return reach


def column_cost_S(
    col: Column, h: int, i: int, inst: Instance, idx: RequestIndex, mode: SettlementMode
) -> float:
    """Standalone cost of a column: update cost plus the owning server's
    single-choice request costs under the settlement convention."""
    size = inst.size(i)
    total = inst.cost.beta * size * sum(p for _, p in col)
    ages = column_ages(col)
    for r in idx.scr(h, i):
        age = ages[r.deadline - 1]
        if age is None:
            total += inst.cloud_cost(i)
        else:
            total += settle_scr(inst, i, age, r.window, mode)
    return total


def coverage_B(col: Column, r: Request, h: int, a: int) -> int:
    """1 iff the column realizes age ``a`` in some slot of the request window."""
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


def enumerate_columns(horizon: int, cap: int = ENUMERATION_CAP) -> list[Column]:
    """All valid columns for the horizon; exponential, guarded by ``cap``."""
    if horizon > cap:
        raise ValueError(f"refusing to enumerate columns for horizon {horizon} > {cap}")
    cols: list[Column] = [()]
    for t in range(horizon):
        nxt: list[Column] = []
        for col in cols:
            cached_before = t > 0 and col[-1][0] == 1
            nxt.append(col + ((0, 0),))
            nxt.append(col + ((1, 1),))
            if cached_before:
                nxt.append(col + ((1, 0),))
        cols = nxt
    return cols


@dataclass
class PricedEntry:
    column: Column
    cost: float  # standalone cost under the pool's settlement mode
    q_slots: tuple[int, ...] = ()
    p_slots: tuple[int, ...] = ()
    # (request id, age) pairs the settlement convention lets this column serve
    coverage: tuple[tuple[int, int], ...] = ()
    svc: tuple[int, ...] = ()  # their positions in the request index's service index


def make_entry(
    col: Column, h: int, i: int, inst: Instance, idx: RequestIndex, mode: SettlementMode
) -> PricedEntry:
    cov: list[tuple[int, int]] = []
    for r in idx.mcr(h, i):
        arrival_age, upd = settlement_coverage(col, r)
        if arrival_age is not None and arrival_age >= 1:
            cov.append((r.id, arrival_age))
        if upd:
            cov.append((r.id, 0))
    return PricedEntry(
        column=col,
        cost=column_cost_S(col, h, i, inst, idx, mode),
        q_slots=tuple(t for t, (q, _) in enumerate(col, start=1) if q),
        p_slots=update_slots(col),
        coverage=tuple(cov),
        svc=tuple(idx.svc_pos[(r_id, h, a)] for r_id, a in cov),
    )


@dataclass
class ColumnPool:
    """Evolving per-(server, content) column sets with cached standalone costs."""

    inst: Instance
    idx: RequestIndex
    mode: SettlementMode
    entries: dict[tuple[int, int], list[PricedEntry]] = field(default_factory=dict)

    @staticmethod
    def initial(inst: Instance, idx: RequestIndex, mode: SettlementMode) -> "ColumnPool":
        pool = ColumnPool(inst, idx, mode)
        zero = zero_column(inst.horizon)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                pool.entries[(h, i)] = [make_entry(zero, h, i, inst, idx, mode)]
        return pool

    def columns(self, h: int, i: int) -> list[PricedEntry]:
        return self.entries[(h, i)]

    def contains(self, h: int, i: int, col: Column) -> bool:
        return any(e.column == col for e in self.entries[(h, i)])

    def add(self, h: int, i: int, col: Column) -> bool:
        """Insert a column if absent; returns True when actually added."""
        if not column_is_valid(col):
            raise ValueError(f"invalid column {col}")
        if self.contains(h, i, col):
            return False
        self.entries[(h, i)].append(make_entry(col, h, i, self.inst, self.idx, self.mode))
        return True

    def total_columns(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def purge_incompatible(self, fixings, remaining_cache, remaining_backhaul) -> int:
        """Drop columns that contradict fixed cache/update values or that no
        longer fit the capacity left after fixed-to-one consumption.

        ``fixings`` maps (h, i, t) to a pair (gamma, omega) of 0/1/None.
        ``remaining_*`` map (h, t) to the capacity left beyond fixed users.
        Every pool is left holding the canonical minimal-footprint column of
        its fixings: individually compatible survivors may still be jointly
        over capacity, and the canonical point is the master's guaranteed
        feasible fallback.
        """
        removed = 0
        for (h, i), entries in self.entries.items():
            size = self.inst.size(i)
            kept = []
            for e in entries:
                if _column_compatible(
                    e.column, h, i, size, fixings, remaining_cache, remaining_backhaul
                ):
                    kept.append(e)
                else:
                    removed += 1
            col = canonical_column(self.inst.horizon, h, i, fixings)
            if col is None:
                raise UnfixablePoolError(
                    f"no column can satisfy the fixings for server {h}, content {i}"
                )
            if not any(e.column == col for e in kept):
                kept.append(make_entry(col, h, i, self.inst, self.idx, self.mode))
            self.entries[(h, i)] = kept
        return removed


def _column_compatible(
    col: Column, h: int, i: int, size: int, fixings, remaining_cache, remaining_backhaul
) -> bool:
    from .costs import CAPACITY_EPS

    for t, (q, p) in enumerate(col, start=1):
        gamma, omega = fixings.get((h, i, t), (None, None))
        if gamma is not None and q != gamma:
            return False
        if omega is not None and p != omega:
            return False
        if gamma is None and q == 1 and size > remaining_cache[(h, t)] + CAPACITY_EPS:
            return False
        if omega is None and p == 1 and size > remaining_backhaul[(h, t)] + CAPACITY_EPS:
            return False
    return True


def canonical_column(horizon: int, h: int, i: int, fixings) -> Optional[Column]:
    """Minimal column consistent with the fixings for (h, i), if one exists.

    Caches exactly the slots fixed to cached, updates where fixed to updated,
    and adds the fewest extra cached/updated slots needed to give every cached
    run a derivable age. Returns None when the fixings are contradictory.
    """
    gamma_fix: dict[int, int] = {}
    omega_fix: dict[int, int] = {}
    for t in range(1, horizon + 1):
        gamma, omega = fixings.get((h, i, t), (None, None))
        if gamma is not None:
            gamma_fix[t] = gamma
        if omega is not None:
            omega_fix[t] = omega
        if gamma == 0 and omega == 1:
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
