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
from typing import Optional, Sequence

import numpy as np

from .costs import ABSENT, CACHED, UPDATED, CAPACITY_EPS, SettlementMode
from .instance import Instance, Request, RequestIndex

Column = tuple[tuple[int, int], ...]

ENUMERATION_CAP = 12  # 3^T growth; refuse anything past desk scale

FREE = -1  # the value of a slot left unfixed in a fixing array


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
    # (request id, age) pairs the settlement convention lets this column serve
    coverage: tuple[tuple[int, int], ...] = ()
    # their positions in the request index's service index, in rank order
    # (by request id, then age: the order of the master's coverage rows)
    svc: tuple[int, ...] = ()
    serial: int = 0  # the entry's number in its pool, in order of insertion
    flags: bytes = b""  # the cached then the updated flag of every slot, a byte each


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
        coverage=tuple(cov),
        svc=tuple(idx.svc_pos[(r_id, h, a)] for r_id, a in sorted(cov)),
        flags=bytes(q for q, _ in col) + bytes(p for _, p in col),
    )


@dataclass
class PoolArrays:
    """A pool's entries laid end to end in pool order: per entry its server,
    content and size, and its flags as a bool [entry, cached/updated, slot]
    array (slot t at index t - 1)."""

    server: np.ndarray
    content: np.ndarray
    size: np.ndarray
    flags: np.ndarray


@dataclass
class ColumnPool:
    """Evolving per-(server, content) column sets with cached standalone costs.

    Every entry the pool makes gets the next serial number, so an entry keeps
    one identity (``PricedEntry.serial``) for the pool's life, whatever
    entries are purged around it."""

    inst: Instance
    idx: RequestIndex
    mode: SettlementMode
    entries: dict[tuple[int, int], list[PricedEntry]] = field(default_factory=dict)
    num_serials: int = field(default=0, init=False)  # serials handed out so far
    # the fixing arrays at the last purge, and each pair's canonical column
    # under them, as a column and as flags
    _fixed_at_purge: Optional[tuple] = field(default=None, init=False, repr=False,
                                             compare=False)
    _canonical: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _canonical_flags: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                                   compare=False)

    @staticmethod
    def initial(inst: Instance, idx: RequestIndex, mode: SettlementMode) -> "ColumnPool":
        pool = ColumnPool(inst, idx, mode)
        zero = zero_column(inst.horizon)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                pool.entries[(h, i)] = [pool._entry(zero, h, i)]
        return pool

    def _entry(self, col: Column, h: int, i: int) -> PricedEntry:
        entry = make_entry(col, h, i, self.inst, self.idx, self.mode)
        entry.serial = self.num_serials
        self.num_serials += 1
        return entry

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
        self.entries[(h, i)].append(self._entry(col, h, i))
        return True

    def total_columns(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def weights(self, chi: dict) -> np.ndarray:
        """The per-pair column weights ``chi`` of every entry, in pool order."""
        return np.concatenate([chi[key] for key in self.entries])

    def arrays(self) -> PoolArrays:
        entries = [e for v in self.entries.values() for e in v]
        pair = np.repeat(np.array(list(self.entries), dtype=np.int64).reshape(-1, 2),
                         [len(v) for v in self.entries.values()], axis=0)
        flags = np.frombuffer(b"".join(e.flags for e in entries), dtype=bool)
        return PoolArrays(pair[:, 0], pair[:, 1], self.inst.sizes()[pair[:, 1]],
                          flags.reshape(len(entries), 2, self.inst.horizon))

    def purge_incompatible(self, gamma, omega, remaining_cache, remaining_backhaul) -> int:
        """Drop columns that contradict fixed cache/update values or that no
        longer fit the capacity left after fixed-to-one consumption.

        ``gamma``/``omega`` are the int8 fixing arrays over [server, content,
        slot] (1, 0 or ``FREE``); ``remaining_*`` are [server, slot] arrays of
        the capacity left beyond fixed users.
        Every pool is left holding the canonical minimal-footprint column of
        its fixings: individually compatible survivors may still be jointly
        over capacity, and the canonical point is the master's guaranteed
        feasible fallback.
        """
        a = self.arrays()
        fixed = np.stack([gamma, omega], axis=2)[a.server, a.content, :, 1:]
        left = np.stack([remaining_cache, remaining_backhaul], axis=1)[a.server, :, 1:]
        keep = ~np.where(fixed == FREE, a.flags & (a.size[:, None, None] > left + CAPACITY_EPS),
                         a.flags != fixed).any(axis=(1, 2))

        # the canonical column depends on the pair's fixings alone: derive it
        # again only where they changed since the last purge
        last = self._fixed_at_purge
        if last is None:  # [server, content, q/p, slot] flags of the canonical columns
            self._canonical_flags = np.full((*gamma.shape[:2], 2, gamma.shape[2] - 1), 2,
                                            dtype=np.int8)
            changed = np.ones(gamma.shape[:2], dtype=bool)
        else:
            changed = ((gamma != last[0]) | (omega != last[1])).any(axis=2)
        self._fixed_at_purge = (gamma.copy(), omega.copy())
        for key in self.entries:
            if changed[key]:
                col = self._canonical[key] = canonical_column(gamma[key][1:], omega[key][1:])
                self._canonical_flags[key] = 2 if col is None else np.array(col).T
        # whether a kept entry of a pair already is the pair's canonical column
        canon = self._canonical_flags[a.server, a.content]
        matched = keep & (a.flags == canon).all(axis=(1, 2))
        has = np.zeros(gamma.shape[:2], dtype=bool)
        has[a.server[matched], a.content[matched]] = True
        lost = np.zeros(gamma.shape[:2], dtype=bool)  # pairs that lose an entry
        lost[a.server[~keep], a.content[~keep]] = True

        start = 0
        for (h, i), entries in self.entries.items():
            end = start + len(entries)
            col = self._canonical[(h, i)]
            if col is None:
                raise UnfixablePoolError(
                    f"no column can satisfy the fixings for server {h}, content {i}"
                )
            if lost[h, i] or not has[h, i]:
                kept = [e for e, k in zip(entries, keep[start:end]) if k]
                if not has[h, i]:
                    kept.append(self._entry(col, h, i))
                self.entries[(h, i)] = kept
            start = end
        return int(len(keep) - np.count_nonzero(keep))


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
