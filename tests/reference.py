"""Scalar references the array code of the solve path is checked against.

The rounding pass and the pool purge once kept their fixings in a dict keyed
by (server, content, slot) and looped over it in Python; ``mcsp.rounding`` and
``ColumnPool.purge_incompatible`` now do the same work on int8 arrays. These
are the dict versions, kept so that tests can check the array code pass by
pass: same fixings, reports, headrooms and pools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from mcsp.columns import FREE, ColumnPool, UnfixablePoolError, canonical_column
from mcsp.costs import CAPACITY_EPS
from mcsp.instance import Instance
from mcsp.rounding import TOL_INT, RoundReport

Fixing = tuple[Optional[int], Optional[int]]  # (gamma, omega), None = free


@dataclass
class RoundingState:
    inst: Instance
    fixings: dict[tuple[int, int, int], Fixing] = field(default_factory=dict)
    passes: int = 0

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


def compute_indicators(chi, pool: ColumnPool) -> tuple[dict, dict]:
    """Caching and updating likelihoods per (server, content), slot-indexed
    arrays with entry 0 unused."""
    T = pool.inst.horizon
    gamma: dict[tuple[int, int], np.ndarray] = {}
    omega: dict[tuple[int, int], np.ndarray] = {}
    for key, weights in chi.items():
        g = np.zeros(T + 1)
        o = np.zeros(T + 1)
        for w, entry in zip(weights, pool.entries[key]):
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


def round_once(state: RoundingState, chi, pool: ColumnPool, tol: float = TOL_INT) -> RoundReport:
    inst = state.inst
    T = inst.horizon
    gamma, omega = compute_indicators(chi, pool)
    report = RoundReport()
    state.passes += 1

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


def purge_incompatible(pool: ColumnPool, fixings, remaining_cache, remaining_backhaul) -> int:
    """``ColumnPool.purge_incompatible`` on dict fixings and headrooms,
    deriving every canonical column afresh."""
    removed = 0
    slots = range(1, pool.inst.horizon + 1)
    for (h, i), entries in pool.entries.items():
        size = pool.inst.size(i)
        fixed = tuple(fixings.get((h, i, t), (None, None)) for t in slots)
        kept = []
        for e in entries:
            if _column_compatible(e.column, h, size, fixed, remaining_cache, remaining_backhaul):
                kept.append(e)
            else:
                removed += 1
        col = canonical_column(*fixing_rows(fixed))
        if col is None:
            raise UnfixablePoolError(
                f"no column can satisfy the fixings for server {h}, content {i}"
            )
        if not any(e.column == col for e in kept):
            kept.append(pool._entry(col, h, i))
        pool.entries[(h, i)] = kept
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


def headroom_array(inst: Instance, remaining) -> np.ndarray:
    """A (server, slot) -> capacity dict as the [server, slot] array."""
    out = np.zeros((inst.num_servers + 1, inst.horizon + 1))
    for key, value in remaining.items():
        out[key] = value
    return out


def indicator_arrays(inst: Instance, likelihoods: dict) -> np.ndarray:
    """Per-pair likelihood rows as the [server, content, slot] array."""
    out = np.zeros((inst.num_servers + 1, inst.num_contents + 1, inst.horizon + 1))
    for key, row in likelihoods.items():
        out[key] = row
    return out
