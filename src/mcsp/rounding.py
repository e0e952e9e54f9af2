"""Rounding of fractional master solutions via per-slot likelihoods.

Instead of fixing whole columns, the caching likelihood Gamma(h,i,t) and the
updating likelihood Omega(h,i,t) (the chi-weighted sums of the columns' cached
and updated flags) are driven to integrality one slot at a time. The solution
weights are integral exactly when all likelihoods are (necessity is immediate;
sufficiency holds because pool columns are distinct), which the driver asserts
on every cycle.

One rounding pass:

1. Freeze what is already integral: Omega = 1 forces both likelihoods to one
   at that slot; Gamma = 0 forces both to zero.
2. Per server with fractional updating likelihoods: take the entry closest to
   an integer. Round down when below one half or when the content no longer
   fits the remaining backhaul or cache headroom, else fix updated-and-cached.
3. Per server with integral Omega but fractional Gamma: freeze the Gamma = 1
   entries, then round the closest entry as above against cache headroom; a
   fix to one additionally requires a reachable update slot at or before it
   (otherwise no valid column could realize the fix and the master would go
   infeasible).
4. Recompute headrooms and purge incompatible columns from every pool.

Fixings are monotone and never contradict earlier ones. Each pass fixes at
least one fractional entry per affected server, so the alternation finishes
in at most num_contents * horizon passes.

Fixed values translate into pricing-graph node removals: Omega=1 keeps only
the age-zero cached node in its slot, Gamma=0 removes all cached nodes,
Omega=0 removes the age-zero cached node, Gamma=1 removes the uncached nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .columns import ColumnPool
from .costs import CAPACITY_EPS
from .instance import Instance

TOL_INT = 1e-6

Fixing = tuple[Optional[int], Optional[int]]  # (gamma, omega), None = free


@dataclass
class RoundingState:
    inst: Instance
    fixings: dict[tuple[int, int, int], Fixing] = field(default_factory=dict)
    passes: int = 0
    # the pricing-graph node masks of every slot, kept in step with the
    # fixings by ``fix``: [u, k0, ka][server, content, slot]
    _allow: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        inst = self.inst
        self._allow = np.ones(
            (3, inst.num_servers + 1, inst.num_contents + 1, inst.horizon + 1), dtype=bool
        )
        for (h, i, t), (gamma, omega) in self.fixings.items():
            self._set_masks(h, i, t, gamma, omega)

    def _set_masks(self, h: int, i: int, t: int, gamma, omega) -> None:
        self._allow[:, h, i, t] = (
            omega != 1 and gamma != 1,  # the uncached and update nodes
            omega != 0 and gamma != 0,  # the age-zero cached node
            omega != 1 and gamma != 0,  # the aged cached nodes
        )

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
        self._set_masks(h, i, t, new_g, new_o)
        return True

    # -- capacity headroom -------------------------------------------------

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

    # -- pricing-graph node masks ------------------------------------------

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

    def batch_masks(self, pairs, T: int):
        """``mask_arrays`` of each pair in ``pairs``, stacked by pair."""
        h, i = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        allow_u, allow_k0, allow_ka = self._allow[:, h, i, : T + 1]
        return allow_u, allow_k0, allow_ka

    def update_reachable(self, h: int, i: int, t: int) -> bool:
        """True when caching at t can still be anchored: some slot t' <= t
        allows an update with an unbroken cacheable stretch up to t."""
        for t_prime in range(t, 0, -1):
            gamma, omega = self.fixed(h, i, t_prime)
            if gamma == 0:
                return False  # the stretch to any earlier anchor is broken
            if omega != 0:
                return True
        return False


def compute_indicators(
    chi: dict[tuple[int, int], np.ndarray], pool: ColumnPool
) -> tuple[dict, dict]:
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
            for t in entry.q_slots:
                g[t] += w
            for t in entry.p_slots:
                o[t] += w
        gamma[key], omega[key] = g, o
    return gamma, omega


def _is_int(x: float, tol: float = TOL_INT) -> bool:
    return x <= tol or x >= 1 - tol


def is_integral(gamma: dict, omega: dict, tol: float = TOL_INT) -> bool:
    return all(
        _is_int(v, tol) for arr in gamma.values() for v in arr[1:]
    ) and all(_is_int(v, tol) for arr in omega.values() for v in arr[1:])


def chi_is_integral(chi: dict[tuple[int, int], np.ndarray], tol: float = TOL_INT) -> bool:
    return all(
        bool(np.all((w <= tol) | (w >= 1 - tol))) for w in chi.values()
    )


def chi_integral_iff(
    chi: dict[tuple[int, int], np.ndarray], gamma: dict, omega: dict, tol: float = TOL_INT
) -> bool:
    """Both directions of the integrality equivalence, asserted at runtime."""
    return chi_is_integral(chi, tol) == is_integral(gamma, omega, tol)


@dataclass
class RoundReport:
    frozen: int = 0  # stage-1 fixings of already-integral entries
    rounded_up: int = 0
    rounded_down: int = 0
    purged_columns: int = 0


def round_once(
    state: RoundingState,
    chi: dict[tuple[int, int], np.ndarray],
    pool: ColumnPool,
    tol: float = TOL_INT,
) -> RoundReport:
    """One pass of the staged rounding; mutates state and pool."""
    inst = state.inst
    T = inst.horizon
    gamma, omega = compute_indicators(chi, pool)
    report = RoundReport()
    state.passes += 1

    # stage 1: freeze integral entries
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
        # stage 2: fractional updating likelihoods first
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

        # stage 3: updating all integral, caching still fractional
        frac_gamma = [
            (min(gamma[(h, i)][t], 1 - gamma[(h, i)][t]), i, t)
            for i in range(1, inst.num_contents + 1)
            for t in range(1, T + 1)
            if not _is_int(gamma[(h, i)][t], tol)
        ]
        if not frac_gamma:
            continue
        for i in range(1, inst.num_contents + 1):  # freeze the 1-entries first
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

    # stage 4: recompute headroom and drop incompatible columns
    report.purged_columns = pool.purge_incompatible(
        state.fixings, state.remaining_cache(), state.remaining_backhaul()
    )
    return report
