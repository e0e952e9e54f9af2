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
   fix to one additionally requires an anchor, an update slot at or before it
   that ``columns.anchor_slots`` finds (otherwise no valid column could
   realize the fix and the master would go infeasible).
4. Recompute headrooms and purge incompatible columns from every pool.

Fixings are monotone and never contradict earlier ones. Each pass fixes at
least one fractional entry per affected server, so the alternation finishes
in at most num_contents * horizon passes.

Fixings live in two int8 arrays over [server, content, slot], ``gamma`` and
``omega``, holding 1, 0 or ``FREE`` (-1); index 0 of each axis is unused and
stays free; only ``RoundingState`` writes them, and its ``fix`` is the one
merge rule. A pass is array code over them and over the likelihood arrays of
``compute_indicators``: stage 1 is two ``fix`` calls on masks, and the
candidate scans of stages 2 and 3 are per-server argmins, whose first
minimum in (content, slot) order is the tie-break. Only the one decision per
server, its last of the pass, stays scalar.

Fixed values translate into pricing-graph node removals: Omega=1 keeps only
the age-zero cached node in its slot, Gamma=0 removes all cached nodes,
Omega=0 removes the age-zero cached node, Gamma=1 removes the uncached nodes.
``RoundingState.masks`` derives them from the same arrays, laid out
[slot, pair] as the pricing tables are, and ``decided`` the settled pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .columns import FREE, ColumnPool, anchor_slots
from .costs import CAPACITY_EPS
from .instance import Instance

TOL_INT = 1e-6


class RoundingState:
    """The fixings of one solve, as int8 arrays ``gamma`` and ``omega`` over
    [server, content, slot] (see the module docstring)."""

    def __init__(self, inst: Instance):
        self.inst = inst
        shape = (inst.num_servers + 1, inst.num_contents + 1, inst.horizon + 1)
        self.gamma = np.full(shape, FREE, dtype=np.int8)
        self.omega = np.full(shape, FREE, dtype=np.int8)
        self.live = np.zeros(shape, dtype=bool)  # the cells of real (h, i, t)
        self.live[1:, 1:, 1:] = True
        self.size = inst.sizes()

    def fix(self, *cells, gamma=None, omega=None) -> int:
        """Merge fixings into the distinct cells ``h, i, t`` (ints, index
        arrays or slices) or of one bool mask over [server, content, slot]:
        ``gamma`` and ``omega`` are 0 or 1, or arrays of them over the cells,
        None leaving that kind as it is. Every cell of both kinds is checked
        before any is written: a cell fixed to another value raises
        AssertionError naming the first such cell. Returns how many cells
        changed in either kind."""
        merges = [(kind, fixed, value) for kind, fixed, value in (
            ("cache", self.gamma, gamma), ("update", self.omega, omega)) if value is not None]
        changed = False
        for kind, fixed, value in merges:
            old = fixed[cells]
            clash = (old != FREE) & (old != value)
            if clash.any():
                at = np.arange(fixed.size).reshape(fixed.shape)[cells]
                at = np.unravel_index(np.broadcast_to(at, clash.shape)[clash][0], fixed.shape)
                raise AssertionError(f"contradictory {kind} fixing at {tuple(map(int, at))}")
            changed = changed | (old != value)
        for _, fixed, value in merges:
            fixed[cells] = value
        return int(np.count_nonzero(changed))

    def headroom(self) -> np.ndarray:
        """The capacity left beyond the contents fixed to one, as a
        [cache/backhaul, server, slot] array (index 0 of server and slot
        unused), the layout of ``Instance.capacities`` and
        ``CapacityRows.held``.
        Sizes are integers, so the used capacity sums exactly. While the
        capacity is below 2**52 and the headroom above -1/2, every partial
        difference of a one-by-one subtraction is exact too, so subtracting
        the sizes one by one, in any order, gives this same value."""
        fixed = np.stack([self.gamma, self.omega]) == 1
        used = (self.size[None, None, :, None] * fixed).sum(axis=2)
        return self.inst.capacities()[:, :, None] - used

    # -- pricing-graph node masks ------------------------------------------

    def masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """allow_u, allow_k0, allow_ka of every pair, [slot, pair], pairs in
        (server, content) order: False where the fixings remove uncached(t,
        *), cached(t, 0) or cached(t, age >= 1)."""
        T = self.inst.horizon
        g = self.gamma[1:, 1:].reshape(-1, T + 1).T
        o = self.omega[1:, 1:].reshape(-1, T + 1).T
        return (o != 1) & (g != 1), (o != 0) & (g != 0), (o != 1) & (g != 0)

    def decided(self) -> np.ndarray:
        """Which pairs, in (server, content) order, are fixed at every slot."""
        fixed = (self.gamma != FREE) & (self.omega != FREE)
        return fixed[1:, 1:, 1:].all(axis=2).ravel()


def compute_indicators(weights: np.ndarray, pool: ColumnPool) -> tuple[np.ndarray, np.ndarray]:
    """Caching and updating likelihoods of the column ``weights`` (in pool
    order) as [server, content, slot] arrays, index 0 of each axis unused.
    Each sum adds the positive weights of the pair's entries in pool order."""
    inst = pool.inst
    shape = (2, inst.num_servers + 1, inst.num_contents + 1, inst.horizon + 1)
    a = pool.arrays()
    e, kind, t = np.nonzero(a.flags & (weights > 0)[:, None, None])
    at = np.ravel_multi_index((kind, a.server[e], a.content[e], t + 1), shape)
    sums = np.bincount(at, weights[e], minlength=np.prod(shape)).reshape(shape)  # in input order
    return sums[0], sums[1]


def _integral(x: np.ndarray) -> np.ndarray:
    return (x <= TOL_INT) | (x >= 1 - TOL_INT)


def is_integral(gamma: np.ndarray, omega: np.ndarray) -> bool:
    return bool(_integral(gamma).all() and _integral(omega).all())


def chi_is_integral(weights: np.ndarray) -> bool:
    return bool(_integral(weights).all())


def chi_integral_iff(weights: np.ndarray, gamma: np.ndarray, omega: np.ndarray) -> bool:
    """Both directions of the integrality equivalence, asserted at runtime."""
    return chi_is_integral(weights) == is_integral(gamma, omega)


@dataclass
class RoundReport:
    frozen: int = 0  # stage-1 fixings of already-integral entries
    rounded_up: int = 0
    rounded_down: int = 0
    purged_columns: int = 0


def round_once(
    state: RoundingState,
    gamma: np.ndarray,
    omega: np.ndarray,
    pool: ColumnPool,
) -> RoundReport:
    """One pass of the staged rounding on the likelihoods ``gamma`` and
    ``omega`` of ``compute_indicators``; mutates state and pool."""
    inst = state.inst
    report = RoundReport()
    G, O = state.gamma, state.omega

    # stage 1: freeze integral entries
    report.frozen = state.fix((omega >= 1 - TOL_INT) & state.live, gamma=1, omega=1)
    report.frozen += state.fix((gamma <= TOL_INT) & state.live, gamma=0, omega=0)

    remaining_cache, remaining_backhaul = state.headroom()  # views, updated in place
    # per cell, the distance of a fractional likelihood to the nearer integer
    # (inf where integral); a server's first minimum in (content, slot) order
    # is the entry it rounds
    near_o = np.where(_integral(omega), np.inf, np.minimum(omega, 1 - omega))
    near_g = np.where(_integral(gamma), np.inf, np.minimum(gamma, 1 - gamma))
    frac_o = np.isfinite(near_o).any(axis=(1, 2))
    frac_g = np.isfinite(near_g).any(axis=(1, 2))

    for h in range(1, inst.num_servers + 1):
        # stage 2: fractional updating likelihoods first
        if frac_o[h]:
            i, t = np.unravel_index(np.argmin(near_o[h]), near_o[h].shape)
            value = omega[h, i, t]
            size = inst.size(i)
            cache_needed = 0 if G[h, i, t] == 1 else size
            if (
                value < 0.5
                or size > remaining_backhaul[h, t] + CAPACITY_EPS
                or cache_needed > remaining_cache[h, t] + CAPACITY_EPS
            ):
                state.fix(h, i, t, omega=0)
                report.rounded_down += 1
            else:
                state.fix(h, i, t, gamma=1, omega=1)
                report.rounded_up += 1
            continue

        # stage 3: updating all integral, caching still fractional
        if not frac_g[h]:
            continue
        # freeze the 1-entries first
        i_one, t_one = np.nonzero((gamma[h] >= 1 - TOL_INT) & (G[h] != 1))
        report.frozen += state.fix(h, i_one, t_one, gamma=1)
        np.subtract.at(remaining_cache[h], t_one, state.size[i_one])  # in (content, slot) order
        i, t = np.unravel_index(np.argmin(near_g[h]), near_g[h].shape)
        size = inst.size(i)
        if (
            gamma[h, i, t] < 0.5
            or size > remaining_cache[h, t] + CAPACITY_EPS
            or anchor_slots(G[h, i, 1:], O[h, i, 1:])[t - 1] < 0
        ):
            state.fix(h, i, t, gamma=0, omega=0)
            report.rounded_down += 1
        else:
            state.fix(h, i, t, gamma=1)
            report.rounded_up += 1

    # stage 4: recompute headroom and drop incompatible columns
    report.purged_columns = pool.purge_incompatible(G, O, state.headroom())
    return report
