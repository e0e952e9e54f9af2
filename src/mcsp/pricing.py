"""Column pricing: shortest paths in a per-(server, content) state DAG.

For one (server, content) pair, the minimum-reduced-cost column is found as a
shortest source-to-sink path in a layered DAG. Slot layers hold two node
families:

* uncached(t, gap) -- the copy is absent in slot t and has not been updated
  for ``gap`` consecutive slots (gap counts slot t; gap = t means never).
* cached(t, age)   -- the copy is cached in slot t with the given age.

Arcs between consecutive layers:

* gray   (into uncached): weight 0, the copy stays or becomes absent.
* update (into cached(t, 0)): blue from cached(t-1, 0), black from
  cached(t-1, age), red from uncached(t-1, gap). Weight: the backhaul cost
  of the download, minus the cloud download of the single-choice requests
  settling at t, plus the age-zero service credits of the multiple-choice
  requests that arrived since the previous update, minus the cache and
  backhaul capacity prices.
* purple (cached(t-1, a-1) -> cached(t, a)): the deadline settlement of the
  single-choice requests due at t, plus the age-a service credit of the
  multiple-choice requests arriving at t, minus the cache capacity price.
* orange (slot-T nodes -> sink): the cloud default of all the pair's
  single-choice requests, minus the pair's convexity dual.

Path length equals the column's reduced cost against the master duals
(verified exhaustively in tests), so the shortest path prices the pool
exactly. All gaps share the same red-arc weight formula, which is what lets
one node per (t, gap) replace the per-history nodes of the naive
construction; the collapse is checked against an uncollapsed reference.

One kernel solves the DAGs of K pairs at once, on weight tables with the pair
axis last: ``upd[slot, gap, pair]``, ``pur[slot, age, pair]`` and the masks
``allow_*[slot, pair]`` (``PricerTables``). Every step of the dynamic program
then reads and writes contiguous vectors over the pairs. ``forward_values``
gives every pair's minimum path value, and ``decode_moves`` recovers a
minimum path's moves for the pairs asked for. ``price_all`` prices pairs
in one forward pass and decodes only those that price negative, returning
them as arrays (``Candidates``). Once enough pairs are fixed at every slot,
it prices only the pairs with a free slot (partial pricing): a decided pair
has one path, its pooled column, whose reduced cost one array pass checks
instead. One constructor builds the dual-free tables of any set of pairs
(``PricingStatics``): of every pair once per solve, and of the priced pairs
in ``PricingStatics.live``, which keeps them and their node masks until the
fixings change. The duals come
in as the arrays of ``DualPrices``; the per-pair arc weights and explicit
graphs the tests check the kernel against live with the tests.

Ties between equal paths prefer fewer updates, then the lexicographically
earliest update slots, then dropping over keeping the copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .columns import ColumnPool, column_states, concat_ranges
from .costs import SettlementMode, scr_settlement
from .instance import RequestIndex
from .rmp import DualPrices
from .rounding import RoundingState

INF = math.inf

TOL_PRICE = 1e-6

# The fewest decided pairs that pricing leaves out. Leaving pairs out costs
# a build of the priced pairs' tables whenever the fixings change and a
# check of the decided pairs' columns every round; fewer pairs cost less to
# price.
MIN_DECIDED = 64


# ---------------------------------------------------------------------------
# The shortest-path kernel: K pair DAGs at once


@dataclass
class PricerTables:
    """Arc weights and node masks of K pair DAGs, the pair axis last.

    upd[t, w, k] weighs the update arc into cached(t, 0) from a node last
    updated w + 1 slots before t, pur[t, a, k] the purple arc into cached(t,
    a) (inf where no such arc exists), orange[k] the sink arcs;
    allow_u/k0/ka[t, k] are False where the fixings remove uncached(t, *),
    cached(t, 0) or cached(t, age >= 1).
    """

    upd: np.ndarray
    pur: np.ndarray
    orange: np.ndarray
    allow_u: np.ndarray
    allow_k0: np.ndarray
    allow_ka: np.ndarray

    def take(self, ks: np.ndarray) -> "PricerTables":
        """The tables of the pairs ks only."""
        return PricerTables(self.upd[..., ks], self.pur[..., ks], self.orange[ks],
                            self.allow_u[:, ks], self.allow_k0[:, ks], self.allow_ka[:, ks])


class NoPathError(RuntimeError):
    """The removal masks disconnected source from sink."""


def forward_values(tab: PricerTables) -> np.ndarray:
    """Minimum source-to-sink path value of every pair (inf where the masks
    cut every path), one forward pass over all K DAGs together."""
    upd, pur = tab.upd, tab.pur
    allow_u, allow_k0, allow_ka = tab.allow_u, tab.allow_k0, tab.allow_ka
    T, K = upd.shape[0] - 1, upd.shape[2]
    # dk[a, k], dth[gap, k]: distance from the source to cached(t, a) and
    # uncached(t, gap) of the current slot t; cached(t, t) and uncached(t, 0)
    # do not exist (inf)
    dk = np.full((T + 1, K), INF)
    dth = np.full((T + 1, K), INF)
    dth[1] = np.where(allow_u[1], 0.0, INF)
    dk[0] = np.where(allow_k0[1], upd[1, 0], INF)
    for t in range(2, T + 1):
        # prev[w]: the nearer of cached(t-1, w) and uncached(t-1, w), both
        # last updated w + 1 slots before t; an update or a drop leaves either
        # one along the same arc weights
        prev = np.minimum(dk[:t], dth[:t])
        aged = dk[: t - 1] + pur[t, 1:t]
        dk[0] = np.where(allow_k0[t], np.min(prev + upd[t, :t], axis=0), INF)
        dk[1:t] = np.where(allow_ka[t], aged, INF)
        dth[1 : t + 1] = np.where(allow_u[t], prev, INF)
    return np.minimum(np.min(dk, axis=0), np.min(dth, axis=0)) + tab.orange


_OFF = 10**9  # update count of a move that leaves every tied path


def decode_moves(tab: PricerTables, values: np.ndarray) -> np.ndarray:
    """The moves of a minimum path of every pair, given its path value, as a
    [slot, pair] array: 0 update, 1 drop, 2 keep.

    Paths within 1e-9 * (1 + |value|) of the minimum tie; ties prefer fewer
    updates, then the earliest update slots, then dropping over keeping the
    copy. Backward tables hold each node's distance to the sink and the
    fewest updates on a tied path from it; one forward walk over all pairs
    then takes, slot by slot, the first of update, drop and keep that stays
    on a tied path with the fewest updates. A node the masks remove has
    infinite distance to the sink, so no walk enters it and its update count
    is never read.
    """
    if not np.isfinite(values).all():
        raise NoPathError("fixings disconnected the pricing graph")
    upd, pur, orange = tab.upd, tab.pur, tab.orange
    T, M = upd.shape[0] - 1, upd.shape[2]
    eps = 1e-9 * (1.0 + np.abs(values))
    allow_c = np.repeat(tab.allow_ka[:, None, :], T + 1, axis=1)  # cached(t, a)
    allow_c[:, 0] = tab.allow_k0

    # bk[t, a, m], bth[t, gap, m]: distance from cached(t, a), uncached(t, gap)
    # to the sink; uk, uth: fewest updates on a tied path from there
    bk = np.full((T + 1, T + 1, M), INF)
    bth = np.full((T + 1, T + 1, M), INF)
    bk[T, :T] = np.where(allow_c[T, :T], orange, INF)
    bth[T, 1:] = np.where(tab.allow_u[T], orange, INF)
    uk = np.zeros((T + 1, T + 1, M), dtype=np.int64)
    uth = np.zeros((T + 1, T + 1, M), dtype=np.int64)
    for t in range(T, 1, -1):
        # moves out of the slot t-1 node last updated a + 1 slots before t:
        # update and drop from cached(t-1, a) or uncached(t-1, a), keep from
        # cached(t-1, a) only
        via_u = upd[t, :t] + bk[t, 0]
        via_d = bth[t, 1 : t + 1]
        via_k = pur[t, 1:t] + bk[t, 1:t]
        n_u = 1 + uk[t, 0]
        n_d = uth[t, 1 : t + 1]
        move = np.minimum(via_u, via_d)
        best = np.where(allow_c[t - 1, : t - 1], np.minimum(move[:-1], via_k), INF)
        bk[t - 1, : t - 1] = best
        lim = best + eps
        uk[t - 1, : t - 1] = np.minimum(
            np.minimum(np.where(via_u[:-1] <= lim, n_u, _OFF),
                       np.where(via_d[:-1] <= lim, n_d[:-1], _OFF)),
            np.where(via_k <= lim, uk[t, 1:t], _OFF))
        best = np.where(tab.allow_u[t - 1], move[1:], INF)
        bth[t - 1, 1:t] = best
        lim = best + eps
        uth[t - 1, 1:t] = np.minimum(np.where(via_u[1:] <= lim, n_u, _OFF),
                                     np.where(via_d[1:] <= lim, n_d[1:], _OFF))

    # the walk: the node of slot t is cached(t, pos) or uncached(t, pos), at
    # distance dist from the source, with left updates still to make
    cols = np.arange(M)
    lim = values + eps
    start_k = upd[1, 0] + bk[1, 0] <= lim
    start_d = bth[1, 1] <= lim
    left = np.minimum(np.where(start_k, 1 + uk[1, 0], _OFF),
                      np.where(start_d, uth[1, 1], _OFF))
    cached = start_k & (1 + uk[1, 0] == left)
    left -= cached
    pos = np.where(cached, 0, 1)
    dist = np.where(cached, upd[1, 0], 0.0)
    moves = np.empty((T, M), dtype=np.int64)
    moves[0] = ~cached
    for t in range(2, T + 1):
        nxt = pos + 1
        to_u = dist + upd[t, pos, cols]
        to_k = dist + pur[t, nxt, cols]
        go_u = (to_u + bk[t, 0] <= lim) & (uk[t, 0] == left - 1)
        go_d = (dist + bth[t, nxt, cols] <= lim) & (uth[t, nxt, cols] == left) & ~go_u
        go_k = ((to_k + bk[t, nxt, cols] <= lim) & (uk[t, nxt, cols] == left) & cached
                & ~(go_u | go_d))
        if not (go_u | go_d | go_k).all():
            raise AssertionError("optimal-path walk got stuck; tie tolerance too tight")
        dist = np.where(go_u, to_u, np.where(go_k, to_k, dist))
        left -= go_u
        pos = np.where(go_u, 0, nxt)
        cached = go_u | go_k
        moves[t - 1] = go_d + 2 * go_k
    return moves


# ---------------------------------------------------------------------------
# Batch pricing across all pairs


class PricingStatics:
    """The tables of the pairs numbered ``keys`` (ascending, among all pairs
    of the instance in (server, content) order) that do not depend on the
    duals, pair axis last, built from the request index's per-pair request
    arrays. One constructor builds any set of pairs: every pair for a solve,
    and the pairs ``live`` prices under some fixings."""

    def __init__(self, idx: RequestIndex, mode: SettlementMode, keys: np.ndarray):
        self.inst, self.idx, self.mode, self.keys = idx.inst, idx, mode, keys
        inst = idx.inst
        T, K = inst.horizon, len(keys)
        self.server, self.content = idx.pair_server[keys], idx.pair_content[keys]
        self.size = inst.sizes()[self.content]
        cloud = idx.cloud[self.content]
        # the single-choice requests of the pairs (k the pair's place among
        # the kept, j the request's entry), those due at each slot t, and
        # their settlement deltas on purple arcs at every age a = 1..T-1,
        # request by request
        k, j = concat_ranges(idx.scr_start[keys], idx.scr_start[keys + 1])
        deadline = idx.scr_deadline[j]
        n_xi = np.bincount(deadline * K + k, minlength=(T + 1) * K)
        n_xi = n_xi.reshape(T + 1, K).astype(float)
        r, a = np.nonzero(np.ones((len(k), T - 1), dtype=bool))
        a += 1
        self.psi = _credits((deadline[r] * (T + 1) + a) * K + k[r],
                            scr_settlement(idx, mode)[j[r], a] - cloud[k[r]],
                            (T + 1, T + 1, K))  # [t, a, k] for a >= 1
        # the dual-free terms of the update weights and of the sink arcs
        self.upd_base = inst.cost.beta * self.size - n_xi * inst.cost.alpha * self.size
        self.scr_cloud = np.diff(idx.scr_start)[keys] * cloud
        # the [t, a] cells that are no purple arc: a = 0, a >= t, t < 2
        t, a = np.indices((T + 1, T + 1))
        self.no_purple = (a < 1) | (a >= t)
        # Credit fill targets of the services, request by request within each
        # pair. The age-0 credit of a request arriving at o lands in
        # g0[o, 1..deadline, k], the age-a credit in ga[o, a, k]; the flat
        # target indices (``*_at``, cell of the [slot, slot] plane times K
        # plus pair) keep that fill order, so the sums come out the same
        # whichever pairs are kept. ``*_src`` is the service credited.
        k, j = concat_ranges(idx.mcr_start[keys], idx.mcr_start[keys + 1])
        origin, deadline, zero = idx.mcr_origin[j], idx.mcr_deadline[j], idx.mcr_svc[j]
        r, t = np.nonzero(np.arange(1, T + 1) <= deadline[:, None])
        self.g0_src, self.g0_at = zero[r], (origin[r] * (T + 2) + t + 1) * K + k[r]
        r, a = np.nonzero(np.arange(1, T) < deadline[:, None])
        a += 1
        self.ga_src, self.ga_at = zero[r] + a, (origin[r] * (T + 1) + a) * K + k[r]
        self._live: Optional[tuple] = None  # the fixings ``live`` last saw, and what it chose

    def live(self, fixings: RoundingState) -> tuple["PricingStatics", np.ndarray, tuple]:
        """The pairs to price under ``fixings`` (a fresh ``RoundingState``
        fixes nothing), asked of the statics of every pair: their statics,
        the pairs left out, and the node masks of the pairs priced, as
        ``Pricer.price`` takes them. The pairs left out (``decided``, over
        all pairs of the instance) are none, or every pair fixed at every
        slot when there are at least ``MIN_DECIDED`` of them: a decided pair
        has one path, the column its fixings spell out, which its pool
        already holds. The answer is kept until the fixings change."""
        seen = fixings.gamma.tobytes() + fixings.omega.tobytes()
        if self._live is None or self._live[0] != seen:
            decided = fixings.decided()
            allow = fixings.masks()
            selected = None
            if np.count_nonzero(decided) >= MIN_DECIDED:
                selected = PricingStatics(self.idx, self.mode, np.flatnonzero(~decided))
                allow = tuple(m[:, ~decided] for m in allow)
            else:
                decided = np.zeros(len(self.idx.pairs), dtype=bool)
            # the selected tables, not the statics themselves: a cycle back
            # to them would keep their tables alive until a garbage collection
            self._live = (seen, selected, decided, allow)
        _, selected, decided, allow = self._live
        return self if selected is None else selected, decided, allow


def _credits(at: np.ndarray, credit: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A zero table of ``shape`` with each credit added at its flat index
    ``at``, in input order (as ``np.add.at`` would add them). ``bincount``
    of no entries is int64, hence the cast."""
    out = np.bincount(at, credit, minlength=int(np.prod(shape)))
    return out.astype(float, copy=False).reshape(shape)


class Pricer:
    """Solves every pair subproblem in one vectorized pass."""

    def __init__(self, statics: PricingStatics):
        self.s = statics

    def price(self, duals: DualPrices, allow: tuple) -> tuple[np.ndarray, "PricerTables"]:
        """Every pair's minimum path value, and the tables it was found on.
        ``allow`` holds the node masks (``PricerTables.allow_u``, ``allow_k0``
        and ``allow_ka``), all True where no node is removed."""
        s = self.s
        T = s.inst.horizon
        K = len(s.keys)
        pi = duals.pis
        cum = _credits(s.g0_at, pi[s.g0_src], (T + 2, T + 2, K))
        for o in range(1, T + 1):  # the running sum over arrival slots, in place
            np.add(cum[o - 1], cum[o], out=cum[o])
        aged = pi[s.ga_src]
        paid = aged != 0
        ga = _credits(s.ga_at[paid], aged[paid], (T + 1, T + 1, K))

        # capacity prices per server, spread over that server's pairs: [t, k]
        mu, phi = duals.mus[s.server].T, duals.phis[s.server].T
        base_upd = s.upd_base - s.size * (mu + phi)
        # upd[t, w]: into cached(t, 0) from a predecessor last updated w + 1
        # slots ago; the credits of the arrivals at t - w .. t
        upd = np.full((T + 1, T + 1, K), INF)
        for t in range(1, T + 1):
            upd[t, :t] = base_upd[t] + (cum[t, t] - cum[t - 1 :: -1, t])
        # pur = psi + ga - size * mu, built in ga's buffer (large temporaries
        # cost more in fresh pages than in arithmetic)
        pur = ga
        pur += s.psi
        pur -= (s.size * mu)[:, None]
        pur[s.no_purple] = INF
        orange = s.scr_cloud - duals.lams[s.server, s.content]

        tables = PricerTables(upd, pur, orange, *allow)
        return forward_values(tables), tables


@dataclass
class Candidates:
    """The columns a pricing round returns, one per pair that prices below
    -tol, in pair order: ``keys`` the pair numbers, ascending; ``flags`` the
    columns' cached and updated flags, a bool [candidate, cached/updated,
    slot] array; ``values`` their path values, each the column's reduced
    cost."""

    keys: np.ndarray
    flags: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


def price_all(
    pool: ColumnPool,
    duals: DualPrices,
    statics: PricingStatics,
    fixings: RoundingState,
    tol: float = TOL_PRICE,
) -> Candidates:
    """One candidate column per pair with reduced cost below -tol, priced on
    ``statics`` under ``fixings``. The statics must be made on the pool's
    request index and in its mode, or the prices and the pool's costs
    disagree: that raises ValueError.

    Once at least ``MIN_DECIDED`` pairs are fixed at every slot, only the
    pairs with a free slot are priced (partial pricing): a decided pair has
    a single path, its pooled column, whose reduced cost is checked in one
    array pass instead (``_check_decided``).

    A pooled column prices at its master reduced cost, which the master's
    optimal duals keep nonnegative, so a candidate that is already pooled
    means the duals and the pool disagree: that raises AssertionError."""
    if statics.idx is not pool.idx or statics.mode != pool.mode:
        raise ValueError("pricing statics and pool differ in request index or mode")
    live, decided, allow = statics.live(fixings)
    values, tables = Pricer(live).price(duals, allow)
    if decided.any():
        _check_decided(pool, duals, decided, tol)
    ks = np.flatnonzero(values < -tol)
    if not len(ks):  # a fixpoint round: skip the decode's set-up
        return Candidates(ks, np.empty((0, 2, pool.inst.horizon), dtype=bool), values[ks])
    moves = decode_moves(tables.take(ks), values[ks])
    flags = np.ascontiguousarray(np.stack([moves != 1, moves == 0]).transpose(2, 0, 1))
    keys = live.keys[ks]
    pooled = pool.pooled(keys, flags)
    if any(pooled):
        n = pooled.index(True)
        raise _priced_pooled(pool.pairs[keys[n]], flags[n], values[ks[n]])
    return Candidates(keys, flags, values[ks])


def _priced_pooled(pair: tuple, flags: np.ndarray, value: float) -> AssertionError:
    """The error of a pair that priced the pooled column ``flags``."""
    return AssertionError(f"pair {pair} priced its pooled column {column_states(flags[None])[0]} "
                          f"at path value {float(value)!r}")


def _check_decided(pool: ColumnPool, duals: DualPrices, decided: np.ndarray, tol: float) -> None:
    """Raise AssertionError as ``price_all`` would for a pooled candidate if
    a pooled column of a decided pair (``decided`` over all pairs) has a
    reduced cost below -tol: its cost, plus the coverage duals of the
    services it covers, minus its size times the capacity duals of its cached
    and updated slots, minus its pair's convexity dual."""
    a = pool.arrays()
    e = np.flatnonzero(decided[a.pair])
    serial, server, flags = a.serial[e], a.server[e], a.flags[e]
    svc, row = pool.covered(serial)
    capacity = (flags[:, 0] * duals.mus[server, 1:] + flags[:, 1] * duals.phis[server, 1:]).sum(1)
    rc = (pool.cost[serial] + np.bincount(row, duals.pis[svc], minlength=len(e))
          - a.size[e] * capacity - duals.lams[server, a.content[e]])
    bad = np.flatnonzero(rc < -tol)
    if len(bad):
        n = bad[0]
        raise _priced_pooled((int(server[n]), int(a.content[e[n]])), flags[n], rc[n])
