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

One kernel solves the DAGs of K pairs at once, on weight tables stacked on a
leading pair axis: ``forward_values`` gives every pair's minimum path value,
and ``decode_columns`` recovers a minimum path's column for the pairs asked
for. ``price_all`` prices every pair of the master in one forward pass and
decodes only the pairs that price negative; ``shortest_path`` runs the same
kernel on one explicit ``PricingGraph``. The per-pair ``PairWeights`` and the
arc list of ``PricingGraph.arcs`` stay as the references the tests check the
batched weights and the path-column bijection against.

Ties between equal paths prefer fewer updates, then the lexicographically
earliest update slots, then dropping over keeping the copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .columns import Column, ColumnPool
from .costs import SettlementMode
from .instance import Instance, RequestIndex
from .rmp import DualPrices

INF = math.inf

TOL_PRICE = 1e-6


@dataclass(frozen=True)
class PricedColumn:
    h: int
    i: int
    column: Column
    path_value: float  # equals the column's reduced cost


class PairWeights:
    """All arc weights for one (server, content) pair at the given duals."""

    def __init__(
        self,
        h: int,
        i: int,
        duals: DualPrices,
        inst: Instance,
        idx: RequestIndex,
        mode: SettlementMode,
    ):
        self.h, self.i = h, i
        self.horizon = T = inst.horizon
        size = inst.size(i)
        cloud = inst.cloud_cost(i)
        scrs = idx.scr(h, i)
        mcrs = idx.mcr(h, i)

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
            g0[r.origin, 1 : r.deadline + 1] += duals.pi(r, h, 0)
            for a in range(1, r.deadline):
                pi = duals.pi(r, h, a)
                if pi:
                    ga[r.origin, a] += pi
        cum = np.cumsum(g0, axis=0)  # over arrival slots

        mu = np.array([0.0] + [duals.mu(h, t) for t in range(1, T + 1)])
        phi = np.array([0.0] + [duals.phi(h, t) for t in range(1, T + 1)])
        base_upd = (
            inst.cost.beta * size
            - n_xi * inst.cost.alpha * size
            - size * (mu + phi)
        )

        # update[t, w]: into cached(t, 0) from a predecessor last updated w+1
        # slots ago (w = 0 blue, w >= 1 black/red)
        self.update = np.full((T + 1, T + 1), INF)
        for t in range(1, T + 1):
            for w in range(0, t):
                self.update[t, w] = base_upd[t] + (cum[t, t] - cum[t - w - 1, t])
        # purple[t, a]: into cached(t, a)
        self.purple = np.full((T + 1, T + 1), INF)
        for t in range(2, T + 1):
            for a in range(1, t):
                self.purple[t, a] = psi[t, a] + ga[t, a] - size * mu[t]
        self.orange = len(scrs) * cloud - duals.lam(h, i)


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
        """Materialize the arc list (for tests and DOT dumps)."""
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

    def to_dot(self) -> str:
        colors = {"gray": "gray", "orange": "orange", "blue": "blue",
                  "black": "black", "red": "red", "purple": "purple"}
        lines = ["digraph pricing {", "  rankdir=LR;"]
        for u, v, w, kind in self.arcs():
            name_u = "_".join(str(x) for x in u)
            name_v = "_".join(str(x) for x in v)
            lines.append(
                f'  {name_u} -> {name_v} [label="{w:.4g}", color={colors[kind]}];'
            )
        lines.append("}")
        return "\n".join(lines)


def build_graph(
    h: int,
    i: int,
    duals: DualPrices,
    inst: Instance,
    idx: RequestIndex,
    fixings=None,
    mode: SettlementMode = "paper",
) -> PricingGraph:
    T = inst.horizon
    if fixings is None:
        allow_u, allow_k0, allow_ka = (np.ones(T + 1, dtype=bool) for _ in range(3))
    else:
        allow_u, allow_k0, allow_ka = fixings.mask_arrays(h, i, T)
    return PricingGraph(
        h=h,
        i=i,
        horizon=T,
        weights=PairWeights(h, i, duals, inst, idx, mode),
        allow_uncached=allow_u,
        allow_cached_zero=allow_k0,
        allow_cached_aged=allow_ka,
    )


def shortest_path(graph: PricingGraph) -> PricedColumn:
    """Exact minimum path and its decoded column: the kernel with K = 1."""
    w = graph.weights
    tables = PricerTables(
        w.update[None], w.purple[None], np.array([w.orange]),
        graph.allow_uncached[None], graph.allow_cached_zero[None],
        graph.allow_cached_aged[None],
    )
    values = forward_values(tables)
    (column,) = decode_columns(tables, values)
    return PricedColumn(h=graph.h, i=graph.i, column=column, path_value=float(values[0]))


# ---------------------------------------------------------------------------
# The shortest-path kernel: K pair DAGs at once


@dataclass
class PricerTables:
    """Arc weights and node masks of K pair DAGs, stacked on a leading axis.

    upd[k, t, w] and pur[k, t, a] are the update and purple weights of
    PairWeights, orange[k] the sink arcs; allow_u/k0/ka[k, t] are False where
    the fixings remove uncached(t, *), cached(t, 0) or cached(t, age >= 1).
    """

    upd: np.ndarray
    pur: np.ndarray
    orange: np.ndarray
    allow_u: np.ndarray
    allow_k0: np.ndarray
    allow_ka: np.ndarray

    def take(self, ks: np.ndarray) -> "PricerTables":
        """The tables of the pairs ks only."""
        return PricerTables(self.upd[ks], self.pur[ks], self.orange[ks],
                            self.allow_u[ks], self.allow_k0[ks], self.allow_ka[ks])


class NoPathError(RuntimeError):
    """The removal masks disconnected source from sink."""


def forward_values(tab: PricerTables) -> np.ndarray:
    """Minimum source-to-sink path value of every pair (inf where the masks
    cut every path), one forward pass over all K DAGs together."""
    upd, pur = tab.upd, tab.pur
    allow_u, allow_k0, allow_ka = tab.allow_u, tab.allow_k0, tab.allow_ka
    K, T = upd.shape[0], upd.shape[1] - 1
    # dk[k, t, a], dth[k, t, gap]: distance from the source to cached(t, a),
    # uncached(t, gap); cached(t, t) and uncached(t, 0) do not exist (inf)
    dk = np.full((K, T + 1, T + 1), INF)
    dth = np.full((K, T + 1, T + 1), INF)
    dth[allow_u[:, 1], 1, 1] = 0.0
    dk[allow_k0[:, 1], 1, 0] = upd[allow_k0[:, 1], 1, 0]
    for t in range(2, T + 1):
        # prev[:, w]: the nearer of cached(t-1, w) and uncached(t-1, w), both
        # last updated w + 1 slots before t; an update or a drop leaves either
        # one along the same arc weights
        prev = np.minimum(dk[:, t - 1, :t], dth[:, t - 1, :t])
        dk[:, t, 0] = np.where(allow_k0[:, t], np.min(prev + upd[:, t, :t], axis=1), INF)
        dk[:, t, 1:t] = np.where(allow_ka[:, t, None],
                                 dk[:, t - 1, : t - 1] + pur[:, t, 1:t], INF)
        dth[:, t, 1 : t + 1] = np.where(allow_u[:, t, None], prev, INF)
    return (
        np.minimum(np.min(dk[:, T, :], axis=1), np.min(dth[:, T, :], axis=1))
        + tab.orange
    )


_OFF = 10**9  # update count of a move that leaves every tied path
_ENTRY = ((1, 1), (0, 0), (1, 0))  # column entry of a move: update, drop, keep


def decode_columns(tab: PricerTables, values: np.ndarray) -> list[Column]:
    """The column of a minimum path of every pair, given its path value.

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
    M, T = upd.shape[0], upd.shape[1] - 1
    eps = 1e-9 * (1.0 + np.abs(values))
    tie = eps[:, None]
    allow_c = np.repeat(tab.allow_ka[:, :, None], T + 1, axis=2)  # cached(t, a)
    allow_c[:, :, 0] = tab.allow_k0

    # bk[m, t, a], bth[m, t, gap]: distance from cached(t, a), uncached(t, gap)
    # to the sink; uk, uth: fewest updates on a tied path from there
    bk = np.full((M, T + 1, T + 1), INF)
    bth = np.full((M, T + 1, T + 1), INF)
    bk[:, T, :T] = np.where(allow_c[:, T, :T], orange[:, None], INF)
    bth[:, T, 1:] = np.where(tab.allow_u[:, T, None], orange[:, None], INF)
    uk = np.zeros((M, T + 1, T + 1), dtype=np.int64)
    uth = np.zeros((M, T + 1, T + 1), dtype=np.int64)
    for t in range(T, 1, -1):
        # moves out of the slot t-1 node last updated a + 1 slots before t:
        # update and drop from cached(t-1, a) or uncached(t-1, a), keep from
        # cached(t-1, a) only
        via_u = upd[:, t, :t] + bk[:, t, 0:1]
        via_d = bth[:, t, 1 : t + 1]
        via_k = pur[:, t, 1:t] + bk[:, t, 1:t]
        n_u = 1 + uk[:, t, 0:1]
        n_d = uth[:, t, 1 : t + 1]
        move = np.minimum(via_u, via_d)
        best = np.where(allow_c[:, t - 1, : t - 1], np.minimum(move[:, :-1], via_k), INF)
        bk[:, t - 1, : t - 1] = best
        lim = best + tie
        uk[:, t - 1, : t - 1] = np.minimum(
            np.minimum(np.where(via_u[:, :-1] <= lim, n_u, _OFF),
                       np.where(via_d[:, :-1] <= lim, n_d[:, :-1], _OFF)),
            np.where(via_k <= lim, uk[:, t, 1:t], _OFF))
        best = np.where(tab.allow_u[:, t - 1, None], move[:, 1:], INF)
        bth[:, t - 1, 1:t] = best
        lim = best + tie
        uth[:, t - 1, 1:t] = np.minimum(np.where(via_u[:, 1:] <= lim, n_u, _OFF),
                                        np.where(via_d[:, 1:] <= lim, n_d[:, 1:], _OFF))

    # the walk: the node of slot t is cached(t, pos) or uncached(t, pos), at
    # distance dist from the source, with left updates still to make
    rows = np.arange(M)
    lim = values + eps
    start_k = upd[:, 1, 0] + bk[:, 1, 0] <= lim
    start_d = bth[:, 1, 1] <= lim
    left = np.minimum(np.where(start_k, 1 + uk[:, 1, 0], _OFF),
                      np.where(start_d, uth[:, 1, 1], _OFF))
    cached = start_k & (1 + uk[:, 1, 0] == left)
    left -= cached
    pos = np.where(cached, 0, 1)
    dist = np.where(cached, upd[:, 1, 0], 0.0)
    moves = np.empty((M, T), dtype=np.int64)
    moves[:, 0] = ~cached
    for t in range(2, T + 1):
        nxt = pos + 1
        to_u = dist + upd[rows, t, pos]
        to_k = dist + pur[rows, t, nxt]
        go_u = (to_u + bk[:, t, 0] <= lim) & (uk[:, t, 0] == left - 1)
        go_d = (dist + bth[rows, t, nxt] <= lim) & (uth[rows, t, nxt] == left) & ~go_u
        go_k = ((to_k + bk[rows, t, nxt] <= lim) & (uk[rows, t, nxt] == left) & cached
                & ~(go_u | go_d))
        if not (go_u | go_d | go_k).all():
            raise AssertionError("optimal-path walk got stuck; tie tolerance too tight")
        dist = np.where(go_u, to_u, np.where(go_k, to_k, dist))
        left -= go_u
        pos = np.where(go_u, 0, nxt)
        cached = go_u | go_k
        moves[:, t - 1] = go_d + 2 * go_k
    return [tuple(_ENTRY[m] for m in row) for row in moves.tolist()]


# ---------------------------------------------------------------------------
# Batch pricing across all pairs


class PricingStatics:
    """Per-instance tables that do not depend on the duals."""

    def __init__(self, inst: Instance, idx: RequestIndex, mode: SettlementMode):
        self.inst, self.idx, self.mode = inst, idx, mode
        T = inst.horizon
        self.pairs = [
            (h, i)
            for h in range(1, inst.num_servers + 1)
            for i in range(1, inst.num_contents + 1)
        ]
        K = len(self.pairs)
        self.server = np.array([h for h, _ in self.pairs], dtype=np.int64)
        self.content = np.array([i for _, i in self.pairs], dtype=np.int64)
        self.size = np.array([inst.size(i) for _, i in self.pairs], dtype=float)
        self.cloud = np.array([inst.cloud_cost(i) for _, i in self.pairs])
        self.n_scr = np.zeros(K)
        self.n_xi = np.zeros((K, T + 1))
        self.psi = np.zeros((K, T + 1, T + 1))
        for k, (h, i) in enumerate(self.pairs):
            scrs = idx.scr(h, i)
            self.n_scr[k] = len(scrs)
            cloud = self.cloud[k]
            for r in scrs:
                self.n_xi[k, r.deadline] += 1
                for a in range(1, T):
                    reach = inst.f(max(0, a - r.window))
                    if mode == "min":
                        reach = min(reach, cloud)
                    self.psi[k, r.deadline, a] += reach - cloud
        # Credit fill targets of the services, in service-index order. The
        # age-0 credit of a request arriving at o lands in g0[k, o, 1..deadline],
        # the age-a credit in ga[k, o, a]; the flat target indices keep that
        # fill order, so the sums come out the same as filling request by
        # request.
        g0_src, g0_at, ga_src, ga_at = [], [], [], []
        for k, (h, i) in enumerate(self.pairs):
            for r in idx.mcr(h, i):
                for a in range(0, r.deadline):
                    j = idx.svc_pos[(r.id, h, a)]
                    if a == 0:
                        for t in range(1, r.deadline + 1):
                            g0_src.append(j)
                            g0_at.append((k * (T + 2) + r.origin) * (T + 2) + t)
                    else:
                        ga_src.append(j)
                        ga_at.append((k * (T + 1) + r.origin) * (T + 1) + a)
        self.g0_src = np.array(g0_src, dtype=np.int64)
        self.g0_at = np.array(g0_at, dtype=np.int64)
        self.ga_src = np.array(ga_src, dtype=np.int64)
        self.ga_at = np.array(ga_at, dtype=np.int64)


class Pricer:
    """Solves every pair subproblem in one vectorized pass."""

    def __init__(self, statics: PricingStatics):
        self.s = statics

    def price(
        self, duals: DualPrices, fixings=None
    ) -> tuple[np.ndarray, "PricerTables"]:
        s = self.s
        inst = s.inst
        T = inst.horizon
        K = len(s.pairs)
        pi = duals.pis
        g0 = np.zeros(K * (T + 2) * (T + 2))
        np.add.at(g0, s.g0_at, pi[s.g0_src])
        g0 = g0.reshape(K, T + 2, T + 2)
        ga = np.zeros(K * (T + 1) * (T + 1))
        aged = pi[s.ga_src]
        paid = aged != 0
        np.add.at(ga, s.ga_at[paid], aged[paid])
        ga = ga.reshape(K, T + 1, T + 1)
        cum = np.cumsum(g0, axis=1)

        # capacity prices per server, spread over that server's pairs
        mu, phi = duals.mus[s.server], duals.phis[s.server]
        lam = duals.lams[s.server, s.content]

        base_upd = (
            inst.cost.beta * s.size[:, None]
            - s.n_xi * inst.cost.alpha * s.size[:, None]
            - s.size[:, None] * (mu + phi)
        )
        upd = np.full((K, T + 1, T + 1), INF)
        for t in range(1, T + 1):
            for w in range(0, t):
                upd[:, t, w] = base_upd[:, t] + (cum[:, t, t] - cum[:, t - w - 1, t])
        pur = np.full((K, T + 1, T + 1), INF)
        for t in range(2, T + 1):
            for a in range(1, t):
                pur[:, t, a] = s.psi[:, t, a] + ga[:, t, a] - s.size * mu[:, t]
        orange = s.n_scr * s.cloud - lam

        if fixings is None:
            allow_u = np.ones((K, T + 1), dtype=bool)
            allow_k0 = np.ones((K, T + 1), dtype=bool)
            allow_ka = np.ones((K, T + 1), dtype=bool)
        else:
            allow_u, allow_k0, allow_ka = fixings.batch_masks(s.pairs, T)

        tables = PricerTables(upd, pur, orange, allow_u, allow_k0, allow_ka)
        return forward_values(tables), tables


def price_all(
    pool: ColumnPool,
    duals: DualPrices,
    inst: Instance,
    idx: RequestIndex,
    fixings=None,
    mode: SettlementMode = "paper",
    tol: float = TOL_PRICE,
    statics: Optional[PricingStatics] = None,
) -> list[PricedColumn]:
    """One candidate column per pair with reduced cost below -tol. Results
    come back in (server, content) order.

    A pooled column prices at its master reduced cost, which the master's
    optimal duals keep nonnegative, so a candidate that is already pooled
    means the duals and the pool disagree: that raises AssertionError."""
    s = statics if statics is not None else PricingStatics(inst, idx, mode)
    values, tables = Pricer(s).price(duals, fixings)
    ks = np.nonzero(values < -tol)[0]
    if not len(ks):  # a fixpoint round: skip the decode's set-up
        return []
    out: list[PricedColumn] = []
    for k, column in zip(ks, decode_columns(tables.take(ks), values[ks])):
        h, i = s.pairs[k]
        if pool.contains(h, i, column):
            raise AssertionError(
                f"pair ({h}, {i}) priced its pooled column {column} at path value "
                f"{float(values[k])!r}"
            )
        out.append(PricedColumn(h=h, i=i, column=column, path_value=float(values[k])))
    return out
