"""Restricted master problem: build, solve, duals, direct reduced costs.

The master minimizes the sum of selected column costs plus the service cost
of the multiple-choice requests. Per MCR r, candidate server h and age a, a
service variable y gives the saving (f(a) - f(0) - alpha*s) against the cloud
default, which is carried as a constant in the objective. Rows:

* serve-once:   sum of a request's y variables <= 1
* coverage:     y_{rha} <= sum of selected columns that can serve (r, a)
* cache:        per (server, slot), sum of cached sizes <= cache capacity
* backhaul:     per (server, slot), sum of updated sizes <= backhaul capacity
* convexity:    per (server, content), exactly one column selected

The cache and backhaul rows are generated lazily: a master built with a
``CapacityRows`` set holds only the (server, slot) rows in it, and column
generation adds a row once a fixpoint primal violates it (row generation
inside column generation). Rows left out have zero duals, which is what
``DualPrices.mu``/``phi`` report for them, so a fixpoint whose primal
respects every capacity is still the exact LP bound over all rows. A master
whose capacities never bind is then the same LP whatever those capacities
are. Built without a set, the master holds every capacity row.

Coverage uses the settlement convention of the pricing graph: a column can
serve (r, a) at the age it holds when the request arrives, or at age zero
when it updates inside the request window. Service variables that can never
pay off (f(a) >= cloud cost) and coverage rows no pool column supports are
left out of the LP; their duals are filled in so that the returned
DualPrices is a complete optimal dual vector for the full row set (the
certificate tests check the filled-in values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Optional

import numpy as np
from scipy import sparse

from .columns import Column, ColumnPool, PricedEntry, settlement_coverage
from .instance import Instance, Request, RequestIndex
from .simplex import _REL_CODES, EQ, LE, LpError, LpProblem, LpSolution, solve_lp

TOL_CHI = 1e-6  # integrality tolerance on column weights
TOL_CAP = 1e-7  # relative slack before a left-out capacity row counts as violated


@dataclass
class DualPrices:
    """Duals of the master rows as complete arrays: ``sigma`` by request id,
    ``pis`` by position in the request index's service index, ``mus`` and
    ``phis`` by [server, slot], ``lams`` by [server, content].

    Read off a master solve, they are optimal over the full row set: a
    capacity row the master leaves out has a zero dual, and a coverage row it
    leaves out one filled in by ``_read_duals``. ``pi``, ``mu``, ``phi`` and
    ``lam`` look single entries up.
    """

    idx: RequestIndex
    sigma: np.ndarray
    pis: np.ndarray
    mus: np.ndarray
    phis: np.ndarray
    lams: np.ndarray

    @classmethod
    def explicit(cls, idx: RequestIndex, sigma=None, pi=None, mu=None, phi=None, lam=None):
        """Duals given as sparse dicts, keyed as the lookups are: request id;
        (request id, server, age); (server, slot); (server, content). A
        missing entry is zero."""
        inst = idx.inst
        slots = (inst.num_servers + 1, inst.horizon + 1)
        out = cls(idx, np.zeros(idx.num_request_ids), np.zeros(len(idx.svc_pos)),
                  np.zeros(slots), np.zeros(slots),
                  np.zeros((inst.num_servers + 1, inst.num_contents + 1)))
        for array, entries in ((out.sigma, sigma), (out.mus, mu), (out.phis, phi), (out.lams, lam)):
            for key, value in (entries or {}).items():
                array[key] = value
        for key, value in (pi or {}).items():
            out.pis[idx.svc_pos[key]] = value
        return out

    def pi(self, r: Request, h: int, a: int) -> float:
        return float(self.pis[self.idx.svc_pos[(r.id, h, a)]])

    def mu(self, h: int, t: int) -> float:
        return float(self.mus[h, t])

    def phi(self, h: int, t: int) -> float:
        return float(self.phis[h, t])

    def lam(self, h: int, i: int) -> float:
        return float(self.lams[h, i])


@dataclass
class CapacityRows:
    """The (server, slot) keys of the cache and backhaul rows held in a
    master. The set only grows; one solve shares it across all its column
    generation runs."""

    cache: set[tuple[int, int]] = field(default_factory=set)
    backhaul: set[tuple[int, int]] = field(default_factory=set)

    def add_violated(self, pool: ColumnPool, chi: dict, inst: Instance) -> int:
        """Add the rows whose load under the column weights ``chi`` exceeds
        the instance capacity; return how many were added."""
        cache_load: dict[tuple[int, int], float] = {}
        backhaul_load: dict[tuple[int, int], float] = {}
        for (h, i), weights in chi.items():
            size = inst.size(i)
            for entry, w in zip(pool.entries[(h, i)], weights):
                if w <= 0:
                    continue
                for t in entry.q_slots:
                    cache_load[(h, t)] = cache_load.get((h, t), 0.0) + w * size
                for t in entry.p_slots:
                    backhaul_load[(h, t)] = backhaul_load.get((h, t), 0.0) + w * size
        added = 0
        for loads, active, attr in (
            (cache_load, self.cache, "cache_capacity"),
            (backhaul_load, self.backhaul, "backhaul_capacity"),
        ):
            for (h, t), load in loads.items():
                cap = getattr(inst.server(h), attr)
                if (h, t) not in active and load > cap + TOL_CAP * (1 + abs(cap)):
                    active.add((h, t))
                    added += 1
        return added


@dataclass
class RmpModel:
    """An assembled master LP plus the keys of its row blocks, which follow
    one another in this order: serve-once rows by request id, coverage rows
    by service position (the y variables follow the chi variables in the
    same order), cache and backhaul rows by (server, slot), and convexity
    rows by (server, content)."""

    problem: LpProblem
    pool: ColumnPool
    idx: RequestIndex
    constant: float
    entries: list[PricedEntry]  # the pool entry of each chi column, in LP column order
    chi_offset: dict[tuple[int, int], int]  # first LP column of each pair's block
    starts: list[int]  # first row of each row block, then the row count
    serve_ids: list[int]
    cover_svc: np.ndarray
    cache_keys: list[tuple[int, int]]
    backhaul_keys: list[tuple[int, int]]
    pairs: list[tuple[int, int]]


@dataclass
class RmpSolution:
    objective: float  # includes the MCR cloud-cost constant
    chi: dict[tuple[int, int], np.ndarray]  # per pair, aligned with pool entries
    duals: DualPrices
    lp: LpSolution

    def chi_is_integral(self, tol: float = TOL_CHI) -> bool:
        return all(
            bool(np.all((v < tol) | (v > 1 - tol))) for v in self.chi.values()
        )

    def integral_column(self, h: int, i: int, pool: ColumnPool) -> Column:
        weights = self.chi[(h, i)]
        k = int(np.argmax(weights))
        if weights[k] < 1 - TOL_CHI:
            raise ValueError(f"column weights for ({h},{i}) are fractional")
        return pool.columns(h, i)[k].column


def service_saving(inst: Instance, i: int, a: int) -> float:
    """Objective coefficient of a service variable: f(a) minus the cloud cost
    (the scalar form of ``RequestIndex.svc_saving``)."""
    return inst.f(a) - inst.cloud_cost(i)


def _flatten(seqs) -> tuple[np.ndarray, np.ndarray]:
    """The integer sequences ``seqs`` laid end to end, and for each element
    the position of the sequence it came from."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    flat = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    return flat, np.repeat(np.arange(len(seqs)), lengths)


def build_rmp(
    pool: ColumnPool,
    inst: Instance,
    idx: RequestIndex,
    capacity_rows: Optional[CapacityRows] = None,
) -> RmpModel:
    """Assemble the master LP over the current pools, with the capacity rows
    named in ``capacity_rows`` (all of them when it is None).

    The matrix comes from what each pool entry stores: the service positions
    it covers, its cached and updated slots, and its pair. A service gets a
    coverage row and a y variable when some entry covers it and serving it
    can pay off (``svc_saving`` < 0)."""
    pairs = sorted(pool.entries)
    for key in pairs:
        if not pool.entries[key]:
            raise ValueError(f"empty pool for pair {key}")
    counts = [len(pool.entries[key]) for key in pairs]
    entries = [e for key in pairs for e in pool.entries[key]]
    n_chi = len(entries)
    col_pair = np.repeat(np.arange(len(pairs)), counts)
    pair_server = np.array([h for h, _ in pairs], dtype=np.int64)
    pair_size = np.array([float(inst.size(i)) for _, i in pairs])

    # coverage rows: the paying services some entry covers, in rank order
    svc, cover_col = _flatten([e.svc for e in entries])
    paying = idx.svc_saving[svc] < 0
    rank, cover_col = idx.svc_rank[svc[paying]], cover_col[paying]
    covered = np.zeros(len(idx.svc_rank), dtype=bool)
    covered[rank] = True
    cover_svc = idx.svc_by_rank[covered]
    cover_of = (np.cumsum(covered) - 1)[rank]
    # serve-once rows: the requests of those services, sorted as the ranks are
    request_ids = idx.svc_request_ids[cover_svc]
    first = np.ones(len(request_ids), dtype=bool)
    first[1:] = request_ids[1:] != request_ids[:-1]
    serve_ids, serve_of = request_ids[first], np.cumsum(first) - 1

    if capacity_rows is None:
        cache_keys = backhaul_keys = [
            (h, t) for h in range(1, inst.num_servers + 1) for t in range(1, inst.horizon + 1)
        ]
    else:
        cache_keys = sorted(capacity_rows.cache)
        backhaul_keys = sorted(capacity_rows.backhaul)

    n_y = len(cover_svc)
    starts = list(accumulate(map(len, (serve_ids, cover_svc, cache_keys, backhaul_keys, pairs)),
                             initial=0))
    n_rows = starts[-1]

    rows = [starts[1] + cover_of]
    cols = [cover_col]
    vals = [np.full(len(cover_col), -1.0)]
    for keys, start, attr in ((cache_keys, starts[2], "q_slots"),
                              (backhaul_keys, starts[3], "p_slots")):
        if not keys:  # no row of this kind (the common case with lazy rows)
            continue
        row_of = np.full((inst.num_servers + 1, inst.horizon + 1), -1, dtype=np.int64)
        row_of[tuple(np.array(keys, dtype=np.int64).T)] = start + np.arange(len(keys))
        t, col = _flatten([getattr(e, attr) for e in entries])
        row = row_of[pair_server[col_pair[col]], t]
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
    rel = np.full(n_rows, _REL_CODES[LE], dtype=int)
    b = np.zeros(n_rows)
    b[: starts[1]] = 1.0  # serve-once
    for lo, keys, attr in ((starts[2], cache_keys, "cache_capacity"),
                           (starts[3], backhaul_keys, "backhaul_capacity")):
        b[lo : lo + len(keys)] = [getattr(inst.server(h), attr) for h, _ in keys]
    rel[starts[4] :], b[starts[4] :] = _REL_CODES[EQ], 1.0  # convexity

    problem = LpProblem(c=c, a_matrix=a_matrix, rel=rel, b=b, upper=upper)
    return RmpModel(
        problem=problem,
        pool=pool,
        idx=idx,
        constant=idx.mcr_cloud_cost,
        entries=entries,
        chi_offset=dict(zip(pairs, accumulate(counts, initial=0))),
        starts=starts,
        serve_ids=serve_ids.tolist(),
        cover_svc=cover_svc,
        cache_keys=cache_keys,
        backhaul_keys=backhaul_keys,
        pairs=pairs,
    )


def solve_rmp(
    model: RmpModel,
    canonical: bool = False,
    lp: Optional[LpSolution] = None,
) -> RmpSolution:
    """Solve the master; with ``canonical`` the primal is re-selected on the
    optimal face to minimize update count, then update lateness. ``lp``, when
    given, is the primary solve of this master, already at hand.

    Degenerate masters have many optimal vertices and which one a solver
    returns can depend on immaterial input details. The slack of a
    never-binding capacity row is kept out of the LP altogether by the lazy
    capacity rows (see the module docstring), so the master, and with it
    every primal and dual the solver returns, does not depend on it. The
    rounding passes consume the primal; the canonical vertex additionally
    makes the fixpoint primal they see independent of which optimal vertex
    the solver picked. Duals, objective and the bound always come from the
    primary solve.
    """
    sol = lp if lp is not None else solve_lp(model.problem)
    x = _canonical_primal(model, sol) if canonical else sol.x
    pool = model.pool
    chi = {
        key: x[off : off + len(pool.entries[key])].copy() for key, off in model.chi_offset.items()
    }
    return RmpSolution(
        objective=sol.objective + model.constant, chi=chi, duals=_read_duals(model, sol.duals),
        lp=sol,
    )


def _read_duals(model: RmpModel, y: np.ndarray) -> DualPrices:
    """The complete dual arrays of a master whose LP rows have duals ``y``.

    A coverage row the LP leaves out gets the dual nearest zero (duals of
    <= rows are <= 0) that keeps the reduced cost saving - sigma - pi of its
    service variable nonnegative: min(0, saving - sigma), and zero outright
    when the service could never pay off."""
    idx = model.idx
    serve, cover, cache, backhaul, convexity = (
        y[a:b] for a, b in zip(model.starts, model.starts[1:])
    )
    duals = DualPrices.explicit(idx)
    duals.sigma[model.serve_ids] = serve
    saving = idx.svc_saving
    duals.pis[:] = np.where(
        saving >= 0, 0.0, np.minimum(0.0, saving - duals.sigma[idx.svc_request_ids])
    )
    duals.pis[model.cover_svc] = cover
    for array, keys, values in ((duals.mus, model.cache_keys, cache),
                                (duals.phis, model.backhaul_keys, backhaul),
                                (duals.lams, model.pairs, convexity)):
        array[tuple(np.array(keys, dtype=np.int64).reshape(-1, 2).T)] = values
    return duals


def _canonical_primal(model: RmpModel, sol: LpSolution) -> np.ndarray:
    """Secondary solve over the optimal face: prefer fewer updates, then
    earlier update slots (mirrors the pricing tie-break)."""
    prob = model.problem
    w = np.zeros(prob.num_vars)
    w[: len(model.entries)] = [len(e.p_slots) + sum(e.p_slots) / 100.0 for e in model.entries]
    face_eps = 1e-7 * (1.0 + abs(sol.objective))
    face_row = sparse.csr_matrix(prob.c.reshape(1, -1))
    prob2 = LpProblem(
        c=w,
        a_matrix=sparse.vstack([prob.a_matrix, face_row]).tocsr(),
        rel=np.concatenate([prob.rel, [0]]),  # the face row is a <= row
        b=np.concatenate([prob.b, [sol.objective + face_eps]]),
        upper=prob.upper,
    )
    try:
        second = solve_lp(prob2)
    except LpError:
        return sol.x  # canonicalization is best-effort
    return second.x


def reduced_cost(
    col: Column,
    h: int,
    i: int,
    duals: DualPrices,
    idx: RequestIndex,
    cost_S: Optional[float] = None,
    mode: str = "paper",
) -> float:
    """Reduced cost of a column against the given duals.

    The coverage term follows the settlement convention (see module
    docstring), which is what makes it coincide with the pricing graph's
    shortest-path value.
    """
    from .columns import column_cost_S

    inst = idx.inst
    if cost_S is None:
        cost_S = column_cost_S(col, h, i, inst, idx, mode)  # type: ignore[arg-type]
    total = cost_S
    for r in idx.mcr(h, i):
        arrival_age, upd = settlement_coverage(col, r)
        if arrival_age is not None and arrival_age >= 1:
            total += duals.pi(r, h, arrival_age)
        if upd:
            total += duals.pi(r, h, 0)
    size = inst.size(i)
    for t, (q, p) in enumerate(col, start=1):
        if q:
            total -= size * duals.mu(h, t)
        if p:
            total -= size * duals.phi(h, t)
    return total - duals.lam(h, i)
