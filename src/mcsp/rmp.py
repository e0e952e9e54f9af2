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
from itertools import accumulate
from typing import Optional

import numpy as np
from scipy import sparse

from .columns import Column, ColumnPool, settlement_coverage
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
    """Objective coefficient of a service variable: f(a) minus the cloud cost."""
    return inst.f(a) - inst.cloud_cost(i)


def mcr_cloud_constant(inst: Instance) -> float:
    return sum(inst.cloud_cost(r.content) for r in inst.requests if r.is_mcr)


def build_rmp(
    pool: ColumnPool,
    inst: Instance,
    idx: RequestIndex,
    capacity_rows: Optional[CapacityRows] = None,
) -> RmpModel:
    """Assemble the master LP over the current pools, with the capacity rows
    named in ``capacity_rows`` (all of them when it is None)."""
    pairs = sorted(pool.entries)
    for key in pairs:
        if not pool.entries[key]:
            raise ValueError(f"empty pool for pair {key}")

    # which (r, h, a) are coverable by the current pools and worth serving
    active: set[tuple[int, int, int]] = set()
    saving: dict[tuple[int, int], float] = {}  # service_saving by (content, age)
    for (h, i) in pairs:
        for entry in pool.entries[(h, i)]:
            for r_id, a in entry.coverage:
                gain = saving.get((i, a))
                if gain is None:
                    gain = saving[(i, a)] = service_saving(inst, i, a)
                if gain < 0:
                    active.add((r_id, h, a))

    y_keys = sorted(active)
    serve_ids = sorted({r_id for r_id, _, _ in y_keys})
    if capacity_rows is None:
        cache_keys = backhaul_keys = [
            (h, t) for h in range(1, inst.num_servers + 1) for t in range(1, inst.horizon + 1)
        ]
    else:
        cache_keys = sorted(capacity_rows.cache)
        backhaul_keys = sorted(capacity_rows.backhaul)

    n_chi = sum(len(pool.entries[key]) for key in pairs)
    chi_offset: dict[tuple[int, int], int] = {}
    off = 0
    for key in pairs:
        chi_offset[key] = off
        off += len(pool.entries[key])
    n_vars = n_chi + len(y_keys)

    blocks = (serve_ids, y_keys, cache_keys, backhaul_keys, pairs)
    starts = list(accumulate(map(len, blocks), initial=0))
    serve_rows, cover_rows, cache_rows, backhaul_rows, convexity_rows = (
        {key: start + n for n, key in enumerate(keys)} for keys, start in zip(blocks, starts)
    )
    n_rows = starts[-1]

    c = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    rows_ix: list[int] = []
    cols_ix: list[int] = []
    vals: list[float] = []

    col = 0
    for (h, i) in pairs:
        size = float(inst.size(i))
        for entry in pool.entries[(h, i)]:
            c[col] = entry.cost
            rows = [cover_rows.get((r_id, h, a)) for r_id, a in entry.coverage]
            rows = [row for row in rows if row is not None]
            n_cover = len(rows)
            rows += [cache_rows[(h, t)] for t in entry.q_slots if (h, t) in cache_rows]
            rows += [backhaul_rows[(h, t)] for t in entry.p_slots if (h, t) in backhaul_rows]
            rows.append(convexity_rows[(h, i)])
            rows_ix += rows
            cols_ix += [col] * len(rows)
            vals += [-1.0] * n_cover + [size] * (len(rows) - n_cover - 1) + [1.0]
            col += 1

    cover_svc = np.array([idx.svc_pos[key] for key in y_keys], dtype=np.int64)
    c[n_chi:] = idx.svc_saving[cover_svc]
    upper[n_chi:] = 1.0
    for n, (r_id, _, _) in enumerate(y_keys):
        rows_ix += [serve_rows[r_id], starts[1] + n]
        cols_ix += [n_chi + n] * 2
        vals += [1.0, 1.0]

    a_matrix = sparse.csr_matrix(
        (np.array(vals), (np.array(rows_ix, dtype=np.int64), np.array(cols_ix, dtype=np.int64))),
        shape=(n_rows, n_vars),
    )
    rel = np.full(n_rows, _REL_CODES[LE], dtype=int)
    b = np.zeros(n_rows)
    b[: starts[1]] = 1.0  # serve-once
    b[starts[2] : starts[3]] = [inst.server(h).cache_capacity for h, _ in cache_keys]
    b[starts[3] : starts[4]] = [inst.server(h).backhaul_capacity for h, _ in backhaul_keys]
    rel[starts[4] :], b[starts[4] :] = _REL_CODES[EQ], 1.0  # convexity

    problem = LpProblem(c=c, a_matrix=a_matrix, rel=rel, b=b, upper=upper)
    return RmpModel(
        problem=problem,
        pool=pool,
        idx=idx,
        constant=mcr_cloud_constant(inst),
        chi_offset=chi_offset,
        starts=starts,
        serve_ids=serve_ids,
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
    pool = model.pool
    w = np.zeros(prob.num_vars)
    col = 0
    for key in sorted(pool.entries):
        for entry in pool.entries[key]:
            w[col] = len(entry.p_slots) + sum(entry.p_slots) / 100.0
            col += 1
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
