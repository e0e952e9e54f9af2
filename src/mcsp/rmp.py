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
left out of the LP; their duals are imputed so that the returned DualPrices
is a complete optimal dual vector for the full row set (the imputation is
exercised by the certificate tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .columns import Column, ColumnPool, settlement_coverage
from .instance import Instance, Request, RequestIndex
from .simplex import EQ, LE, LpError, LpProblem, LpSolution, solve_lp

TOL_CHI = 1e-6  # integrality tolerance on column weights
TOL_CAP = 1e-7  # relative slack before a left-out capacity row counts as violated


@dataclass
class DualPrices:
    """Optimal duals of the master rows, complete over the full row set.

    ``pi`` entries exist for every (MCR, candidate server, age) triple with
    0 <= age <= deadline - 1: rows present in the LP report their dual, the
    rest are imputed (zero when the service could never pay off, otherwise
    min(0, saving - serve-once dual)).
    """

    inst: Instance
    sigma: dict[int, float]
    pi_rows: dict[tuple[int, int, int], float]
    mu_rows: dict[tuple[int, int], float]
    phi_rows: dict[tuple[int, int], float]
    lam_rows: dict[tuple[int, int], float]
    # True for duals read off a master solve: entries for rows the LP left
    # out are imputed to complete the optimality certificate. Explicitly
    # constructed dual vectors (tests, verification) leave this False and
    # treat missing entries as zero.
    impute: bool = False

    def pi(self, r: Request, h: int, a: int) -> float:
        key = (r.id, h, a)
        if key in self.pi_rows:
            return self.pi_rows[key]
        if not self.impute:
            return 0.0
        saving = self.inst.f(a) - self.inst.cloud_cost(r.content)
        if saving >= 0:
            return 0.0
        return min(0.0, saving - self.sigma.get(r.id, 0.0))

    def pi_vector(
        self,
        positions: dict[tuple[int, int, int], int],
        request_ids: np.ndarray,
        saving: np.ndarray,
    ) -> np.ndarray:
        """``pi`` for every (request id, server, age) key of ``positions`` at
        once, each at its position; ``request_ids`` and ``saving`` (f(age)
        minus the request's cloud cost) are given by position too."""
        out = np.zeros(len(positions))
        if self.impute:
            sigma = np.zeros(max([int(request_ids.max(initial=0)), *self.sigma]) + 1)
            sigma[list(self.sigma)] = list(self.sigma.values())
            out = np.where(saving >= 0, 0.0, np.minimum(0.0, saving - sigma[request_ids]))
        hits = [(positions[key], v) for key, v in self.pi_rows.items() if key in positions]
        if hits:
            at, values = zip(*hits)
            out[list(at)] = values
        return out

    def mu(self, h: int, t: int) -> float:
        return self.mu_rows.get((h, t), 0.0)

    def phi(self, h: int, t: int) -> float:
        return self.phi_rows.get((h, t), 0.0)

    def lam(self, h: int, i: int) -> float:
        return self.lam_rows.get((h, i), 0.0)


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
    """An assembled master LP plus the maps needed to read the solution back."""

    problem: LpProblem
    pool: ColumnPool
    constant: float
    chi_offset: dict[tuple[int, int], int]  # first LP column of each pair's block
    y_keys: list[tuple[int, int, int]]  # (request id, server, age) per y variable
    n_chi: int
    serve_rows: dict[int, int]
    cover_rows: dict[tuple[int, int, int], int]
    cache_rows: dict[tuple[int, int], int]
    backhaul_rows: dict[tuple[int, int], int]
    convexity_rows: dict[tuple[int, int], int]


@dataclass
class RmpSolution:
    objective: float  # includes the MCR cloud-cost constant
    chi: dict[tuple[int, int], np.ndarray]  # per pair, aligned with pool entries
    y: dict[tuple[int, int, int], float]
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
    req_by_id = {r.id: r for r in inst.requests}
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
    mcr_with_y = sorted({r_id for r_id, _, _ in y_keys})

    n_chi = sum(len(pool.entries[key]) for key in pairs)
    chi_offset: dict[tuple[int, int], int] = {}
    off = 0
    for key in pairs:
        chi_offset[key] = off
        off += len(pool.entries[key])
    n_vars = n_chi + len(y_keys)

    serve_rows = {r_id: n for n, r_id in enumerate(mcr_with_y)}
    base = len(serve_rows)
    cover_rows = {key: base + n for n, key in enumerate(y_keys)}
    base += len(cover_rows)
    if capacity_rows is None:
        cache_keys = backhaul_keys = [
            (h, t) for h in range(1, inst.num_servers + 1) for t in range(1, inst.horizon + 1)
        ]
    else:
        cache_keys = sorted(capacity_rows.cache)
        backhaul_keys = sorted(capacity_rows.backhaul)
    cache_rows = {ht: base + n for n, ht in enumerate(cache_keys)}
    base += len(cache_rows)
    backhaul_rows = {ht: base + n for n, ht in enumerate(backhaul_keys)}
    base += len(backhaul_rows)
    convexity_rows = {key: base + n for n, key in enumerate(pairs)}
    n_rows = base + len(convexity_rows)

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

    for n, (r_id, h, a) in enumerate(y_keys):
        j = n_chi + n
        r = req_by_id[r_id]
        c[j] = saving[(r.content, a)]
        upper[j] = 1.0
        rows_ix.append(serve_rows[r_id])
        cols_ix.append(j)
        vals.append(1.0)
        rows_ix.append(cover_rows[(r_id, h, a)])
        cols_ix.append(j)
        vals.append(1.0)

    a_matrix = sparse.csr_matrix(
        (np.array(vals), (np.array(rows_ix, dtype=np.int64), np.array(cols_ix, dtype=np.int64))),
        shape=(n_rows, n_vars),
    )
    rel = np.empty(n_rows, dtype=int)
    b = np.empty(n_rows)
    from .simplex import _REL_CODES  # row codes shared with the LP layer

    for r_id, row in serve_rows.items():
        rel[row], b[row] = _REL_CODES[LE], 1.0
    for key, row in cover_rows.items():
        rel[row], b[row] = _REL_CODES[LE], 0.0
    for (h, t), row in cache_rows.items():
        rel[row], b[row] = _REL_CODES[LE], inst.server(h).cache_capacity
    for (h, t), row in backhaul_rows.items():
        rel[row], b[row] = _REL_CODES[LE], inst.server(h).backhaul_capacity
    for key, row in convexity_rows.items():
        rel[row], b[row] = _REL_CODES[EQ], 1.0

    problem = LpProblem(c=c, a_matrix=a_matrix, rel=rel, b=b, upper=upper)
    return RmpModel(
        problem=problem,
        pool=pool,
        constant=mcr_cloud_constant(inst),
        chi_offset=chi_offset,
        y_keys=y_keys,
        n_chi=n_chi,
        serve_rows=serve_rows,
        cover_rows=cover_rows,
        cache_rows=cache_rows,
        backhaul_rows=backhaul_rows,
        convexity_rows=convexity_rows,
    )


def solve_rmp(
    model: RmpModel,
    backend: str = "auto",
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
    sol = lp if lp is not None else solve_lp(model.problem, backend=backend)
    x = sol.x
    if canonical:
        x = _canonical_primal(model, sol, backend)
    pool = model.pool
    chi = {}
    for key, off in model.chi_offset.items():
        chi[key] = x[off : off + len(pool.entries[key])].copy()
    y = {
        key: float(x[model.n_chi + n]) for n, key in enumerate(model.y_keys)
    }
    duals = DualPrices(
        inst=pool.inst,
        sigma={r_id: float(sol.duals[row]) for r_id, row in model.serve_rows.items()},
        pi_rows={key: float(sol.duals[row]) for key, row in model.cover_rows.items()},
        mu_rows={ht: float(sol.duals[row]) for ht, row in model.cache_rows.items()},
        phi_rows={ht: float(sol.duals[row]) for ht, row in model.backhaul_rows.items()},
        lam_rows={key: float(sol.duals[row]) for key, row in model.convexity_rows.items()},
        impute=True,
    )
    return RmpSolution(
        objective=sol.objective + model.constant,
        chi=chi,
        y=y,
        duals=duals,
        lp=sol,
    )


def _canonical_primal(model: RmpModel, sol, backend: str) -> np.ndarray:
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
        second = solve_lp(prob2, backend=backend)
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

    inst = duals.inst
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
