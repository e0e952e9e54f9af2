"""Restricted master problem: build, solve, duals.

The master minimizes the sum of selected column costs plus the service cost
of the multiple-choice requests. Per MCR r, candidate server h and age a, a
service variable y gives the saving (f(a) - f(0) - alpha*s) against the cloud
default, which is carried as a constant in the objective. Rows:

* serve-once:   sum of a request's y variables <= 1
* coverage:     y_{rha} <= sum of selected columns that can serve (r, a)
* cache:        per (server, slot), sum of cached sizes <= cache capacity
* backhaul:     per (server, slot), sum of updated sizes <= backhaul capacity
* convexity:    per (server, content), exactly one column selected

The cache and backhaul rows are generated lazily: a master holds only the
(server, slot) rows its ``CapacityRows`` mask marks, and column generation
adds a row once a fixpoint primal violates it (row generation inside column
generation). Rows left out have zero duals in ``DualPrices.mus``/``phis``,
so a fixpoint whose primal respects every capacity is still the exact LP
bound over all rows. A master whose capacities never bind is then the same
LP whatever those capacities are. A mask that marks every (server, slot)
gives the master with every capacity row.

Coverage uses the settlement convention of the pricing graph: a column can
serve (r, a) at the age it holds when the request arrives, or at age zero
when it updates inside the request window. Service variables that can never
pay off (f(a) >= cloud cost) and coverage rows no pool column supports are
left out of the LP; their duals are filled in, and the price HiGHS puts on a
y variable's upper bound y <= 1 is moved onto its request's serve-once row,
so that the returned DualPrices is a complete optimal dual vector for the
full row set with no bound duals (the certificate tests check both).

Every hand-off around the master is one array: the master reaches
``solve_lp`` as an ``LpProblem`` whose <= rows (serve-once, coverage, cache,
backhaul) come before its = rows (convexity), the order HiGHS takes; the
capacity rows held are a bool mask; and a solve's column weights
(``RmpSolution.weights``) are the chi part of the primal, in pool order,
which the capacity check, the rounding and the schedule decode read.

Every master LP goes to ``simplex.solve_lp`` (HiGHS), warm-started: a
``MasterBasis`` keeps the optimal basis of a solve's last master by row and
column identity and maps it onto the next one, where new columns start
nonbasic at zero and new rows basic. The masters of one solve change by a
few columns or rows per round, so the simplex re-optimises in a fraction of
a cold start's iterations. Degenerate masters have many optimal vertices,
and which one a warm start ends at depends on the basis it starts from: the
primal (and with it the dive and the schedule) can differ from a cold
solve's, while the objective and so the bound are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .columns import ColumnPool
from .instance import Instance
from .simplex import LpBasis, LpProblem, LpSolution, solve_lp

TOL_CAP = 1e-7  # relative slack before a left-out capacity row counts as violated


@dataclass
class DualPrices:
    """Duals of the master rows as complete arrays: ``sigma`` by request id,
    ``pis`` by position in the request index's service index, ``mus`` and
    ``phis`` by [server, slot], ``lams`` by [server, content]: the layout
    ``RmpModel.by_key`` gives any array of one value per master row.

    Read off a master solve, they are optimal over the full row set: a
    capacity row the master leaves out has a zero dual, and a coverage row it
    leaves out one filled in by ``_read_duals``.
    """

    sigma: np.ndarray
    pis: np.ndarray
    mus: np.ndarray
    phis: np.ndarray
    lams: np.ndarray


class CapacityRows:
    """The cache and backhaul rows held in a master, as a bool mask
    ``held[cache/backhaul, server, slot]`` (index 0 of server and slot
    unused). The mask only grows; one solve shares it across all its column
    generation runs."""

    def __init__(self, inst: Instance):
        self.held = np.zeros((2, inst.num_servers + 1, inst.horizon + 1), dtype=bool)

    def add_violated(self, pool: ColumnPool, weights: np.ndarray) -> int:
        """Add the rows whose load under the column ``weights`` (in pool
        order) exceeds the capacity of the pool's instance; return how many
        were added. A load sums the positive weights times sizes in pool
        order. Capacities are positive (``validate_instance``), so a (server,
        slot) without load never counts."""
        a = pool.arrays()
        e, kind, t = np.nonzero(a.flags & (weights > 0)[:, None, None])
        shape = self.held.shape
        at = np.ravel_multi_index((kind, a.server[e], t + 1), shape)
        # bincount adds in input order, as the loads were summed one by one
        load = np.bincount(at, weights[e] * a.size[e], minlength=np.prod(shape)).reshape(shape)
        cap = pool.inst.capacities()[:, :, None]
        over = load > cap + TOL_CAP * (1 + np.abs(cap))
        added = int(np.count_nonzero(over & ~self.held))
        self.held |= over
        return added


class MasterBasis:
    """The optimal basis of the last master a solve solved, kept by the
    identity of each column and row: chi columns by pool entry serial, y
    columns by service position, and the rows' basic flags laid out by
    ``RmpModel.by_key`` (the layout of ``DualPrices``).

    ``start`` maps it onto another master of the same solve: a column the
    last master held keeps its status code and a row whether it was basic; a
    new column starts nonbasic at zero, a new row basic. Where columns left
    (a purge, a pin), the basic count is off, which HiGHS repairs (see
    ``simplex.solve_lp``). Empty until the first ``record``."""

    def __init__(self) -> None:
        self.blocks: Optional[tuple[np.ndarray, ...]] = None

    def record(self, model: "RmpModel", basis: LpBasis) -> None:
        """Keep ``basis``, the optimal basis of ``model``."""
        n_chi = len(model.serials)
        chi = np.zeros(model.pool.num_serials, dtype=np.int8)  # LOWER
        chi[model.serials] = basis.cols[:n_chi]
        y = np.zeros(len(model.pool.idx.svc_age), dtype=np.int8)
        y[model.cover_svc] = basis.cols[n_chi:]
        self.blocks = (chi, y, *model.by_key(basis.rows, True))

    def start(self, model: "RmpModel") -> Optional[LpBasis]:
        """The recorded basis mapped onto ``model``; None before the first
        record."""
        if self.blocks is None:
            return None
        chi, y, *rows = self.blocks
        n_chi = len(model.serials)
        known = model.serials < len(chi)
        cols = np.zeros(n_chi + len(model.cover_svc), dtype=np.int8)  # LOWER
        cols[:n_chi][known] = chi[model.serials[known]]
        cols[n_chi:] = y[model.cover_svc]
        return LpBasis(cols, np.concatenate([array[at] for array, at in zip(rows, model.row_index)]))


@dataclass
class RmpModel:
    """An assembled master LP plus the keys of its row blocks, which follow
    one another in this order: serve-once rows by request id, coverage rows
    by service position (the y variables follow the chi variables in the
    same order), cache and backhaul rows by (server, slot), and convexity
    rows by (server, content). ``row_index`` holds the keys as arrays."""

    problem: LpProblem
    pool: ColumnPool
    constant: float
    serials: np.ndarray  # the pool entry serial of each chi column, in LP column order
    flags: np.ndarray  # their cached and updated flags, [chi column, cached/updated, slot]
    starts: list[int]  # first row of each row block, then the row count
    cover_svc: np.ndarray
    # per row block, the positions of its rows' keys in the block's
    # ``DualPrices`` array
    row_index: tuple
    serve_first: np.ndarray  # the first coverage row of each serve-once row's request

    def by_key(self, values: np.ndarray, fill) -> list[np.ndarray]:
        """``values``, one per master row, as the five arrays of
        ``DualPrices`` by row key; a key with no row here holds ``fill``."""
        idx, inst = self.pool.idx, self.pool.inst
        slots = (inst.num_servers + 1, inst.horizon + 1)
        out = [np.full(shape, fill, dtype=values.dtype) for shape in (
            idx.num_request_ids, len(idx.svc_age), slots, slots,
            (inst.num_servers + 1, inst.num_contents + 1))]
        for array, at, lo, hi in zip(out, self.row_index, self.starts, self.starts[1:]):
            array[at] = values[lo:hi]
        return out


@dataclass
class RmpSolution:
    objective: float  # includes the MCR cloud-cost constant
    weights: np.ndarray  # the column weights, in pool order: a view of the primal's chi part
    duals: DualPrices
    lp: LpSolution


def build_rmp(pool: ColumnPool, capacity_rows: CapacityRows) -> RmpModel:
    """Assemble the master LP over the current pools, with the capacity rows
    ``capacity_rows`` holds.

    The matrix comes from the pool's arrays, with no per-entry Python: each
    live entry's pair, cost, cached and updated slot flags and the service
    positions it covers (ascending), in pool order. A service gets a
    coverage row and a y variable when some entry covers it and serving it
    can pay off (``svc_saving`` < 0). The matrix is laid out column-wise
    with each column's rows ascending, the form ``solve_lp`` hands HiGHS: a
    chi column holds its coverage, cache, backhaul and convexity entries in
    that order, a y column its serve-once and its coverage entry."""
    empty = np.flatnonzero(pool.counts == 0)
    if len(empty):
        raise ValueError(f"empty pool for pair {pool.pairs[empty[0]]}")
    inst, idx = pool.inst, pool.idx
    a = pool.arrays()
    n_chi = len(a.serial)
    col_pair = a.pair
    pair_server, pair_content = pool.pair_server, pool.pair_content
    pair_size = inst.sizes()[pair_content]

    # coverage rows: the paying services some entry covers, by position
    svc, cover_col = pool.covered(a.serial)
    paying = idx.svc_saving[svc] < 0
    svc, cover_col = svc[paying], cover_col[paying]
    covered = np.zeros(len(idx.svc_age), dtype=bool)
    covered[svc] = True
    cover_svc = np.flatnonzero(covered)
    cover_of = (np.cumsum(covered) - 1)[svc]  # ascending within an entry
    # serve-once rows: the requests of those services, which run in id order
    request_ids = idx.svc_request_ids[cover_svc]
    first = np.ones(len(request_ids), dtype=bool)
    first[1:] = request_ids[1:] != request_ids[:-1]
    serve_ids, serve_of = request_ids[first], np.cumsum(first) - 1

    # (server, slot) ascending, the order the rows run in
    cache_at, backhaul_at = np.nonzero(capacity_rows.held[0]), np.nonzero(capacity_rows.held[1])

    n_y = len(cover_svc)
    starts = list(accumulate(map(len, (serve_ids, cover_svc, cache_at[0], backhaul_at[0],
                                       pair_server)), initial=0))
    n_rows = starts[-1]

    # the chi columns' entries block by block, each block by column, rows
    # ascending within a column; a stable sort by column keeps that order
    rows = [starts[1] + cover_of]
    cols = [cover_col]
    vals = [np.full(len(cover_col), -1.0)]
    flags = a.flags
    for at, start, kind in ((cache_at, starts[2], 0), (backhaul_at, starts[3], 1)):
        if not len(at[0]):  # no row of this kind (the common case with lazy rows)
            continue
        row_of = np.full((inst.num_servers + 1, inst.horizon + 1), -1, dtype=np.int64)
        row_of[at] = start + np.arange(len(at[0]))
        col, t = np.nonzero(flags[:, kind])  # by entry, then slot, as the rows run
        row = row_of[pair_server[col_pair[col]], t + 1]
        kept = row >= 0
        rows.append(row[kept])
        cols.append(col[kept])
        vals.append(pair_size[col_pair[col[kept]]])
    rows.append(starts[4] + col_pair)
    cols.append(np.arange(n_chi))
    vals.append(np.ones(n_chi))
    cols = np.concatenate(cols)
    by_col = np.argsort(cols, kind="stable")
    # each y column: its serve-once row, then its coverage row
    y_rows = np.stack([starts[0] + serve_of, starts[1] + np.arange(n_y)], axis=1).ravel()
    index = np.concatenate([np.concatenate(rows)[by_col], y_rows]).astype(np.int32)
    value = np.concatenate([np.concatenate(vals)[by_col], np.ones(2 * n_y)])
    col_start = np.zeros(n_chi + n_y + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_chi), out=col_start[1 : n_chi + 1])
    col_start[n_chi + 1 :] = len(cols) + 2 * np.arange(1, n_y + 1)

    c = np.concatenate([pool.cost[a.serial], idx.svc_saving[cover_svc]])
    upper = np.concatenate([np.full(n_chi, np.inf), np.ones(n_y)])
    b = np.zeros(n_rows)
    b[: starts[1]] = 1.0  # serve-once
    capacities = inst.capacities()
    b[starts[2] : starts[3]] = capacities[0][cache_at[0]]
    b[starts[3] : starts[4]] = capacities[1][backhaul_at[0]]
    b[starts[4] :] = 1.0  # convexity, the = rows

    problem = LpProblem(c=c, start=col_start, index=index, value=value, num_le=starts[4], b=b,
                        upper=upper)
    return RmpModel(
        problem=problem,
        pool=pool,
        constant=idx.mcr_cloud_cost,
        serials=a.serial,
        flags=flags,
        starts=starts,
        cover_svc=cover_svc,
        row_index=(serve_ids, cover_svc, cache_at, backhaul_at, (pair_server, pair_content)),
        serve_first=np.flatnonzero(first),
    )


def solve_rmp(
    model: RmpModel,
    basis: MasterBasis,
    canonical: bool = False,
    lp: Optional[LpSolution] = None,
) -> RmpSolution:
    """Solve the master; with ``canonical`` the primal is re-selected on the
    optimal face to minimize update count, then update lateness. ``lp``, when
    given, is the primary solve of this master, already at hand. Otherwise
    the primary solve starts from the basis ``basis`` holds, mapped onto
    this master (a cold start when it holds none), and records its optimal
    basis there for the next master.

    Degenerate masters have many optimal vertices and which one a solver
    returns can depend on immaterial input details and on the start basis.
    The slack of a never-binding capacity row is kept out of the LP
    altogether by the lazy capacity rows (see the module docstring), so the
    master does not depend on it. The rounding passes consume the primal;
    the canonical solve steers it toward fewer and earlier updates, which
    the rounding then sees. It does not make the primal unique: the face LP
    is degenerate too, and a solve of it started from another basis returns
    another optimal primal. It starts from the primary solve's optimal basis
    with the face row basic, a feasible basis of the face LP. Duals,
    objective and the bound always come from the primary solve.

    ``weights`` is a view of the returned primal's chi columns, in pool
    order."""
    sol = lp
    if sol is None:
        sol = solve_lp(model.problem, basis.start(model))
        basis.record(model, sol.basis)
    x = _canonical_primal(model, sol) if canonical else sol.x
    return RmpSolution(
        objective=sol.objective + model.constant,
        weights=x[: len(model.serials)],
        duals=_read_duals(model, sol.duals),
        lp=sol,
    )


def _read_duals(model: RmpModel, y: np.ndarray) -> DualPrices:
    """The complete dual arrays of a master whose LP rows have duals ``y``.

    A coverage row the LP leaves out gets the dual nearest zero (duals of
    <= rows are <= 0) that keeps the reduced cost saving - sigma - pi of its
    service variable nonnegative: min(0, saving - sigma), and zero outright
    when the service could never pay off.

    The LP may price a kept service variable's bound y <= 1 instead of its
    serve-once row, leaving it a negative reduced cost. Each request's
    ``sigma`` then takes min(0, the least reduced cost of its kept service
    variables) on top of its row dual, so every service variable prices
    nonnegatively. Only a variable at 1 can price negatively, and at most
    one per request is at 1, so the dual objective does not change."""
    idx = model.pool.idx
    sigma, pis, mus, phis, lams = model.by_key(y, 0.0)
    serve_at, cover_at = model.row_index[:2]
    cover = pis[cover_at]
    saving = idx.svc_saving
    pis = np.where(saving >= 0, 0.0, np.minimum(0.0, saving - sigma[idx.svc_request_ids]))
    pis[cover_at] = cover
    # the coverage rows run grouped by request, one group per serve-once row
    reduced = saving[cover_at] - sigma[idx.svc_request_ids[cover_at]] - cover
    sigma[serve_at] += np.minimum(0.0, np.minimum.reduceat(reduced, model.serve_first))
    return DualPrices(sigma, pis, mus, phis, lams)


def _with_row(a: np.ndarray, at: int, value) -> np.ndarray:
    """``a`` with ``value`` inserted before position ``at``."""
    out = np.empty(len(a) + 1, dtype=a.dtype)
    out[:at], out[at], out[at + 1 :] = a[:at], value, a[at:]
    return out


def _canonical_primal(model: RmpModel, sol: LpSolution) -> np.ndarray:
    """Secondary solve over the optimal face: prefer fewer updates, then
    earlier update slots (mirrors the pricing tie-break).

    The face row c.x <= objective + eps joins as the last <= row, before the
    convexity rows; it holds the nonzero costs of c, and it starts basic.
    A face entry is last in a y column, before a chi column's convexity entry."""
    prob = model.problem
    w = np.zeros(prob.num_vars)
    updated = model.flags[:, 1]
    w[: len(model.serials)] = (updated.sum(axis=1)
                               + (updated @ np.arange(1, updated.shape[1] + 1)) / 100.0)
    face_eps = 1e-7 * (1.0 + abs(sol.objective))
    at = prob.num_le  # the face row's place
    start, index = prob.start, prob.index
    face = np.flatnonzero(prob.c)
    grown = np.zeros(prob.num_vars + 1, dtype=np.int32)
    grown[face + 1] = 1
    face_start = start + np.cumsum(grown, dtype=np.int32)
    is_face = np.zeros(len(index) + len(face), dtype=bool)
    is_face[face_start[face + 1] - 1 - (face < len(model.serials))] = True
    is_master = ~is_face
    face_index = np.full(len(is_face), at, dtype=np.int32)
    face_index[is_master] = index + (index >= at)
    face_value = np.empty(len(is_face))
    face_value[is_face] = prob.c[face]
    face_value[is_master] = prob.value
    face_lp = LpProblem(
        c=w,
        start=face_start,
        index=face_index,
        value=face_value,
        num_le=at + 1,
        b=_with_row(prob.b, at, sol.objective + face_eps),
        upper=prob.upper,
    )
    start_basis = LpBasis(sol.basis.cols, _with_row(sol.basis.rows, at, True))
    return solve_lp(face_lp, start_basis).x
