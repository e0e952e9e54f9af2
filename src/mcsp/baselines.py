"""Baselines: popularity-driven caching, a tiny exact oracle, ILP export.

The popularity baseline ranks contents by total request count and walks the
horizon slot by slot: refresh cached contents whose age penalty has reached
half their cloud download cost, then admit uncached contents while cache and
backhaul headroom lasts. Nothing is ever evicted. Both it and the exact
oracle report through ``driver.finish_report``.

The exact oracle searches per-pair column combinations depth-first with
capacity and bound pruning; it is deliberately capped at toy sizes and exists
to anchor the optimality tests. Each node costs a few integer and dict
operations: the capacity headroom of every server and slot is packed into one
int, tested and passed down by a single subtraction, and the cost of the
requests that settle at a depth is memoised by the columns chosen for their
candidate pairs. The ILP exporter writes the flat binary formulation in LP
text format for external cross-checks.
"""

from __future__ import annotations

import functools
import math
import time
from pathlib import Path

from .columns import _flags_of, column_states, enumerate_columns, zero_column
from .costs import CAPACITY_EPS, Schedule, SettlementMode, derive_aoi, evaluate, serving_ages
from .driver import SolveReport, finish_report
from .instance import Instance, Request
from .simplex import EQ, GE, LE, write_lp_text


class CapsExceededError(ValueError):
    """Instance too large for the exhaustive oracle."""


# the largest instance the exact oracle searches
MAX_SERVERS, MAX_CONTENTS, MAX_HORIZON, MAX_REQUESTS = 2, 3, 4, 12


def run_pba(inst: Instance) -> SolveReport:
    """Popularity-based caching heuristic."""
    started = time.perf_counter()
    counts = {i: 0 for i in range(1, inst.num_contents + 1)}
    for r in inst.requests:
        counts[r.content] += 1
    ranking = sorted(counts, key=lambda i: (-counts[i], i))

    states: dict[tuple[int, int], list[str]] = {}
    for h in range(1, inst.num_servers + 1):
        srv = inst.server(h)
        cached: dict[int, int] = {}  # content -> last update slot
        cache_used = 0.0
        rows = {i: ["A"] * inst.horizon for i in range(1, inst.num_contents + 1)}
        for t in range(1, inst.horizon + 1):
            backhaul_used = 0.0
            for i in ranking:  # refresh pass
                if i not in cached:
                    continue
                rows[i][t - 1] = "C"
                age = t - cached[i]
                size = inst.size(i)
                if inst.f(age) >= inst.cost.alpha * size / 2:
                    if backhaul_used + size <= srv.backhaul_capacity + CAPACITY_EPS:
                        cached[i] = t
                        rows[i][t - 1] = "U"
                        backhaul_used += size
            for i in ranking:  # admit pass
                if i in cached:
                    continue
                size = inst.size(i)
                if (
                    cache_used + size <= srv.cache_capacity + CAPACITY_EPS
                    and backhaul_used + size <= srv.backhaul_capacity + CAPACITY_EPS
                ):
                    cached[i] = t
                    cache_used += size
                    backhaul_used += size
                    rows[i][t - 1] = "U"
        for i, row in rows.items():
            if any(ch != "A" for ch in row):
                states[(h, i)] = "".join(row)

    schedule = Schedule(horizon=inst.horizon, states=states)
    return finish_report("pba", inst, schedule, "min", None, 0, 0, started)


@functools.cache
def _column_tables(T: int) -> tuple:
    """The column tables of a horizon, shared by every oracle solve: the
    columns, their ages, update counts and state strings, the zero column's
    index, and by last deadline d the indices of the columns that cache
    nothing after slot d."""
    columns = enumerate_columns(T)
    states = column_states(_flags_of(columns))
    return (
        columns,
        [derive_aoi(st) for st in states],
        [sum(p for _, p in col) for col in columns],
        states,
        columns.index(zero_column(T)),
        [[k for k, col in enumerate(columns) if all(q == 0 for q, _ in col[d:])]
         for d in range(T + 1)],
    )


def solve_exact(inst: Instance, mode: SettlementMode = "paper") -> SolveReport:
    """Exhaustive optimum over per-pair column choices, toy sizes only."""
    started = time.perf_counter()
    if (
        inst.num_servers > MAX_SERVERS
        or inst.num_contents > MAX_CONTENTS
        or inst.horizon > MAX_HORIZON
        or len(inst.requests) > MAX_REQUESTS
    ):
        raise CapsExceededError(
            f"exact oracle capped at H<={MAX_SERVERS} I<={MAX_CONTENTS} "
            f"T<={MAX_HORIZON} R<={MAX_REQUESTS}"
        )
    T = inst.horizon
    columns, ages_of, n_updates, states_of, zero, cols_by_deadline = _column_tables(T)
    # content-major order settles each content's requests after few levels
    pairs = [
        (h, i)
        for i in range(1, inst.num_contents + 1)
        for h in range(1, inst.num_servers + 1)
    ]
    # dominated-column elimination: caching past the pair's last deadline
    # only adds cost, and pairs nobody requests never benefit from caching
    last_deadline: dict[tuple[int, int], int] = {hi: 0 for hi in pairs}
    for r in inst.requests:
        for h in r.candidates:
            key = (h, r.content)
            last_deadline[key] = max(last_deadline[key], r.deadline)
    # requests settle once every candidate pair has been assigned
    level: dict[int, int] = {}
    pair_pos = {hi: d for d, hi in enumerate(pairs)}
    for r in inst.requests:
        level[r.id] = max(pair_pos[(h, r.content)] for h in r.candidates)
    by_level: dict[int, list[Request]] = {}
    for r in inst.requests:
        by_level.setdefault(level[r.id], []).append(r)
    # optimistic floor for requests not settled yet: the age penalty at zero
    floor_after = [0.0] * (len(pairs) + 1)
    for d in range(len(pairs) - 1, -1, -1):
        floor_after[d] = floor_after[d + 1] + sum(
            inst.f(0) for r in by_level.get(d, [])
        )

    # service value of each column for each request, cloud not yet folded in
    f = [inst.f(a) for a in range(T)]
    svc = {r.id: [min([f[a] for a, _ in serving_ages(ages, r, mode)], default=math.inf)
                  for ages in ages_of]
           for r in inst.requests}

    # The capacity headroom is one int: a field per (server, slot, cache or
    # backhaul) holding floor(capacity + CAPACITY_EPS), exact since sizes are
    # integers, clamped to the catalog's size, under a guard bit. A column
    # fits iff subtracting its loads leaves every guard set.
    catalog = sum(inst.size(i) for i in range(1, inst.num_contents + 1))
    width = catalog.bit_length() + 1
    guard = 1 << (width - 1)
    guards = sum(guard << k * width for k in range(2 * inst.num_servers * T))
    room = guards + sum(
        min(max(math.floor(cap + CAPACITY_EPS), 0), catalog) << (2 * (h * T + t) + kind) * width
        for h, srv in enumerate(inst.servers) for t in range(T)
        for kind, cap in enumerate((srv.cache_capacity, srv.backhaul_capacity)))
    # a column's need at size 1 on server 1; server h's fields lie 2 T (h - 1) fields up
    units = [sum((q << 2 * t * width) + (p << (2 * t + 1) * width) for t, (q, p) in enumerate(col))
             for col in columns]

    n = len(pairs)
    # Precomputed per depth: per candidate column its index, its capacity
    # need (its content's size in the field of each cached and each updated
    # slot) and its update cost; and the requests settling there, each with
    # its service values, the depths of its candidate pairs and its cloud
    # cost.
    options, settling = [], []
    for d, (h, i) in enumerate(pairs):
        size = inst.size(i)
        options.append([
            (k, size * units[k] << 2 * (h - 1) * T * width, inst.cost.beta * size * n_updates[k])
            for k in cols_by_deadline[last_deadline[(h, i)]]
        ])
        settling.append([
            (svc[r.id], [pair_pos[(g, r.content)] for g in r.candidates],
             inst.cloud_cost(r.content))
            for r in by_level.get(d, ())
        ])
    settle_min = mode == "min"
    chosen = [zero] * n  # column index by depth
    # the cost settling at a depth depends only on the columns chosen at the
    # depths of its requests' candidate pairs, all in its content's block from
    # depth first[d] on: memoised per depth by those columns
    first = [min([d, *(min(where) for _, where, _ in settlers)])
             for d, settlers in enumerate(settling)]
    settled_at: list[dict[tuple, dict[int, float]]] = [{} for _ in pairs]
    best_cost, best_schedule = math.inf, None

    def settle(depth: int) -> float:
        settled = 0.0
        for values, where, cloud in settling[depth]:
            served = min([values[chosen[d]] for d in where])
            if settle_min:
                settled += min(served, cloud)
            else:
                settled += cloud if math.isinf(served) else served
        return settled

    def dfs(depth: int, acc: float, room: int) -> None:
        nonlocal best_cost, best_schedule
        if depth == n:
            states = {pairs[d]: states_of[k] for d, k in enumerate(chosen) if k != zero}
            schedule = Schedule(horizon=T, states=states)
            total = evaluate(schedule, inst, mode).total
            assert abs(total - acc) <= 1e-9 * (1 + abs(total))
            if total < best_cost - 1e-12:
                best_cost, best_schedule = total, schedule
            return
        floor, settled, known = floor_after[depth + 1], 0.0, None
        if settling[depth]:
            known = settled_at[depth].setdefault(tuple(chosen[first[depth]:depth]), {})
        for k, need, update_cost in options[depth]:
            rest = room - need
            if rest & guards != guards:
                continue  # the column does not fit
            chosen[depth] = k
            if known is not None:
                settled = known.get(k)
                if settled is None:
                    settled = known[k] = settle(depth)
            child = acc + update_cost + settled
            # the child's prune test, made before the call
            if child + floor < best_cost - 1e-12:
                dfs(depth + 1, child, rest)

    dfs(0, 0.0, room)
    assert best_schedule is not None
    return finish_report("exact", inst, best_schedule, mode, None, 0, 0, started)


# ---------------------------------------------------------------------------
# Flat binary formulation in LP text format


def ilp_variable_names(inst: Instance) -> dict[str, list[str]]:
    """Stable naming scheme: x_h_i_t_a, z_h_i_t, y_r_h_a (all 1-based ids)."""
    xs, zs, ys = [], [], []
    for h in range(1, inst.num_servers + 1):
        for i in range(1, inst.num_contents + 1):
            for t in range(1, inst.horizon + 1):
                zs.append(f"z_{h}_{i}_{t}")
                for a in range(0, t):
                    xs.append(f"x_{h}_{i}_{t}_{a}")
    for r in inst.requests:
        for h in r.candidates:
            for a in range(0, r.deadline):
                ys.append(f"y_{r.id}_{h}_{a}")
    return {"x": xs, "z": zs, "y": ys}


def export_ilp(inst: Instance, path) -> None:
    """Write the flat binary formulation for external solvers.

    Objective: per-request service deltas on the y variables plus backhaul
    cost on the age-zero x variables plus the all-cloud constant.
    """
    objective: list[tuple[str, float]] = []
    constant = sum(inst.cloud_cost(r.content) for r in inst.requests)
    for r in inst.requests:
        for h in r.candidates:
            for a in range(0, r.deadline):
                coef = inst.f(a) - inst.cloud_cost(r.content)
                objective.append((f"y_{r.id}_{h}_{a}", coef))
    for h in range(1, inst.num_servers + 1):
        for i in range(1, inst.num_contents + 1):
            for t in range(1, inst.horizon + 1):
                objective.append((f"x_{h}_{i}_{t}_0", inst.cost.beta * inst.size(i)))

    rows = []
    for h in range(1, inst.num_servers + 1):
        for i in range(1, inst.num_contents + 1):
            for t in range(2, inst.horizon + 1):  # age evolution
                for a in range(1, t):
                    rows.append(
                        (
                            f"age_{h}_{i}_{t}_{a}",
                            [(f"x_{h}_{i}_{t - 1}_{a - 1}", 1.0), (f"x_{h}_{i}_{t}_{a}", -1.0)],
                            GE,
                            0.0,
                        )
                    )
            for t in range(1, inst.horizon + 1):  # cached iff some age realized
                terms = [(f"x_{h}_{i}_{t}_{a}", 1.0) for a in range(0, t)]
                terms.append((f"z_{h}_{i}_{t}", -1.0))
                rows.append((f"def_{h}_{i}_{t}", terms, EQ, 0.0))
    for r in inst.requests:  # serve at most once
        terms = [
            (f"y_{r.id}_{h}_{a}", 1.0)
            for h in r.candidates
            for a in range(0, r.deadline)
        ]
        rows.append((f"once_{r.id}", terms, LE, 1.0))
        for h in r.candidates:  # service needs a matching cached age in window
            for a in range(0, r.deadline):
                terms = [(f"y_{r.id}_{h}_{a}", 1.0)]
                for t in range(max(r.origin, a + 1), r.deadline + 1):
                    terms.append((f"x_{h}_{r.content}_{t}_{a}", -1.0))
                rows.append((f"cover_{r.id}_{h}_{a}", terms, LE, 0.0))
    for h in range(1, inst.num_servers + 1):
        for t in range(1, inst.horizon + 1):
            terms = [
                (f"z_{h}_{i}_{t}", float(inst.size(i)))
                for i in range(1, inst.num_contents + 1)
            ]
            rows.append((f"cache_{h}_{t}", terms, LE, inst.server(h).cache_capacity))
            terms = [
                (f"x_{h}_{i}_{t}_0", float(inst.size(i)))
                for i in range(1, inst.num_contents + 1)
            ]
            rows.append((f"backhaul_{h}_{t}", terms, LE, inst.server(h).backhaul_capacity))

    names = ilp_variable_names(inst)
    binaries = names["x"] + names["z"] + names["y"]
    text = write_lp_text(objective=objective, rows=rows, binaries=binaries, constant=constant)
    Path(path).write_text(text, encoding="utf-8")
