import random

import numpy as np
import pytest

from mcsp.columns import ColumnPool, enumerate_columns
from mcsp.instance import build_request_index
from mcsp.rmp import (
    CapacityRows,
    DualPrices,
    build_rmp,
    reduced_cost,
    service_saving,
    solve_rmp,
)

from conftest import random_tiny_instance


def full_pool(inst, idx, mode="paper") -> ColumnPool:
    pool = ColumnPool.initial(inst, idx, mode)
    for (h, i) in list(pool.entries):
        for col in enumerate_columns(inst.horizon):
            pool.add(h, i, col)
    return pool


def test_tiny1_rows_without_mcrs(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1, tiny1_idx, "paper")
    model = build_rmp(pool, tiny1, tiny1_idx)
    assert model.serve_ids == [] and len(model.cover_svc) == 0
    assert len(model.cache_keys) == 2 and len(model.backhaul_keys) == 2
    assert len(model.pairs) == 1
    assert model.constant == 0.0


def test_tiny1_full_pool_objective(tiny1, tiny1_idx):
    pool = full_pool(tiny1, tiny1_idx)
    sol = solve_rmp(build_rmp(pool, tiny1, tiny1_idx))
    assert sol.objective == pytest.approx(3.0)
    # weight concentrates on a cost-3 column
    weights = sol.chi[(1, 1)]
    chosen = [e.column for e, w in zip(pool.columns(1, 1), weights) if w > 1e-6]
    assert all(
        c in (((1, 1), (1, 0)), ((0, 0), (1, 1))) for c in chosen
    )


def test_zero_pool_objective_is_cloud_cost():
    rng = random.Random(3)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(inst, idx, "paper")
        sol = solve_rmp(build_rmp(pool, inst, idx))
        expect = sum(inst.cloud_cost(r.content) for r in inst.requests)
        assert sol.objective == pytest.approx(expect)


def test_convexity_partition_always_holds():
    rng = random.Random(8)
    for _ in range(8):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        sol = solve_rmp(build_rmp(full_pool(inst, idx), inst, idx))
        for key, w in sol.chi.items():
            assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-7)
            assert np.all(w >= -1e-9)


def test_mcr_constant_in_objective():
    rng = random.Random(15)
    while True:
        inst = random_tiny_instance(rng)
        if inst.mcrs:
            break
    idx = build_request_index(inst)
    const = idx.mcr_cloud_cost
    assert const == pytest.approx(
        sum(inst.cloud_cost(r.content) for r in inst.mcrs)
    )
    pool = ColumnPool.initial(inst, idx, "paper")
    model = build_rmp(pool, inst, idx)
    assert model.constant == pytest.approx(const)


def test_single_mcr_row_shape():
    import dataclasses

    from mcsp.generator import GeneratorConfig, generate_instance
    from mcsp.instance import Request

    from conftest import TWO_CELL

    inst = generate_instance(
        GeneratorConfig(
            cells="custom", custom_topology=TWO_CELL, num_contents=1,
            num_requests=0, horizon=1, rho_m=0.0, seed=4, size_range=(1, 1),
            cache_scale=1.0, rho_b=1.0,
        )
    )
    inst = dataclasses.replace(
        inst, requests=(Request(1, 1, origin=1, deadline=1, candidates=(1, 2)),)
    )
    idx = build_request_index(inst)
    pool = full_pool(inst, idx)
    model = build_rmp(pool, inst, idx)
    # both servers can cover (r, a=0): one serve-once row, two coverage rows
    assert len(model.serve_ids) == 1
    assert len(model.cover_svc) == 2
    sol = solve_rmp(model)
    # serving from cache (age 0, f=1) beats the cloud (1 + 11) for one server
    assert sol.objective == pytest.approx(
        min(inst.f(0) + inst.cost.beta * 1, inst.cloud_cost(1))
    )


def test_reduced_cost_zero_duals_lambda(tiny1, tiny1_idx):
    duals = DualPrices.explicit(tiny1_idx, lam={(1, 1): 23.0})
    zero = ((0, 0), (0, 0))
    assert reduced_cost(zero, 1, 1, duals, tiny1_idx, mode="paper") == pytest.approx(0.0)


def test_in_pool_columns_price_nonnegative():
    rng = random.Random(44)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = full_pool(inst, idx)
        sol = solve_rmp(build_rmp(pool, inst, idx))
        for (h, i), entries in pool.entries.items():
            for k, e in enumerate(entries):
                rc = reduced_cost(e.column, h, i, sol.duals, idx, cost_S=e.cost)
                assert rc >= -1e-6
                if sol.chi[(h, i)][k] > 1e-6:  # basic columns price to zero
                    assert abs(rc) <= 1e-6


def test_full_lp_certificate_with_lazy_rows():
    """The imputed duals must certify optimality of the full LP: every
    service variable left out of the master prices nonnegatively."""
    rng = random.Random(90)
    checked = 0
    for _ in range(20):
        inst = random_tiny_instance(rng)
        if not inst.mcrs:
            continue
        idx = build_request_index(inst)
        pool = full_pool(inst, idx)
        sol = solve_rmp(build_rmp(pool, inst, idx))
        duals = sol.duals
        for r in inst.mcrs:
            for h in r.candidates:
                for a in range(r.deadline):
                    saving = service_saving(inst, r.content, a)
                    rc_y = saving - duals.sigma[r.id] - duals.pi(r, h, a)
                    assert rc_y >= -1e-6
                    assert duals.pi(r, h, a) <= 1e-9  # coverage rows are <= rows
        checked += 1
    assert checked >= 5


def test_objective_nonincreasing_as_pool_grows():
    rng = random.Random(77)
    inst = random_tiny_instance(rng)
    idx = build_request_index(inst)
    pool = ColumnPool.initial(inst, idx, "paper")
    obj_small = solve_rmp(build_rmp(pool, inst, idx)).objective
    pool2 = full_pool(inst, idx)
    obj_full = solve_rmp(build_rmp(pool2, inst, idx)).objective
    assert obj_full <= obj_small + 1e-9


def test_lazy_capacity_rows_reach_full_master_optimum():
    """On an instance where capacity binds, column generation with lazily
    added capacity rows ends at the optimum of the master that holds every
    capacity row over the same pool, and that optimum respects capacity."""
    from mcsp.driver import run_cga
    from mcsp.generator import GeneratorConfig, generate_instance

    inst = generate_instance(
        GeneratorConfig(
            cells="3-cell", num_contents=20, num_requests=150, horizon=6,
            rho_m=0.4, rho_tt=1.0, rho_b=0.05, cache_scale=0.5, seed=1,
        )
    )
    idx = build_request_index(inst)
    pool = ColumnPool.initial(inst, idx, "paper")
    rows = CapacityRows()
    lazy = run_cga(pool, inst, idx, capacity_rows=rows)
    n_keys = inst.num_servers * inst.horizon
    # rows were needed, yet the master holds fewer than all of them
    assert rows.cache or rows.backhaul
    assert len(rows.cache) + len(rows.backhaul) < 2 * n_keys

    full = solve_rmp(build_rmp(pool, inst, idx))
    assert full.objective == pytest.approx(lazy.solution.objective, rel=1e-6, abs=1e-6)
    for sol in (full, lazy.solution):
        cache = np.zeros((inst.num_servers + 1, inst.horizon + 1))
        backhaul = np.zeros_like(cache)
        for (h, i), weights in sol.chi.items():
            for entry, w in zip(pool.entries[(h, i)], weights):
                for t in entry.q_slots:
                    cache[h, t] += w * inst.size(i)
                for t in entry.p_slots:
                    backhaul[h, t] += w * inst.size(i)
        for h in range(1, inst.num_servers + 1):
            server = inst.server(h)
            assert np.all(cache[h] <= server.cache_capacity * (1 + 1e-7) + 1e-7)
            assert np.all(backhaul[h] <= server.backhaul_capacity * (1 + 1e-7) + 1e-7)


def test_build_rmp_holds_only_the_named_capacity_rows(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1, tiny1_idx, "paper")
    model = build_rmp(pool, tiny1, tiny1_idx, CapacityRows(backhaul={(1, 2)}))
    assert model.cache_keys == []
    assert model.backhaul_keys == [(1, 2)]
    assert model.problem.num_rows == 2  # the backhaul row and the convexity row


def _reference_master(pool, inst, capacity_rows):
    """The master LP written out row by row from the column definitions:
    rows and y variables as dense lists keyed as the module docstring says."""
    pairs = sorted(pool.entries)
    content = {r.id: r.content for r in inst.requests}
    services = sorted({
        (r_id, h, a)
        for (h, i) in pairs for e in pool.entries[(h, i)] for r_id, a in e.coverage
        if service_saving(inst, i, a) < 0
    })
    serve = sorted({r_id for r_id, _, _ in services})
    every = [(h, t) for h in range(1, inst.num_servers + 1) for t in range(1, inst.horizon + 1)]
    cache = every if capacity_rows is None else sorted(capacity_rows.cache)
    backhaul = every if capacity_rows is None else sorted(capacity_rows.backhaul)
    row_keys = ([("serve", r) for r in serve] + [("cover", s) for s in services]
                + [("cache", k) for k in cache] + [("backhaul", k) for k in backhaul]
                + [("convexity", p) for p in pairs])
    row = {key: n for n, key in enumerate(row_keys)}
    chi = [(h, i, e) for (h, i) in pairs for e in pool.entries[(h, i)]]
    a = np.zeros((len(row_keys), len(chi) + len(services)))
    c, upper = [], []
    for col, (h, i, e) in enumerate(chi):
        c.append(e.cost)
        upper.append(np.inf)
        for r_id, age in e.coverage:
            if ("cover", (r_id, h, age)) in row:
                a[row[("cover", (r_id, h, age))], col] = -1.0
        for t in e.q_slots:
            if ("cache", (h, t)) in row:
                a[row[("cache", (h, t))], col] = inst.size(i)
        for t in e.p_slots:
            if ("backhaul", (h, t)) in row:
                a[row[("backhaul", (h, t))], col] = inst.size(i)
        a[row[("convexity", (h, i))], col] = 1.0
    for n, (r_id, h, age) in enumerate(services):
        c.append(service_saving(inst, content[r_id], age))
        upper.append(1.0)
        a[row[("serve", r_id)], len(chi) + n] = 1.0
        a[row[("cover", (r_id, h, age))], len(chi) + n] = 1.0
    b = [1.0 if kind in ("serve", "convexity") else 0.0 if kind == "cover"
         else getattr(inst.server(key[0]), f"{kind}_capacity") for kind, key in row_keys]
    rel = [2 if kind == "convexity" else 0 for kind, _ in row_keys]  # = and <=
    return dict(a=a, c=c, b=b, rel=rel, upper=upper, serve=serve, services=services,
                cache=cache, backhaul=backhaul, pairs=pairs)


def test_build_rmp_matches_column_definitions():
    """build_rmp's arrays equal the master written out from each entry's
    coverage, cached and updated slots and the service savings, with every
    capacity row and with a sampled subset of them."""
    rng = random.Random(41)
    for _ in range(30):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(inst, idx, rng.choice(["paper", "min"]))
        columns = enumerate_columns(inst.horizon)
        for key in list(pool.entries):
            for col in rng.sample(columns, rng.randint(0, len(columns))):
                pool.add(*key, col)
        every = [(h, t) for h in range(1, inst.num_servers + 1)
                 for t in range(1, inst.horizon + 1)]
        partial = CapacityRows(set(rng.sample(every, rng.randint(0, len(every)))),
                               set(rng.sample(every, rng.randint(0, len(every)))))
        triple = {pos: key for key, pos in idx.svc_pos.items()}
        for rows in (None, partial):
            model = build_rmp(pool, inst, idx, rows)
            ref = _reference_master(pool, inst, rows)
            prob = model.problem
            assert np.array_equal(prob.a_matrix.toarray(), ref["a"])
            for name in ("c", "b", "rel", "upper"):
                assert np.array_equal(getattr(prob, name), np.array(ref[name])), name
            assert model.serve_ids == ref["serve"]
            assert [triple[p] for p in model.cover_svc.tolist()] == ref["services"]
            assert model.cache_keys == ref["cache"] and model.backhaul_keys == ref["backhaul"]
            assert model.pairs == ref["pairs"]
            sizes = [len(ref[k]) for k in ("serve", "services", "cache", "backhaul", "pairs")]
            assert np.diff(model.starts).tolist() == sizes
