import random

import numpy as np
import pytest

import reference
from mcsp.columns import ColumnPool, enumerate_columns
from mcsp.instance import build_request_index
from mcsp.rmp import CapacityRows, MasterBasis, build_rmp, solve_rmp
from reference import (
    a_matrix, add_column, explicit_duals, mcrs, pair_index, pool_columns, reduced_cost)

from conftest import all_capacity_rows, assert_highs_model, random_tiny_instance


def capacity_rows(inst, cache=(), backhaul=()) -> CapacityRows:
    """The ``CapacityRows`` holding the cache and backhaul rows of the given
    (server, slot) keys."""
    rows = CapacityRows(inst)
    for kind, keys in enumerate((cache, backhaul)):
        for h, t in keys:
            rows.held[kind, h, t] = True
    return rows


def keys(at) -> list[tuple]:
    """The keys of a row block from its ``RmpModel.row_index`` arrays."""
    return list(zip(*(a.tolist() for a in at)))


def pool_entries(pool) -> list:
    """(pair, entry) of every pool entry, in pool order."""
    return [(key, e) for key, entries in reference.pool_entries(pool).items() for e in entries]


def full_pool(inst, idx, mode="paper") -> ColumnPool:
    pool = ColumnPool.initial(idx, mode)
    for (h, i) in pool.pairs:
        for col in enumerate_columns(inst.horizon):
            add_column(pool, h, i, col)
    return pool


def test_tiny1_rows_without_mcrs(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1_idx, "paper")
    model = build_rmp(pool, all_capacity_rows(tiny1))
    # serve-once, coverage, cache, backhaul and convexity rows
    assert np.diff(model.starts).tolist() == [0, 0, 2, 2, 1]
    assert model.constant == 0.0


def test_tiny1_full_pool_objective(tiny1, tiny1_idx):
    pool = full_pool(tiny1, tiny1_idx)
    sol = solve_rmp(build_rmp(pool, all_capacity_rows(tiny1)), MasterBasis())
    assert sol.objective == pytest.approx(3.0)
    # weight concentrates on a cost-3 column
    chosen = [e.column for e, w in zip(pool_columns(pool, 1, 1), sol.weights) if w > 1e-6]
    assert all(
        c in (((1, 1), (1, 0)), ((0, 0), (1, 1))) for c in chosen
    )


def test_zero_pool_objective_is_cloud_cost():
    rng = random.Random(3)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, "paper")
        sol = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), MasterBasis())
        expect = sum(inst.cloud_cost(r.content) for r in inst.requests)
        assert sol.objective == pytest.approx(expect)


def test_convexity_partition_always_holds():
    rng = random.Random(8)
    for _ in range(8):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = full_pool(inst, idx)
        sol = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), MasterBasis())
        per_pair = np.add.reduceat(sol.weights, pool.starts()[:-1])
        assert per_pair == pytest.approx(np.ones(len(pool.pairs)), abs=1e-7)
        assert np.all(sol.weights >= -1e-9)


def test_mcr_constant_in_objective():
    rng = random.Random(15)
    while True:
        inst = random_tiny_instance(rng)
        if mcrs(inst):
            break
    idx = build_request_index(inst)
    const = idx.mcr_cloud_cost
    assert const == pytest.approx(
        sum(inst.cloud_cost(r.content) for r in mcrs(inst))
    )
    pool = ColumnPool.initial(idx, "paper")
    model = build_rmp(pool, all_capacity_rows(inst))
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
    model = build_rmp(pool, all_capacity_rows(inst))
    # both servers can cover (r, a=0): one serve-once row, two coverage rows
    assert len(model.row_index[0]) == 1
    assert len(model.cover_svc) == 2
    sol = solve_rmp(model, MasterBasis())
    # serving from cache (age 0, f=1) beats the cloud (1 + 11) for one server
    assert sol.objective == pytest.approx(
        min(inst.f(0) + inst.cost.beta * 1, inst.cloud_cost(1))
    )


def test_reduced_cost_zero_duals_lambda(tiny1, tiny1_idx):
    duals = explicit_duals(tiny1_idx, lam={(1, 1): 23.0})
    zero = ((0, 0), (0, 0))
    assert reduced_cost(zero, 1, 1, duals, tiny1_idx, mode="paper") == pytest.approx(0.0)


def test_in_pool_columns_price_nonnegative():
    rng = random.Random(44)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = full_pool(inst, idx)
        sol = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), MasterBasis())
        for ((h, i), e), w in zip(pool_entries(pool), sol.weights, strict=True):
            rc = reduced_cost(e.column, h, i, sol.duals, idx, cost_S=e.cost)
            assert rc >= -1e-6
            if w > 1e-6:  # basic columns price to zero
                assert abs(rc) <= 1e-6


def test_full_lp_certificate_with_lazy_rows():
    """The imputed duals must certify optimality of the full LP: every
    service variable left out of the master prices nonnegatively."""
    rng = random.Random(90)
    checked = 0
    for _ in range(20):
        inst = random_tiny_instance(rng)
        if not mcrs(inst):
            continue
        idx = build_request_index(inst)
        pool = full_pool(inst, idx)
        sol = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), MasterBasis())
        duals, pos = sol.duals, reference.svc_pos(idx)
        for r in mcrs(inst):
            for h in r.candidates:
                for a in range(r.deadline):
                    saving = reference.service_saving(inst, r.content, a)
                    pi = duals.pis[pos[(r.id, h, a)]]
                    assert saving - duals.sigma[r.id] - pi >= -1e-6
                    assert pi <= 1e-9  # coverage rows are <= rows
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_certificate_on_large_masters(seed):
    """On masters well above tiny size (3-cell 20/150, every capacity row,
    initial pools plus three random columns per pair), the returned duals
    price every service variable nonnegatively, and their row dual
    objective equals the master objective: no price is left on a bound."""
    from mcsp.generator import GeneratorConfig, generate_instance

    inst = generate_instance(
        GeneratorConfig(
            cells="3-cell", num_contents=20, num_requests=150, horizon=6,
            rho_m=0.4, rho_tt=1.0, rho_b=0.3, cache_scale=0.5, seed=seed,
        )
    )
    idx = build_request_index(inst)
    rng = random.Random(seed)
    pool = ColumnPool.initial(idx, "paper")
    columns = enumerate_columns(inst.horizon)
    for key in pool.pairs:
        for col in rng.sample(columns, 3):
            add_column(pool, *key, col)
    model = build_rmp(pool, all_capacity_rows(inst))
    assert model.problem.num_rows + model.problem.num_vars > 600
    sol = solve_rmp(model, MasterBasis())
    _assert_dual_certificate(inst, sol)


def _assert_dual_certificate(inst, sol):
    """Every service variable prices nonnegatively against ``sol.duals``,
    and their row dual objective equals the LP objective."""
    duals, pos = sol.duals, reference.svc_pos(build_request_index(inst))
    for r in mcrs(inst):
        for h in r.candidates:
            for a in range(r.deadline):
                saving = reference.service_saving(inst, r.content, a)
                assert saving - duals.sigma[r.id] - duals.pis[pos[(r.id, h, a)]] >= -1e-6
    capacity = sum(
        duals.mus[h, t] * inst.server(h).cache_capacity
        + duals.phis[h, t] * inst.server(h).backhaul_capacity
        for h in range(1, inst.num_servers + 1)
        for t in range(1, inst.horizon + 1)
    )
    row_objective = duals.sigma.sum() + capacity + duals.lams.sum()
    assert row_objective == pytest.approx(sol.lp.objective, abs=1e-6)


def test_canonical_solve_failure_propagates(tiny1, tiny1_idx, monkeypatch):
    """A failed face solve raises instead of falling back to the primary
    primal, so ``mcsp solve`` reports it as a solver failure."""
    from mcsp import rmp
    from mcsp.simplex import LpError

    model = build_rmp(ColumnPool.initial(tiny1_idx, "paper"), all_capacity_rows(tiny1))
    solve = rmp.solve_lp

    def face_fails(prob, basis=None):
        if prob is not model.problem:
            raise LpError("face solve failed")
        return solve(prob, basis)

    monkeypatch.setattr(rmp, "solve_lp", face_fails)
    with pytest.raises(LpError, match="face solve failed"):
        solve_rmp(model, MasterBasis(), canonical=True)


def test_objective_nonincreasing_as_pool_grows():
    rng = random.Random(77)
    inst = random_tiny_instance(rng)
    idx = build_request_index(inst)
    pool = ColumnPool.initial(idx, "paper")
    obj_small = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), MasterBasis()).objective
    pool2 = full_pool(inst, idx)
    obj_full = solve_rmp(build_rmp(pool2, all_capacity_rows(inst)), MasterBasis()).objective
    assert obj_full <= obj_small + 1e-9


def test_lazy_capacity_rows_reach_full_master_optimum():
    """On an instance where capacity binds, column generation with lazily
    added capacity rows ends at the optimum of the master that holds every
    capacity row over the same pool, and that optimum respects capacity."""
    from mcsp.driver import _set_up, run_cga
    from mcsp.generator import GeneratorConfig, generate_instance

    inst = generate_instance(
        GeneratorConfig(
            cells="3-cell", num_contents=20, num_requests=150, horizon=6,
            rho_m=0.4, rho_tt=1.0, rho_b=0.05, cache_scale=0.5, seed=1,
        )
    )
    pool, statics, state, rows, basis = _set_up(inst, "paper")
    lazy = run_cga(pool, statics, state, rows, basis)
    n_keys = inst.num_servers * inst.horizon
    # rows were needed, yet the master holds fewer than all of them
    assert 0 < np.count_nonzero(rows.held) < 2 * n_keys

    full = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), MasterBasis())
    assert full.objective == pytest.approx(lazy.solution.objective, rel=1e-6, abs=1e-6)
    for sol in (full, lazy.solution):
        cache = np.zeros((inst.num_servers + 1, inst.horizon + 1))
        backhaul = np.zeros_like(cache)
        for ((h, i), entry), w in zip(pool_entries(pool), sol.weights, strict=True):
            for t, (q, p) in enumerate(entry.column, start=1):
                cache[h, t] += q * w * inst.size(i)
                backhaul[h, t] += p * w * inst.size(i)
        for h in range(1, inst.num_servers + 1):
            server = inst.server(h)
            assert np.all(cache[h] <= server.cache_capacity * (1 + 1e-7) + 1e-7)
            assert np.all(backhaul[h] <= server.backhaul_capacity * (1 + 1e-7) + 1e-7)


def test_build_rmp_holds_only_the_named_capacity_rows(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1_idx, "paper")
    model = build_rmp(pool, capacity_rows(tiny1, backhaul=[(1, 2)]))
    assert keys(model.row_index[2]) == []
    assert keys(model.row_index[3]) == [(1, 2)]
    assert model.problem.num_rows == 2  # the backhaul row and the convexity row


def _reference_master(pool, inst, rows):
    """The master LP written out row by row from the column definitions:
    rows and y variables as dense lists keyed as the module docstring says."""
    pairs = sorted(pool.pairs)
    by_pair = reference.pool_entries(pool)
    content = {r.id: r.content for r in inst.requests}
    services = sorted({
        (r_id, h, a)
        for (h, i) in pairs for e in by_pair[(h, i)] for r_id, a in e.coverage
        if reference.service_saving(inst, i, a) < 0
    })
    serve = sorted({r_id for r_id, _, _ in services})
    every = [(h, t) for h in range(1, inst.num_servers + 1) for t in range(1, inst.horizon + 1)]
    cache, backhaul = ([key for key in every if rows.held[(kind, *key)]]
                       for kind in (0, 1))
    row_keys = ([("serve", r) for r in serve] + [("cover", s) for s in services]
                + [("cache", k) for k in cache] + [("backhaul", k) for k in backhaul]
                + [("convexity", p) for p in pairs])
    row = {key: n for n, key in enumerate(row_keys)}
    chi = [(h, i, e) for (h, i) in pairs for e in by_pair[(h, i)]]
    a = np.zeros((len(row_keys), len(chi) + len(services)))
    c, upper = [], []
    for col, (h, i, e) in enumerate(chi):
        c.append(e.cost)
        upper.append(np.inf)
        for r_id, age in e.coverage:
            if ("cover", (r_id, h, age)) in row:
                a[row[("cover", (r_id, h, age))], col] = -1.0
        for t, (q, p) in enumerate(e.column, start=1):
            if q and ("cache", (h, t)) in row:
                a[row[("cache", (h, t))], col] = inst.size(i)
            if p and ("backhaul", (h, t)) in row:
                a[row[("backhaul", (h, t))], col] = inst.size(i)
        a[row[("convexity", (h, i))], col] = 1.0
    for n, (r_id, h, age) in enumerate(services):
        c.append(reference.service_saving(inst, content[r_id], age))
        upper.append(1.0)
        a[row[("serve", r_id)], len(chi) + n] = 1.0
        a[row[("cover", (r_id, h, age))], len(chi) + n] = 1.0
    b = [1.0 if kind in ("serve", "convexity") else 0.0 if kind == "cover"
         else getattr(inst.server(key[0]), f"{kind}_capacity") for kind, key in row_keys]
    num_le = sum(kind != "convexity" for kind, _ in row_keys)  # the rest are = rows
    return dict(a=a, c=c, b=b, num_le=num_le, upper=upper, serve=serve, services=services,
                cache=cache, backhaul=backhaul, pairs=pairs)


def test_build_rmp_matches_column_definitions():
    """build_rmp's arrays equal the master written out from each entry's
    coverage, cached and updated slots and the service savings, with every
    capacity row and with a sampled subset of them."""
    rng = random.Random(41)
    for _ in range(30):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, rng.choice(["paper", "min"]))
        columns = enumerate_columns(inst.horizon)
        for key in pool.pairs:
            for col in rng.sample(columns, rng.randint(0, len(columns))):
                add_column(pool, *key, col)
        every = [(h, t) for h in range(1, inst.num_servers + 1)
                 for t in range(1, inst.horizon + 1)]
        partial = capacity_rows(inst, rng.sample(every, rng.randint(0, len(every))),
                                rng.sample(every, rng.randint(0, len(every))))
        triple = {pos: key for key, pos in reference.svc_pos(idx).items()}
        for rows in (all_capacity_rows(inst), partial):
            model = build_rmp(pool, rows)
            ref = _reference_master(pool, inst, rows)
            prob = model.problem
            assert np.array_equal(a_matrix(prob).toarray(), ref["a"])
            for name in ("c", "b", "upper"):
                assert np.array_equal(getattr(prob, name), np.array(ref[name])), name
            assert prob.num_le == ref["num_le"]
            serve_at, cover_at, cache_at, backhaul_at, pair_at = model.row_index
            assert serve_at.tolist() == ref["serve"]
            assert [triple[p] for p in cover_at.tolist()] == ref["services"]
            assert keys(cache_at) == ref["cache"] and keys(backhaul_at) == ref["backhaul"]
            assert keys(pair_at) == ref["pairs"]
            sizes = [len(ref[k]) for k in ("serve", "services", "cache", "backhaul", "pairs")]
            assert np.diff(model.starts).tolist() == sizes


def test_highs_receives_the_reference_arrays(highs_calls):
    """On 60 random tiny instances, with all, half and none of the capacity
    rows, the master and the face LP of the canonical re-solve reach HiGHS's
    passModel as the arrays of the scipy.sparse construction in
    ``reference`` (COO to CSR to CSC; the face row stacked under the
    master's <= rows), bit for bit, and the face LP's start basis has its row
    statuses."""
    rng = random.Random(61)
    for _ in range(60):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, rng.choice(["paper", "min"]))
        columns = enumerate_columns(inst.horizon)
        for key in pool.pairs:
            for col in rng.sample(columns, rng.randint(0, len(columns))):
                add_column(pool, *key, col)
        every = [(h, t) for h in range(1, inst.num_servers + 1)
                 for t in range(1, inst.horizon + 1)]
        half = capacity_rows(inst, rng.sample(every, len(every) // 2),
                             rng.sample(every, len(every) // 2))
        for rows in (all_capacity_rows(inst), half, CapacityRows(inst)):
            highs_calls.clear()
            model = build_rmp(pool, rows)
            sol = solve_rmp(model, MasterBasis(), canonical=True)
            master, face, face_status = highs_calls
            ref = reference.master_lp(pool, rows)
            assert_highs_model(master, reference.highs_model(ref))
            face_ref = reference.highs_model(*reference.face_lp(
                ref, model.flags, sol.lp.objective, sol.lp.basis.rows))
            assert_highs_model(face, face_ref)
            assert face_status == face_ref["row_status"].tolist()


def _binding_instance(seed=1):
    """3-cell 20/150 with backhaul at 5% of the catalog, where capacity binds."""
    from mcsp.generator import GeneratorConfig, generate_instance

    return generate_instance(
        GeneratorConfig(
            cells="3-cell", num_contents=20, num_requests=150, horizon=6,
            rho_m=0.4, rho_tt=1.0, rho_b=0.05, cache_scale=0.5, seed=seed,
        )
    )


def test_capacity_check_adds_each_row_once():
    """On a binding 3-cell 20/150 master without capacity rows, the
    capacity check adds the rows its primal violates; a second check on the
    same weights adds none and leaves the mask as it was."""
    inst = _binding_instance()
    idx = build_request_index(inst)
    rng = random.Random(3)
    pool = ColumnPool.initial(idx, "paper")
    columns = enumerate_columns(inst.horizon)
    for key in pool.pairs:
        for col in rng.sample(columns, 3):
            add_column(pool, *key, col)
    rows = CapacityRows(inst)
    sol = solve_rmp(build_rmp(pool, rows), MasterBasis())
    added = rows.add_violated(pool, sol.weights)
    held = rows.held.copy()
    assert added == np.count_nonzero(held) > 0
    assert rows.add_violated(pool, sol.weights) == 0
    assert np.array_equal(rows.held, held)


def _resolve_moved_master(pool, inst):
    """Solve the lazy-row master over ``pool`` from an empty MasterBasis,
    then the same master with each pair's entries in reverse order and every
    capacity row its primal satisfies added (basic), which moves its columns
    and rows to other positions, from the recorded basis. Returns both
    solves."""
    basis = MasterBasis()
    model = build_rmp(pool, CapacityRows(inst))
    assert basis.start(model) is None  # nothing recorded yet: a cold start
    first = solve_rmp(model, basis=basis)
    violated = CapacityRows(inst)
    violated.add_violated(pool, first.weights)
    rows = CapacityRows(inst)
    rows.held[:, 1:, 1:] = ~violated.held[:, 1:, 1:]
    for key in pool.pairs:
        reference.keep(pool, *key, range(pool.counts[pair_index(pool, *key)] - 1, -1, -1))
    again = solve_rmp(build_rmp(pool, rows), basis=basis)
    return first, again


def test_unchanged_master_resolves_without_iterations():
    """Mapped by identity onto the same master with its columns and rows
    moved, the recorded basis is optimal at once: 0 simplex iterations, on
    tiny masters and on a binding 3-cell 20/150 master."""
    rng = random.Random(12)
    for _ in range(20):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        first, again = _resolve_moved_master(full_pool(inst, idx), inst)
        assert again.lp.iterations == 0
        assert again.objective == pytest.approx(first.objective, rel=1e-9, abs=1e-9)

    inst = _binding_instance()
    idx = build_request_index(inst)
    pool = ColumnPool.initial(idx, "paper")
    columns = enumerate_columns(inst.horizon)
    for key in pool.pairs:
        for col in rng.sample(columns, 3):
            add_column(pool, *key, col)
    first, again = _resolve_moved_master(pool, inst)
    assert len(again.lp.duals) > len(first.lp.duals)  # capacity rows joined
    assert first.lp.iterations > 50 and again.lp.iterations == 0
    assert again.objective == pytest.approx(first.objective, rel=1e-9)
    assert again.lp.basis.num_basic == len(again.lp.duals)


def test_start_basis_after_a_purge_solves():
    """Purging the columns a master held basic leaves the mapped start basis
    short of basic entries; the master still solves, to the cold optimum."""
    from mcsp.simplex import solve_lp

    inst = _binding_instance(seed=2)
    idx = build_request_index(inst)
    rng = random.Random(2)
    pool = ColumnPool.initial(idx, "paper")
    columns = enumerate_columns(inst.horizon)
    for key in pool.pairs:
        for col in rng.sample(columns, 3):
            add_column(pool, *key, col)
    basis = MasterBasis()
    sol = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), basis=basis)
    for key, weights in zip(pool.pairs, np.split(sol.weights, pool.starts()[1:-1])):
        # keep the zero column, so that the master stays feasible
        reference.keep(pool, *key, [k for k, w in enumerate(weights) if k == 0 or w <= 1e-9])
    model = build_rmp(pool, all_capacity_rows(inst))
    start = basis.start(model)
    assert start.num_basic < model.problem.num_rows
    warm = solve_rmp(model, basis=basis)
    assert warm.objective == pytest.approx(
        solve_lp(model.problem).objective + model.constant, rel=1e-9)
    _assert_dual_certificate(inst, warm)


def test_warm_masters_match_cold_solves(monkeypatch):
    """Every warm-started master of run_rcga and naive_round on a binding
    3-cell 20/150 instance has the objective of a cold solve of it, within
    1e-9 relative, and its DualPrices are a dual certificate."""
    from mcsp import driver
    from mcsp.simplex import solve_lp

    inst = _binding_instance()
    warm = []
    solve = driver.solve_rmp

    def checked(model, basis, canonical=False, lp=None):
        started_warm = lp is None and basis.start(model) is not None
        sol = solve(model, basis, canonical, lp)
        if started_warm:
            cold = solve_lp(model.problem)
            assert sol.lp.objective == pytest.approx(cold.objective, rel=1e-9)
            _assert_dual_certificate(inst, sol)
            warm.append((sol.lp.iterations, cold.iterations))
        return sol

    monkeypatch.setattr(driver, "solve_rmp", checked)
    rcga = driver.run_rcga(inst)
    nrs = driver.naive_round(inst)
    # all but the first master of each solve start warm (the master of an
    # NRS wedge raises LpInfeasibleError and counts no round)
    assert len(warm) == rcga.pricing_rounds + nrs.pricing_rounds - 2
    warm_iterations, cold_iterations = map(sum, zip(*warm))
    assert warm_iterations < cold_iterations / 2


def test_face_lp_equals_the_inserted_construction(monkeypatch):
    """Every face LP of the canonical re-solves of RCGA solves, on random
    tiny instances, a binding 3-cell 20/150 instance (capacity rows in the
    master) and the 3-cell 100/500 desk instance, equals the ``np.insert``
    construction of ``reference.inserted_face_lp`` array for array, in
    dtype, shape and bytes, with its start basis."""
    from mcsp import rmp
    from mcsp.driver import run_rcga
    from mcsp.generator import GeneratorConfig, generate_instance

    solved = []  # every (problem, start basis) solve_lp got
    checked = []  # per face LP: its nonzeros and the master's capacity rows
    real_solve, real_canonical = rmp.solve_lp, rmp._canonical_primal

    def recording(prob, basis=None):
        solved.append((prob, basis))
        return real_solve(prob, basis)

    def canonical(model, sol):
        before = len(solved)
        x = real_canonical(model, sol)
        (face, start), = solved[before:]
        want, want_start = reference.inserted_face_lp(model, sol)
        for got_array, want_array in ((face.c, want.c), (face.start, want.start),
                                      (face.index, want.index), (face.value, want.value),
                                      (face.b, want.b),
                                      (face.upper, want.upper), (start.cols, want_start.cols),
                                      (start.rows, want_start.rows)):
            assert got_array.dtype == want_array.dtype
            assert got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes()
        assert face.num_le == want.num_le
        checked.append((len(face.value), model.starts[4] - model.starts[2]))
        return x

    monkeypatch.setattr(rmp, "solve_lp", recording)
    monkeypatch.setattr(rmp, "_canonical_primal", canonical)
    rng = random.Random(62)
    for _ in range(20):
        run_rcga(random_tiny_instance(rng), rng.choice(["paper", "min"]))
    tiny = len(checked)
    run_rcga(_binding_instance())
    binding = len(checked)
    run_rcga(generate_instance(GeneratorConfig(
        cells="3-cell", num_contents=100, num_requests=500, horizon=12, rho_m=0.4,
        rho_tt=1.0, rho_b=0.3, seed=1)))
    assert tiny >= 20 and binding > tiny and len(checked) > binding
    assert max(rows for _, rows in checked[tiny:binding]) > 0
    assert max(nnz for nnz, _ in checked[binding:]) > 2000  # desk face LPs are large
