import random

import pytest

from mcsp.columns import (
    ColumnPool,
    canonical_column,
    column_aoi,
    column_cost_S,
    column_from_states,
    column_is_valid,
    column_states,
    coverage_B,
    enumerate_columns,
    settlement_coverage,
    zero_column,
)
from mcsp.instance import build_request_index

from conftest import random_tiny_instance
from reference import fixing_arrays, fixing_rows, headroom_array


def purge(pool, fixings, remaining_cache, remaining_backhaul):
    """``purge_incompatible`` on dict fixings and headrooms."""
    inst = pool.inst
    return pool.purge_incompatible(*fixing_arrays(inst, fixings),
                                   headroom_array(inst, remaining_cache),
                                   headroom_array(inst, remaining_backhaul))

UC = ((1, 1), (1, 0))
UA = ((1, 1), (0, 0))
AU = ((0, 0), (1, 1))


def test_column_aoi():
    assert column_aoi(UC, 2) == 1
    assert column_aoi(AU, 1) is None
    assert column_aoi(((1, 1), (1, 0), (1, 0)), 3) == 2


def test_column_validity():
    assert column_is_valid(UC)
    assert not column_is_valid(((0, 1),))  # updated but uncached
    assert not column_is_valid(((1, 0),))  # no age source in slot 1
    assert not column_is_valid(((0, 0), (1, 0)))  # cached run must open with update


def test_column_states_roundtrip():
    for col in enumerate_columns(4):
        assert column_from_states(column_states(col)) == col


def test_column_cost_tiny1(tiny1, tiny1_idx):
    zero = zero_column(2)
    assert column_cost_S(zero, 1, 1, tiny1, tiny1_idx, "paper") == pytest.approx(23.0)
    assert column_cost_S(UC, 1, 1, tiny1, tiny1_idx, "paper") == pytest.approx(3.0)
    # dropped before the deadline: paper settlement pays the cloud, min does not
    assert column_cost_S(UA, 1, 1, tiny1, tiny1_idx, "paper") == pytest.approx(25.0)
    assert column_cost_S(UA, 1, 1, tiny1, tiny1_idx, "min") == pytest.approx(25.0)
    assert column_cost_S(AU, 1, 1, tiny1, tiny1_idx, "paper") == pytest.approx(3.0)


def test_coverage_window(tiny1):
    r = tiny1.requests[0]
    assert coverage_B(UC, r, 1, 0) == 1  # age 0 realized in slot 1
    assert coverage_B(UC, r, 1, 1) == 1  # age 1 realized in slot 2
    assert coverage_B(zero_column(2), r, 1, 0) == 0
    assert coverage_B(zero_column(2), r, 1, 1) == 0


def test_coverage_bound_per_request(tiny1):
    r = tiny1.requests[0]
    for col in enumerate_columns(2):
        hits = sum(coverage_B(col, r, 1, a) for a in range(r.deadline))
        assert hits <= min(tiny1.horizon, r.deadline - r.origin + 1)


def test_settlement_coverage(tiny1):
    r = tiny1.requests[0]
    assert settlement_coverage(UC, r) == (0, True)
    assert settlement_coverage(AU, r) == (None, True)
    assert settlement_coverage(zero_column(2), r) == (None, False)


def test_enumerate_counts():
    assert sorted(enumerate_columns(1)) == [((0, 0),), ((1, 1),)]
    assert len(enumerate_columns(2)) == 5
    for t in range(1, 8):
        cols = enumerate_columns(t)
        assert len(cols) <= 3**t
        assert len(set(cols)) == len(cols)
        assert all(column_is_valid(c) for c in cols)


def test_enumerate_matches_brute_force_filter():
    import itertools

    for t in range(1, 6):
        brute = [
            col
            for col in itertools.product(((0, 0), (1, 0), (1, 1)), repeat=t)
            if column_is_valid(col)
        ]
        assert sorted(enumerate_columns(t)) == sorted(brute)


def test_enumerate_refuses_large_horizon():
    with pytest.raises(ValueError, match="refusing"):
        enumerate_columns(13)


def test_zero_column_cost_identity():
    rng = random.Random(21)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        zero = zero_column(inst.horizon)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                expect = sum(inst.cloud_cost(i) for _ in idx.scr(h, i))
                got = column_cost_S(zero, h, i, inst, idx, "paper")
                assert got == pytest.approx(expect)


def test_pool_purge_fixed_values(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1, tiny1_idx, "paper")
    for col in enumerate_columns(2):
        pool.add(1, 1, col)
    caps = {(1, t): tiny1.server(1).cache_capacity for t in (1, 2)}
    bh = {(1, t): tiny1.server(1).backhaul_capacity for t in (1, 2)}
    # fix updated at slot 1: every column with p1 = 0 dies
    removed = purge(pool, {(1, 1, 1): (1, 1)}, caps, bh)
    assert removed == 2  # the all-zero column and ((0,0),(1,1))
    assert all(e.column[0] == (1, 1) for e in pool.columns(1, 1))
    # fix q2 = 0 on top: columns caching in slot 2 die
    removed = purge(pool, {(1, 1, 1): (1, 1), (1, 1, 2): (0, 0)}, caps, bh)
    assert all(e.column[1] == (0, 0) for e in pool.columns(1, 1))


def test_pool_purge_capacity(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1, tiny1_idx, "paper")
    for col in enumerate_columns(2):
        pool.add(1, 1, col)
    caps = {(1, 1): 2.0, (1, 2): 2.0}
    bh = {(1, 1): 2.0, (1, 2): 1.0}  # size-2 updates no longer fit slot 2
    purge(pool, {}, caps, bh)
    assert all(e.column[1][1] == 0 for e in pool.columns(1, 1))


def test_pool_purge_reinserts_canonical(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1, tiny1_idx, "paper")  # only the zero column
    caps = {(1, 1): 2.0, (1, 2): 2.0}
    bh = dict(caps)
    purge(pool, {(1, 1, 2): (1, None)}, caps, bh)
    cols = [e.column for e in pool.columns(1, 1)]
    assert len(cols) == 1
    q2, _ = cols[0][1]
    assert q2 == 1 and column_is_valid(cols[0])


def test_canonical_column_connects_updates():
    # cached at slot 3 with updates forbidden at slots 2..3: anchor at slot 1
    col = canonical_column(*fixing_rows([(None, None), (None, 0), (1, None)]))
    assert col is not None and column_is_valid(col)
    assert col[2][0] == 1
    assert col[1][1] == 0


def test_canonical_column_unfixable():
    # cached at slot 2 but updates forbidden everywhere up to it
    assert canonical_column(*fixing_rows([(None, 0), (1, 0)])) is None


def test_purge_derives_canonical_columns_only_for_changed_fixings(monkeypatch):
    """A purge re-derives a pair's canonical column only when the pair's
    fixings changed since the last purge, and leaves every pool as a pool
    that derives all of them afresh does."""
    from mcsp import columns

    rng = random.Random(21)
    calls = []
    derive = columns.canonical_column

    def counted(gamma, omega):
        calls.append((tuple(gamma), tuple(omega)))
        return derive(gamma, omega)

    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        cached, fresh = (ColumnPool.initial(inst, idx, "paper") for _ in range(2))
        caps = {(h, t): float("inf") for h in range(1, inst.num_servers + 1)
                for t in range(1, inst.horizon + 1)}
        fixings = {}
        purge(cached, fixings, caps, caps)
        for _ in range(4):
            h = rng.randint(1, inst.num_servers)
            i = rng.randint(1, inst.num_contents)
            t = rng.randint(1, inst.horizon)
            changed = fixings.get((h, i, t)) != (1, 1)
            fixings[(h, i, t)] = (1, 1)
            calls.clear()
            monkeypatch.setattr(columns, "canonical_column", counted)
            purge(cached, fixings, caps, caps)
            monkeypatch.undo()
            rows = fixing_rows([fixings.get((h, i, s), (None, None))
                                for s in range(1, inst.horizon + 1)])
            assert calls == ([tuple(map(tuple, rows))] if changed else [])
            fresh._fixed_at_purge = None  # forget the last purge: derive all afresh
            purge(fresh, fixings, caps, caps)
            assert {k: [e.column for e in v] for k, v in cached.entries.items()} == {
                k: [e.column for e in v] for k, v in fresh.entries.items()}
