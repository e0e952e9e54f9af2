import random

import numpy as np
import pytest

from mcsp.columns import (
    FREE,
    ColumnPool,
    UnfixablePoolError,
    _flags_of,
    anchor_slots,
    canonical_flags,
    column_states,
    enumerate_columns,
    zero_column,
)
from mcsp.instance import build_request_index

import reference
from conftest import random_duals, random_tiny_instance
from reference import (
    add_column,
    canonical_column,
    column_aoi,
    column_cost_S,
    column_from_states,
    column_is_valid,
    coverage_B,
    fixing_arrays,
    fixing_rows,
    headroom_array,
    loop_index,
    pair_index,
    pool_columns,
    pool_contains,
    pool_entries,
    settlement_coverage,
)


def purge(pool, fixings, remaining_cache, remaining_backhaul):
    """``purge_incompatible`` on dict fixings and headrooms."""
    inst = pool.inst
    return pool.purge_incompatible(*fixing_arrays(inst, fixings),
                                   headroom_array(inst, remaining_cache, remaining_backhaul))

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
    for col, states in zip(enumerate_columns(4), column_states(_flags_of(enumerate_columns(4)))):
        assert column_from_states(states) == col


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
def test_column_states_of_flags_equal_the_tuple_rendering(horizon):
    """``column_states`` renders the flag rows of every column of the
    horizon as the scalar rendering renders the column tuples, in order."""
    columns = enumerate_columns(horizon)
    assert column_states(_flags_of(columns)) == [reference.column_states(c) for c in columns]


def test_column_cost_tiny1(tiny1, tiny1_idx):
    zero = zero_column(2)
    assert column_cost_S(zero, 1, 1, tiny1, tiny1_idx, "paper") == pytest.approx(23.0)
    assert column_cost_S(UC, 1, 1, tiny1, tiny1_idx, "paper") == pytest.approx(3.0)
    # dropped before the deadline: both modes settle from the copy held at the
    # deadline, and there is none, so both pay the cloud (the any-slot ``min``
    # settlement of ``evaluate`` serves the request in slot 1, for 3.0)
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
                expect = sum(inst.cloud_cost(i) for _ in loop_index(idx).scr(h, i))
                got = column_cost_S(zero, h, i, inst, idx, "paper")
                assert got == pytest.approx(expect)


def test_pool_purge_fixed_values(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1_idx, "paper")
    for col in enumerate_columns(2):
        add_column(pool, 1, 1, col)
    caps = {(1, t): tiny1.server(1).cache_capacity for t in (1, 2)}
    bh = {(1, t): tiny1.server(1).backhaul_capacity for t in (1, 2)}
    # fix updated at slot 1: every column with p1 = 0 dies
    removed = purge(pool, {(1, 1, 1): (1, 1)}, caps, bh)
    assert removed == 2  # the all-zero column and ((0,0),(1,1))
    assert all(e.column[0] == (1, 1) for e in pool_columns(pool, 1, 1))
    # fix q2 = 0 on top: columns caching in slot 2 die
    removed = purge(pool, {(1, 1, 1): (1, 1), (1, 1, 2): (0, 0)}, caps, bh)
    assert all(e.column[1] == (0, 0) for e in pool_columns(pool, 1, 1))


def test_pool_purge_capacity(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1_idx, "paper")
    for col in enumerate_columns(2):
        add_column(pool, 1, 1, col)
    caps = {(1, 1): 2.0, (1, 2): 2.0}
    bh = {(1, 1): 2.0, (1, 2): 1.0}  # size-2 updates no longer fit slot 2
    purge(pool, {}, caps, bh)
    assert all(e.column[1][1] == 0 for e in pool_columns(pool, 1, 1))


def test_pool_purge_reinserts_canonical(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1_idx, "paper")  # only the zero column
    caps = {(1, 1): 2.0, (1, 2): 2.0}
    bh = dict(caps)
    purge(pool, {(1, 1, 2): (1, None)}, caps, bh)
    cols = [e.column for e in pool_columns(pool, 1, 1)]
    assert len(cols) == 1
    q2, _ = cols[0][1]
    assert q2 == 1 and column_is_valid(cols[0])


def _canonical(fixed):
    """``canonical_flags`` on one pair's fixings of slots 1..T: its column,
    or None where it finds none."""
    gamma, omega = (np.array([row], dtype=np.int8) for row in fixing_rows(fixed))
    flags, fixable = canonical_flags(gamma, omega)
    return tuple(zip(*flags[0].view(np.uint8).tolist())) if fixable[0] else None


def test_canonical_column_connects_updates():
    # cached at slot 3 with updates forbidden at slots 2..3: anchor at slot 1
    col = _canonical([(None, None), (None, 0), (1, None)])
    assert col is not None and column_is_valid(col)
    assert col[2][0] == 1
    assert col[1][1] == 0


def test_canonical_column_unfixable():
    # cached at slot 2 but updates forbidden everywhere up to it
    assert _canonical([(None, 0), (1, 0)]) is None


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
def test_array_rule_equals_scalar_references(horizon):
    """On every fixing row of the horizon (each slot's gamma and omega 1, 0
    or free: 9^T rows), ``canonical_flags`` gives the column the scalar
    ``reference.canonical_column`` derives, and is unfixable exactly where
    it derives none; and ``anchor_slots`` is non-negative at a slot exactly
    where ``reference.RoundingState.update_reachable`` holds."""
    from itertools import product

    from reference import RoundingState

    values = (FREE, 0, 1)
    cells = np.array(list(product(product(values, values), repeat=horizon)), dtype=np.int8)
    gamma, omega = cells[..., 0], cells[..., 1]
    flags, fixable = canonical_flags(gamma, omega)
    anchors = anchor_slots(gamma, omega)
    inst = random_tiny_instance(random.Random(1))
    for n, (g, o) in enumerate(zip(gamma.tolist(), omega.tolist())):
        col = canonical_column(g, o)
        assert fixable[n] == (col is not None)
        if col is not None:
            assert tuple(zip(*flags[n].view(np.uint8).tolist())) == col
        state = RoundingState(inst, {(1, 1, t): (None if a == FREE else a,
                                                None if b == FREE else b)
                                     for t, a, b in zip(range(1, horizon + 1), g, o)})
        assert [x >= 0 for x in anchors[n].tolist()] == [
            state.update_reachable(1, 1, t) for t in range(1, horizon + 1)]
    assert len(gamma) == 9**horizon and 0 < np.count_nonzero(fixable) < len(gamma)


def _assert_entries_match_reference(pool):
    """Every live entry equals the scalar ``make_entry`` of its column field
    by field (the pool lists the coverage by position), and the pool's
    arrays agree with its entries."""
    from reference import make_entry

    inst, idx = pool.inst, pool.idx
    serials, flags, servers, contents = [], [], [], []
    for (h, i), entries in pool_entries(pool).items():
        assert len(entries) == pool.counts[pair_index(pool, h, i)]
        for e in entries:
            ref = make_entry(e.column, h, i, inst, idx, pool.mode)
            assert e.cost == ref.cost  # bit for bit
            assert e.coverage == tuple(sorted(ref.coverage))
            assert e.svc == ref.svc
            assert e.flags == ref.flags
            assert pool_contains(pool, h, i, e.column)
            serials.append(e.serial)
            flags.append(np.frombuffer(e.flags, dtype=bool).reshape(2, inst.horizon))
            servers.append(h)
            contents.append(i)
    a = pool.arrays()
    assert pool.total_columns() == len(serials)
    assert a.serial.tolist() == pool.order.tolist() == serials
    assert a.server.tolist() == servers and a.content.tolist() == contents
    assert np.array_equal(a.flags, np.array(flags, dtype=bool).reshape(a.flags.shape))
    assert np.array_equal(a.size, inst.sizes()[contents])


def _random_fixings(rng, inst, share):
    """Fixings consistent with one random valid column per pair, on a share
    of the (server, content, slot) cells."""
    columns = enumerate_columns(inst.horizon)
    fixings = {}
    for h in range(1, inst.num_servers + 1):
        for i in range(1, inst.num_contents + 1):
            col = rng.choice(columns)
            for t, (q, p) in enumerate(col, start=1):
                if rng.random() < share:
                    fixings[(h, i, t)] = (q, p)
    return fixings


@pytest.mark.parametrize("mode", ["paper", "min"])
def test_batched_entries_equal_scalar_entries(mode):
    """On 60 random tiny instances, the entries the pool makes in batches
    (the zero columns of ``initial``, the candidates of a pricing round and
    the canonical columns of a purge) equal the scalar ``make_entry``."""
    from mcsp.pricing import PricingStatics, price_all
    from mcsp.rounding import RoundingState

    rng = random.Random(61)
    made = {"priced": 0, "canonical": 0}
    for _ in range(60):
        inst = random_tiny_instance(rng, horizon_max=5)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, mode)
        _assert_entries_match_reference(pool)
        # priced against an empty pool, as random duals may price pooled columns
        statics = PricingStatics(idx, mode, np.arange(len(idx.pairs)))
        candidates = price_all(ColumnPool(idx, mode), random_duals(rng, inst), statics,
                               RoundingState(inst))
        made["priced"] += pool.add(candidates.keys, candidates.flags)
        _assert_entries_match_reference(pool)
        caps = {(h, t): float("inf") for h in range(1, inst.num_servers + 1)
                for t in range(1, inst.horizon + 1)}
        before = pool.num_serials
        purge(pool, _random_fixings(rng, inst, 0.5), caps, caps)
        made["canonical"] += pool.num_serials - before
        _assert_entries_match_reference(pool)
    assert made["priced"] > 50 and made["canonical"] > 50


def test_pool_arrays_follow_random_operations():
    """After random sequences of adds (single and batched), purges and pins
    on random tiny instances, the pool holds what a scalar model of those
    operations holds, pair by pair: the same columns under the same serials
    in the same order; and its arrays agree with its entries."""
    from reference import _column_compatible

    rng = random.Random(63)
    ops = {"add": 0, "batch": 0, "purge": 0, "pin": 0}
    for _ in range(30):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, "paper")
        pairs = pool.pairs
        model = {key: [(zero_column(inst.horizon), n)] for n, key in enumerate(pairs)}
        serials = len(pairs)
        columns = enumerate_columns(inst.horizon)
        fixings: dict = {}
        for _ in range(12):
            op = rng.choice(list(ops))
            if op == "add":
                key, col = rng.choice(pairs), rng.choice(columns)
                fresh = col not in [c for c, _ in model[key]]
                if fresh:
                    model[key].append((col, serials))
                    serials += 1
                assert add_column(pool, *key, col) == fresh
            elif op == "batch":
                keys = [rng.choice(pairs) for _ in range(rng.randint(1, 6))]
                cols = [rng.choice(columns) for _ in keys]
                added = 0
                for key, col in zip(keys, cols):
                    if col not in [c for c, _ in model[key]]:
                        model[key].append((col, serials))
                        serials += 1
                        added += 1
                flags = np.array(cols, dtype=bool).transpose(0, 2, 1)
                assert pool.add([pair_index(pool, *key) for key in keys], flags) == added
            elif op == "purge":
                fixings.update({k: v for k, v in _random_fixings(rng, inst, 0.2).items()
                                if k not in fixings})
                caps = {(h, t): rng.choice([2.0, 4.0, 100.0])
                        for h in range(1, inst.num_servers + 1)
                        for t in range(1, inst.horizon + 1)}
                try:
                    removed = purge(pool, fixings, caps, caps)
                except UnfixablePoolError:
                    break
                want = 0
                for (h, i) in pairs:
                    fixed = tuple(fixings.get((h, i, t), (None, None))
                                  for t in range(1, inst.horizon + 1))
                    kept = [(c, s) for c, s in model[(h, i)]
                            if _column_compatible(c, h, inst.size(i), fixed, caps, caps)]
                    want += len(model[(h, i)]) - len(kept)
                    col = canonical_column(*fixing_rows(fixed))
                    if col not in [c for c, _ in kept]:
                        kept.append((col, serials))
                        serials += 1
                    model[(h, i)] = kept
                assert removed == want
            else:
                key = rng.choice(pairs)
                k = rng.randrange(len(model[key]))
                model[key] = [model[key][k]]
                j = pool.starts()[pair_index(pool, *key)] + k  # the entry's pool position
                pinned = pool.pin(j)
                assert np.array_equal(pinned, _flags_of([model[key][0][0]])[0])
            ops[op] += 1
            assert {k: [(e.column, e.serial) for e in v] for k, v in pool_entries(pool).items()} == model
            assert pool.num_serials == serials
            _assert_entries_match_reference(pool)
    assert min(ops.values()) >= 20


@pytest.mark.parametrize("horizon", [2, 3, 4])
def test_purge_fully_fixed_pair_matches_canonical_column(tiny1, horizon):
    """For every way of fixing every slot of a pair, a purge leaves the pool
    holding exactly the column ``canonical_column`` derives, or raises
    UnfixablePoolError where it derives none."""
    from dataclasses import replace
    from itertools import product

    inst = replace(tiny1, horizon=horizon)
    idx = build_request_index(inst)
    caps = {(1, t): float("inf") for t in range(1, horizon + 1)}
    unfixable = 0
    for gamma, omega in product(product((0, 1), repeat=horizon), repeat=2):
        pool = ColumnPool.initial(idx, "paper")
        fixings = {(1, 1, t): (g, o) for t, g, o in zip(range(1, horizon + 1), gamma, omega)}
        col = canonical_column(list(gamma), list(omega))
        if col is None:
            unfixable += 1
            with pytest.raises(UnfixablePoolError):
                purge(pool, fixings, caps, caps)
        else:
            purge(pool, fixings, caps, caps)
            assert [e.column for e in pool_columns(pool, 1, 1)] == [col]
    assert 0 < unfixable < 4**horizon


def test_pin_keeps_the_entry_at_a_pool_position():
    """``pin(j)`` keeps the entry at pool position j as its pair's only
    entry, under its serial, and returns its flags; every other pair keeps
    its entries, and the pair's other columns are pooled no more."""
    rng = random.Random(67)
    for _ in range(40):
        inst = random_tiny_instance(rng)
        pool = ColumnPool.initial(build_request_index(inst), "paper")
        columns = enumerate_columns(inst.horizon)
        for key in pool.pairs:
            for col in rng.sample(columns, rng.randint(0, min(4, len(columns)))):
                add_column(pool, *key, col)
        j = rng.randrange(pool.total_columns())
        a = pool.arrays()
        key, serial, flags = pool.pairs[a.pair[j]], int(a.serial[j]), a.flags[j].copy()
        want = {k: [(e.column, e.serial) for e in v] for k, v in pool_entries(pool).items()}
        dropped = [col for col, s in want[key] if s != serial]
        want[key] = [(col, s) for col, s in want[key] if s == serial]
        assert np.array_equal(pool.pin(j), flags)
        assert {k: [(e.column, e.serial) for e in v] for k, v in pool_entries(pool).items()} == want
        assert pool_contains(pool, *key, want[key][0][0])
        assert not any(pool_contains(pool, *key, col) for col in dropped)
