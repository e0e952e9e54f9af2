import random

import numpy as np
import pytest

from mcsp.columns import ColumnPool, enumerate_columns
from mcsp.instance import build_request_index
from mcsp.rounding import (
    RoundingState,
    chi_integral_iff,
    chi_is_integral,
    compute_indicators,
    is_integral,
    round_once,
)

from conftest import random_tiny_instance

UC = ((1, 1), (1, 0))
ZERO = ((0, 0), (0, 0))


def tiny_pool(tiny1, tiny1_idx):
    pool = ColumnPool.initial(tiny1, tiny1_idx, "paper")
    for col in enumerate_columns(2):
        pool.add(1, 1, col)
    return pool


def chi_for(pool, weights_by_column):
    out = {}
    for key, entries in pool.entries.items():
        w = np.zeros(len(entries))
        for k, e in enumerate(entries):
            w[k] = weights_by_column.get(e.column, 0.0)
        out[key] = w
    return out


def test_indicators_single_column(tiny1, tiny1_idx):
    pool = tiny_pool(tiny1, tiny1_idx)
    chi = chi_for(pool, {UC: 1.0})
    gamma, omega = compute_indicators(chi, pool)
    assert gamma[(1, 1)][1:].tolist() == [1.0, 1.0]
    assert omega[(1, 1)][1:].tolist() == [1.0, 0.0]


def test_indicators_tiny1_mix(tiny1, tiny1_idx):
    pool = tiny_pool(tiny1, tiny1_idx)
    chi = chi_for(pool, {UC: 0.5, ZERO: 0.5})
    gamma, omega = compute_indicators(chi, pool)
    assert gamma[(1, 1)][1:].tolist() == [0.5, 0.5]
    assert omega[(1, 1)][1:].tolist() == [0.5, 0.0]
    # updating likelihood never exceeds caching likelihood
    assert np.all(omega[(1, 1)] <= gamma[(1, 1)] + 1e-12)


def test_integrality_equivalence_both_ways(tiny1, tiny1_idx):
    pool = tiny_pool(tiny1, tiny1_idx)
    integral = chi_for(pool, {UC: 1.0})
    g, o = compute_indicators(integral, pool)
    assert chi_is_integral(integral) and is_integral(g, o)
    assert chi_integral_iff(integral, g, o)

    mix = chi_for(pool, {UC: 0.5, ZERO: 0.5})
    g, o = compute_indicators(mix, pool)
    assert not chi_is_integral(mix) and not is_integral(g, o)
    assert chi_integral_iff(mix, g, o)


def test_integrality_equivalence_random_mixtures():
    rng = random.Random(31)
    for _ in range(30):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(inst, idx, "paper")
        for (h, i) in list(pool.entries):
            for col in enumerate_columns(inst.horizon):
                if rng.random() < 0.5:
                    pool.add(h, i, col)
        chi = {}
        for key, entries in pool.entries.items():
            w = np.array([rng.random() for _ in entries])
            if rng.random() < 0.5:  # integral case
                w = np.zeros(len(entries))
                w[rng.randrange(len(entries))] = 1.0
            else:
                w /= w.sum()
            chi[key] = w
        g, o = compute_indicators(chi, pool)
        assert chi_integral_iff(chi, g, o)


def test_round_once_tiny1_trace(tiny1, tiny1_idx):
    """Half/half mixture: the pass must fix update-and-cache at slot 1."""
    pool = tiny_pool(tiny1, tiny1_idx)
    chi = chi_for(pool, {UC: 0.5, ZERO: 0.5})
    state = RoundingState(tiny1)
    report = round_once(state, chi, pool)
    assert state.fixed(1, 1, 1) == (1, 1)
    assert report.rounded_up == 1
    # purge removed every column not updating in slot 1
    assert all(e.column[0] == (1, 1) for e in pool.columns(1, 1))


def test_round_once_integral_is_noop(tiny1, tiny1_idx):
    pool = tiny_pool(tiny1, tiny1_idx)
    chi = chi_for(pool, {UC: 1.0})
    state = RoundingState(tiny1)
    report = round_once(state, chi, pool)
    assert report.rounded_up == 0 and report.rounded_down == 0
    # frozen entries mirror the integral indicators
    assert state.fixed(1, 1, 1) == (1, 1)


def test_round_below_half_goes_to_zero(tiny1, tiny1_idx):
    pool = tiny_pool(tiny1, tiny1_idx)
    chi = chi_for(pool, {UC: 0.49, ZERO: 0.51})
    state = RoundingState(tiny1)
    round_once(state, chi, pool)
    gamma, omega = state.fixed(1, 1, 1)
    assert omega == 0  # strictly-below-one-half rule


def test_round_respects_backhaul_headroom(tiny1, tiny1_idx):
    pool = tiny_pool(tiny1, tiny1_idx)
    chi = chi_for(pool, {UC: 0.6, ZERO: 0.4})
    state = RoundingState(tiny1)
    # another content consumed the backhaul at slot 1 already: simulate by
    # shrinking capacity through a pre-existing fixing of a phantom content
    state.fix(1, 1, 2, omega=0)  # unrelated, keeps state nonempty
    rb = state.remaining_backhaul()
    assert rb[(1, 1)] == 2.0
    # monkeypatch capacity via instance is frozen; instead verify the up-fix
    report = round_once(state, chi, pool)
    assert state.fixed(1, 1, 1) == (1, 1)


def test_masks_reflect_fixings(tiny1):
    state = RoundingState(tiny1)
    state.fix(1, 1, 1, gamma=1, omega=1)
    state.fix(1, 1, 2, gamma=0, omega=0)
    allow_u, allow_k0, allow_ka = state.mask_arrays(1, 1, 2)
    assert not allow_u[1] and allow_k0[1] and not allow_ka[1]
    assert allow_u[2] and not allow_k0[2] and not allow_ka[2]
    batch_u, batch_k0, batch_ka = state.batch_masks([(1, 1)], 2)
    assert np.array_equal(batch_u[0], allow_u)
    assert np.array_equal(batch_k0[0], allow_k0)
    assert np.array_equal(batch_ka[0], allow_ka)

    # the batch masks follow random fixing sequences pair by pair
    rng = random.Random(29)
    for _ in range(40):
        inst = random_tiny_instance(rng)
        T = inst.horizon
        pairs = [(h, i) for h in range(1, inst.num_servers + 1)
                 for i in range(1, inst.num_contents + 1)]
        state = RoundingState(inst)
        for _ in range(rng.randint(0, 3 * len(pairs) * T)):
            h, i = rng.choice(pairs)
            t = rng.randint(1, T)
            gamma, omega = rng.choice([(1, 1), (1, 0), (0, 0), (1, None), (0, None),
                                       (None, 1), (None, 0)])
            old_g, old_o = state.fixed(h, i, t)
            if (old_g is not None and gamma is not None and gamma != old_g) or (
                old_o is not None and omega is not None and omega != old_o
            ):
                continue  # contradicting an earlier fixing is an error
            state.fix(h, i, t, gamma=gamma, omega=omega)
            batch = state.batch_masks(pairs, T)
            for k, (h, i) in enumerate(pairs):
                for one, stacked in zip(state.mask_arrays(h, i, T), batch):
                    assert np.array_equal(stacked[k], one), (h, i)


def test_update_reachable():
    rng = random.Random(1)
    inst = random_tiny_instance(rng)
    state = RoundingState(inst)
    assert state.update_reachable(1, 1, 1)
    state.fix(1, 1, 1, omega=0)
    assert not state.update_reachable(1, 1, 1)
    if inst.horizon >= 2:
        assert state.update_reachable(1, 1, 2)
        state.fix(1, 1, 1, gamma=0)
        assert state.update_reachable(1, 1, 2)  # anchor at slot 2 itself
        state.fix(1, 1, 2, omega=0)
        assert not state.update_reachable(1, 1, 2)


def test_fixings_monotone_and_capacity_nonnegative():
    rng = random.Random(55)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(inst, idx, "paper")
        for (h, i) in list(pool.entries):
            for col in enumerate_columns(inst.horizon):
                pool.add(h, i, col)
        chi = {}
        for key, entries in pool.entries.items():
            w = np.array([rng.random() for _ in entries])
            chi[key] = w / w.sum()
        state = RoundingState(inst)
        seen = {}
        for _ in range(inst.num_contents * inst.horizon + 2):
            round_once(state, chi, pool)
            for key, val in state.fixings.items():
                if key in seen:
                    g_old, o_old = seen[key]
                    g_new, o_new = val
                    assert g_old is None or g_old == g_new
                    assert o_old is None or o_old == o_new
            seen = dict(state.fixings)
            for v in state.remaining_cache().values():
                assert v >= -1e-9
            for v in state.remaining_backhaul().values():
                assert v >= -1e-9
            # recompute chi consistent with the purged pool: spread weight
            # uniformly over the survivors (only shape matters here)
            chi = {
                key: np.full(len(entries), 1.0 / len(entries))
                for key, entries in pool.entries.items()
            }
