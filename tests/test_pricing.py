import math
import random

import numpy as np
import pytest

import reference
from mcsp.columns import enumerate_columns
from mcsp.instance import build_request_index
from mcsp.pricing import TOL_PRICE as TOL, PricingStatics, price_all
from mcsp.rmp import DualPrices, MasterBasis
from mcsp.rounding import RoundingState
from reference import (
    add_column,
    build_graph,
    column_cost_S,
    explicit_duals,
    mcrs,
    pair_index,
    pool_columns,
    pool_contains,
    reduced_cost,
    shortest_path,
)

from conftest import all_capacity_rows, by_pair, random_duals, random_tiny_instance


def zero_duals(inst) -> DualPrices:
    return explicit_duals(build_request_index(inst))


def brute_force_min(inst, idx, h, i, duals, mode):
    best, best_col = math.inf, None
    for col in enumerate_columns(inst.horizon):
        rc = reduced_cost(col, h, i, duals, idx, mode=mode)
        if rc < best - 1e-12:
            best, best_col = rc, col
    return best, best_col


def test_tiny1_zero_duals_path(tiny1, tiny1_idx):
    duals = zero_duals(tiny1)
    pc = shortest_path(build_graph(1, 1, duals, tiny1, tiny1_idx))
    assert pc.path_value == pytest.approx(3.0)
    # tie between updating at slot 1 and slot 2: earliest update slot wins
    assert pc.column == ((1, 1), (1, 0))


def test_tiny1_orange_only_path(tiny1, tiny1_idx):
    duals = zero_duals(tiny1)
    g = build_graph(1, 1, duals, tiny1, tiny1_idx)
    # the all-absent column costs the full cloud default
    assert column_cost_S(((0, 0), (0, 0)), 1, 1, tiny1, tiny1_idx, "paper") == 23.0
    assert g.weights.orange == pytest.approx(23.0)


def test_tiny1_lambda_shift(tiny1, tiny1_idx):
    duals = explicit_duals(tiny1_idx, lam={(1, 1): 30.0})
    pc = shortest_path(build_graph(1, 1, duals, tiny1, tiny1_idx))
    assert pc.path_value == pytest.approx(3.0 - 30.0)


def test_path_matches_column_cost_at_zero_duals(tiny1, tiny1_idx):
    # with zero duals the shortest path must equal min over columns of S
    duals = zero_duals(tiny1)
    best, _ = brute_force_min(tiny1, tiny1_idx, 1, 1, duals, "paper")
    costs = [
        column_cost_S(c, 1, 1, tiny1, tiny1_idx, "paper")
        for c in enumerate_columns(2)
    ]
    assert best == pytest.approx(min(costs))
    pc = shortest_path(build_graph(1, 1, duals, tiny1, tiny1_idx))
    assert pc.path_value == pytest.approx(best)


@pytest.mark.parametrize("mode", ["paper", "min"])
def test_oracle_equality_random(mode):
    rng = random.Random(33)
    trials = 0
    while trials < 60:
        inst = random_tiny_instance(rng, horizon_max=5)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                expect, _ = brute_force_min(inst, idx, h, i, duals, mode)
                graph = build_graph(h, i, duals, inst, idx, mode=mode)
                pc = shortest_path(graph)
                assert pc.path_value == pytest.approx(expect, abs=1e-6)
                # decoded column must realize the value it reports
                rc = reduced_cost(pc.column, h, i, duals, idx, mode=mode)
                assert rc == pytest.approx(pc.path_value, abs=1e-6)
        trials += 1


def grid_duals(rng: random.Random, inst) -> DualPrices:
    """Duals on a 0.5 grid, a third of them zero, so that equal-cost columns
    (ties) are common."""

    def draw(lo, hi):
        return 0.0 if rng.random() < 0.33 else rng.randint(int(2 * lo), int(2 * hi)) / 2

    pi, mu, phi, lam = {}, {}, {}, {}
    for r in mcrs(inst):
        for h in r.candidates:
            for a in range(r.deadline):
                pi[(r.id, h, a)] = draw(-3, 3)
    for h in range(1, inst.num_servers + 1):
        for t in range(1, inst.horizon + 1):
            mu[(h, t)] = draw(0, 2)
            phi[(h, t)] = draw(0, 2)
        for i in range(1, inst.num_contents + 1):
            lam[(h, i)] = draw(0, 40)
    return explicit_duals(build_request_index(inst), pi=pi, mu=mu, phi=phi, lam=lam)


# per-slot rank of the tie-break: update before drop before keep
_SLOT_RANK = {(1, 1): 0, (0, 0): 1, (1, 0): 2}


def _tie_break_key(col):
    return (sum(1 for x in col if x == (1, 1)), tuple(_SLOT_RANK[x] for x in col))


@pytest.mark.parametrize("mode", ["paper", "min"])
def test_decode_tie_break_matches_brute_force(mode):
    """Among all minimum-reduced-cost columns of a pair, the decoder returns
    the one with the fewest updates, then the earliest updates, then drop
    before keep; the brute force over every valid column is the reference."""
    from mcsp.columns import ColumnPool

    rng = random.Random(59)
    ties = 0
    for _ in range(40):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        duals = grid_duals(rng, inst)
        empty = ColumnPool(idx, mode)
        statics = PricingStatics(idx, mode)
        cands = by_pair(price_all(empty, duals, statics, RoundingState(inst)), idx.pairs)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                rc = {col: reduced_cost(col, h, i, duals, idx, mode=mode)
                      for col in enumerate_columns(inst.horizon)}
                best = min(rc.values())
                optimal = [c for c, v in rc.items() if v <= best + 1e-9 * (1 + abs(best))]
                ties += len(optimal) > 1
                want = min(optimal, key=_tie_break_key)
                pc = shortest_path(build_graph(h, i, duals, inst, idx, mode=mode))
                assert pc.column == want
                if best < -1e-6:
                    assert cands[(h, i)][0] == want
                else:
                    assert (h, i) not in cands
    assert ties >= 20  # the grid duals do produce ties


def test_bijection_paths_and_columns():
    """Every valid column corresponds to a path with length equal to its
    reduced cost, and every source-sink path decodes to a valid column."""
    rng = random.Random(7)
    for _ in range(20):
        inst = random_tiny_instance(rng, horizon_max=5)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst)
        h = rng.randint(1, inst.num_servers)
        i = rng.randint(1, inst.num_contents)
        graph = build_graph(h, i, duals, inst, idx)
        paths = _enumerate_paths(graph)
        cols = {}
        for nodes, length in paths:
            col = _decode_nodes(nodes, inst.horizon)
            from reference import column_is_valid

            assert column_is_valid(col)
            cols.setdefault(col, []).append(length)
        expected = set(enumerate_columns(inst.horizon))
        assert set(cols) == expected  # one path class per valid column
        for col, lengths in cols.items():
            assert len(lengths) == 1  # the collapse leaves a unique path
            rc = reduced_cost(col, h, i, duals, idx, mode="paper")
            assert lengths[0] == pytest.approx(rc, abs=1e-6)


def _enumerate_paths(graph):
    succ = {}
    for u, v, w, _ in graph.arcs():
        succ.setdefault(u, []).append((v, w))
    out = []

    def walk(node, acc, nodes):
        if node == ("sink",):
            out.append((list(nodes), acc))
            return
        for v, w in succ.get(node, []):
            walk(v, acc + w, nodes + [v])

    walk(("source",), 0.0, [("source",)])
    return out


def _decode_nodes(nodes, horizon):
    col = []
    for node in nodes:
        if node[0] == "cached":
            col.append((1, 1) if node[2] == 0 else (1, 0))
        elif node[0] == "uncached":
            col.append((0, 0))
    assert len(col) == horizon
    return tuple(col)


def test_collapse_matches_uncollapsed_reference():
    """One uncached node per (slot, gap) is value-preserving versus the
    literal construction with per-history uncached nodes."""
    rng = random.Random(17)
    for _ in range(15):
        inst = random_tiny_instance(rng, horizon_max=5)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                got = shortest_path(build_graph(h, i, duals, inst, idx)).path_value
                ref = _uncollapsed_value(h, i, duals, inst, idx)
                assert got == pytest.approx(ref, abs=1e-6)


def _uncollapsed_value(h, i, duals, inst, idx):
    """Literal layered construction: one uncached node per predecessor
    history, so slot t carries 1 + t(t-1)/2 of them (the never-cached chain
    plus one node per (drop slot, age at drop))."""
    w = reference.PairWeights(h, i, duals, inst, idx, "paper")
    T = inst.horizon
    cur = {("th", ("chain",)): 0.0, ("c", 0): w.update[1, 0]}
    for t in range(2, T + 1):
        nxt = {}

        def relax(key, val):
            if val < nxt.get(key, math.inf):
                nxt[key] = val

        for key, d in cur.items():
            if key[0] == "th":
                tag = key[1]
                if tag[0] == "chain":
                    gap = t - 1  # never updated
                else:
                    _, t0, a0 = tag
                    gap = (a0 + 1) + (t - 1 - t0)
                relax(("th", tag), d)  # history node carries forward
                relax(("c", 0), d + w.update[t, gap])
            else:
                age = key[1]
                relax(("th", ("drop", t, age)), d)  # fresh history node
                relax(("c", 0), d + w.update[t, age])
                if age + 1 <= t - 1:
                    relax(("c", age + 1), d + w.purple[t, age + 1])
        cur = nxt
    # node count sanity: 1 + t(t-1)/2 uncached histories in the last layer
    n_theta = sum(1 for k in cur if k[0] == "th")
    assert n_theta == 1 + T * (T - 1) // 2
    return min(cur.values()) + w.orange


def test_price_all_matches_per_pair_graphs():
    rng = random.Random(91)
    for _ in range(10):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst)
        statics = PricingStatics(idx, "paper")
        from mcsp.columns import ColumnPool

        pool = ColumnPool.initial(idx, "paper")
        cands = by_pair(price_all(pool, duals, statics, RoundingState(inst)), idx.pairs)
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                pc = shortest_path(build_graph(h, i, duals, inst, idx))
                if pc.path_value < -1e-6 and not pool_contains(pool, h, i, pc.column):
                    column, value = cands[(h, i)]
                    assert value == pytest.approx(pc.path_value, abs=1e-9)
                    assert column == pc.column
                else:
                    assert (h, i) not in cands


def test_price_all_candidate_limit():
    rng = random.Random(13)
    inst = random_tiny_instance(rng)
    idx = build_request_index(inst)
    from mcsp.columns import ColumnPool

    pool = ColumnPool.initial(idx, "paper")
    duals = random_duals(rng, inst)
    cands = price_all(pool, duals, PricingStatics(idx, "paper"), RoundingState(inst))
    assert 0 < len(cands) <= inst.num_servers * inst.num_contents
    assert (np.diff(cands.keys) > 0).all()  # pair order
    assert cands.flags.shape == (len(cands), 2, inst.horizon)
    assert cands.values.shape == (len(cands),)


def test_pooled_negative_column_raises():
    """Duals that price a pooled column negative disagree with the pool:
    price_all raises, naming the pair and the path value, instead of
    skipping the column."""
    import re

    from mcsp.columns import ColumnPool

    rng = random.Random(13)
    cands = {}
    while not cands:
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(idx, "paper")
        duals = random_duals(rng, inst)
        statics = PricingStatics(idx, "paper")
        cands = by_pair(price_all(pool, duals, statics, RoundingState(inst)), idx.pairs)
    (h, i), (column, value) = next(iter(cands.items()))
    assert add_column(pool, h, i, column)
    pattern = rf"pair \({h}, {i}\).*{re.escape(repr(value))}"
    with pytest.raises(AssertionError, match=pattern):
        price_all(pool, duals, statics, RoundingState(inst))


def test_price_all_rejects_statics_of_another_solve(tiny1, tiny1_idx):
    """Statics made in another mode, or on another request index of the same
    instance, do not price the pool."""
    from mcsp.columns import ColumnPool

    pool = ColumnPool.initial(tiny1_idx, "paper")
    for statics in (PricingStatics(tiny1_idx, "min"),
                    PricingStatics(build_request_index(tiny1), "paper")):
        with pytest.raises(ValueError, match="differ in request index or mode"):
            price_all(pool, zero_duals(tiny1), statics, RoundingState(tiny1))
    # the solve's own statics price it: at zero duals every column costs more than zero
    assert not price_all(pool, zero_duals(tiny1), PricingStatics(tiny1_idx, "paper"),
                         RoundingState(tiny1))


def test_all_kappa_removed_gives_zero_column(tiny1, tiny1_idx):
    allow = np.ones((tiny1.horizon + 1, 1), dtype=bool)  # tiny1 has one pair
    pc = shortest_path(build_graph(1, 1, zero_duals(tiny1), tiny1, tiny1_idx,
                                   allow=(allow, ~allow, ~allow)))
    assert pc.column == ((0, 0), (0, 0))
    assert pc.path_value == pytest.approx(23.0)


def _sampled_pool(rng, inst, idx):
    """Initial pools plus a random share of every pair's columns, so some
    coverage rows are in the master and others are left out (imputed)."""
    from mcsp.columns import ColumnPool

    pool = ColumnPool.initial(idx, "paper")
    for (h, i) in pool.pairs:
        for col in enumerate_columns(inst.horizon):
            if rng.random() < 0.3:
                add_column(pool, h, i, col)
    return pool


def test_batch_tables_equal_per_pair_weights():
    """The batch pricer's arc weights equal the per-pair PairWeights, which
    read every dual one entry at a time, bit for bit: on explicit duals and
    on master duals with imputed coverage prices."""
    from mcsp.pricing import Pricer
    from mcsp.rmp import build_rmp, solve_rmp

    rng = random.Random(47)
    for _ in range(20):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        statics = PricingStatics(idx, "paper")
        pool = _sampled_pool(rng, inst, idx)
        master = solve_rmp(build_rmp(pool, all_capacity_rows(inst)), MasterBasis()).duals
        for duals in (random_duals(rng, inst), master):
            _, tables = Pricer(statics).price(duals, RoundingState(inst).masks())
            for k, (h, i) in enumerate(statics.pairs):
                ref = reference.PairWeights(h, i, duals, inst, idx, "paper")
                assert np.array_equal(tables.upd[..., k], ref.update)
                assert np.array_equal(tables.pur[..., k], ref.purple)
                assert tables.orange[k] == ref.orange


def test_pi_vector_matches_pi():
    """The complete pi array of master duals holds the LP dual at every
    coverage row the master keeps and the closed-form imputation at every
    row it leaves out: zero where the service never pays off, otherwise
    min(0, saving - s), with s the serve-once row's LP dual (zero for a
    request without a row). sigma is s plus min(0, the least reduced cost
    saving - s - pi of the request's kept service variables), which moves
    the price of a bound y <= 1 onto the serve-once row."""
    from mcsp.rmp import build_rmp, solve_rmp

    rng = random.Random(23)
    kept = imputed = shifted = 0
    for _ in range(20):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        req = {r.id: r for r in inst.requests}
        model = build_rmp(_sampled_pool(rng, inst, idx), all_capacity_rows(inst))
        sol = solve_rmp(model, MasterBasis())
        duals = sol.duals
        serve_ids = model.row_index[0].tolist()
        n_serve, n_cover = len(serve_ids), len(model.cover_svc)
        lp_sigma = dict(zip(serve_ids, sol.lp.duals[:n_serve].tolist()))
        lp_pi = dict(zip(model.cover_svc.tolist(),
                         sol.lp.duals[n_serve : n_serve + n_cover].tolist()))
        least_rc = {}
        for (r_id, h, a), j in reference.svc_pos(idx).items():
            saving = reference.service_saving(inst, req[r_id].content, a)
            s = lp_sigma.get(r_id, 0.0)
            if j in lp_pi:
                want = lp_pi[j]
                least_rc[r_id] = min(least_rc.get(r_id, 0.0), saving - s - want)
                kept += 1
            else:
                want = 0.0 if saving >= 0 else min(0.0, saving - s)
                imputed += 1
            assert duals.pis[j] == want
        for r_id in range(1, idx.num_request_ids):
            want = lp_sigma.get(r_id, 0.0) + least_rc.get(r_id, 0.0)
            assert duals.sigma[r_id] == want
            shifted += least_rc.get(r_id, 0.0) < 0
    assert kept and imputed and shifted


def test_fully_fixed_column_is_the_only_path():
    """A column fixed in a RoundingState at every slot (gamma, omega = its
    cached and updated flags), as naive rounding pins columns, leaves that
    column as the one path: pricing returns it at its reduced cost, on the
    per-pair graph and in the batch, whatever the duals."""
    from mcsp.pricing import Pricer

    rng = random.Random(71)
    for _ in range(30):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst)
        statics = PricingStatics(idx, "paper")
        state = RoundingState(inst)
        pinned = {}
        for h, i in statics.pairs:
            col = pinned[(h, i)] = rng.choice(enumerate_columns(inst.horizon))
            for t, (q, p) in enumerate(col, start=1):
                state.fix(h, i, t, gamma=q, omega=p)
        values, tables = Pricer(statics).price(duals, state.masks())
        decoded = reference.decode_columns(tables, values)
        for k, (h, i) in enumerate(statics.pairs):
            col = pinned[(h, i)]
            pc = shortest_path(build_graph(h, i, duals, inst, idx, allow=state.masks()))
            assert pc.column == decoded[k] == col
            assert pc.path_value == pytest.approx(reduced_cost(col, h, i, duals, idx), abs=1e-9)


def _partly_fixed(rng, inst, decided_share):
    """A RoundingState and a pool: on a share of the pairs every slot is
    fixed to a random valid column; on the others a random share of the
    slots is fixed consistently with another random valid column. The pool
    of a pair fixed at every slot holds its column alone, the others the
    zero column."""
    from mcsp.columns import FREE, ColumnPool

    idx = build_request_index(inst)
    state = RoundingState(inst)
    pool = ColumnPool.initial(idx, "paper")
    columns = enumerate_columns(inst.horizon)
    for h, i in pool.pairs:
        col = rng.choice(columns)
        decided = rng.random() < decided_share
        for t, (q, p) in enumerate(col, start=1):
            if decided or rng.random() < 0.4:
                state.fix(h, i, t, gamma=q, omega=p)
        if (state.gamma[h, i, 1:] != FREE).all():  # fixed at every slot, maybe by chance
            add_column(pool, h, i, col)
            pool.pin(pool.starts()[pair_index(pool, h, i) + 1] - 1)  # the entry just added
    return idx, state, pool


@pytest.mark.parametrize("min_decided", [1, 10**9], ids=["partial", "every-pair"])
def test_pricing_undecided_pairs_equals_full_pricing(min_decided, monkeypatch):
    """Under random fixings, the tables and values of the priced pairs are
    bit for bit those of pricing every pair, and price_all returns the
    candidates full pricing finds, at the same values. With partial pricing
    the pairs fixed at every slot are left out, so that with every pair
    decided no pair is priced; below ``MIN_DECIDED`` decided pairs every
    pair is priced. Either way a decided pair's column raises when full
    pricing finds it negative."""
    from mcsp import pricing
    from mcsp.columns import FREE
    from mcsp.pricing import Pricer

    monkeypatch.setattr(pricing, "MIN_DECIDED", min_decided)
    rng = random.Random(73)
    seen = {"compared": 0, "raised": 0, "none_priced": 0, "candidates": 0}
    for n in range(60):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx, state, pool = _partly_fixed(rng, inst, 1.0 if n % 6 == 0 else 0.5)
        duals = random_duals(rng, inst)
        statics = PricingStatics(idx, "paper")
        decided = ((state.gamma != FREE) & (state.omega != FREE))[1:, 1:, 1:].all(axis=2).ravel()
        full, full_tables = Pricer(statics).price(duals, state.masks())
        live, left_out, allow = statics.live(state)
        assert statics.live(state)[0] is live  # kept while the fixings stay
        assert np.array_equal(left_out, decided if min_decided == 1 else 0 * decided)
        values, tables = Pricer(live).price(duals, allow)
        priced = ~left_out
        assert np.array_equal(values, full[priced])
        for name in ("upd", "pur", "allow_u", "allow_k0", "allow_ka"):
            assert np.array_equal(getattr(tables, name), getattr(full_tables, name)[..., priced])
        if not priced.any():
            seen["none_priced"] += 1
        if (full[decided] < -TOL).any():
            with pytest.raises(AssertionError, match="priced its pooled column"):
                price_all(pool, duals, statics, state)
            seen["raised"] += 1
            # lower each decided pair's convexity dual so that its column prices >= 0
            for k in np.flatnonzero(decided):
                duals.lams[statics.server[k], statics.content[k]] += min(0.0, full[k])
            full, full_tables = Pricer(statics).price(duals, state.masks())
            assert (full[decided] >= -TOL).all()
        cands = price_all(pool, duals, statics, state)
        ks = np.flatnonzero(full < -TOL)
        want = reference.decode_columns(full_tables.take(ks), full[ks])
        assert list(by_pair(cands, statics.pairs).items()) == [
            (statics.pairs[k], (col, float(full[k]))) for k, col in zip(ks, want)]
        seen["compared"] += 1
        seen["candidates"] += len(cands)
    assert seen["raised"] >= 10 and seen["candidates"] >= 30
    assert (seen["none_priced"] >= 5) == (min_decided == 1)


def test_decided_pair_check_raises_on_a_perturbed_dual(monkeypatch):
    """With every pair's column pinned and each convexity dual equal to its
    column's cost, every column prices at zero and pricing returns nothing;
    lowering one coverage, capacity or convexity price of one column by one
    makes it price negative, and price_all names that pair."""
    from mcsp import pricing

    monkeypatch.setattr(pricing, "MIN_DECIDED", 1)
    rng = random.Random(79)
    perturbed = {"pi": 0, "mu": 0, "phi": 0, "lam": 0}
    for _ in range(40):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx, state, pool = _partly_fixed(rng, inst, 1.0)
        statics = PricingStatics(idx, "paper")
        duals = explicit_duals(idx, lam={key: pool_columns(pool, *key)[0].cost for key in pool.pairs})
        assert not price_all(pool, duals, statics, state)
        h, i = rng.choice(pool.pairs)
        entry = pool_columns(pool, h, i)[0]
        options = [("lam", (h, i))]
        options += [("pi", j) for j in entry.svc]
        options += [(kind, (h, t)) for t, (q, p) in enumerate(entry.column, start=1)
                    for kind, flag in (("mu", q), ("phi", p)) if flag]
        kind, at = rng.choice(options)
        array = {"pi": duals.pis, "mu": duals.mus, "phi": duals.phis, "lam": duals.lams}[kind]
        array[at] += -1.0 if kind == "pi" else 1.0
        # a capacity price is the server's: another of its pairs may be first
        pair = rf"\({h}, {i if kind in ('pi', 'lam') else '[0-9]+'}\)"
        with pytest.raises(AssertionError, match=rf"pair {pair} priced its pooled column"):
            price_all(pool, duals, statics, state)
        perturbed[kind] += 1
    assert all(perturbed.values())
