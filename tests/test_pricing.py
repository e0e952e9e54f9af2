import math
import random

import numpy as np
import pytest

from mcsp.columns import column_cost_S, enumerate_columns
from mcsp.instance import build_request_index
from mcsp.pricing import (
    PricingStatics,
    build_graph,
    price_all,
    shortest_path,
)
from mcsp.rmp import DualPrices, reduced_cost

from conftest import random_tiny_instance


def zero_duals(inst) -> DualPrices:
    return DualPrices.explicit(build_request_index(inst))


def random_duals(rng: random.Random, inst, pi_lo=-3.0, pi_hi=3.0, lam_hi=50.0) -> DualPrices:
    pi, mu, phi, lam = {}, {}, {}, {}
    for r in inst.requests:
        if not r.is_mcr:
            continue
        for h in r.candidates:
            for a in range(r.deadline):
                pi[(r.id, h, a)] = rng.uniform(pi_lo, pi_hi)
    for h in range(1, inst.num_servers + 1):
        for t in range(1, inst.horizon + 1):
            mu[(h, t)] = rng.uniform(0.0, 3.0)
            phi[(h, t)] = rng.uniform(0.0, 3.0)
        for i in range(1, inst.num_contents + 1):
            lam[(h, i)] = rng.uniform(0.0, lam_hi)
    return DualPrices.explicit(build_request_index(inst), pi=pi, mu=mu, phi=phi, lam=lam)


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
    duals = DualPrices.explicit(tiny1_idx, lam={(1, 1): 30.0})
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
    for r in inst.mcrs:
        for h in r.candidates:
            for a in range(r.deadline):
                pi[(r.id, h, a)] = draw(-3, 3)
    for h in range(1, inst.num_servers + 1):
        for t in range(1, inst.horizon + 1):
            mu[(h, t)] = draw(0, 2)
            phi[(h, t)] = draw(0, 2)
        for i in range(1, inst.num_contents + 1):
            lam[(h, i)] = draw(0, 40)
    return DualPrices.explicit(build_request_index(inst), pi=pi, mu=mu, phi=phi, lam=lam)


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
        empty = ColumnPool(inst, idx, mode, {
            (h, i): [] for h in range(1, inst.num_servers + 1)
            for i in range(1, inst.num_contents + 1)
        })
        by_pair = {(pc.h, pc.i): pc for pc in price_all(empty, duals, inst, idx, mode=mode)}
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
                    assert by_pair[(h, i)].column == want
                else:
                    assert (h, i) not in by_pair
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
            from mcsp.columns import column_is_valid

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
    from mcsp.pricing import PairWeights

    w = PairWeights(h, i, duals, inst, idx, "paper")
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
        statics = PricingStatics(inst, idx, "paper")
        from mcsp.columns import ColumnPool

        pool = ColumnPool.initial(inst, idx, "paper")
        cands = price_all(pool, duals, inst, idx, statics=statics)
        by_pair = {(pc.h, pc.i): pc for pc in cands}
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                pc = shortest_path(build_graph(h, i, duals, inst, idx))
                if pc.path_value < -1e-6 and not pool.contains(h, i, pc.column):
                    got = by_pair[(h, i)]
                    assert got.path_value == pytest.approx(pc.path_value, abs=1e-9)
                    assert got.column == pc.column
                else:
                    assert (h, i) not in by_pair


def test_price_all_candidate_limit():
    rng = random.Random(13)
    inst = random_tiny_instance(rng)
    idx = build_request_index(inst)
    from mcsp.columns import ColumnPool

    pool = ColumnPool.initial(inst, idx, "paper")
    duals = random_duals(rng, inst)
    cands = price_all(pool, duals, inst, idx)
    assert len(cands) <= inst.num_servers * inst.num_contents
    keys = [(pc.h, pc.i) for pc in cands]
    assert keys == sorted(keys)  # deterministic merge order


def test_pooled_negative_column_raises():
    """Duals that price a pooled column negative disagree with the pool:
    price_all raises, naming the pair and the path value, instead of
    skipping the column."""
    import re

    from mcsp.columns import ColumnPool

    rng = random.Random(13)
    cands = []
    while not cands:
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        pool = ColumnPool.initial(inst, idx, "paper")
        duals = random_duals(rng, inst)
        cands = price_all(pool, duals, inst, idx)
    pc = cands[0]
    assert pool.add(pc.h, pc.i, pc.column)
    pattern = rf"pair \({pc.h}, {pc.i}\).*{re.escape(repr(pc.path_value))}"
    with pytest.raises(AssertionError, match=pattern):
        price_all(pool, duals, inst, idx)


def test_all_kappa_removed_gives_zero_column(tiny1, tiny1_idx):
    class Masks:
        def mask_arrays(self, h, i, T):
            allow = np.ones(T + 1, dtype=bool)
            off = np.zeros(T + 1, dtype=bool)
            return allow, off, off

    pc = shortest_path(build_graph(1, 1, zero_duals(tiny1), tiny1, tiny1_idx, fixings=Masks()))
    assert pc.column == ((0, 0), (0, 0))
    assert pc.path_value == pytest.approx(23.0)


def test_dot_dump(tiny1, tiny1_idx):
    g = build_graph(1, 1, zero_duals(tiny1), tiny1, tiny1_idx)
    dot = g.to_dot()
    assert dot.startswith("digraph") and "->" in dot
    assert "orange" in dot and "purple" in dot


def _sampled_pool(rng, inst, idx):
    """Initial pools plus a random share of every pair's columns, so some
    coverage rows are in the master and others are left out (imputed)."""
    from mcsp.columns import ColumnPool

    pool = ColumnPool.initial(inst, idx, "paper")
    for (h, i) in list(pool.entries):
        for col in enumerate_columns(inst.horizon):
            if rng.random() < 0.3:
                pool.add(h, i, col)
    return pool


def test_batch_tables_equal_per_pair_weights():
    """The batch pricer's arc weights equal the per-pair PairWeights, which
    read every dual through the scalar DualPrices accessors, bit for bit:
    on explicit duals and on master duals with imputed coverage prices."""
    from mcsp.pricing import PairWeights, Pricer
    from mcsp.rmp import build_rmp, solve_rmp

    rng = random.Random(47)
    for _ in range(20):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        statics = PricingStatics(inst, idx, "paper")
        master = solve_rmp(build_rmp(_sampled_pool(rng, inst, idx), inst, idx)).duals
        for duals in (random_duals(rng, inst), master):
            _, tables = Pricer(statics).price(duals)
            for k, (h, i) in enumerate(statics.pairs):
                ref = PairWeights(h, i, duals, inst, idx, "paper")
                assert np.array_equal(tables.upd[k], ref.update)
                assert np.array_equal(tables.pur[k], ref.purple)
                assert tables.orange[k] == ref.orange


def test_pi_vector_matches_pi():
    """The complete pi array of master duals holds the LP dual at every
    coverage row the master keeps and the closed-form imputation at every
    row it leaves out: zero where the service never pays off, otherwise
    min(0, saving - sigma). sigma holds the serve-once rows' LP duals."""
    from mcsp.rmp import build_rmp, service_saving, solve_rmp

    rng = random.Random(23)
    kept = imputed = 0
    for _ in range(20):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        req = {r.id: r for r in inst.requests}
        model = build_rmp(_sampled_pool(rng, inst, idx), inst, idx)
        sol = solve_rmp(model)
        duals = sol.duals
        n_serve, n_cover = len(model.serve_ids), len(model.cover_svc)
        assert duals.sigma[model.serve_ids].tolist() == sol.lp.duals[:n_serve].tolist()
        lp_pi = dict(zip(model.cover_svc.tolist(),
                         sol.lp.duals[n_serve : n_serve + n_cover].tolist()))
        for (r_id, h, a), j in idx.svc_pos.items():
            if j in lp_pi:
                want = lp_pi[j]
                kept += 1
            else:
                saving = service_saving(inst, req[r_id].content, a)
                want = 0.0 if saving >= 0 else min(0.0, saving - float(duals.sigma[r_id]))
                imputed += 1
            assert duals.pis[j] == want
            assert duals.pi(req[r_id], h, a) == want
    assert kept and imputed


def test_fully_fixed_column_is_the_only_path():
    """A column fixed in a RoundingState at every slot (gamma, omega = its
    cached and updated flags), as naive rounding pins columns, leaves that
    column as the one path: pricing returns it at its reduced cost, on the
    per-pair graph and in the batch, whatever the duals."""
    from mcsp.pricing import Pricer, decode_columns
    from mcsp.rounding import RoundingState

    rng = random.Random(71)
    for _ in range(30):
        inst = random_tiny_instance(rng, horizon_max=4)
        idx = build_request_index(inst)
        duals = random_duals(rng, inst)
        statics = PricingStatics(inst, idx, "paper")
        state = RoundingState(inst)
        pinned = {}
        for h, i in statics.pairs:
            col = pinned[(h, i)] = rng.choice(enumerate_columns(inst.horizon))
            for t, (q, p) in enumerate(col, start=1):
                state.fix(h, i, t, gamma=q, omega=p)
        values, tables = Pricer(statics).price(duals, state)
        decoded = decode_columns(tables, values)
        for k, (h, i) in enumerate(statics.pairs):
            col = pinned[(h, i)]
            pc = shortest_path(build_graph(h, i, duals, inst, idx, fixings=state))
            assert pc.column == decoded[k] == col
            assert pc.path_value == pytest.approx(reduced_cost(col, h, i, duals, idx), abs=1e-9)
