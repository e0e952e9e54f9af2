import dataclasses
import json
import random

import numpy as np
import pytest
from scipy.optimize._highspy import _core

import reference
from mcsp.baselines import (
    CapsExceededError,
    export_ilp,
    ilp_variable_names,
    run_pba,
    solve_exact,
)
from mcsp.costs import evaluate
from mcsp.driver import run_rcga
from mcsp.generator import GeneratorConfig, generate_instance
from mcsp.instance import ContentSpec, Topology

from conftest import TWO_CELL, random_tiny_instance


def test_pba_tiny1(tiny1):
    report = run_pba(tiny1)
    assert report.schedule.state(1, 1) == "UC"  # cached at slot 1, kept
    assert report.cost.total == pytest.approx(3.0)


def test_pba_deterministic(tiny1):
    a = run_pba(tiny1)
    b = run_pba(tiny1)
    assert a.schedule == b.schedule and a.cost.total == b.cost.total


def test_pba_refresh_threshold():
    # alpha=11, size 4: update when e^age >= 22, first at age 4
    inst = generate_instance(
        GeneratorConfig(
            cells="custom", custom_topology=TWO_CELL, num_contents=1,
            num_requests=4, horizon=8, rho_m=0.0, size_range=(4, 4),
            cache_scale=1.0, rho_b=1.0, seed=3,
        )
    )
    report = run_pba(inst)
    states = report.schedule.state(1, 1)
    assert states[0] == "U"
    # ages 1..3 do not trigger (e^3 < 22), age 4 does
    assert states[1:5] == "CCCU"


def test_pba_top_content_cached_first():
    rng = random.Random(70)
    for _ in range(8):
        inst = random_tiny_instance(rng)
        if not inst.requests:
            continue
        counts = {}
        for r in inst.requests:
            counts[r.content] = counts.get(r.content, 0) + 1
        top = min(sorted(counts), key=lambda i: (-counts[i], i))
        report = run_pba(inst)
        # the most requested content fits first (sizes never exceed capacity
        # in these configs) and is admitted at slot 1 on every server
        if inst.size(top) <= inst.server(1).cache_capacity and inst.size(
            top
        ) <= inst.server(1).backhaul_capacity:
            for h in range(1, inst.num_servers + 1):
                assert report.schedule.state(h, top)[0] == "U"


def test_exact_tiny1(tiny1):
    report = solve_exact(tiny1, "paper")
    assert report.cost.total == pytest.approx(3.0)
    report_min = solve_exact(tiny1, "min")
    assert report_min.cost.total == pytest.approx(3.0)


def test_exact_empty_instance():
    inst = generate_instance(
        GeneratorConfig(
            cells="custom", custom_topology=TWO_CELL, num_contents=2,
            num_requests=0, horizon=3, rho_m=0.0, seed=8,
        )
    )
    report = solve_exact(inst, "paper")
    assert report.cost.total == 0.0
    assert report.schedule.states == {}


def test_exact_refuses_big():
    inst = generate_instance(
        GeneratorConfig(cells="3-cell", num_contents=10, num_requests=20, seed=1)
    )
    with pytest.raises(CapsExceededError):
        solve_exact(inst)


@pytest.mark.parametrize("past", ["servers", "contents", "horizon", "requests"])
def test_exact_refuses_one_past_each_cap(past):
    """An instance at every cap solves; one past any single cap is refused."""
    from mcsp import baselines

    caps = dict(servers=baselines.MAX_SERVERS, contents=baselines.MAX_CONTENTS,
                horizon=baselines.MAX_HORIZON, requests=baselines.MAX_REQUESTS)

    def make(servers, contents, horizon, requests):
        topology = Topology(num_servers=servers, edges=TWO_CELL.edges, triples=())
        return generate_instance(GeneratorConfig(
            cells="custom", custom_topology=topology, num_contents=contents,
            num_requests=requests, horizon=horizon, rho_m=0.0, seed=2))

    solve_exact(make(**caps))
    with pytest.raises(CapsExceededError):
        solve_exact(make(**{**caps, past: caps[past] + 1}))


def test_exact_min_never_exceeds_paper():
    rng = random.Random(41)
    for _ in range(10):
        inst = random_tiny_instance(rng, horizon_max=3)
        lo = solve_exact(inst, "min").cost.total
        hi = solve_exact(inst, "paper").cost.total
        assert lo <= hi + 1e-9


def test_exact_dominates_random_schedules():
    rng = random.Random(52)
    for _ in range(6):
        inst = random_tiny_instance(rng, horizon_max=3)
        opt = solve_exact(inst, "min").cost.total
        from test_costs import _random_schedule

        for _ in range(30):
            s = _random_schedule(rng, inst)
            from mcsp.costs import check_feasibility

            if check_feasibility(s, inst):
                continue
            assert opt <= evaluate(s, inst, "min").total + 1e-9


def test_exact_reports_equal_reference_search():
    """On 60 random tiny instances, in both settlement modes, the oracle's
    report (wall time aside) is byte-identical to the report of the search
    kept in ``reference``."""
    rng = random.Random(71)
    for _ in range(60):
        _assert_reports_equal_reference(random_tiny_instance(rng))


def _with_capacities(inst, sizes, cache, backhaul):
    """The instance with these content sizes and, on every server, these
    cache and backhaul capacities."""
    return dataclasses.replace(
        inst,
        servers=tuple(dataclasses.replace(s, cache_capacity=cache, backhaul_capacity=backhaul)
                      for s in inst.servers),
        contents=tuple(ContentSpec(i, size) for i, size in enumerate(sizes, start=1)),
    )


def _peak_load(report, inst) -> int:
    """The largest cache or backhaul load of any server and slot."""
    states = report.schedule.states
    return max(
        sum(inst.size(i) for (g, i), row in states.items() if g == h and row[t] in marks)
        for h in range(1, inst.num_servers + 1) for t in range(inst.horizon)
        for marks in ("UC", "U")
    )


def _assert_reports_equal_reference(inst):
    """Both settlement modes report byte-identically to ``reference``'s
    search; returns the paper-mode report."""
    for mode in ("min", "paper"):
        report = solve_exact(inst, mode)
        got, want = report.to_dict(), reference.solve_exact(inst, mode).to_dict()
        got.pop("wall_time_s"), want.pop("wall_time_s")
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    return report


@pytest.mark.parametrize("sizes, capacity, peak", [
    ((2, 3), 5, 5),  # both contents fill a slot's cache and backhaul exactly
    ((2, 3), 0, 0),  # nothing fits
    ((2, 3), 2.5, 2),
    ((2, 3), 5 - 1e-12, 5),  # within the capacity slack: still fits
    ((2, 3), 5 + 5e-10, 5),
    ((2, 3), 5 - 2e-9, 3),  # past the slack: only one content fits
    ((2, 3), 1e9, 5),  # headroom above the catalog's size
    ((6, 2), 5, 2),  # content 1 is larger than every capacity
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_capacity_edges_equal_reference(sizes, capacity, peak, seed):
    """At capacities on, just inside and just past a load, the oracle's
    capacity test admits exactly the loads ``reference``'s float test does,
    in both modes; the optimum's peak load shows which case binds."""
    inst = generate_instance(GeneratorConfig(
        cells="custom", custom_topology=TWO_CELL, num_contents=2, num_requests=10,
        horizon=3, rho_m=0.3, rho_tt=0.0, window_max=1, seed=seed,
    ))
    inst = _with_capacities(inst, sizes, capacity, capacity)
    assert _peak_load(_assert_reports_equal_reference(inst), inst) == peak


def test_exact_wide_catalog_equals_reference(monkeypatch):
    """A four-content catalog of 510 (past an 8-bit capacity field) under
    a raised content cap: the optimum fills the backhaul of 250 exactly, as
    the reference search finds it."""
    from mcsp import baselines

    inst = generate_instance(GeneratorConfig(
        cells="custom", custom_topology=TWO_CELL, num_contents=4, num_requests=12,
        horizon=3, rho_m=0.3, rho_tt=0.0, window_max=1, seed=5,
    ))
    inst = _with_capacities(inst, (200, 150, 100, 60), 300, 250)
    with pytest.raises(CapsExceededError):
        solve_exact(inst)
    monkeypatch.setattr(baselines, "MAX_CONTENTS", 4)
    report = _assert_reports_equal_reference(inst)
    assert _peak_load(report, inst) == 250

def test_pba_past_capacity_is_an_infeasible_schedule(monkeypatch):
    """PBA's schedule passes the feasibility check of every report: with
    its admission slack widened past any capacity it admits the whole
    catalog, and the report refuses the schedule."""
    from mcsp import baselines

    inst = generate_instance(GeneratorConfig(cells="3-cell", num_contents=5, num_requests=15,
                                             horizon=3, seed=1))
    assert run_pba(inst).feasible
    monkeypatch.setattr(baselines, "CAPACITY_EPS", 1e9)
    with pytest.raises(AssertionError, match="pba produced an infeasible schedule"):
        run_pba(inst)


def test_pba_at_least_exact():
    rng = random.Random(66)
    for _ in range(8):
        inst = random_tiny_instance(rng, horizon_max=3)
        pba = run_pba(inst).cost.total
        opt = solve_exact(inst, "min").cost.total
        assert pba >= opt - 1e-9


def test_ilp_variable_counts_tiny1(tiny1):
    names = ilp_variable_names(tiny1)
    assert len(names["x"]) == 3  # t=1: a=0; t=2: a in {0,1}
    assert len(names["z"]) == 2
    assert len(names["y"]) == 2


def test_export_ilp_evaluates_to_rcga_cost(tmp_path, tiny1):
    path = tmp_path / "tiny1.lp"
    export_ilp(tiny1, path)
    text = path.read_text()
    assert "Binary" in text and "Minimize" in text
    report = run_rcga(tiny1)
    value = _evaluate_lp_file(text, _point_from_report(report, tiny1))
    assert value == pytest.approx(report.cost.total)


def test_export_ilp_random_consistency(tmp_path):
    """The RCGA schedule, as a point of the exported ILP, costs what RCGA
    reports and satisfies every row and bound of the file as HiGHS reads
    it. Every cost, the offset and every capacity read back exactly."""
    rng = random.Random(29)
    done = 0
    for n in range(20):
        inst = random_tiny_instance(rng)
        if not inst.requests:
            continue
        report = run_rcga(inst)
        path = tmp_path / f"m{n}.lp"
        export_ilp(inst, path)
        point = _point_from_report(report, inst)
        value = _evaluate_lp_file(path.read_text(), point)
        assert value == pytest.approx(report.cost.total, abs=1e-9, rel=1e-12)
        lp = _read_lp_file(path).getLp()
        names = list(lp.col_names_)
        assert set(point) <= set(names)
        x = np.array([point.get(name, 0) for name in names], dtype=float)
        a = lp.a_matrix_
        col = np.arange(lp.num_col_).repeat(np.diff(a.start_))
        activity = np.bincount(np.asarray(a.index_, dtype=np.int64),
                               np.asarray(a.value_) * x[col], minlength=lp.num_row_)
        assert (activity >= np.asarray(lp.row_lower_) - 1e-9).all()
        assert (activity <= np.asarray(lp.row_upper_) + 1e-9).all()
        assert (x >= np.asarray(lp.col_lower_) - 1e-9).all()
        assert (x <= np.asarray(lp.col_upper_) + 1e-9).all()
        assert np.dot(lp.col_cost_, x) + lp.offset_ == pytest.approx(value, abs=1e-9)
        cost = dict(zip(names, lp.col_cost_))
        upper = dict(zip(lp.row_names_, lp.row_upper_))
        for r in inst.requests:
            for h in r.candidates:
                for a in range(r.deadline):
                    assert cost[f"y_{r.id}_{h}_{a}"] == inst.f(a) - inst.cloud_cost(r.content)
        assert lp.offset_ == sum(inst.cloud_cost(r.content) for r in inst.requests)
        for h in range(1, inst.num_servers + 1):
            for t in range(1, inst.horizon + 1):
                for i in range(1, inst.num_contents + 1):
                    assert cost[f"x_{h}_{i}_{t}_0"] == inst.cost.beta * inst.size(i)
                assert upper[f"cache_{h}_{t}"] == inst.server(h).cache_capacity
                assert upper[f"backhaul_{h}_{t}"] == inst.server(h).backhaul_capacity
        done += 1
    assert done >= 8


def test_export_ilp_mip_optimum_equals_exact(tmp_path):
    """Solved by HiGHS's MIP, the exported ILP of each of 60 tiny instances
    has the exact oracle's min-mode optimum: the off-the-shelf solver and
    the oracle agree on the formulation."""
    rng = random.Random(2024)
    for n in range(60):
        inst = random_tiny_instance(rng)
        path = tmp_path / f"m{n}.lp"
        export_ilp(inst, path)
        highs = _read_lp_file(path)
        highs.setOptionValue("threads", 1)
        highs.setOptionValue("mip_rel_gap", 0.0)
        highs.run()
        assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
        optimum = highs.getInfo().objective_function_value
        assert optimum == pytest.approx(solve_exact(inst, "min").cost.total, rel=1e-6)


def test_export_empty_requests(tmp_path):
    inst = generate_instance(
        GeneratorConfig(
            cells="custom", custom_topology=TWO_CELL, num_contents=1,
            num_requests=0, horizon=2, rho_m=0.0, seed=5,
        )
    )
    path = tmp_path / "empty.lp"
    export_ilp(inst, path)
    text = path.read_text()
    assert "y_" not in text.split("Subject To")[0]  # objective has no service terms


def _read_lp_file(path):
    """A quiet HiGHS handle holding the model of an LP text file."""
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == _core.HighsStatus.kOk
    return highs


def _point_from_report(report, inst):
    """Binary assignment of the exported variables matching a solve report."""
    from mcsp.costs import schedule_aoi

    point = {}
    for h in range(1, inst.num_servers + 1):
        for i in range(1, inst.num_contents + 1):
            ages = schedule_aoi(report.schedule, h, i)
            for t in range(1, inst.horizon + 1):
                a = ages[t - 1]
                if a is not None:
                    point[f"z_{h}_{i}_{t}"] = 1
                    point[f"x_{h}_{i}_{t}_{a}"] = 1
    for r_id, hit in report.assignment.served.items():
        if hit is not None:
            h, t, a = hit
            point[f"y_{r_id}_{h}_{a}"] = 1
    return point


def _evaluate_lp_file(text: str, point: dict) -> float:
    """Parse the objective of our LP text format and evaluate it at a point."""
    body = text.split("Minimize", 1)[1].split("Subject To", 1)[0]
    expr = body.replace("obj:", "").replace("\n", " ").strip()
    # the format writes "coef name" pairs separated by spaces
    total = 0.0
    parts = expr.split()
    k = 0
    sign = 1.0
    while k < len(parts):
        p = parts[k]
        if p == "+":
            sign = 1.0
            k += 1
            continue
        if p == "-":
            sign = -1.0
            k += 1
            continue
        try:
            coef = float(p)
            has_coef = True
        except ValueError:
            coef = 1.0
            has_coef = False
        if has_coef and k + 1 < len(parts) and not _is_number(parts[k + 1]) and parts[k + 1] not in "+-":
            name = parts[k + 1]
            total += sign * coef * point.get(name, 0)
            k += 2
        elif has_coef:
            total += sign * coef  # bare constant
            k += 1
        else:
            total += sign * point.get(p, 0)
            k += 1
        sign = 1.0
    return total


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
