"""Tests of the benchmark's own checks and trace accounting.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py

Each check must accept what today's solvers return and reject a corrupted
copy of it.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mcsp import driver  # noqa: E402
from mcsp.baselines import run_pba, solve_exact  # noqa: E402
from mcsp.costs import CostBreakdown, Schedule, evaluate  # noqa: E402
from mcsp.generator import GeneratorConfig, generate_instance  # noqa: E402
from mcsp.instance import (  # noqa: E402
    ContentSpec, CostParams, Instance, Request, ServerSpec, Topology,
)

from checks import (  # noqa: E402
    check_binding, check_bound, check_case, check_nrs, check_report, check_sandwich,
)
from spans import (  # noqa: E402
    METRICS, SELF_TIME, Span, Tracer, layer_metrics, self_time_problems,
)
from workloads import toy_configs, uncapacitated  # noqa: E402

# 3-cell 20/150 over 6 slots: backhaul at 5% of the catalog binds
BINDING_CFG = GeneratorConfig(cells="3-cell", num_contents=20, num_requests=150, horizon=6,
                              rho_m=0.4, rho_tt=1.0, rho_b=0.05, cache_scale=0.5, seed=1)


@pytest.fixture(scope="module")
def binding():
    inst = generate_instance(BINDING_CFG)
    return inst, {"rcga": driver.run_rcga(inst), "nrs": driver.naive_round(inst),
                  "pba": run_pba(inst)}


@pytest.fixture(scope="module")
def toy():
    for cfg in toy_configs():
        inst = generate_instance(cfg)
        if len(inst.requests) >= 6 and inst.horizon >= 3:
            return inst, {"rcga": driver.run_rcga(inst),
                          "exact-paper": solve_exact(inst, "paper"),
                          "exact-min": solve_exact(inst, "min")}
    raise AssertionError("no toy instance with six requests over three slots")


def with_states(report, states):
    return replace(report, schedule=Schedule(report.schedule.horizon, states))


def test_accepts_todays_reports(binding, toy):
    for inst, reports in (binding, toy):
        for label, report in reports.items():
            check = check_nrs if label == "nrs" else check_report
            assert check(report, inst) == [], label
            assert check_bound(report) == [], label
    assert check_sandwich(*toy[1].values()) == []


def test_accepts_todays_binding_case(binding):
    inst, reports = binding
    free = driver.run_lower_bound(uncapacitated(inst)).lower_bound
    assert check_case(inst, reports, free) == []


def test_rejects_one_capacity_overrun():
    # one server caching two unit contents in slot 1 against a cache of one
    inst = Instance(
        servers=(ServerSpec(1, cache_capacity=1.0, backhaul_capacity=2.0),),
        contents=(ContentSpec(1, 1), ContentSpec(2, 1)),
        requests=(Request(1, 1, 1, 2, (1,)),),
        horizon=2,
        cost=CostParams(alpha=11.0, beta=1.0),
        topology=Topology(num_servers=1),
    )
    ok = Schedule(2, {(1, 1): "UC"})
    report = driver.SolveReport("rcga", "paper", evaluate(ok, inst, "min"),
                                evaluate(ok, inst, "paper"), None, None, 0, 0, 0.0, ok, None)
    assert check_report(report, inst) == []
    over = with_states(report, {(1, 1): "UC", (1, 2): "UA"})
    problems = check_report(over, inst)
    assert len(problems) == 1 and "server 1 slot 1: cache load 2" in problems[0]


@pytest.mark.parametrize("field", ["cost", "settled_cost"])
@pytest.mark.parametrize("part", ["aoi_cost", "download_cost", "update_cost"])
def test_rejects_cost_off_by_a_millionth(binding, field, part):
    inst, reports = binding
    report = reports["rcga"]
    off = replace(getattr(report, field), **{part: getattr(report, field).__dict__[part] * (1 + 1e-6)})
    problems = check_report(replace(report, **{field: off}), inst)
    assert len(problems) == 1 and problems[0].startswith(field)


def test_rejects_cached_without_update(binding):
    inst, reports = binding
    report = reports["rcga"]
    states = dict(report.schedule.states)
    key = next(iter(states))
    states[key] = "CA" + states[key][2:]
    problems = check_report(with_states(report, states), inst)
    assert len(problems) == 1 and "'C' after age None" in problems[0]


def test_rejects_misplaced_or_misshapen_states(binding):
    inst, reports = binding
    report = reports["pba"]
    for states in ({(9, 1): "U" * inst.horizon}, {(1, 1): "U"}, {(1, 1): "X" * inst.horizon}):
        assert check_report(with_states(report, states), inst)


def test_property_checks_reject_corrupted_reports(binding, toy):
    rcga = binding[1]["rcga"]
    assert check_bound(replace(rcga, lower_bound=rcga.cost.total * 1.001))
    t_rcga, paper, flexible = toy[1].values()
    cheaper = CostBreakdown(0.0, 0.0, t_rcga.settled_cost.total * 0.999)
    assert check_sandwich(t_rcga, replace(paper, cost=CostBreakdown(0.0, 0.0, 1e9)), flexible)
    assert check_sandwich(replace(t_rcga, settled_cost=cheaper, cost=cheaper), paper, flexible)
    assert check_sandwich(replace(t_rcga, lower_bound=1e9), paper, flexible)
    assert check_binding(100.0, 100.0) and check_binding(100.0 * (1 + 1e-7), 100.0)
    assert check_binding(100.0 * (1 + 1e-5), 100.0) == []


def test_nrs_outcome_check():
    wedge = driver.SolveReport("nrs", "paper", None, None, 5.0, None, 3, 2, 0.0, None, None,
                               feasible=False, failure="master became infeasible")
    assert check_nrs(wedge, None) == []
    assert check_nrs(replace(wedge, failure=None), None)
    assert check_nrs(replace(wedge, schedule=Schedule(1, {})), None)


def test_slack_instance_fails_the_binding_check():
    inst = generate_instance(replace(BINDING_CFG, rho_b=1.0, cache_scale=1.0))
    reports = {"rcga": driver.run_rcga(inst)}
    free = driver.run_lower_bound(uncapacitated(inst)).lower_bound
    problems = check_case(inst, reports, free)
    assert problems and "nothing binds" in problems[0]


def test_traced_solve_accounts_for_its_time(binding):
    inst = binding[0]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("solve"):
            report = driver.run_rcga(replace(inst))
    finally:
        tracer.uninstall()
    assert driver.price_all.__name__ == "price_all" and not hasattr(driver.price_all, "__wrapped__")
    assert self_time_problems(tracer.spans) == []
    metrics = layer_metrics(tracer.spans, rounds=1, setups=1)
    assert metrics["driver.cg_rounds"] == report.pricing_rounds
    assert metrics["rounding.passes"] == report.rounding_rounds
    assert metrics["pricing.skipped_pooled"] == 0
    assert set(metrics) == set(METRICS)
    layers = sum(metrics[k] for k in SELF_TIME.values())
    assert layers == pytest.approx(metrics["trace.solve_s"], rel=1e-9)


def test_self_time_check_rejects_overlapping_children():
    root, child = Span(0, None, 1, "solve"), Span(1, 0, 1, "rmp.build")
    root.start, root.end, child.start, child.end = 0.0, 1.0, 0.0, 2.0
    assert self_time_problems([root, child])


def test_benchmark_json_declares_what_the_trace_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == {*METRICS, "driver.nrs_pins"}
