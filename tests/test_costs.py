import math
import random

import pytest

from mcsp.costs import (
    AssignmentPlan,
    Schedule,
    ScheduleError,
    aoi_cost,
    check_feasibility,
    derive_aoi,
    derive_assignment,
    download_cost,
    evaluate,
    plan_cost,
    update_cost,
)

from conftest import random_tiny_instance
from reference import check_plan


def sched(tiny1, states: str) -> Schedule:
    return Schedule(horizon=tiny1.horizon, states={(1, 1): states})


def test_derive_aoi_basic():
    assert derive_aoi("UC") == [0, 1]
    assert derive_aoi("AU") == [None, 0]
    assert derive_aoi("UCCU") == [0, 1, 2, 0]


def test_derive_aoi_rejects_orphan_cached():
    with pytest.raises(ScheduleError):
        derive_aoi("AC")
    with pytest.raises(ScheduleError):
        derive_aoi("CU")


def test_aoi_cost_components(tiny1):
    r = tiny1.requests[0]
    served = AssignmentPlan(served={r.id: (1, 2, 2)})
    assert aoi_cost(served, tiny1) == pytest.approx(math.e**2)
    cloud = AssignmentPlan(served={r.id: None})
    assert aoi_cost(cloud, tiny1) == pytest.approx(1.0)
    assert download_cost(cloud, tiny1) == pytest.approx(22.0)
    assert download_cost(served, tiny1) == 0.0


def test_empty_plan_zero_cost(tiny1):
    empty = AssignmentPlan(served={})
    s = Schedule(horizon=2, states={})
    # with no requests covered the plan treats every request as cloud
    assert plan_cost(s, AssignmentPlan(served={1: None}), tiny1).total == pytest.approx(23.0)
    assert update_cost(s, tiny1) == 0.0
    assert aoi_cost(empty, tiny1) == pytest.approx(1.0)  # request defaults to cloud


def test_update_cost(tiny1):
    assert update_cost(sched(tiny1, "UU"), tiny1) == pytest.approx(4.0)
    assert update_cost(sched(tiny1, "UC"), tiny1) == pytest.approx(2.0)
    assert update_cost(sched(tiny1, "AA"), tiny1) == 0.0


def test_tiny1_all_absent_download(tiny1):
    plan = derive_assignment(sched(tiny1, "AA"), tiny1, "min")
    assert download_cost(plan, tiny1) == pytest.approx(22.0)


def test_assignment_modes_differ_on_dropped_copy(tiny1):
    # cached at slot 1 only: min mode serves at age 0, deadline mode goes cloud
    s = sched(tiny1, "UA")
    plan_min = derive_assignment(s, tiny1, "min")
    assert plan_min.served[1] == (1, 1, 0)
    assert plan_cost(s, plan_min, tiny1).total == pytest.approx(2 + 1)
    plan_paper = derive_assignment(s, tiny1, "paper")
    assert plan_paper.served[1] is None
    assert plan_cost(s, plan_paper, tiny1).total == pytest.approx(2 + 23)


def test_paper_mode_settles_at_deadline(tiny1):
    s = sched(tiny1, "UC")  # age 1 at the deadline, window 1 -> reaches age 0
    plan = derive_assignment(s, tiny1, "paper")
    assert plan.served[1] == (1, 1, 0)
    assert plan_cost(s, plan, tiny1).total == pytest.approx(3.0)


def test_min_mode_never_worse_than_paper():
    rng = random.Random(11)
    for _ in range(40):
        inst = random_tiny_instance(rng)
        schedule = _random_schedule(rng, inst)
        assert (
            evaluate(schedule, inst, "min").total
            <= evaluate(schedule, inst, "paper").total + 1e-9
        )


def test_min_mode_beats_every_feasible_plan():
    # optimality of the min assignment given the schedule, by brute force
    rng = random.Random(5)
    for _ in range(15):
        inst = random_tiny_instance(rng, horizon_max=3)
        if not inst.requests:
            continue
        schedule = _random_schedule(rng, inst)
        best = evaluate(schedule, inst, "min").total
        for _ in range(50):
            plan = _random_plan(rng, schedule, inst)
            assert best <= plan_cost(schedule, plan, inst).total + 1e-9


def test_check_feasibility(tiny1):
    assert check_feasibility(sched(tiny1, "UC"), tiny1) == []
    # malformed string caught
    bad = Schedule(horizon=2, states={(1, 1): "AC"})
    assert any("cached-without-update" in v for v in check_feasibility(bad, tiny1))
    # a schedule over another horizon, even one caching nothing
    assert check_feasibility(Schedule(horizon=1, states={}), tiny1) == [
        "schedule horizon 1 != instance horizon 2"]


def test_check_feasibility_capacity():
    rng = random.Random(3)
    inst = random_tiny_instance(rng)
    # overload backhaul: every content updated every slot on server 1
    states = {
        (1, i): "U" * inst.horizon for i in range(1, inst.num_contents + 1)
    }
    s = Schedule(horizon=inst.horizon, states=states)
    total = sum(c.size for c in inst.contents)
    if total > inst.server(1).backhaul_capacity:
        assert any("backhaul" in v for v in check_feasibility(s, inst))


def test_aoi_evolution_property():
    rng = random.Random(9)
    for _ in range(50):
        inst = random_tiny_instance(rng)
        s = _random_schedule(rng, inst)
        for (h, i) in sorted(s.states):
            ages = derive_aoi(s.state(h, i))
            for t in range(1, inst.horizon):
                if ages[t] is not None and ages[t] > 0:
                    assert ages[t - 1] == ages[t] - 1


def _random_schedule(rng: random.Random, inst) -> Schedule:
    states = {}
    for h in range(1, inst.num_servers + 1):
        for i in range(1, inst.num_contents + 1):
            if rng.random() < 0.4:
                continue
            chars = []
            cached = False
            for _ in range(inst.horizon):
                c = rng.choice("AUC" if cached else "AU")
                cached = c in "UC"
                chars.append(c)
            states[(h, i)] = "".join(chars)
    return Schedule(horizon=inst.horizon, states=states)


def _random_plan(rng: random.Random, schedule: Schedule, inst) -> AssignmentPlan:
    from mcsp.costs import schedule_aoi

    served = {}
    for r in inst.requests:
        options = [None]
        for h in r.candidates:
            ages = schedule_aoi(schedule, h, r.content)
            for t in range(r.origin, r.deadline + 1):
                if ages[t - 1] is not None:
                    options.append((h, t, ages[t - 1]))
        served[r.id] = rng.choice(options)
    plan = AssignmentPlan(served=served)
    assert check_plan(plan, schedule, inst) == []
    return plan


def test_cloud_only_plan_identity():
    # aoi + download of an all-cloud plan is exactly sum of f(0) + alpha*s
    rng = random.Random(77)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        plan = AssignmentPlan(served={r.id: None for r in inst.requests})
        expect = sum(inst.f(0) + inst.cost.alpha * inst.size(r.content) for r in inst.requests)
        got = aoi_cost(plan, inst) + download_cost(plan, inst)
        assert got == pytest.approx(expect)
