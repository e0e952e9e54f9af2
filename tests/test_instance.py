import copy
import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsp.generator import (
    GeneratorConfig,
    Topology,
    generate_instance,
    parse_ratio,
    seven_cell_topology,
    three_cell_topology,
)
from mcsp.instance import (
    Request,
    build_request_index,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    validate_instance,
)

import reference
from conftest import TWO_CELL, random_tiny_instance


def test_tiny1_fixture_loads(tiny1):
    assert tiny1.num_servers == 1
    assert tiny1.num_contents == 1
    assert tiny1.size(1) == 2
    assert len(tiny1.requests) == 1
    r = tiny1.requests[0]
    assert not r.is_mcr and r.origin == 1 and r.deadline == 2
    assert tiny1.cloud_cost(1) == pytest.approx(23.0)
    assert validate_instance(tiny1) == []


def test_roundtrip_identity(tmp_path):
    cfg = GeneratorConfig(cells="3-cell", num_contents=12, num_requests=40, horizon=6, seed=7)
    inst = generate_instance(cfg)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_load_missing_horizon_is_schema_error(tmp_path, tiny1):
    doc = instance_to_dict(tiny1)
    del doc["horizon"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="horizon"):
        load_instance(path)


def test_load_rejects_wrong_schema(tmp_path, tiny1):
    doc = instance_to_dict(tiny1)
    doc["schema"] = "mcsp-instance/999"
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema"):
        load_instance(path)


@pytest.mark.parametrize("where, field, value", [
    ("requests", "candidates", ["1"]),
    ("requests", "candidates", 1),
    ("requests", "origin", "1"),
    ("requests", "deadline", 2.0),
    ("requests", "content", None),
    ("requests", "id", "r1"),
    ("servers", "id", 1.5),
    ("contents", "id", "1"),
    (None, "horizon", "2"),
])
def test_load_rejects_non_integer_ids(tmp_path, tiny1, where, field, value):
    doc = instance_to_dict(tiny1)
    (doc if where is None else doc[where][0])[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{field}.*integer|integer.*{field}"):
        load_instance(path)


@pytest.mark.parametrize("where, field, value", [
    ("servers", "cache_capacity", "5"),
    ("servers", "backhaul_capacity", True),
    ("cost", "alpha", "20"),
    ("cost", "beta", None),
    ("servers", "cache_capacity", math.inf),
    ("servers", "backhaul_capacity", math.nan),
    ("cost", "alpha", math.inf),
])
def test_load_rejects_non_numeric_capacities_and_costs(tmp_path, tiny1, where, field, value):
    doc = instance_to_dict(tiny1)
    (doc[where][0] if where == "servers" else doc[where])[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        load_instance(path)


@pytest.mark.parametrize("field", ["cache_capacity", "backhaul_capacity"])
def test_validate_rejects_infinite_capacity(tiny1, field):
    server = dataclasses.replace(tiny1.servers[0], **{field: math.inf})
    problems = validate_instance(dataclasses.replace(tiny1, servers=(server,)))
    assert problems == [f"server 1: {field} must be a finite number, got inf"]


@pytest.mark.parametrize("r_id", [0, -1, 2])
def test_validate_rejects_request_ids_outside_one_to_count(tiny1, r_id):
    bad = dataclasses.replace(tiny1, requests=(dataclasses.replace(tiny1.requests[0], id=r_id),))
    assert validate_instance(bad) == [f"request {r_id}: ids must lie in 1..1"]


def test_validate_flags_bad_window(tiny1):
    bad = dataclasses.replace(
        tiny1, requests=(Request(1, 1, origin=2, deadline=1, candidates=(1,)),)
    )
    problems = validate_instance(bad)
    assert len(problems) == 1 and "request 1" in problems[0]


def test_validate_flags_non_adjacent_candidates():
    topo = Topology(num_servers=3, edges=((1, 2),), triples=())
    inst = generate_instance(
        GeneratorConfig(
            cells="custom", custom_topology=topo, num_contents=2, num_requests=0,
            horizon=3, rho_m=0.0, seed=1,
        )
    )
    bad = dataclasses.replace(inst, requests=(Request(1, 1, 1, 2, candidates=(1, 3)),))
    problems = validate_instance(bad)
    assert len(problems) == 1 and "not admissible" in problems[0]


def test_generator_deterministic_and_counts():
    cfg = GeneratorConfig(
        cells="3-cell", num_contents=100, num_requests=500, horizon=12,
        rho_m=0.4, rho_tt=1.0, rho_b=0.3, seed=123,
    )
    a = generate_instance(cfg)
    b = generate_instance(cfg)
    assert a == b
    mcrs = [r for r in a.requests if r.is_mcr]
    assert len(mcrs) == 200
    assert sum(1 for r in mcrs if len(r.candidates) == 3) == 100
    assert sum(1 for r in mcrs if len(r.candidates) == 2) == 100
    total = sum(c.size for c in a.contents)
    for srv in a.servers:
        assert srv.cache_capacity == pytest.approx(total / 2)
        assert srv.backhaul_capacity == pytest.approx(0.3 * total)


def test_generator_empty_requests_valid():
    inst = generate_instance(
        GeneratorConfig(cells="3-cell", num_contents=5, num_requests=0, rho_m=0.0, seed=9)
    )
    assert inst.requests == ()
    assert validate_instance(inst) == []


def test_generator_rho_m_closed_unit_interval():
    """rho_m = 1 makes every request multiple-choice; a share outside [0, 1]
    is refused with a message that names the interval."""
    inst = generate_instance(GeneratorConfig(
        cells="3-cell", num_contents=5, num_requests=30, horizon=4, rho_m=1.0, seed=4))
    assert len(inst.requests) == 30 and all(r.is_mcr for r in inst.requests)
    assert validate_instance(inst) == []
    for rho_m in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"rho_m must lie in \[0, 1\], got"):
            generate_instance(GeneratorConfig(num_contents=5, num_requests=30, rho_m=rho_m))


@pytest.mark.parametrize("setting, message", [
    ({"size_range": (1.5, 3)}, "size_range must be two integers"),
    ({"size_range": (1, True)}, "size_range must be two integers"),
    ({"size_range": (1,)}, "size_range must be two integers"),
    ({"cells": 3}, "cells must be a string"),
    ({"cache_scale": float("nan")}, "cache_scale must be a finite number above 0"),
    ({"num_contents": np.float64(4)}, "num_contents must be an integer"),
])
def test_generator_checks_types_first(setting, message):
    """A setting of the wrong type is refused by name before any other
    rule looks at it."""
    with pytest.raises(ValueError, match=f"^{message}, got"):
        generate_instance(GeneratorConfig(**{"num_contents": 5, "num_requests": 30, **setting}))


def test_generator_rejects_triples_without_topology():
    with pytest.raises(ValueError, match="no triples"):
        generate_instance(
            GeneratorConfig(
                cells="custom", custom_topology=TWO_CELL,
                num_contents=4, num_requests=10, rho_m=0.5, rho_tt=1.0, seed=3,
            )
        )


def test_generated_instances_always_validate():
    rng = random.Random(42)
    for _ in range(25):
        inst = random_tiny_instance(rng)
        assert validate_instance(inst) == []


def test_seven_cell_topology_shape():
    topo = seven_cell_topology()
    assert topo.num_servers == 7
    assert len(topo.edges) == 12  # 6 spokes + 6 ring edges
    assert len(topo.triples) == 6
    assert all(1 in t for t in topo.triples)


def test_parse_ratio():
    assert parse_ratio("1:1") == 1.0
    assert parse_ratio("3:1") == 3.0
    assert parse_ratio("1:3") == pytest.approx(1 / 3)
    assert parse_ratio("0:1") == 0.0
    assert parse_ratio(2.5) == 2.5


def _mcr_ids(idx, h, i) -> list[int]:
    """The ids of the MCRs of pair (h, i), read off the index's arrays."""
    k = (h - 1) * idx.inst.num_contents + (i - 1)
    return idx.svc_request_ids[idx.mcr_svc[idx.mcr_start[k] : idx.mcr_start[k + 1]]].tolist()


def _requests_in(value) -> int:
    """How many ``Request`` objects ``value`` holds, through containers."""
    if isinstance(value, Request):
        return 1
    if isinstance(value, dict):
        return _requests_in(list(value.items()))
    if isinstance(value, (list, tuple, set)) or (
            isinstance(value, np.ndarray) and value.dtype == object):
        return sum(map(_requests_in, value))
    return 0


def test_request_index_tiny1(tiny1, tiny1_idx):
    r1 = tiny1.requests[0]
    assert tiny1_idx.scr_start.tolist() == [0, 1] and tiny1_idx.mcr_start.tolist() == [0, 0]
    assert (tiny1_idx.scr_deadline[0], tiny1_idx.scr_window[0]) == (r1.deadline, r1.window)


def test_request_index_mcr_appears_per_candidate():
    topo = three_cell_topology()
    inst = generate_instance(
        GeneratorConfig(cells="3-cell", num_contents=3, num_requests=0, horizon=4, seed=5)
    )
    r = Request(1, 2, 1, 3, candidates=(1, 2))
    inst = dataclasses.replace(inst, requests=(r,), topology=topo)
    idx = build_request_index(inst)
    assert _mcr_ids(idx, 1, 2) == [1]
    assert _mcr_ids(idx, 2, 2) == [1]
    assert _mcr_ids(idx, 3, 2) == []
    assert idx.mcr_origin.tolist() == [1, 1] and idx.mcr_deadline.tolist() == [3, 3]


def test_index_partitions_requests():
    rng = random.Random(7)
    for _ in range(10):
        inst = random_tiny_instance(rng)
        idx = build_request_index(inst)
        scr_pairs = [(r.candidates[0] - 1) * inst.num_contents + r.content - 1
                     for r in reference.scrs(inst)]
        assert idx.scr_pair.tolist() == sorted(scr_pairs)
        for r in reference.mcrs(inst):
            hits = sum(
                1
                for h in range(1, inst.num_servers + 1)
                if r.id in _mcr_ids(idx, h, r.content)
            )
            assert hits == len(r.candidates)


def test_services_run_in_master_order():
    """The service index runs in (request id, server, age) order, the order
    of the master's coverage rows: request ids never fall, the triples
    strictly rise, and the ages 0..deadline-1 of each MCR entry (one per
    request and candidate, its pair's entries in request order) sit at
    consecutive positions from its ``mcr_svc``."""
    rng = random.Random(29)
    insts = [random_tiny_instance(rng) for _ in range(40)]
    assert any(map(reference.mcrs, insts))
    insts += [
        generate_instance(GeneratorConfig(cells=cells, num_contents=contents, num_requests=requests,
                                          horizon=12, rho_m=0.4, rho_tt=1.0, seed=seed))
        for cells, contents, requests, seed in (("3-cell", 100, 500, 1), ("7-cell", 200, 2000, 2))
    ]
    insts.append(dataclasses.replace(insts[-1], requests=insts[-1].requests[::-1]))
    for inst in insts:
        idx = build_request_index(inst)
        ids, ages = idx.svc_request_ids, idx.svc_age
        assert (np.diff(ids) >= 0).all()
        entries: dict[tuple[int, int], list[Request]] = {}
        for r in reference.mcrs(inst):
            for h in r.candidates:
                entries.setdefault((h, r.content), []).append(r)
        servers = np.zeros(len(ages), dtype=np.int64)
        for k, pair in enumerate(idx.pairs):
            rows = range(idx.mcr_start[k], idx.mcr_start[k + 1])
            for j, r in zip(rows, entries.get(pair, []), strict=True):
                at = idx.mcr_svc[j] + np.arange(r.deadline)
                assert ages[at].tolist() == list(range(r.deadline))
                assert (ids[at] == r.id).all()
                servers[at] = pair[0]
        assert len(ages) == idx.mcr_deadline.sum() and servers.all()
        triples = list(zip(ids.tolist(), servers.tolist(), ages.tolist()))
        assert all(a < b for a, b in zip(triples, triples[1:]))


def test_request_index_arrays_equal_loop_reference():
    """On desk sizes and random tiny instances the index built with array
    passes equals ``reference.LoopRequestIndex``, the per-service loop: the
    same service triples in the same order, and every array with the same
    dtype, shape and bytes. The index holds arrays only: no ``Request``
    object, as the loop's per-pair ``scr``/``mcr`` lookups do."""
    rng = random.Random(17)
    insts = [random_tiny_instance(rng) for _ in range(40)]
    assert any(not inst.requests for inst in insts) and any(map(reference.mcrs, insts))
    insts += [
        generate_instance(GeneratorConfig(cells=cells, num_contents=contents, num_requests=requests,
                                          horizon=12, rho_m=0.4, rho_tt=1.0, seed=seed))
        for cells, contents, requests, seed in (("3-cell", 100, 500, 1), ("7-cell", 200, 2000, 2))
    ]
    # request order, not id order, orders a pair's requests
    insts.append(dataclasses.replace(insts[-2], requests=insts[-2].requests[::-1]))
    for inst in insts:
        idx = build_request_index(inst)
        got, want = vars(idx), dict(vars(reference.LoopRequestIndex(inst)))
        assert sum(_requests_in(value) for name, value in got.items() if name != "inst") == 0
        assert list(reference.svc_pos(idx).items()) == list(want.pop("svc_pos").items())
        del want["_scr"], want["_mcr"]
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                assert (got[name].dtype, got[name].shape) == (value.dtype, value.shape), name
                assert got[name].tobytes() == value.tobytes(), name
            else:
                assert got[name] == value and type(got[name]) is type(value), name


# -- fuzzing: a perturbed instance file is rejected with a message or solves

FUZZ_BASE = instance_to_dict(generate_instance(GeneratorConfig(
    cells="custom", custom_topology=TWO_CELL, num_contents=2, num_requests=5, horizon=3,
    rho_m=0.5, rho_tt=0.0, rho_b=0.6, cache_scale=0.5, size_range=(1, 3), window_max=1,
    seed=3,
)))


def _paths(node, path=()):
    """The path of every value in a document, containers included."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    return [path] * bool(path) + [p for key, child in children for p in _paths(child, path + (key,))]


# small positive integers twice as often as the rest, so that about one
# perturbed document in eight is still valid and gets solved
ODD_VALUES = st.one_of(st.integers(1, 4), st.integers(-1, 6), st.sampled_from(
    [0.5, 2.5, -1.0, math.inf, math.nan, True, None, "1", "exponential", [], [1, 2], {}]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(_paths(FUZZ_BASE)), ODD_VALUES), min_size=1, max_size=3))
def test_perturbed_instances_are_rejected_or_solve(edits):
    from mcsp.driver import run_rcga

    assert any(r["candidates"] == [1, 2] for r in FUZZ_BASE["requests"])  # an MCR to perturb
    doc = copy.deepcopy(FUZZ_BASE)
    for path, value in edits:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced a container on this path
    try:
        inst = instance_from_dict(doc)
    except ValueError as exc:
        assert str(exc)
        return
    report = run_rcga(inst)
    assert report.feasible and report.cost is not None


# -- age penalties of every kind an instance file may carry

AOI_KINDS = {
    "linear": lambda rng, T: {"kind": "linear", "base": rng.uniform(0.0, 3.0),
                              "slope": rng.uniform(0.0, 4.0)},
    "table": lambda rng, T: {"kind": "table", "values": sorted(
        rng.uniform(0.0, 30.0) for _ in range(T + rng.randint(0, 2)))},
    "exponential": lambda rng, T: {"kind": "exponential", "rate": rng.uniform(0.1, 2.0)},
}


@pytest.mark.parametrize("kind", list(AOI_KINDS))
def test_age_penalty_kinds_hold_the_sandwich(kind):
    """On 30 random tiny instances whose age penalty is linear, a table or
    exponential at a rate other than 1, each round-tripped through its
    document: LB <= exact <= RCGA's deadline settlement in ``paper`` mode,
    and the ``min`` exact optimum <= RCGA's repaired cost in both modes."""
    from mcsp.baselines import solve_exact
    from mcsp.driver import run_rcga

    rng = random.Random(29)
    slop = lambda v: 1e-6 * (1 + abs(v))
    for _ in range(30):
        doc = instance_to_dict(random_tiny_instance(rng))
        doc["cost"]["aoi"] = AOI_KINDS[kind](rng, doc["horizon"])
        inst = instance_from_dict(doc)
        assert inst.cost.aoi.kind == kind and instance_to_dict(inst) == doc
        exact = {mode: solve_exact(inst, mode).cost.total for mode in ("paper", "min")}
        rcga = {mode: run_rcga(inst, mode) for mode in ("paper", "min")}
        lb = rcga["paper"].lower_bound
        assert lb <= exact["paper"] + slop(lb)
        assert exact["paper"] <= rcga["paper"].settled_cost.total + slop(exact["paper"])
        for report in rcga.values():
            assert exact["min"] <= report.cost.total + slop(exact["min"])


@pytest.mark.parametrize("values, message", [
    ([1.0, 3.0, 2.0], "cost.aoi: must be monotone nondecreasing"),
    ([1.0, 2.0], "cost.aoi: table must cover ages 0..2, has 2 entries"),
])
def test_bad_age_table_is_rejected(tiny1, values, message):
    doc = instance_to_dict(tiny1)
    doc["horizon"] = 3
    doc["cost"]["aoi"] = {"kind": "table", "values": values}
    with pytest.raises(ValueError, match=re.escape(message)):
        instance_from_dict(doc)
