"""The benchmark's workloads: fixed, seeded instances and the solves run on them.

A workload is a list of cases. A case is one instance and the solves run on
it, in order; each solve is one operation. The instances are fixed by their
own generator seeds, listed here, so that a workload's schedules, costs and
bounds repeat exactly from run to run. Solvers and the generator are looked
up on their modules at call time, so that a traced run sees the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from mcsp import baselines, driver, generator
from mcsp.generator import GeneratorConfig
from mcsp.instance import Instance, Topology

# The GeneratorConfig fields every workload but the toy one shares.
COMMON = dict(horizon=12, rho_m=0.4, rho_tt=1.0)

# (cells, contents, requests, generator seed): the ROADMAP desk sizes and
# the stretch size, at the seeds the ROADMAP profile was measured on.
DESK_SIZES = (("3-cell", 100, 500, 1), ("7-cell", 200, 2000, 2), ("7-cell", 400, 4000, 1))
RHO_B_SLACK = 0.3
# Backhaul at 4% of the catalog binds on 7-cell 200/2000 (acceptance criterion 8b).
BINDING = ("7-cell", 200, 2000, 1)
RHO_B_BINDING = 0.04

TOY_SEED = 0  # seeds random.Random, which draws the toy instances
TOY_TRIALS = 200
TWO_CELL = Topology(num_servers=2, edges=((1, 2),), triples=())


@dataclass
class Case:
    """One instance and the solves run on it, each a (label, solver) pair."""

    name: str
    instance: Instance
    solves: list[tuple[str, Callable]]
    binding: bool = False  # the instance must bind: its capacities cut the bound


SOLVERS = {
    "rcga": lambda inst: driver.run_rcga(inst),
    "nrs": lambda inst: driver.naive_round(inst),
    "pba": lambda inst: baselines.run_pba(inst),
    "exact-paper": lambda inst: baselines.solve_exact(inst, "paper"),
    "exact-min": lambda inst: baselines.solve_exact(inst, "min"),
}


def _case(name: str, inst: Instance, labels: tuple[str, ...], binding: bool = False) -> Case:
    return Case(name, inst, [(label, SOLVERS[label]) for label in labels], binding)


def _generate(cells: str, contents: int, requests: int, seed: int, rho_b: float) -> Instance:
    cfg = GeneratorConfig(cells=cells, num_contents=contents, num_requests=requests,
                          rho_b=rho_b, seed=seed, **COMMON)
    return generator.generate_instance(cfg)


def toy_configs() -> list[GeneratorConfig]:
    """The random 2-cell instances of ``mcsp.verify``'s sandwich battery,
    drawn with its recipe from a fixed seed. The recipe is written out here
    so that a change to the battery does not change the benchmark's inputs."""
    rng = random.Random(TOY_SEED)
    out = []
    for _ in range(TOY_TRIALS):
        num_requests = rng.randint(0, 10)
        out.append(GeneratorConfig(
            cells="custom",
            custom_topology=TWO_CELL,
            num_contents=rng.randint(1, 3),
            num_requests=num_requests,
            horizon=rng.randint(1, 4),
            rho_m=rng.choice([0.0, 0.3, 0.5]) if num_requests else 0.0,
            rho_tt=0.0,
            rho_b=rng.choice([0.3, 0.6, 1.0]),
            cache_scale=rng.choice([0.5, 1.0]),
            size_range=(1, 4),
            window_max=rng.randint(0, 2),
            seed=rng.randrange(2**63),
        ))
    return out


def desk_slack() -> list[Case]:
    return [
        _case(f"{cells} {contents}/{requests} seed {seed}",
              _generate(cells, contents, requests, seed, RHO_B_SLACK), ("rcga",))
        for cells, contents, requests, seed in DESK_SIZES
    ]


def _binding(labels: tuple[str, ...]) -> list[Case]:
    cells, contents, requests, seed = BINDING
    inst = _generate(cells, contents, requests, seed, RHO_B_BINDING)
    name = f"{cells} {contents}/{requests} rho_b {RHO_B_BINDING} seed {seed}"
    return [_case(name, inst, labels, binding=True)]


def rcga_binding() -> list[Case]:
    return _binding(("rcga",))


def nrs_binding() -> list[Case]:
    # PBA runs after NRS as the schedule a user falls back on when NRS
    # wedges, so that the workload always returns a schedule to cost.
    return _binding(("nrs", "pba"))


def toy_sandwich() -> list[Case]:
    return [
        _case(f"toy {n}", generator.generate_instance(cfg), ("rcga", "exact-paper", "exact-min"))
        for n, cfg in enumerate(toy_configs())
    ]


WORKLOADS = {
    "desk-slack": desk_slack,
    "rcga-binding": rcga_binding,
    "nrs-binding": nrs_binding,
    "toy-sandwich": toy_sandwich,
}


def fresh(inst: Instance) -> Instance:
    """A copy of ``inst`` with empty memo tables, so that every solve starts
    as the solve of a newly loaded instance would."""
    return replace(inst)


def uncapacitated(inst: Instance) -> Instance:
    """``inst`` with cache and backhaul capacity both at the catalog size."""
    total = float(sum(c.size for c in inst.contents))
    servers = tuple(replace(s, cache_capacity=total, backhaul_capacity=total)
                    for s in inst.servers)
    return replace(inst, servers=servers)
