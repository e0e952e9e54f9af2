"""Cross-cutting verification: oracle equivalence suites used by acceptance.

Two batteries ship with the library so they can run anywhere the package is
installed:

* ``verify_pricing_oracle`` -- random small instances and random dual vectors
  (drawn wider than any master solve would produce, on purpose): the pricing
  DAG's shortest-path value must equal the brute-force minimum reduced cost
  over every enumerable column, in both settlement modes.
* ``verify_sandwich`` -- random toy instances: the column-generation bound
  must sit below the exact optimum, which must sit below the evaluated
  heuristic schedule; the repaired assignment must dominate the flexible
  optimum.

Failures carry the offending instance and duals as a JSON artifact so a case
can be replayed in isolation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .baselines import solve_exact
from .columns import enumerate_columns
from .driver import run_rcga
from .generator import GeneratorConfig, Topology, generate_instance
from .instance import Instance, build_request_index, instance_to_dict
from .pricing import build_graph, shortest_path
from .rmp import DualPrices, reduced_cost

TWO_CELL = Topology(num_servers=2, edges=((1, 2),), triples=())


@dataclass
class VerifyReport:
    trials: int = 0
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    max_gap: float = 0.0
    artifacts: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_instance(rng: random.Random, horizon_max: int) -> Instance:
    num_requests = rng.randint(0, 10)
    cfg = GeneratorConfig(
        cells="custom",
        custom_topology=TWO_CELL,
        num_contents=rng.randint(1, 3),
        num_requests=num_requests,
        horizon=rng.randint(1, horizon_max),
        rho_m=rng.choice([0.0, 0.3, 0.5]) if num_requests else 0.0,
        rho_tt=0.0,
        rho_b=rng.choice([0.3, 0.6, 1.0]),
        cache_scale=rng.choice([0.5, 1.0]),
        size_range=(1, 4),
        window_max=rng.randint(0, 2),
        seed=rng.randrange(2**63),
    )
    return generate_instance(cfg)


def _random_duals(rng: random.Random, inst: Instance) -> DualPrices:
    pi, mu, phi, lam = {}, {}, {}, {}
    for r in inst.requests:
        if not r.is_mcr:
            continue
        for h in r.candidates:
            for a in range(r.deadline):
                pi[(r.id, h, a)] = rng.uniform(0.0, 3.0)
    for h in range(1, inst.num_servers + 1):
        for t in range(1, inst.horizon + 1):
            mu[(h, t)] = rng.uniform(0.0, 3.0)
            phi[(h, t)] = rng.uniform(0.0, 3.0)
        for i in range(1, inst.num_contents + 1):
            lam[(h, i)] = rng.uniform(0.0, 50.0)
    return DualPrices.explicit(build_request_index(inst), pi=pi, mu=mu, phi=phi, lam=lam)


def _write_artifact(directory: Optional[Path], tag: str, inst: Instance, duals=None) -> Optional[str]:
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"instance": instance_to_dict(inst)}
    if duals is not None:
        # mu and phi by [server][slot], lambda by [server][content]; index 0 unused
        doc["duals"] = {
            "pi": {f"{r},{h},{a}": float(duals.pis[j])
                   for (r, h, a), j in duals.idx.svc_pos.items()},
            "mu": duals.mus.tolist(),
            "phi": duals.phis.tolist(),
            "lambda": duals.lams.tolist(),
        }
    path = directory / f"{tag}.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def verify_pricing_oracle(
    trials: int = 200,
    horizon_max: int = 6,
    seed: int = 0,
    tol: float = 1e-6,
    artifact_dir: Optional[Path] = None,
) -> VerifyReport:
    """Shortest-path value == brute-force min reduced cost, both modes."""
    if horizon_max > 8:
        raise ValueError("oracle verification is exhaustive; keep horizon_max <= 8")
    rng = random.Random(seed)
    report = VerifyReport()
    for n in range(trials):
        inst = _random_instance(rng, horizon_max)
        idx = build_request_index(inst)
        duals = _random_duals(rng, inst)
        columns = enumerate_columns(inst.horizon)
        report.trials += 1
        for mode in ("paper", "min"):
            for h in range(1, inst.num_servers + 1):
                for i in range(1, inst.num_contents + 1):
                    expect = min(
                        reduced_cost(col, h, i, duals, idx, mode=mode) for col in columns
                    )
                    pc = shortest_path(build_graph(h, i, duals, inst, idx, mode=mode))
                    report.checks += 1
                    delta = abs(pc.path_value - expect)
                    report.max_gap = max(report.max_gap, delta)
                    if delta > tol:
                        report.failures.append(
                            f"trial {n} pair ({h},{i}) mode {mode}: "
                            f"path {pc.path_value} vs brute force {expect}"
                        )
                        art = _write_artifact(artifact_dir, f"pricing_{n}_{h}_{i}", inst, duals)
                        if art:
                            report.artifacts.append(art)
    return report


def verify_sandwich(
    trials: int = 100,
    seed: int = 0,
    artifact_dir: Optional[Path] = None,
) -> VerifyReport:
    """LB <= exact <= heuristic under the deadline settlement; repaired
    heuristic >= flexible exact."""
    rng = random.Random(seed)
    report = VerifyReport()
    slop = lambda v: 1e-6 * (1 + abs(v))
    while report.trials < trials:
        inst = _random_instance(rng, horizon_max=4)
        report.trials += 1
        rcga = run_rcga(inst, mode="paper")
        exact_paper = solve_exact(inst, "paper")
        exact_min = solve_exact(inst, "min")
        lb = rcga.lower_bound
        checks = [
            ("lb <= exact", lb <= exact_paper.cost.total + slop(lb)),
            (
                "exact <= rcga settled",
                exact_paper.cost.total <= rcga.settled_cost.total + slop(exact_paper.cost.total),
            ),
            (
                "rcga repaired >= flexible exact",
                rcga.cost.total >= exact_min.cost.total - slop(exact_min.cost.total),
            ),
            (
                "flexible exact <= deadline exact",
                exact_min.cost.total <= exact_paper.cost.total + slop(exact_min.cost.total),
            ),
        ]
        report.checks += len(checks)
        for name, ok in checks:
            if not ok:
                report.failures.append(
                    f"trial {report.trials}: {name} violated "
                    f"(lb={lb}, exact={exact_paper.cost.total}, "
                    f"settled={rcga.settled_cost.total}, repaired={rcga.cost.total}, "
                    f"flexible={exact_min.cost.total})"
                )
                art = _write_artifact(artifact_dir, f"sandwich_{report.trials}", inst)
                if art:
                    report.artifacts.append(art)
        if exact_paper.cost.total > 1e-9:
            report.max_gap = max(
                report.max_gap,
                (rcga.settled_cost.total - exact_paper.cost.total) / exact_paper.cost.total,
            )
    return report
