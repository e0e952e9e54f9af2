"""Random instance generation.

The generator follows the benchmark recipe used throughout the experiments:
request contents drawn from a binomial popularity profile B(I, 0.5) so that
mid-index contents are the most requested, integer content sizes uniform in a
range, cache capacity a fixed fraction of the total catalog size, backhaul
capacity a tunable fraction of the total catalog size, and a configurable mix
of single-choice and multiple-choice requests.

Generation is a pure function of the config: the same seed yields a
byte-identical instance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instance import (
    ContentSpec,
    CostParams,
    Instance,
    Request,
    ServerSpec,
    Topology,
    _is_finite,
    _is_int,
    validate_instance,
)


# the cloud download and backhaul cost coefficients of every generated
# instance; its age penalty is ``AoiCost``'s default, exp(age)
ALPHA = 11.0
BETA = 1.0


def three_cell_topology() -> Topology:
    """Three mutually overlapping cells: every pair adjacent, one triple."""
    return Topology(num_servers=3, edges=((1, 2), (1, 3), (2, 3)), triples=((1, 2, 3),))


def seven_cell_topology() -> Topology:
    """Hexagonal layout: server 1 in the center, servers 2..7 on the ring.

    The center overlaps every ring cell, ring neighbors overlap each other,
    and the admissible triples are the center plus two adjacent ring cells.
    """
    ring = [2, 3, 4, 5, 6, 7]
    edges = [(1, k) for k in ring]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        edges.append((min(a, b), max(a, b)))
    triples = [tuple(sorted((1, a, b))) for a, b in zip(ring, ring[1:] + ring[:1])]
    return Topology(
        num_servers=7,
        edges=tuple(sorted(edges)),
        triples=tuple(sorted(triples)),
    )


def make_topology(cells: str, custom: Topology | None = None) -> Topology:
    if cells == "3-cell":
        return three_cell_topology()
    if cells == "7-cell":
        return seven_cell_topology()
    if cells == "custom":
        if custom is None:
            raise ValueError("cells='custom' requires a custom topology")
        return custom
    raise ValueError(f"unknown cells layout {cells!r}")


def parse_ratio(text: str | float) -> float:
    """Parse a three-to-two candidate ratio, either 'a:b' or a float."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        if ":" in text:
            a, b = text.split(":", 1)
            num, den = float(a), float(b)
            if den == 0:
                return float("inf") if num > 0 else 0.0
            value = num / den
        else:
            value = float(text)
    if value < 0:
        raise ValueError(f"ratio must be nonnegative, got {text!r}")
    return value


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for random instance generation.

    rho_m        fraction of requests that are MCRs, in [0, 1] (0 for all-SCR,
                 1 for all-MCR instances).
    rho_tt       ratio of 3-candidate to 2-candidate MCRs (e.g. 1.0 for '1:1').
    rho_b        backhaul capacity as a fraction of total catalog size.
    cache_scale  cache capacity as a fraction of total catalog size.
    window_max   maximum deadline minus origin; windows are uniform in 0..window_max.
    """

    cells: str = "3-cell"
    num_contents: int = 100
    num_requests: int = 500
    horizon: int = 12
    rho_m: float = 0.4
    rho_tt: float = 1.0
    rho_b: float = 0.3
    cache_scale: float = 0.5
    size_range: tuple[int, int] = (1, 10)
    window_max: int = 2
    seed: int = 0
    custom_topology: Topology | None = None


def capacity_share(value: float) -> Fraction:
    """A capacity's share of the total catalog size (``rho_b`` or
    ``cache_scale``) as the generator scales by it: the nearest fraction
    with a denominator of at most 10**6."""
    return Fraction(value).limit_denominator(10**6)


# (fields, rule, what the rule asks) of each type ``check_config`` checks
TYPES = (
    (("num_contents", "num_requests", "horizon", "window_max"), _is_int, "an integer"),
    (("size_range",), lambda v: isinstance(v, (tuple, list)) and len(v) == 2
     and all(map(_is_int, v)), "two integers"),
    (("rho_m", "rho_b"), _is_finite, "a finite number"),
    (("cache_scale",), lambda v: _is_finite(v) and v > 0, "a finite number above 0"),
    (("cells",), lambda v: isinstance(v, str), "a string"),
)


def check_config(cfg: GeneratorConfig) -> tuple[Topology, int, int]:
    """The topology of ``cfg`` and its numbers of 3- and 2-candidate MCRs;
    settings the generator cannot draw an instance from raise ValueError.
    The types of ``TYPES`` are checked first."""
    for names, ok, kind in TYPES:
        for name in names:
            if not ok(getattr(cfg, name)):
                raise ValueError(f"{name} must be {kind}, got {getattr(cfg, name)!r}")
    if not (0 <= cfg.rho_m <= 1):
        raise ValueError(f"rho_m must lie in [0, 1], got {cfg.rho_m}")
    if not (0 < cfg.rho_b <= 1):
        raise ValueError(f"rho_b must lie in (0, 1], got {cfg.rho_b}")
    for name in ("rho_b", "cache_scale"):
        if capacity_share(getattr(cfg, name)) == 0:
            raise ValueError(f"{name} {getattr(cfg, name)} rounds to 0 at the generator's "
                             "precision of 1e-6")
    if cfg.num_requests < 0:
        raise ValueError(f"num_requests must be nonnegative, got {cfg.num_requests}")
    if cfg.window_max < 0:
        raise ValueError("window_max must be nonnegative")
    if cfg.num_contents < 1 or cfg.horizon < 1:
        raise ValueError("need at least one content and one slot")
    lo, hi = cfg.size_range
    if not (1 <= lo <= hi):
        raise ValueError(f"bad size_range {cfg.size_range}")
    if capacity_share(cfg.cache_scale) * hi * cfg.num_contents > sys.float_info.max:
        raise ValueError(f"cache_scale {cfg.cache_scale} gives a capacity past the largest float")

    topo = make_topology(cfg.cells, cfg.custom_topology)
    n_mcr = round(cfg.rho_m * cfg.num_requests)
    # split n_mcr into 3-candidate and 2-candidate per the configured ratio
    ratio = cfg.rho_tt
    n3 = n_mcr if ratio == float("inf") else round(n_mcr * ratio / (1.0 + ratio))
    n2 = n_mcr - n3
    if n3 > 0 and not topo.triples:
        raise ValueError("rho_tt demands 3-candidate MCRs but the topology has no triples")
    if n2 > 0 and not topo.edges:
        raise ValueError("rho_m demands 2-candidate MCRs but the topology has no edges")
    return topo, n3, n2


def generate_instance(cfg: GeneratorConfig) -> Instance:
    """Draw a random instance; deterministic for a fixed config and seed."""
    topo, n3, n2 = check_config(cfg)
    lo, hi = cfg.size_range

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # draw order is part of the determinism contract: sizes, then requests
    sizes = rng.integers(lo, hi + 1, size=cfg.num_contents)
    total_size = int(sizes.sum())
    cache_cap = float(capacity_share(cfg.cache_scale) * total_size)
    backhaul_cap = float(capacity_share(cfg.rho_b) * total_size)

    servers = tuple(
        ServerSpec(h, cache_cap, backhaul_cap) for h in range(1, topo.num_servers + 1)
    )
    contents = tuple(ContentSpec(i, int(s)) for i, s in enumerate(sizes, start=1))

    requests = []
    for r_id in range(1, cfg.num_requests + 1):
        content = 1 + int(rng.binomial(cfg.num_contents - 1, 0.5))
        origin = int(rng.integers(1, cfg.horizon + 1))
        deadline = min(cfg.horizon, origin + int(rng.integers(0, cfg.window_max + 1)))
        if r_id <= n3:
            cand = topo.triples[int(rng.integers(len(topo.triples)))]
        elif r_id <= n3 + n2:
            cand = topo.edges[int(rng.integers(len(topo.edges)))]
        else:
            cand = (int(rng.integers(1, topo.num_servers + 1)),)
        requests.append(Request(r_id, content, origin, deadline, tuple(cand)))

    inst = Instance(
        servers=servers,
        contents=contents,
        requests=tuple(requests),
        horizon=cfg.horizon,
        cost=CostParams(alpha=ALPHA, beta=BETA),
        topology=topo,
    )
    problems = validate_instance(inst)
    if problems:  # generator bug if this ever trips
        raise AssertionError("generated an invalid instance: " + "; ".join(problems))
    return inst
