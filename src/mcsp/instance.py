"""Problem instance data model: cells, contents, requests, cost parameters.

An instance bundles everything a solver needs: the cache servers with their
cache and backhaul capacities, the content catalog with sizes, the timestamped
requests with their candidate servers, the scheduling horizon, and the cost
parameters (cloud download rate, backhaul rate, and the age-penalty function).

Instances are immutable after construction and safe to share across workers.
File format is a single JSON document, schema id ``mcsp-instance/1``, all ids
1-based.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INSTANCE_SCHEMA = "mcsp-instance/1"


@dataclass(frozen=True)
class ServerSpec:
    """One cache server (one cell)."""

    id: int
    cache_capacity: float
    backhaul_capacity: float


@dataclass(frozen=True)
class ContentSpec:
    """One cacheable content item; sizes are positive integers."""

    id: int
    size: int


@dataclass(frozen=True)
class AoiCost:
    """Age penalty function f(a), monotone nondecreasing in the age a.

    kind "exponential": f(a) = exp(rate * a)
    kind "linear":      f(a) = base + slope * a
    kind "table":       f(a) = values[a]  (must cover a = 0 .. horizon-1)
    """

    kind: str = "exponential"
    rate: float = 1.0
    base: float = 1.0
    slope: float = 1.0
    values: tuple[float, ...] = ()

    def __call__(self, age: int) -> float:
        if age < 0:
            raise ValueError(f"age must be nonnegative, got {age}")
        if self.kind == "exponential":
            return math.exp(self.rate * age)
        if self.kind == "linear":
            return self.base + self.slope * age
        if self.kind == "table":
            return self.values[age]
        raise ValueError(f"unknown aoi cost kind {self.kind!r}")


@dataclass(frozen=True)
class CostParams:
    """Cost coefficients: alpha (cloud download), beta (backhaul), age penalty."""

    alpha: float
    beta: float
    aoi: AoiCost = field(default_factory=AoiCost)


@dataclass(frozen=True)
class Request:
    """One content request: content, origin slot, deadline slot, candidates.

    A request with a single candidate server is an SCR (single-choice request);
    with two or more candidates it is an MCR (multiple-choice request).
    """

    id: int
    content: int
    origin: int
    deadline: int
    candidates: tuple[int, ...]

    @property
    def is_mcr(self) -> bool:
        return len(self.candidates) >= 2

    @property
    def window(self) -> int:
        """Number of slots between origin and deadline."""
        return self.deadline - self.origin


@dataclass(frozen=True)
class Topology:
    """Which server subsets may appear as candidate sets of an MCR."""

    num_servers: int
    edges: tuple[tuple[int, int], ...] = ()
    triples: tuple[tuple[int, int, int], ...] = ()

    def admits(self, candidates: tuple[int, ...]) -> bool:
        cand = tuple(sorted(candidates))
        if len(cand) == 1:
            return 1 <= cand[0] <= self.num_servers
        if len(cand) == 2:
            return cand in self.edges
        if len(cand) == 3:
            return cand in self.triples
        return False


@dataclass(frozen=True)
class Instance:
    servers: tuple[ServerSpec, ...]
    contents: tuple[ContentSpec, ...]
    requests: tuple[Request, ...]
    horizon: int
    cost: CostParams
    topology: Topology
    # f(age) and cloud_cost(i) by argument; the solvers evaluate them millions
    # of times per solve and the instance never changes
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_contents(self) -> int:
        return len(self.contents)

    def server(self, h: int) -> ServerSpec:
        return self.servers[h - 1]

    def content(self, i: int) -> ContentSpec:
        return self.contents[i - 1]

    def size(self, i: int) -> int:
        return self.contents[i - 1].size

    def f(self, age: int) -> float:
        key = ("f", age)
        if key not in self._memo:
            self._memo[key] = self.cost.aoi(age)
        return self._memo[key]

    def cloud_cost(self, i: int) -> float:
        """Cost of serving one request for content i straight from the cloud."""
        key = ("cloud", i)
        if key not in self._memo:
            self._memo[key] = self.cost.aoi(0) + self.cost.alpha * self.size(i)
        return self._memo[key]

    @property
    def mcrs(self) -> tuple[Request, ...]:
        return tuple(r for r in self.requests if r.is_mcr)

    @property
    def scrs(self) -> tuple[Request, ...]:
        return tuple(r for r in self.requests if not r.is_mcr)


def validate_instance(inst: Instance) -> list[str]:
    """Check all structural invariants; returns one message per violation.

    Violations are data, not exceptions: an empty list means the instance is
    well formed.
    """
    out = _id_problems(inst)
    if out:  # the checks below compare ids and slots as integers
        return out
    if inst.horizon < 1:
        out.append(f"horizon: must be >= 1, got {inst.horizon}")
    for k, srv in enumerate(inst.servers, start=1):
        if srv.id != k:
            out.append(f"server {srv.id}: ids must be 1..H in order")
        for name in ("cache_capacity", "backhaul_capacity"):
            value = getattr(srv, name)
            if not _is_finite(value):
                out.append(f"server {srv.id}: {name} must be a finite number, got {value!r}")
            elif not value > 0:
                out.append(f"server {srv.id}: {name} must be > 0")
    for k, cont in enumerate(inst.contents, start=1):
        if cont.id != k:
            out.append(f"content {cont.id}: ids must be 1..I in order")
        if not (_is_int(cont.size) and cont.size >= 1):
            out.append(f"content {cont.id}: size must be an integer >= 1")
    alpha, beta = inst.cost.alpha, inst.cost.beta
    bad_costs = [name for name in ("alpha", "beta") if not _is_finite(getattr(inst.cost, name))]
    for name in bad_costs:
        out.append(f"cost: {name} must be a finite number, got {getattr(inst.cost, name)!r}")
    if not bad_costs and not alpha > beta > 0:
        out.append(f"cost: need alpha > beta > 0, got alpha={alpha} beta={beta}")
    out.extend(_validate_aoi(inst.cost.aoi, inst.horizon))
    if inst.topology.num_servers != inst.num_servers:
        out.append("topology: num_servers disagrees with server list")
    seen_ids: set[int] = set()
    for r in inst.requests:
        if r.id in seen_ids:
            out.append(f"request {r.id}: duplicate id")
        if not 1 <= r.id <= len(inst.requests):
            out.append(f"request {r.id}: ids must lie in 1..{len(inst.requests)}")
        seen_ids.add(r.id)
        if not (1 <= r.content <= inst.num_contents):
            out.append(f"request {r.id}: content {r.content} out of range")
        if not (1 <= r.origin <= r.deadline <= inst.horizon):
            out.append(
                f"request {r.id}: need 1 <= origin <= deadline <= horizon, "
                f"got origin={r.origin} deadline={r.deadline}"
            )
        if len(r.candidates) < 1:
            out.append(f"request {r.id}: empty candidate set")
        elif len(set(r.candidates)) != len(r.candidates):
            out.append(f"request {r.id}: repeated candidate server")
        elif any(not (1 <= h <= inst.num_servers) for h in r.candidates):
            out.append(f"request {r.id}: candidate server out of range")
        elif not inst.topology.admits(r.candidates):
            out.append(
                f"request {r.id}: candidate set {sorted(r.candidates)} "
                f"not admissible in the topology"
            )
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite real number; a bool is not taken for one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _id_problems(inst: Instance) -> list[str]:
    """Ids, slots, the horizon and the topology's server count that are not
    integers."""
    out: list[str] = []
    if not _is_int(inst.horizon):
        out.append(f"horizon: must be an integer, got {inst.horizon!r}")
    if not _is_int(inst.topology.num_servers):
        out.append(f"topology: num_servers must be an integer, got {inst.topology.num_servers!r}")
    for srv in inst.servers:
        if not _is_int(srv.id):
            out.append(f"server {srv.id!r}: id must be an integer")
    for cont in inst.contents:
        if not _is_int(cont.id):
            out.append(f"content {cont.id!r}: id must be an integer")
    for r in inst.requests:
        for name in ("id", "content", "origin", "deadline"):
            value = getattr(r, name)
            if not _is_int(value):
                out.append(f"request {r.id!r}: {name} must be an integer, got {value!r}")
        if not (isinstance(r.candidates, tuple) and all(_is_int(h) for h in r.candidates)):
            out.append(
                f"request {r.id!r}: candidates must be a list of integers, got {r.candidates!r}"
            )
    return out


def _validate_aoi(aoi: AoiCost, horizon: int) -> list[str]:
    out: list[str] = []
    if aoi.kind not in ("exponential", "linear", "table"):
        return [f"cost.aoi: unknown kind {aoi.kind!r}"]
    if aoi.kind == "table" and len(aoi.values) < horizon:
        return [
            f"cost.aoi: table must cover ages 0..{horizon - 1}, "
            f"has {len(aoi.values)} entries"
        ]
    params = {"exponential": (aoi.rate,), "linear": (aoi.base, aoi.slope)}
    if not all(_is_finite(v) for v in params.get(aoi.kind, aoi.values[:horizon])):
        return [f"cost.aoi: the {aoi.kind} parameters must be finite numbers"]
    try:
        vals = [aoi(a) for a in range(horizon)]
    except OverflowError:
        vals = [math.inf]
    if any(not math.isfinite(v) for v in vals):
        out.append("cost.aoi: values must be finite over the horizon")
    if any(b < a for a, b in zip(vals, vals[1:])):
        out.append("cost.aoi: must be monotone nondecreasing")
    return out


# ---------------------------------------------------------------------------
# File I/O


def instance_to_dict(inst: Instance) -> dict:
    aoi = inst.cost.aoi
    aoi_doc: dict = {"kind": aoi.kind}
    if aoi.kind == "exponential":
        aoi_doc["rate"] = aoi.rate
    elif aoi.kind == "linear":
        aoi_doc["base"] = aoi.base
        aoi_doc["slope"] = aoi.slope
    else:
        aoi_doc["values"] = list(aoi.values)
    return {
        "schema": INSTANCE_SCHEMA,
        "horizon": inst.horizon,
        "servers": [
            {"id": s.id, "cache_capacity": s.cache_capacity, "backhaul_capacity": s.backhaul_capacity}
            for s in inst.servers
        ],
        "contents": [{"id": c.id, "size": c.size} for c in inst.contents],
        "requests": [
            {
                "id": r.id,
                "content": r.content,
                "origin": r.origin,
                "deadline": r.deadline,
                "candidates": list(r.candidates),
            }
            for r in inst.requests
        ],
        "cost": {"alpha": inst.cost.alpha, "beta": inst.cost.beta, "aoi": aoi_doc},
        "topology": {
            "num_servers": inst.topology.num_servers,
            "edges": [list(e) for e in inst.topology.edges],
            "triples": [list(t) for t in inst.topology.triples],
        },
    }


def instance_from_dict(doc: dict) -> Instance:
    schema = doc.get("schema")
    if schema != INSTANCE_SCHEMA:
        raise ValueError(f"expected schema {INSTANCE_SCHEMA!r}, got {schema!r}")
    for key in ("horizon", "servers", "contents", "requests", "cost", "topology"):
        if key not in doc:
            raise ValueError(f"instance file missing required key {key!r}")
    try:
        inst = _parse_instance(doc)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(
            f"invalid instance file: malformed document ({type(exc).__name__}: {exc})"
        ) from exc
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance file: " + "; ".join(problems[:5]))
    return inst


def _parse_instance(doc: dict) -> Instance:
    """The instance a document describes, unvalidated; a document of the
    wrong shape raises whatever its first misread raises."""
    aoi_doc = doc["cost"]["aoi"]
    kind = aoi_doc["kind"]
    if kind == "exponential":
        aoi = AoiCost(kind=kind, rate=aoi_doc.get("rate", 1.0))
    elif kind == "linear":
        aoi = AoiCost(kind=kind, base=aoi_doc.get("base", 1.0), slope=aoi_doc.get("slope", 1.0))
    elif kind == "table":
        aoi = AoiCost(kind=kind, values=tuple(aoi_doc["values"]))
    else:
        raise ValueError(f"unknown aoi cost kind {kind!r}")
    topo = doc["topology"]
    return Instance(
        servers=tuple(
            ServerSpec(s["id"], s["cache_capacity"], s["backhaul_capacity"])
            for s in doc["servers"]
        ),
        contents=tuple(ContentSpec(c["id"], c["size"]) for c in doc["contents"]),
        requests=tuple(
            Request(
                r["id"], r["content"], r["origin"], r["deadline"],
                tuple(r["candidates"]) if isinstance(r["candidates"], list) else r["candidates"],
            )
            for r in doc["requests"]
        ),
        horizon=doc["horizon"],
        cost=CostParams(alpha=doc["cost"]["alpha"], beta=doc["cost"]["beta"], aoi=aoi),
        topology=Topology(
            num_servers=topo["num_servers"],
            edges=tuple(tuple(e) for e in topo.get("edges", [])),
            triples=tuple(tuple(t) for t in topo.get("triples", [])),
        ),
    )


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=1), encoding="utf-8")


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# Request index


class RequestIndex:
    """Precomputed request lookups used by cost evaluation and pricing.

    scr(h, i)  SCRs whose sole candidate is h and content is i.
    mcr(h, i)  MCRs with h among the candidates and content i.

    The service index numbers the MCR service triples (request id, server,
    age), one per candidate server and age below the deadline: pair by pair
    in (server, content) order, then in ``mcr(h, i)`` order, then by age.
    ``svc_pos`` maps a triple to its position; ``svc_request_ids``,
    ``svc_saving`` (f(age) minus the request's cloud cost) and ``svc_rank``
    (the rank of the triple in sorted (request id, server, age) order, which
    orders the master's coverage rows) are by position, and ``svc_by_rank``
    lists the positions in rank order. The master's coverage duals and the
    pricing's service credits are arrays in position order.
    ``mcr_cloud_cost`` is the cloud cost of every MCR, which the master
    carries as a constant.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._scr: dict[tuple[int, int], list[Request]] = {}
        self._mcr: dict[tuple[int, int], list[Request]] = {}
        for r in inst.requests:
            if r.is_mcr:
                for h in r.candidates:
                    self._mcr.setdefault((h, r.content), []).append(r)
            else:
                self._scr.setdefault((r.candidates[0], r.content), []).append(r)
        self.num_request_ids = max((r.id for r in inst.requests), default=0) + 1
        self.svc_pos: dict[tuple[int, int, int], int] = {}
        request_ids, saving = [], []
        for h in range(1, inst.num_servers + 1):
            for i in range(1, inst.num_contents + 1):
                for r in self._mcr.get((h, i), ()):
                    for a in range(r.deadline):
                        self.svc_pos[(r.id, h, a)] = len(self.svc_pos)
                        request_ids.append(r.id)
                        saving.append(inst.f(a) - inst.cloud_cost(i))
        self.svc_request_ids = np.array(request_ids, dtype=np.int64)
        self.svc_saving = np.array(saving, dtype=float)
        keys = list(self.svc_pos)
        self.svc_by_rank = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
        self.svc_rank = np.empty(len(keys), dtype=np.int64)
        self.svc_rank[self.svc_by_rank] = np.arange(len(keys))
        self.mcr_cloud_cost = sum(inst.cloud_cost(r.content) for r in inst.requests if r.is_mcr)

    def scr(self, h: int, i: int) -> tuple[Request, ...]:
        return tuple(self._scr.get((h, i), ()))

    def mcr(self, h: int, i: int) -> tuple[Request, ...]:
        return tuple(self._mcr.get((h, i), ()))


def build_request_index(inst: Instance) -> RequestIndex:
    return RequestIndex(inst)
