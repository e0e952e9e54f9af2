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
from operator import itemgetter
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
    # f(age) and cloud_cost(i) by argument, and the size and capacity
    # arrays; the solvers evaluate them millions of times per solve and the
    # instance never changes
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_contents(self) -> int:
        return len(self.contents)

    def server(self, h: int) -> ServerSpec:
        return self.servers[h - 1]

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

    def sizes(self) -> np.ndarray:
        """Content sizes by content id (index 0 unused, zero), as floats; a
        shared, read-only array."""
        if "sizes" not in self._memo:
            self._memo["sizes"] = _frozen([0] + [c.size for c in self.contents])
        return self._memo["sizes"]

    def capacities(self) -> np.ndarray:
        """Cache (row 0) and backhaul (row 1) capacity by server id (column 0
        unused, zero); a shared, read-only array."""
        if "capacities" not in self._memo:
            self._memo["capacities"] = _frozen([
                [0.0] + [s.cache_capacity for s in self.servers],
                [0.0] + [s.backhaul_capacity for s in self.servers]])
        return self._memo["capacities"]


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


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
    schema = doc.get("schema") if isinstance(doc, dict) else None
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
    """Precomputed request lookups used by the column pool, the pricing and
    the master, held as arrays.

    ``pairs`` lists the (server, content) pairs, numbered k = (h - 1) *
    num_contents + (i - 1); ``pair_server`` and ``pair_content`` hold each
    pair's server and content. The single-choice requests of pair k (its
    server is the sole candidate) are entries ``scr_start[k]:scr_start[k +
    1]`` of ``scr_deadline`` and ``scr_window``, in request order. The
    multiple-choice requests with pair k's server among the candidates are
    entries ``mcr_start[k]:mcr_start[k + 1]`` of ``mcr_origin``,
    ``mcr_deadline`` and ``mcr_svc``, in request order; an MCR has one entry
    per candidate server. ``mcr_pair`` and ``scr_pair`` hold each entry's
    pair k.

    The service index numbers the MCR service triples (request id, server,
    age), one per MCR entry and age below the deadline, in MCR entry order,
    then by age: ``mcr_svc`` is the position of an entry's age zero, and age
    a is at ``mcr_svc + a``. ``svc_request_ids``, ``svc_age``,
    ``svc_saving`` (f(age) minus the request's cloud cost) and ``svc_rank``
    (the rank of the triple in sorted (request id, server, age) order, which
    orders the master's coverage rows) are by position, and ``svc_by_rank``
    lists the positions in rank order. The master's coverage duals and the
    pricing's service credits are arrays in position order.
    ``mcr_cloud_cost`` is the cloud cost of every MCR, which the master
    carries as a constant.

    ``aoi`` holds f(a) for the ages a = 0..horizon - 1 and ``cloud`` the
    cloud cost by content id (index 0 unused).
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        # one row per MCR and candidate, and per SCR, led by its pair k
        num_contents, mcr_rows, scr_rows = inst.num_contents, [], []
        self.mcr_cloud_cost = 0  # the cloud cost of every MCR, summed in request order
        for r in inst.requests:
            if r.is_mcr:
                self.mcr_cloud_cost += inst.cloud_cost(r.content)
                for h in r.candidates:
                    mcr_rows.append(((h - 1) * num_contents + r.content - 1, r.id, h,
                                     r.origin, r.deadline))
            else:
                h = r.candidates[0]
                scr_rows.append(((h - 1) * num_contents + r.content - 1, r.deadline, r.window))
        self.num_request_ids = max((r.id for r in inst.requests), default=0) + 1
        self.pairs = [(h, i) for h in range(1, inst.num_servers + 1)
                      for i in range(1, num_contents + 1)]
        self.pair_server, self.pair_content = np.array(
            [*zip(*self.pairs)], dtype=np.int64).reshape(2, -1)
        self.aoi = np.array([inst.f(a) for a in range(inst.horizon)])
        self.cloud = np.array([0.0] + [inst.cloud_cost(i) for i in range(1, num_contents + 1)])
        # by pair, then in request order (the sorts are stable)
        mcr_rows.sort(key=itemgetter(0))
        scr_rows.sort(key=itemgetter(0))
        mcr_table = np.array([*zip(*mcr_rows)], dtype=np.int64).reshape(5, -1)
        self.mcr_pair, _, _, self.mcr_origin, self.mcr_deadline = mcr_table
        self.scr_pair, self.scr_deadline, self.scr_window = np.array(
            [*zip(*scr_rows)], dtype=np.int64).reshape(3, -1)
        bounds = np.arange(len(self.pairs) + 1)
        self.mcr_start = self.mcr_pair.searchsorted(bounds)
        self.scr_start = self.scr_pair.searchsorted(bounds)
        # an MCR row has one service per age below its deadline
        counts = self.mcr_deadline
        self.mcr_svc = counts.cumsum() - counts
        pair, ids, servers = mcr_table[:3].repeat(counts, axis=1)
        self.svc_request_ids = ids.copy()  # not a view holding the other rows
        self.svc_age = np.arange(len(pair)) - self.mcr_svc.repeat(counts)
        self.svc_saving = self.aoi[self.svc_age] - self.cloud[self.pair_content[pair]]
        self.svc_by_rank = np.lexsort((self.svc_age, servers, self.svc_request_ids))
        self.svc_rank = self.svc_by_rank.argsort()


def build_request_index(inst: Instance) -> RequestIndex:
    return RequestIndex(inst)
