"""Tracing from outside the program: a span around each call into a layer.

``Tracer.install`` replaces each traced name where its callers look it up
(``mcsp.driver.build_rmp``, not ``mcsp.rmp.build_rmp``, since ``run_cga``
calls the name it imported) with a wrapper that records a span: its name,
start, end, parent span and the solve it belongs to. Spans are recorded only
inside a root span opened with ``Tracer.root``, one per solve and one for the
set-up; outside one the wrappers call straight through. Spans stay in memory
until the run writes them out. ``layer_metrics`` turns them into the
per-layer metrics: a layer's self time is its spans' time minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Span:
    __slots__ = ("id", "parent", "solve", "name", "start", "end", "attrs")

    def __init__(self, id: int, parent: Optional[int], solve: int, name: str):
        self.id, self.parent, self.solve, self.name = id, parent, solve, name
        self.attrs: dict = {}
        self.start = self.end = 0.0

    def to_list(self) -> list:
        return [self.id, self.parent, self.solve, self.name, self.start, self.end, self.attrs]


def _bound(fn: Callable) -> Callable:
    """A function that names a call's arguments, defaults filled in."""
    sig = inspect.signature(fn)

    def named(args, kwargs) -> dict:
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return named


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._roots = 0
        self._undo: list[tuple[object, str, object]] = []
        self._values = None  # reduced costs of the latest Pricer.price call

    def _open(self, name: str, solve: Optional[int] = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent and parent.id,
                    solve if parent is None else parent.solve, name)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def root(self, name: str, **attrs):
        """The root span of one solve (or of the set-up)."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._roots += 1
        span = self._open(name, solve=self._roots)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str,
             pre: Optional[Callable] = None, post: Optional[Callable] = None) -> None:
        """Trace calls of ``owner.attr`` as spans called ``name``. ``pre``
        maps the call's arguments (args, kwargs), and ``post`` its result and
        the attributes so far, to attributes of the span; an exception is
        recorded by its class name."""
        orig = getattr(owner, attr)

        @functools.wraps(orig, updated=())
        def traced(*args, **kwargs):
            if not self._stack:
                return orig(*args, **kwargs)
            attrs = pre(args, kwargs) if pre is not None else {}
            span = self._open(name)
            span.attrs.update(attrs)
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if post is not None:
                span.attrs.update(post(out, span.attrs))
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def install(self) -> None:
        """Wrap every traced entry point of the program."""
        from mcsp import baselines, driver, generator, pricing, rmp
        from mcsp.columns import ColumnPool

        def price_post(out, attrs):
            self._values = out[0]
            return {"pairs": len(out[0])}

        price_all_args = _bound(driver.price_all)

        def price_all_pre(args, kwargs):
            a = price_all_args(args, kwargs)
            return {"tol": a["tol"], "pool": a["pool"].total_columns()}

        def price_all_post(out, attrs):
            # the latest Pricer.price call is the one this price_all made
            return {"returned": len(out), "negative": int((self._values < -attrs["tol"]).sum())}

        solve_rmp_args = _bound(driver.solve_rmp)

        self.wrap(generator, "generate_instance", "generator.generate")
        self.wrap(driver, "build_request_index", "instance.index")
        self.wrap(driver, "PricingStatics", "pricing.statics")
        self.wrap(driver, "price_all", "pricing.price_all", price_all_pre, price_all_post)
        self.wrap(pricing.Pricer, "price", "pricing.price", post=price_post)
        self.wrap(driver, "run_cga", "driver.run_cga", post=lambda out, _: {"rounds": out.rounds})
        self.wrap(driver, "build_rmp", "rmp.build", post=lambda out, _: {
            "rows": out.problem.num_rows, "vars": out.problem.num_vars})
        self.wrap(driver, "solve_rmp", "rmp.solve", pre=lambda args, kwargs: {
            "canonical": bool(solve_rmp_args(args, kwargs)["canonical"])})
        self.wrap(rmp, "solve_lp", "simplex.solve_lp",
                  post=lambda out, _: {"iterations": out.iterations})
        self.wrap(rmp.CapacityRows, "add_violated", "rmp.capacity_check",
                  post=lambda out, _: {"added": out})
        self.wrap(driver, "compute_indicators", "rounding.indicators")
        self.wrap(driver, "round_once", "rounding.round", post=lambda out, _: {
            "frozen": out.frozen, "up": out.rounded_up, "down": out.rounded_down,
            "purged": out.purged_columns})
        self.wrap(ColumnPool, "add", "columns.add")
        self.wrap(ColumnPool, "purge_incompatible", "columns.purge")
        for name in ("check_feasibility", "derive_assignment", "evaluate", "plan_cost"):
            self.wrap(driver, name, "costs.finish")
        self.wrap(baselines, "solve_exact", "baselines.exact")
        self.wrap(baselines, "run_pba", "baselines.pba")


# self time of these spans -> per-layer metric
SELF_TIME = {
    "generator.generate": "generator.generate_s",
    "instance.index": "instance.index_s",
    "pricing.statics": "pricing.statics_s",
    "pricing.price": "pricing.price_s",
    "pricing.price_all": "pricing.decode_s",
    "rmp.build": "rmp.build_s",
    "rmp.solve": "rmp.readback_s",
    "rmp.capacity_check": "rmp.capacity_check_s",
    "simplex.solve_lp": "simplex.lp_s",
    "rounding.round": "rounding.round_s",
    "rounding.indicators": "rounding.indicators_s",
    "columns.add": "columns.add_s",
    "columns.purge": "columns.purge_s",
    "costs.finish": "costs.finish_s",
    "baselines.exact": "baselines.exact_s",
    "baselines.pba": "baselines.pba_s",
    "driver.run_cga": "driver.cga_self_s",
    "solve": "driver.solve_self_s",
}


# every per-layer metric layer_metrics reports; zero where a layer never ran
METRICS = (*SELF_TIME.values(), *(
    f"{layer}.{count}" for layer, counts in (
        ("pricing", "calls pairs_priced negative_pairs columns_added skipped_pooled useful_share"),
        ("rmp", "build_calls rows_max vars_max capacity_rows_added"),
        ("simplex", "lp_calls lp_iterations canonical_lp_s canonical_fallbacks infeasible"),
        ("rounding", "passes frozen fixed_up fixed_down purged_columns"),
        ("columns", "pool_max"),
        ("driver", "cg_runs cg_rounds cg_round_ms"),
        ("trace", "solve_s"),
    ) for count in counts.split()
))


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def self_time_problems(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Each solve's self times are nonnegative and add up to no more than
    the solve's own span."""
    own = self_times(spans)
    total: dict[int, float] = defaultdict(float)
    problems = []
    for s in spans:
        total[s.solve] += own[s.id]
        if own[s.id] < -tol:
            problems.append(f"span {s.id} {s.name}: negative self time {own[s.id]}")
    for s in spans:
        if s.parent is None and total[s.solve] > s.end - s.start + tol:
            problems.append(f"solve {s.solve}: self times {total[s.solve]} exceed {s.end - s.start}")
    return problems


def layer_metrics(spans: list[Span], rounds: int, setups: int) -> dict[str, float]:
    """Per-layer totals over one round of the workload's solves (set-up
    spans over one set-up); maxima over the whole run. A call that raised
    counts its time but none of its results."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    setup_solves = {s.solve for s in spans if s.parent is None and s.name == "setup"}
    m = dict.fromkeys(METRICS, 0.0)
    solve_s = 0.0
    for s in spans:
        per = 1.0 / (setups if s.solve in setup_solves else rounds)
        if s.name in SELF_TIME:
            m[SELF_TIME[s.name]] += own[s.id] * per
        a = s.attrs
        if s.parent is None and s.name == "solve":
            solve_s += (s.end - s.start) * per
        elif s.name == "pricing.price_all":
            m["pricing.calls"] += per
            m["pricing.negative_pairs"] += a.get("negative", 0) * per
            m["pricing.columns_added"] += a.get("returned", 0) * per
            m["pricing.skipped_pooled"] += (a.get("negative", 0) - a.get("returned", 0)) * per
            m["columns.pool_max"] = max(m["columns.pool_max"], a.get("pool", 0))
        elif s.name == "pricing.price":
            m["pricing.pairs_priced"] += a.get("pairs", 0) * per
        elif s.name == "rmp.build":
            m["rmp.build_calls"] += per
            m["rmp.rows_max"] = max(m["rmp.rows_max"], a.get("rows", 0))
            m["rmp.vars_max"] = max(m["rmp.vars_max"], a.get("vars", 0))
        elif s.name == "rmp.capacity_check":
            m["rmp.capacity_rows_added"] += a.get("added", 0) * per
        elif s.name == "simplex.solve_lp":
            m["simplex.lp_calls"] += per
            m["simplex.lp_iterations"] += a.get("iterations", 0) * per
            if by_id[s.parent].attrs.get("canonical"):
                m["simplex.canonical_lp_s"] += (s.end - s.start) * per
                m["simplex.canonical_fallbacks"] += per if "error" in a else 0.0
            m["simplex.infeasible"] += per if a.get("error") == "LpInfeasibleError" else 0.0
        elif s.name == "rounding.round":
            m["rounding.passes"] += per
            m["rounding.frozen"] += a.get("frozen", 0) * per
            m["rounding.fixed_up"] += a.get("up", 0) * per
            m["rounding.fixed_down"] += a.get("down", 0) * per
            m["rounding.purged_columns"] += a.get("purged", 0) * per
        elif s.name == "driver.run_cga":
            m["driver.cg_runs"] += per
            m["driver.cg_rounds"] += a.get("rounds", 0) * per
    m["trace.solve_s"] = solve_s
    m["pricing.useful_share"] = (
        m["pricing.columns_added"] / m["pricing.pairs_priced"] if m["pricing.pairs_priced"] else 0.0
    )
    m["driver.cg_round_ms"] = 1000 * solve_s / m["driver.cg_rounds"] if m["driver.cg_rounds"] else 0.0
    return dict(m)
