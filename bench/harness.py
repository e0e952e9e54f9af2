"""One benchmark run: set up, solve for a while, check, report.

After the set-up, a run does rounds of the workload's solves, one after
another in this one process, until the asked-for seconds have passed; every
round attempts the same solves, so failures are the same share of attempts
in every run. ``--seed`` orders the cases within a round; the instances
themselves are fixed (see ``workloads.py``). After the timing every output
is checked (see ``checks.py``). A traced run wraps the program's layers (see
``spans.py``) and reports the per-layer metrics instead of the end-to-end
ones. Results, and the spans of a traced run, are also written to
``bench/out/``.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import scipy.optimize  # noqa: F401  (HiGHS: the first master solve would import it)
from mcsp import driver

from checks import check_case
from spans import Tracer, layer_metrics, self_time_problems
from workloads import WORKLOADS, fresh, uncapacitated

OUT = Path(__file__).resolve().parent / "out"
SETUPS = 3  # set-ups per run; setup_s reports their median


def run_rounds(cases, order, seconds, tracer):
    """Run whole rounds of every case's solves until ``seconds`` have
    passed. Returns each round's reports (case index -> label -> report;
    a solve that raised has none), each round's solve time, and the
    number of solves attempted and failed."""
    rounds, times = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        outcome, solve_s = {}, 0.0
        for c in order:
            case = cases[c]
            reports = outcome[c] = {}
            for label, solve in case.solves:
                inst = fresh(case.instance)
                span = tracer.root("solve", case=c, label=label) if tracer else nullcontext()
                attempted += 1
                t = time.perf_counter()
                try:
                    with span:
                        reports[label] = solve(inst)
                except Exception:
                    failed += 1
                    print(f"{case.name} {label}: solve failed", file=sys.stderr)
                    traceback.print_exc()
                solve_s += time.perf_counter() - t
        rounds.append(outcome)
        times.append(solve_s)
        if time.perf_counter() >= deadline:
            return rounds, times, attempted, failed


def quality(report) -> tuple:
    return (report.cost.total if report.cost else None, report.lower_bound)


def check_rounds(cases, rounds) -> list[str]:
    """Every check on every output, and every round's costs and bounds
    equal to the first round's."""
    problems = []
    for c, case in enumerate(cases):
        free_bound = None
        if case.binding:
            free_bound = driver.run_lower_bound(uncapacitated(case.instance)).lower_bound
        first = rounds[0][c]
        for n, outcome in enumerate(rounds, start=1):
            reports = outcome[c]
            found = check_case(case.instance, reports, free_bound)
            found += [
                f"{label}: cost and bound {quality(rep)} differ from round 1's "
                f"{quality(first[label])}"
                for label, rep in reports.items()
                if label in first and quality(rep) != quality(first[label])
            ]
            problems += [f"{case.name} round {n}: {p}" for p in found]
    return problems


def _reports(rounds):
    return [(label, rep) for outcome in rounds for per_case in outcome.values()
            for label, rep in per_case.items()]


def end_to_end(setup_s, times, peak_rss_mb, rounds) -> dict:
    reports = [rep for _, rep in _reports(rounds[:1])]
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
        # fsum: exact, so the totals do not depend on the order --seed gives the cases
        "cost_total": math.fsum(rep.cost.total for rep in reports if rep.cost is not None),
        "bound_total": math.fsum(rep.lower_bound for rep in reports if rep.lower_bound is not None),
    }


def per_layer(tracer, rounds) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the problems found in the
    trace itself."""
    metrics = layer_metrics(tracer.spans, len(rounds), SETUPS)
    reports = _reports(rounds)
    pins = sum(rep.rounding_rounds for label, rep in reports if label == "nrs")
    metrics["driver.nrs_pins"] = pins / len(rounds)
    problems = self_time_problems(tracer.spans)
    traced = sum(s.attrs.get("rounds", 0) for s in tracer.spans if s.name == "driver.run_cga")
    reported = sum(rep.pricing_rounds for _, rep in reports)
    if traced != reported:
        problems.append(f"traced {traced} CG rounds, the reports say {reported}")
    return metrics, problems


def run(args, spec: dict, started: float) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    generate_s = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        with tracer.root("setup") if tracer else nullcontext():
            cases = WORKLOADS[args.workload]()
        generate_s.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(generate_s)
    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)

    rounds, times, attempted, failed = run_rounds(cases, order, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    if tracer:
        tracer.uninstall()
    problems = check_rounds(cases, rounds)
    if tracer:
        values, found = per_layer(tracer, rounds)
        problems += found
        declared = spec["per_layer"]
    else:
        values = end_to_end(setup_s, times, peak_rss_mb, rounds)
        declared = spec["end_to_end"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=len(rounds), solve_s=times, import_s=import_s,
                  generate_s=generate_s, all_metrics=values, problems=problems)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps([s.to_list() for s in tracer.spans], separators=(",", ":")))
    print(json.dumps(result))
    return 0
