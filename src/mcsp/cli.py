"""Command-line front end: generate, solve, evaluate, sweep, report, and
export the flat ILP.

Exit codes: 0 success, 1 solver failure or evaluation violation, 2 usage
errors (argparse's convention). Sweeps are resumable: rows whose key columns
already appear in the output CSV are skipped, and runs execute in parallel
across processes (``sweep --threads`` or the MCSP_THREADS environment
variable).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

from .baselines import CapsExceededError, export_ilp, run_pba, solve_exact
from .columns import UnfixablePoolError
from .costs import Schedule, check_feasibility, evaluate
from .driver import ConvergenceError, SolveReport, naive_round, run_lower_bound, run_rcga
from .generator import GeneratorConfig, generate_instance, parse_ratio
from .instance import Instance, load_instance, save_instance
from .pricing import NoPathError
from .simplex import LpError

# A solve that ends in one of these (or an exact solve refused for size)
# exits 1 with a diagnostic; any other exception, a broken invariant
# included, propagates with its traceback.
SOLVER_FAILURES = (LpError, ConvergenceError, UnfixablePoolError, NoPathError, CapsExceededError)

CSV_COLUMNS = [
    "seed", "cells", "I", "R", "T", "rho_m", "rho_tt", "rho_b", "algo", "mode",
    "total", "aoi_cost", "download_cost", "update_cost", "lb", "gap",
    "pricing_rounds", "rounding_rounds", "wall_time_s",
]

KEY_COLUMNS = ["seed", "cells", "I", "R", "T", "rho_m", "rho_tt", "rho_b", "algo", "mode"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".12g")
    return str(value)


def report_row(cfg: GeneratorConfig, algo: str, mode: str, report: SolveReport) -> dict:
    cost = report.cost
    return {
        "seed": cfg.seed,
        "cells": cfg.cells,
        "I": cfg.num_contents,
        "R": cfg.num_requests,
        "T": cfg.horizon,
        "rho_m": cfg.rho_m,
        "rho_tt": cfg.rho_tt,
        "rho_b": cfg.rho_b,
        "algo": algo,
        "mode": mode,
        "total": None if cost is None else cost.total,
        "aoi_cost": None if cost is None else cost.aoi_cost,
        "download_cost": None if cost is None else cost.download_cost,
        "update_cost": None if cost is None else cost.update_cost,
        "lb": report.lower_bound,
        "gap": report.gap,
        "pricing_rounds": report.pricing_rounds,
        "rounding_rounds": report.rounding_rounds,
        "wall_time_s": report.wall_time_s,
    }


def write_results_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in CSV_COLUMNS])


def read_results_csv(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _row_key(row: dict) -> tuple:
    return tuple(str(row.get(col, "")) for col in KEY_COLUMNS)


def run_algorithm(algo: str, inst: Instance, mode: str) -> SolveReport:
    if algo == "rcga":
        return run_rcga(inst, mode=mode)
    if algo == "pba":
        return run_pba(inst)
    if algo == "exact":
        return solve_exact(inst, mode=mode)
    if algo == "lb":
        return run_lower_bound(inst, mode=mode)
    if algo == "nrs":
        return naive_round(inst, mode=mode)
    raise ValueError(f"unknown algorithm {algo!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cfg_from_args(args) -> GeneratorConfig:
    return GeneratorConfig(
        cells=args.cells,
        num_contents=args.contents,
        num_requests=args.requests,
        horizon=args.slots,
        rho_m=args.rho_m,
        rho_tt=parse_ratio(args.rho_tt),
        rho_b=args.rho_b,
        cache_scale=args.cache_scale,
        window_max=args.window_max,
        seed=args.seed,
    )


def cmd_gen(args) -> int:
    cfg = _cfg_from_args(args)
    inst = generate_instance(cfg)
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {inst.num_servers} cells, {inst.num_contents} contents, "
          f"{len(inst.requests)} requests, horizon {inst.horizon}")
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    try:
        report = run_algorithm(args.algo, inst, args.mode)
    except SOLVER_FAILURES as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    doc = report.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    if not report.feasible:
        print(f"{args.algo}: no feasible solution ({report.failure})")
        return 1
    total = report.cost.total if report.cost else None
    print(
        f"{args.algo}: total={_fmt(total)} lb={_fmt(report.lower_bound)} "
        f"gap={_fmt(report.gap)} wall={report.wall_time_s:.2f}s"
    )
    return 0


def cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    doc = json.loads(Path(args.schedule).read_text(encoding="utf-8"))
    report: Optional[SolveReport] = None
    if doc.get("schema") == "mcsp-report/1":
        report = SolveReport.from_dict(doc)
        schedule = report.schedule
        if schedule is None:
            print("report carries no schedule", file=sys.stderr)
            return 1
    else:
        schedule = Schedule.from_dict(doc)
    problems = check_feasibility(schedule, inst)
    for p in problems:
        print(f"violation: {p}")
    repaired = evaluate(schedule, inst, "min")
    print(f"min-assignment cost: total={_fmt(repaired.total)} "
          f"aoi={_fmt(repaired.aoi_cost)} download={_fmt(repaired.download_cost)} "
          f"update={_fmt(repaired.update_cost)}")
    mismatches = []
    if report is not None and report.cost is not None:
        settled = evaluate(schedule, inst, report.settlement_mode)
        for name, got, want in (
            ("cost", repaired, report.cost),
            ("settled_cost", settled, report.settled_cost),
        ):
            if want is None:
                continue
            for field in ("aoi_cost", "download_cost", "update_cost", "total"):
                g, w = getattr(got, field), getattr(want, field)
                if abs(g - w) > 1e-9 * (1 + abs(w)):
                    mismatches.append(f"{name}.{field}: recomputed {g!r} != reported {w!r}")
        for m in mismatches:
            print(f"mismatch: {m}")
    return 1 if (problems or mismatches) else 0


def _sweep_one(payload) -> dict:
    cfg_doc, algo, mode = payload
    cfg = GeneratorConfig(**{**cfg_doc, "rho_tt": parse_ratio(cfg_doc["rho_tt"])})
    inst = generate_instance(cfg)
    report = run_algorithm(algo, inst, mode)
    return report_row(cfg, algo, mode, report)


def _expand_sweep(config: dict) -> list[tuple]:
    jobs = []
    for block in config["runs"]:
        gen = dict(block["gen"])
        seeds = gen.pop("seeds", None)
        if seeds is None:
            lo, hi = gen.pop("seed_range")
            seeds = list(range(lo, hi))
        mode = block.get("mode", "paper")
        for seed in seeds:
            for algo in block["algos"]:
                cfg_doc = {
                    "cells": gen.get("cells", "3-cell"),
                    "num_contents": gen.get("num_contents", 100),
                    "num_requests": gen.get("num_requests", 500),
                    "horizon": gen.get("horizon", 12),
                    "rho_m": gen.get("rho_m", 0.4),
                    "rho_tt": gen.get("rho_tt", 1.0),
                    "rho_b": gen.get("rho_b", 0.3),
                    "cache_scale": gen.get("cache_scale", 0.5),
                    "window_max": gen.get("window_max", 2),
                    "seed": seed,
                }
                jobs.append((cfg_doc, algo, mode))
    return jobs


def _job_key(job) -> tuple:
    cfg_doc, algo, mode = job
    return tuple(
        _fmt(v) if isinstance(v, (int, float)) else str(v)
        for v in (
            cfg_doc["seed"], cfg_doc["cells"], cfg_doc["num_contents"],
            cfg_doc["num_requests"], cfg_doc["horizon"], cfg_doc["rho_m"],
            parse_ratio(cfg_doc["rho_tt"]), cfg_doc["rho_b"], algo, mode,
        )
    )


def default_threads() -> int:
    env = os.environ.get("MCSP_THREADS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    jobs = _expand_sweep(config)
    existing_rows: list[dict] = []
    done_keys: set[tuple] = set()
    out = Path(args.out)
    if out.exists():
        existing_rows = read_results_csv(out)
        done_keys = {_row_key(row) for row in existing_rows}
    todo = [job for job in jobs if _job_key(job) not in done_keys]
    print(f"{len(jobs)} runs requested, {len(jobs) - len(todo)} already present, "
          f"{len(todo)} to do")
    threads = args.threads or default_threads()
    results: dict[tuple, dict] = {}
    if threads > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for job, row in zip(todo, pool.map(_sweep_one, todo)):
                results[_job_key(job)] = row
    else:
        for job in todo:
            results[_job_key(job)] = _sweep_one(job)
    # deterministic merge: existing rows first, new rows in job order
    rows = list(existing_rows)
    for job in todo:
        rows.append(results[_job_key(job)])
    write_results_csv(rows, out)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def cmd_report(args) -> int:
    rows = read_results_csv(args.results)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    emitted = []
    specs = [
        ("cost_vs_contents.csv", "I"),
        ("cost_vs_requests.csv", "R"),
    ]
    for fname, xcol in specs:
        series: dict[tuple, list] = {}
        for row in rows:
            if not row.get("total"):
                continue
            key = (row["cells"], row["algo"], row["mode"], row[xcol])
            series.setdefault(key, []).append(float(row["total"]))
        path = outdir / fname
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["cells", "algo", "mode", xcol, "mean_total", "runs"])
            for key in sorted(series, key=lambda k: (k[0], k[1], k[2], float(k[3]))):
                vals = series[key]
                w.writerow([*key, _fmt(_mean(vals)), len(vals)])
        emitted.append(path)

    # backhaul sweep: total plus cost shares per rho_b
    shares: dict[tuple, list] = {}
    for row in rows:
        if not row.get("total"):
            continue
        key = (row["cells"], row["algo"], row["mode"], row["rho_b"])
        total = float(row["total"])
        shares.setdefault(key, []).append(
            (
                total,
                float(row["download_cost"]) / total if total else 0.0,
                float(row["update_cost"]) / total if total else 0.0,
                float(row["aoi_cost"]) / total if total else 0.0,
            )
        )
    path = outdir / "cost_and_share_vs_rho_b.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cells", "algo", "mode", "rho_b", "mean_total",
                    "download_share", "update_share", "aoi_share", "runs"])
        for key in sorted(shares, key=lambda k: (k[0], k[1], k[2], float(k[3]))):
            vals = shares[key]
            w.writerow([
                *key,
                _fmt(_mean(v[0] for v in vals)),
                _fmt(_mean(v[1] for v in vals)),
                _fmt(_mean(v[2] for v in vals)),
                _fmt(_mean(v[3] for v in vals)),
                len(vals),
            ])
    emitted.append(path)
    if args.svg:
        for src in emitted:
            _render_svg(src)
    print("emitted: " + ", ".join(str(p) for p in emitted))
    return 0


def _render_svg(csv_path: Path) -> None:
    """Minimal line rendering of the mean_total column, one polyline per
    (cells, algo) series; no plotting dependency."""
    rows = read_results_csv(csv_path)
    if not rows:
        return
    xcol = [c for c in rows[0] if c in ("I", "R", "rho_b")]
    if not xcol:
        return
    xcol = xcol[0]
    series: dict[tuple, list] = {}
    for row in rows:
        series.setdefault((row["cells"], row["algo"]), []).append(
            (float(row[xcol]), float(row["mean_total"]))
        )
    width, height, pad = 640, 400, 50
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs) or 1.0
    y1 = max(ys) or 1.0
    sx = lambda x: pad + (width - 2 * pad) * (x - x0) / max(x1 - x0, 1e-9)
    sy = lambda y: height - pad - (height - 2 * pad) * y / y1
    colors = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for n, (key, pts) in enumerate(sorted(series.items())):
        pts.sort()
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        color = colors[n % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{pad}" y="{pad + 14 * n}" fill="{color}" '
            f'font-size="12">{"/".join(key)}</text>'
        )
    parts.append("</svg>")
    csv_path.with_suffix(".svg").write_text("\n".join(parts), encoding="utf-8")


def cmd_export(args) -> int:
    inst = load_instance(args.instance)
    export_ilp(inst, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcsp",
        description="Multi-cell content scheduling: solvers and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--cells", default="3-cell", choices=["3-cell", "7-cell"])
    gen.add_argument("--contents", type=int, default=100)
    gen.add_argument("--requests", type=int, default=500)
    gen.add_argument("--slots", type=int, default=12)
    gen.add_argument("--rho-m", dest="rho_m", type=float, default=0.4)
    gen.add_argument("--rho-tt", dest="rho_tt", default="1:1")
    gen.add_argument("--rho-b", dest="rho_b", type=float, default=0.3)
    gen.add_argument("--cache-scale", dest="cache_scale", type=float, default=0.5)
    gen.add_argument("--window-max", dest="window_max", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--algo", required=True, choices=["rcga", "pba", "exact", "lb", "nrs"])
    solve.add_argument("--instance", required=True)
    solve.add_argument("--mode", default="paper", choices=["paper", "min"])
    solve.add_argument("--out", default=None, help="write the solve report JSON here")
    solve.set_defaults(func=cmd_solve)

    ev = sub.add_parser("eval", help="independently re-cost a schedule or report")
    ev.add_argument("--instance", required=True)
    ev.add_argument("--schedule", required=True,
                    help="schedule JSON or solve-report JSON")
    ev.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="run a grid of generator/algorithm jobs")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--threads", type=int, default=None)
    sweep.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="aggregate a sweep CSV into figure data")
    rep.add_argument("--in", dest="results", required=True)
    rep.add_argument("--outdir", required=True)
    rep.add_argument("--svg", action="store_true", help="also render minimal SVGs")
    rep.set_defaults(func=cmd_report)

    exp = sub.add_parser("export-ilp", help="write the flat formulation in LP format")
    exp.add_argument("--instance", required=True)
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
