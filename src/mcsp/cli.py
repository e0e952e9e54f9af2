"""Command-line front end: generate, solve, evaluate, sweep, report, and
export the flat ILP.

Each decision is made in one place: ``ALGORITHMS`` names what ``solve`` and
a sweep can run, ``GEN_FLAGS`` the generator settings of ``gen`` (a sweep's
"gen" block may set the same fields but the seed), ``report_row`` a run's
CSV columns, whose key columns identify the run, and ``FIGURES`` the files
``report`` writes.

Exit codes: 0 success, 1 solver failure or evaluation violation (``eval``
prints a schedule's violations and does not cost it), 2 usage errors
(argparse's convention; also bad generator settings, missing or rejected
input files, results CSVs ``report`` cannot read, unknown sweep keys,
modes and algorithms and a thread count below 1, each one line
``mcsp <command>: error: ...``, writing no file). Sweeps are resumable: rows
whose key columns already appear in the output CSV are skipped, and runs
execute in parallel across processes (``sweep --threads``, at least 1, by
default one per core). A failed run still writes the rows of the runs before
it; a solver failure then exits 1, anything else propagates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .baselines import CapsExceededError, export_ilp, run_pba, solve_exact
from .columns import UnfixablePoolError
from .costs import MODES, Schedule, check_feasibility, evaluate
from .driver import (
    REPORT_SCHEMA,
    ConvergenceError,
    SolveReport,
    naive_round,
    report_costs,
    run_lower_bound,
    run_rcga,
)
from .generator import GeneratorConfig, check_config, generate_instance, parse_ratio
from .instance import Instance, load_instance, save_instance
from .pricing import NoPathError
from .simplex import LpError

# A solve that ends in one of these (or an exact solve refused for size)
# exits 1 with a diagnostic; any other exception, a broken invariant
# included, propagates with its traceback.
SOLVER_FAILURES = (LpError, ConvergenceError, UnfixablePoolError, NoPathError, CapsExceededError)

# a run's key; its last two columns, generator fields both, follow the results
# in the CSV, so a CSV written before they joined (its runs had the generator's
# defaults of both) still resumes
KEY_COLUMNS = ["seed", "cells", "I", "R", "T", "rho_m", "rho_tt", "rho_b", "algo", "mode",
               "cache_scale", "window_max"]

CSV_COLUMNS = KEY_COLUMNS[:-2] + [
    "total", "aoi_cost", "download_cost", "update_cost", "lb", "gap",
    "pricing_rounds", "rounding_rounds", "wall_time_s",
] + KEY_COLUMNS[-2:]

ALGORITHMS = {
    "rcga": run_rcga,
    "pba": lambda inst, mode: run_pba(inst),
    "exact": solve_exact,
    "lb": run_lower_bound,
    "nrs": naive_round,
}

# (flag, ``GeneratorConfig`` field, type) of each ``mcsp gen`` setting; the
# flag's argparse dest is its name with "_" for "-"
GEN_FLAGS = (
    ("--cells", "cells", str),
    ("--contents", "num_contents", int),
    ("--requests", "num_requests", int),
    ("--slots", "horizon", int),
    ("--rho-m", "rho_m", float),
    ("--rho-tt", "rho_tt", str),
    ("--rho-b", "rho_b", float),
    ("--cache-scale", "cache_scale", float),
    ("--window-max", "window_max", int),
    ("--seed", "seed", int),
)

# the ``GeneratorConfig`` fields a sweep's "gen" block may set; the rest
# keep their defaults
SWEEP_FIELDS = tuple(field for _, field, _ in GEN_FLAGS if field != "seed")

# (file name, x column, the costs whose shares of the total are averaged
# too) of each figure ``mcsp report`` writes
FIGURES = (
    ("cost_vs_contents.csv", "I", ()),
    ("cost_vs_requests.csv", "R", ()),
    ("cost_and_share_vs_rho_b.csv", "rho_b", ("download", "update", "aoi")),
)


class UsageError(Exception):
    """A command's input that it cannot use; ``main`` prints it on one line
    and exits 2."""


def _load(read, path):
    """``read(path)``; a file that is missing or unreadable, or that
    ``read`` rejects with ValueError or csv.Error, is a usage error."""
    try:
        return read(path)
    except (OSError, ValueError, csv.Error) as exc:
        raise UsageError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _output(path, directory: bool = False) -> Path:
    """``path`` as a command's output, checked before any work: a file in
    an existing directory that is no directory itself, or with
    ``directory`` a directory that exists or can be made; anything else is
    a usage error."""
    path = Path(path)
    if directory:
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            raise UsageError(f"{nearest}: not a directory")
    elif path.is_dir():
        raise UsageError(f"{path}: is a directory")
    elif not path.parent.is_dir():
        raise UsageError(f"{path.parent}: no such directory")
    return path


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".12g")
    return str(value)


def report_row(cfg: GeneratorConfig, algo: str, mode: str,
               report: Optional[SolveReport]) -> dict:
    """A run's CSV row; only its key columns when ``report`` is None."""
    row = {
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
        "cache_scale": cfg.cache_scale,
        "window_max": cfg.window_max,
    }
    if report is None:
        return row
    if report.cost is not None:
        row.update(report.cost.to_dict())
    row.update(lb=report.lower_bound, gap=report.gap, pricing_rounds=report.pricing_rounds,
               rounding_rounds=report.rounding_rounds, wall_time_s=report.wall_time_s)
    return row


def write_results_csv(rows: list[dict], path: str | Path) -> None:
    """Write ``rows`` to ``path`` by way of a file beside it, so that an
    interrupted write leaves the previous file whole."""
    path = Path(path)
    part = path.with_name(path.name + ".tmp")
    with open(part, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in CSV_COLUMNS])
    os.replace(part, path)


def read_results_csv(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _prior_results(path: Path) -> list[dict]:
    """The rows of the results CSV a sweep resumes, none when ``path`` is
    missing or empty; a header that does not begin with ``CSV_COLUMNS``
    before the last two key columns is a ValueError, and a row without
    those holds the generator's defaults."""
    if not path.exists():
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        first = CSV_COLUMNS[:-2]
        if reader.fieldnames is not None and reader.fieldnames[:len(first)] != first:
            raise ValueError("not a results CSV: its header does not begin with "
                             + ",".join(first))
        defaults = {col: _fmt(getattr(GeneratorConfig, col)) for col in KEY_COLUMNS[-2:]}
        return [defaults | row for row in reader]


def _row_key(row: dict) -> tuple:
    """A run's key as the CSV writes it, from a written row or from
    ``report_row``."""
    return tuple(_fmt(row.get(col)) for col in KEY_COLUMNS)


def run_algorithm(algo: str, inst: Instance, mode: str) -> SolveReport:
    return ALGORITHMS[algo](inst, mode)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    cfg = GeneratorConfig(**{field: getattr(args, flag[2:].replace("-", "_"))
                             for flag, field, _ in GEN_FLAGS})
    _output(args.out)
    try:
        inst = generate_instance(replace(cfg, rho_tt=parse_ratio(cfg.rho_tt)))
    except ValueError as exc:
        raise UsageError(exc) from exc
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {inst.num_servers} cells, {inst.num_contents} contents, "
          f"{len(inst.requests)} requests, horizon {inst.horizon}")
    return 0


def cmd_solve(args) -> int:
    if args.out:
        _output(args.out)
    inst = _load(load_instance, args.instance)
    try:
        report = run_algorithm(args.algo, inst, args.mode)
    except SOLVER_FAILURES as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=1), encoding="utf-8")
    if not report.feasible:
        print(f"{args.algo}: no feasible solution ({report.failure})")
        return 1
    total = report.cost.total if report.cost else None
    print(
        f"{args.algo}: total={_fmt(total)} lb={_fmt(report.lower_bound)} "
        f"gap={_fmt(report.gap)} wall={report.wall_time_s:.2f}s"
    )
    return 0


def _read_schedule(path) -> tuple[Optional[SolveReport], Optional[Schedule]]:
    """The report (None for a bare schedule) and the schedule of a file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") == REPORT_SCHEMA:
        report = SolveReport.from_dict(doc)
        return report, report.schedule
    return None, Schedule.from_dict(doc)


def cmd_eval(args) -> int:
    inst = _load(load_instance, args.instance)
    report, schedule = _load(_read_schedule, args.schedule)
    if schedule is None:
        print("report carries no schedule", file=sys.stderr)
        return 1
    problems = check_feasibility(schedule, inst)
    for p in problems:
        print(f"violation: {p}")
    if problems:
        return 1
    repaired = evaluate(schedule, inst, "min")
    print(f"min-assignment cost: total={_fmt(repaired.total)} "
          f"aoi={_fmt(repaired.aoi_cost)} download={_fmt(repaired.download_cost)} "
          f"update={_fmt(repaired.update_cost)}")
    if report is None or report.cost is None:
        return 0
    _, cost, settled = report_costs(report.algorithm, inst, schedule, report.settlement_mode)
    mismatches = []
    for name, got, want in (("cost", cost, report.cost),
                            ("settled_cost", settled, report.settled_cost)):
        if want is None:
            continue
        recomputed = got.to_dict()
        for field, w in want.to_dict().items():
            g = recomputed[field]
            if abs(g - w) > 1e-9 * (1 + abs(w)):
                mismatches.append(f"{name}.{field}: recomputed {g!r} != reported {w!r}")
    for m in mismatches:
        print(f"mismatch: {m}")
    return 1 if mismatches else 0


def _sweep_one(job) -> dict:
    cfg, algo, mode = job
    return report_row(cfg, algo, mode, run_algorithm(algo, generate_instance(cfg), mode))


def _unknown(keys, known, what: str) -> None:
    unknown = [key for key in keys if key not in known]
    if unknown:
        raise UsageError(f"unknown {what} {unknown[0]!r}; expected one of {', '.join(known)}")


def _seeds(gen: dict) -> list[int]:
    """A "gen" block's seeds: its "seeds", a list of non-negative integers,
    or the range its "seed_range" of two such integers spans."""
    key = "seeds" if "seeds" in gen else "seed_range"
    value = gen.get(key)
    if not (isinstance(value, list) and all(type(s) is int and s >= 0 for s in value)
            and (key == "seeds" or len(value) == 2)):
        raise UsageError(f'a "gen" block needs "seeds", a list of non-negative integers, '
                         f'or "seed_range", two of them; got {key} {value!r}')
    return value if key == "seeds" else list(range(*value))


def _expand_sweep(config) -> list[tuple]:
    """The sweep's jobs, (``GeneratorConfig``, algorithm, mode) each, in
    block, seed and algorithm order, each key once; a config of another
    shape, a key, mode or algorithm the sweep does not know, or "gen" values
    the generator rejects, is a usage error."""
    runs = config.get("runs") if isinstance(config, dict) else None
    if not (isinstance(runs, list) and all(
            isinstance(block, dict) and isinstance(block.get("gen"), dict)
            and isinstance(block.get("algos"), list) for block in runs)):
        raise UsageError('a sweep config is {"runs": [...]}, each block an object '
                         'with a "gen" object and an "algos" list')
    jobs = []
    for block in runs:
        _unknown(block, ("gen", "algos", "mode"), "block key")
        gen, algos, mode = block["gen"], block["algos"], block.get("mode", "paper")
        _unknown(gen, SWEEP_FIELDS + ("seeds", "seed_range"), '"gen" key')
        _unknown([mode], MODES, "mode")
        _unknown(algos, tuple(ALGORITHMS), "algorithm")
        seeds = _seeds(gen)
        fields = {name: gen.get(name, getattr(GeneratorConfig, name)) for name in SWEEP_FIELDS}
        try:
            cfg = GeneratorConfig(**{**fields, "rho_tt": parse_ratio(fields["rho_tt"])})
            check_config(cfg)
        except (TypeError, ValueError) as exc:
            raise UsageError(exc) from exc
        for seed in seeds:
            for algo in algos:
                jobs.append((replace(cfg, seed=seed), algo, mode))
    return list({_job_key(job): job for job in jobs}.values())


def _job_key(job) -> tuple:
    return _row_key(report_row(*job, None))


def default_threads() -> int:
    return os.cpu_count() or 1


def _run_jobs(todo: list, threads: int):
    """The rows of the jobs ``todo``, in job order; with more than one
    thread the jobs run in worker processes, and the jobs not started yet
    are cancelled when the caller stops early."""
    if threads > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            try:
                yield from pool.map(_sweep_one, todo)
            finally:
                pool.shutdown(cancel_futures=True)
    else:
        yield from map(_sweep_one, todo)


def cmd_sweep(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    out = _output(args.out)
    config = _load(lambda path: json.loads(Path(path).read_text(encoding="utf-8")), args.config)
    jobs = _expand_sweep(config)
    existing_rows = _load(_prior_results, out)
    done_keys = {_row_key(row) for row in existing_rows}
    todo = [job for job in jobs if _job_key(job) not in done_keys]
    print(f"{len(jobs)} runs requested, {len(jobs) - len(todo)} already present, "
          f"{len(todo)} to do")
    # existing rows first, then new rows in job order up to a failed run
    rows = list(existing_rows)
    try:
        for row in _run_jobs(todo, args.threads):
            rows.append(row)
    except SOLVER_FAILURES as exc:
        cfg, algo, mode = todo[len(rows) - len(existing_rows)]
        print(f"solver failed: {algo} ({mode}) on seed {cfg.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        write_results_csv(rows, out)
        print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _figure_series(path) -> list[dict]:
    """Per figure of ``FIGURES``, the (total, cost shares) points of each
    (cells, algo, mode, x) series of a results CSV's rows with a total; a
    missing column or a value that is no number is a ValueError."""
    rows, figures = read_results_csv(path), []
    for _, xcol, shares in FIGURES:
        series: dict[tuple, list] = {}
        for line, row in enumerate(rows, start=2):
            if not row.get("total"):
                continue
            try:
                total = float(row["total"])
                float(row[xcol])  # the series sort by it
                series.setdefault((row["cells"], row["algo"], row["mode"], row[xcol]), []).append(
                    [total, *(float(row[f"{name}_cost"]) / total if total else 0.0
                              for name in shares)])
            except KeyError as exc:
                raise ValueError(f"no {exc} column") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {line}: {exc}") from exc
        figures.append(series)
    return figures


def cmd_report(args) -> int:
    outdir = _output(args.outdir, directory=True)
    figures = _load(_figure_series, args.results)
    outdir.mkdir(parents=True, exist_ok=True)
    emitted = []
    for (fname, xcol, shares), series in zip(FIGURES, figures):
        path = outdir / fname
        means = {key: [sum(col) / len(col) for col in zip(*vals)] for key, vals in series.items()}
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["cells", "algo", "mode", xcol, "mean_total",
                        *(f"{name}_share" for name in shares), "runs"])
            for key in sorted(series, key=lambda k: (k[0], k[1], k[2], float(k[3]))):
                w.writerow([*key, *map(_fmt, means[key]), len(series[key])])
        if args.svg:
            _render_svg(path.with_suffix(".svg"), {key: m[0] for key, m in means.items()})
        emitted.append(path)
    print("emitted: " + ", ".join(str(p) for p in emitted))
    return 0


def _render_svg(path: Path, totals: dict) -> None:
    """Minimal line rendering of a figure's mean totals, keyed (cells, algo,
    mode, x) as its CSV rows are: one polyline per (cells, algo, mode)
    series against x; no plotting dependency. No rows, no file."""
    if not totals:
        return
    series: dict[tuple, list] = {}
    for (*key, x), total in totals.items():
        series.setdefault(tuple(key), []).append((float(x), total))
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
    path.write_text("\n".join(parts), encoding="utf-8")


def cmd_export(args) -> int:
    _output(args.out)
    inst = _load(load_instance, args.instance)
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
    for flag, field, kind in GEN_FLAGS:
        gen.add_argument(flag, type=kind, default=getattr(GeneratorConfig, field),
                         choices=["3-cell", "7-cell"] if field == "cells" else None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--algo", required=True, choices=list(ALGORITHMS))
    solve.add_argument("--instance", required=True)
    solve.add_argument("--mode", default="paper", choices=MODES)
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
    sweep.add_argument("--threads", type=int, default=default_threads())
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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"mcsp {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
