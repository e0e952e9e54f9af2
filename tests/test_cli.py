import json
import os
import re

import pytest

from mcsp import cli
from mcsp.cli import (
    CSV_COLUMNS,
    main,
    read_results_csv,
    report_row,
    write_results_csv,
)
from mcsp.driver import ConvergenceError, run_rcga
from mcsp.generator import GeneratorConfig, generate_instance
from mcsp.instance import save_instance

from conftest import TWO_CELL


def exit_code(argv) -> int:
    """``main``'s exit code, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def gen_args(out, seed=5, contents=6, requests=18, slots=4):
    return [
        "gen", "--cells", "3-cell", "--contents", str(contents),
        "--requests", str(requests), "--slots", str(slots),
        "--rho-m", "0.4", "--rho-tt", "1:1", "--rho-b", "0.5",
        "--seed", str(seed), "--out", str(out),
    ]


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(gen_args(a)) == 0
    assert main(gen_args(b)) == 0
    assert a.read_text() == b.read_text()


def test_solve_and_eval_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(gen_args(inst_path))
    out = tmp_path / "report.json"
    assert main(["solve", "--algo", "rcga", "--instance", str(inst_path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "rcga"
    # the independent evaluator agrees with the report
    assert main(["eval", "--instance", str(inst_path), "--schedule", str(out)]) == 0


def test_eval_detects_tampering(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(gen_args(inst_path))
    out = tmp_path / "report.json"
    main(["solve", "--algo", "rcga", "--instance", str(inst_path), "--out", str(out)])
    doc = json.loads(out.read_text())
    if doc["cost"]["total"] == 0:
        pytest.skip("degenerate zero-cost instance")
    doc["cost"]["total"] += 1.0
    doc["cost"]["aoi_cost"] += 1.0
    out.write_text(json.dumps(doc))
    assert main(["eval", "--instance", str(inst_path), "--schedule", str(out)]) == 1


def test_lb_below_rcga_via_cli(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(gen_args(inst_path))
    lb_out = tmp_path / "lb.json"
    rcga_out = tmp_path / "rcga.json"
    assert main(["solve", "--algo", "lb", "--instance", str(inst_path), "--out", str(lb_out)]) == 0
    assert main(["solve", "--algo", "rcga", "--instance", str(inst_path), "--out", str(rcga_out)]) == 0
    lb = json.loads(lb_out.read_text())["lower_bound"]
    total = json.loads(rcga_out.read_text())["settled_cost"]["total"]
    assert lb <= total + 1e-6 * (1 + abs(lb))


def test_results_csv_roundtrip(tmp_path):
    cfg = GeneratorConfig(cells="3-cell", num_contents=5, num_requests=12, horizon=3, seed=2)
    inst = generate_instance(cfg)
    rows = [report_row(cfg, "rcga", "paper", run_rcga(inst))]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    back = read_results_csv(path)
    assert len(back) == 1
    for col in ("total", "aoi_cost", "download_cost", "update_cost", "lb", "wall_time_s"):
        want = rows[0][col]
        got = float(back[0][col])
        # 12 significant digits survive the round trip
        assert got == pytest.approx(want, rel=1e-11)


def test_empty_results_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_results_csv([], path)
    text = path.read_text().strip().split("\n")
    assert len(text) == 1
    assert text[0].split(",") == CSV_COLUMNS


def test_sweep_resumable_and_report(tmp_path):
    config = {
        "runs": [
            {
                "gen": {
                    "cells": "3-cell", "num_contents": 6, "num_requests": 18,
                    "horizon": 3, "rho_b": 0.4, "seeds": [1, 2],
                },
                "algos": ["rcga", "pba"],
                "mode": "paper",
            }
        ]
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    rows = read_results_csv(out)
    assert len(rows) == 4
    # resumability: rerunning adds nothing
    before = out.read_text()
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    assert len(read_results_csv(out)) == 4

    outdir = tmp_path / "figs"
    assert main(["report", "--in", str(out), "--outdir", str(outdir), "--svg"]) == 0
    emitted = sorted(p.name for p in outdir.iterdir())
    assert "cost_vs_contents.csv" in emitted
    assert "cost_and_share_vs_rho_b.csv" in emitted
    assert any(p.endswith(".svg") for p in emitted)
    share_rows = read_results_csv(outdir / "cost_and_share_vs_rho_b.csv")
    for row in share_rows:
        total_share = (
            float(row["download_share"]) + float(row["update_share"]) + float(row["aoi_share"])
        )
        assert total_share == pytest.approx(1.0, abs=1e-9)


def test_report_svg_draws_one_series_per_mode(tmp_path):
    """A sweep of RCGA in both modes on two catalog sizes: each figure's SVG
    draws one polyline per (cells, algo, mode) series, one point per x, and
    its legend names the mode."""
    config = {"runs": [
        {"gen": {"cells": "3-cell", "num_contents": contents, "num_requests": 15, "horizon": 3,
                 "seeds": [1, 2]}, "algos": ["rcga"], "mode": mode}
        for mode in ("paper", "min") for contents in (5, 8)]}
    cfg_path, out, outdir = tmp_path / "sweep.json", tmp_path / "results.csv", tmp_path / "figs"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", "1"]) == 0
    assert main(["report", "--in", str(out), "--outdir", str(outdir), "--svg"]) == 0
    svg = (outdir / "cost_vs_contents.svg").read_text()
    assert re.findall(r'font-size="12">([^<]*)</text>', svg) == ["3-cell/rcga/min",
                                                                 "3-cell/rcga/paper"]
    for points in re.findall(r'points="([^"]*)"', svg):
        xs = [point.split(",")[0] for point in points.split()]
        assert len(xs) == 2 and len(set(xs)) == 2
    assert len(re.findall("<polyline", svg)) == 2


def test_export_ilp_cli(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(gen_args(inst_path, contents=2, requests=4, slots=2))
    out = tmp_path / "model.lp"
    assert main(["export-ilp", "--instance", str(inst_path), "--out", str(out)]) == 0
    assert "Binary" in out.read_text()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algo", "bogus", "--instance", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("error, raised", [
    (ConvergenceError("column generation did not settle"), False),
    (AssertionError("broken invariant"), True),
])
def test_solve_reports_solver_failures_and_raises_the_rest(tmp_path, monkeypatch, capsys,
                                                             error, raised):
    inst_path = tmp_path / "inst.json"
    main(gen_args(inst_path))

    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "run_algorithm", fail)
    argv = ["solve", "--algo", "rcga", "--instance", str(inst_path)]
    if raised:
        with pytest.raises(type(error)):
            main(argv)
    else:
        assert main(argv) == 1
        assert "solver failed" in capsys.readouterr().err


def test_eval_checks_exact_cost_under_its_mode(tmp_path):
    """The exact oracle settles ``cost`` under its own mode; in ``paper``
    mode on this toy that is 132 where the ``min`` repair costs 88."""
    inst = generate_instance(GeneratorConfig(
        cells="custom", custom_topology=TWO_CELL, num_contents=3, num_requests=10,
        horizon=2, rho_m=0.3, rho_tt=0.0, rho_b=0.6, cache_scale=0.5, size_range=(1, 4),
        window_max=2, seed=7133042465558105795,
    ))
    inst_path, out = tmp_path / "inst.json", tmp_path / "report.json"
    save_instance(inst, inst_path)
    assert main(["solve", "--algo", "exact", "--mode", "paper", "--instance", str(inst_path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cost"]["total"] == pytest.approx(132.0)
    assert main(["eval", "--instance", str(inst_path), "--schedule", str(out)]) == 0
    doc["cost"]["update_cost"] += 1.0
    doc["cost"]["total"] += 1.0
    out.write_text(json.dumps(doc))
    assert main(["eval", "--instance", str(inst_path), "--schedule", str(out)]) == 1


def test_eval_reports_underivable_ages_without_costing(tmp_path, capsys):
    inst_path, sched = tmp_path / "inst.json", tmp_path / "schedule.json"
    main(gen_args(inst_path, slots=2))
    sched.write_text(json.dumps({"schema": "mcsp-schedule/1", "horizon": 2,
                                 "states": {"1:1": "CU"}}))
    capsys.readouterr()
    assert main(["eval", "--instance", str(inst_path), "--schedule", str(sched)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("violation: (1,1)") and "cost" not in out


@pytest.mark.parametrize("setting", [["--rho-tt=-1"], ["--rho-tt=abc"], ["--rho-m", "1.5"]])
def test_gen_bad_setting_is_a_usage_error(tmp_path, capsys, setting):
    out = tmp_path / "inst.json"
    assert exit_code(["gen", *setting, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("mcsp gen: error: ")


def _instance_file(tmp_path, **change) -> str:
    """A small instance file, with the top-level keys of its document
    replaced by ``change``."""
    path = tmp_path / "inst.json"
    main(gen_args(path, contents=3, requests=6, slots=2))
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    return str(path)


def _sweep_file(tmp_path, **change) -> str:
    """A one-block sweep config running PBA on two small instances, with
    the block's keys replaced by ``change`` ("gen" keys are merged); a key
    changed to None is left out."""
    def drop(doc):
        return {key: value for key, value in doc.items() if value is not None}

    gen = change.pop("gen", {})
    if gen is not None:
        gen = drop({"cells": "3-cell", "num_contents": 5, "num_requests": 15, "horizon": 3,
                    "seeds": [1, 2], **gen})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"runs": [drop({"gen": gen, "algos": ["pba"], **change})]}))
    return str(path)


def _text_file(tmp_path, text: str) -> str:
    path = tmp_path / "text.json"
    path.write_text(text)
    return str(path)


def _report_file(tmp_path, **change) -> str:
    """PBA's report on the small instance file, with the top-level keys of
    its document replaced by ``change``."""
    path = tmp_path / "report.json"
    main(["solve", "--algo", "pba", "--instance", _instance_file(tmp_path), "--out", str(path)])
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    return str(path)


def _results_file(tmp_path, total="10", x_column="I") -> str:
    """A one-row results CSV with the given total and x column name."""
    return _text_file(tmp_path, f"cells,algo,mode,{x_column},R,rho_b,total,aoi_cost,"
                                f"download_cost,update_cost\n3-cell,pba,paper,5,15,0.5,"
                                f"{total},4,3,3\n")


# (argv, from the test's directory; exit code): inputs that end a command
# with one line on stderr and no traceback
BAD_INPUTS = {
    "solve-invalid-instance": (lambda d: [
        "solve", "--algo", "pba", "--instance", _instance_file(d, horizon=0)], 2),
    "solve-missing-instance": (lambda d: [
        "solve", "--algo", "pba", "--instance", str(d / "none.json")], 2),
    "solve-not-an-object": (lambda d: [
        "solve", "--algo", "pba", "--instance", _text_file(d, "[1]")], 2),
    "solve-not-json": (lambda d: [
        "solve", "--algo", "pba", "--instance", _text_file(d, "horizon: 2")], 2),
    "solve-out-in-a-missing-directory": (lambda d: [
        "solve", "--algo", "pba", "--instance", _instance_file(d),
        "--out", str(d / "none" / "r.json")], 2),
    "gen-out-in-a-missing-directory": (lambda d: [
        "gen", "--out", str(d / "none" / "x.json")], 2),
    "gen-cache-scale-zero": (lambda d: ["gen", "--cache-scale", "0", "--out", str(d / "x.json")], 2),
    "gen-cache-scale-negative": (lambda d: [
        "gen", "--cache-scale", "-1", "--out", str(d / "x.json")], 2),
    "gen-cache-scale-rounding-to-zero": (lambda d: [
        "gen", "--cache-scale", "1e-7", "--out", str(d / "x.json")], 2),
    "gen-cache-scale-infinite": (lambda d: [
        "gen", "--cache-scale", "inf", "--out", str(d / "x.json")], 2),
    "gen-rho-b-rounding-to-zero": (lambda d: [
        "gen", "--rho-b", "1e-7", "--out", str(d / "x.json")], 2),
    "gen-rho-b-rounding-to-zero-from-above": (lambda d: [
        "gen", "--rho-b", "4e-7", "--out", str(d / "x.json")], 2),
    "gen-negative-requests": (lambda d: ["gen", "--requests", "-1", "--out", str(d / "x.json")], 2),
    "gen-cache-capacity-past-a-float": (lambda d: [
        "gen", "--contents", "100", "--cache-scale", "1e308", "--out", str(d / "x.json")], 2),
    "eval-invalid-instance": (lambda d: [
        "eval", "--instance", _instance_file(d, horizon=0), "--schedule", str(d / "s.json")], 2),
    "eval-missing-schedule": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule", str(d / "none.json")], 2),
    "eval-schedule-without-states": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule",
        _text_file(d, '{"schema": "mcsp-schedule/1", "horizon": 2}')], 2),
    "eval-report-without-mode": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule",
        _text_file(d, '{"schema": "mcsp-report/1", "algorithm": "rcga"}')], 2),
    "eval-schedule-of-wrong-types": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule",
        _text_file(d, '{"schema": "mcsp-schedule/1", "horizon": "2", "states": {}}')], 2),
    "eval-report-of-wrong-types": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule", _text_file(d, json.dumps({
            "schema": "mcsp-report/1", "algorithm": "pba", "settlement_mode": "min",
            "cost": {"aoi_cost": "x", "download_cost": 0, "update_cost": 0}}))], 2),
    "eval-not-an-object": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule", _text_file(d, "[1]")], 2),
    "eval-other-schema": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule", _instance_file(d)], 2),
    "eval-report-unknown-mode": (lambda d: [
        "eval", "--instance", _instance_file(d), "--schedule",
        _report_file(d, settlement_mode="foo")], 2),
    "export-invalid-instance": (lambda d: [
        "export-ilp", "--instance", _instance_file(d, horizon=0), "--out", str(d / "m.lp")], 2),
    "export-missing-instance": (lambda d: [
        "export-ilp", "--instance", str(d / "none.json"), "--out", str(d / "m.lp")], 2),
    "export-out-in-a-missing-directory": (lambda d: [
        "export-ilp", "--instance", _instance_file(d), "--out", str(d / "none" / "m.lp")], 2),
    "sweep-unknown-gen-key": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"num_content": 6})], 2),
    "sweep-unknown-block-key": (lambda d: [
        "sweep", "--config", _sweep_file(d, modee="min")], 2),
    "sweep-unknown-mode": (lambda d: [
        "sweep", "--config", _sweep_file(d, mode="papr")], 2),
    "sweep-unknown-algorithm": (lambda d: [
        "sweep", "--config", _sweep_file(d, algos=["pba", "rgca"])], 2),
    "sweep-rejected-gen-value": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"rho_m": 1.5})], 2),
    "sweep-cache-scale-zero": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"cache_scale": 0})], 2),
    "sweep-cache-capacity-past-a-float": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"cache_scale": 1e308}), "--threads", "1"], 2),
    "sweep-num-contents-a-float": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"num_contents": 1.5}), "--threads", "1"], 2),
    "sweep-horizon-a-float": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"horizon": 2.5}), "--threads", "1"], 2),
    "sweep-num-requests-a-bool": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"num_requests": True}), "--threads", "1"], 2),
    "sweep-rho-m-a-bool": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"rho_m": True}), "--threads", "1"], 2),
    "sweep-window-max-a-float": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"window_max": 1.5}), "--threads", "1"], 2),
    "sweep-rho-b-a-string": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"rho_b": "0.3"}), "--threads", "1"], 2),
    "sweep-out-in-a-missing-directory": (lambda d: [
        "sweep", "--config", _sweep_file(d), "--out", str(d / "none" / "s.csv")], 2),
    "sweep-missing-config": (lambda d: [
        "sweep", "--config", str(d / "none.json")], 2),
    "sweep-config-not-an-object": (lambda d: [
        "sweep", "--config", _text_file(d, "[1]")], 2),
    "sweep-config-without-runs": (lambda d: [
        "sweep", "--config", _text_file(d, '{"run": []}')], 2),
    "sweep-block-without-gen": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen=None)], 2),
    "sweep-block-without-algos": (lambda d: [
        "sweep", "--config", _sweep_file(d, algos=None)], 2),
    "sweep-gen-without-seeds": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"seeds": None})], 2),
    "sweep-seeds-not-a-list": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"seeds": 3})], 2),
    "sweep-seed-a-string": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"seeds": ["a"]})], 2),
    "sweep-seed-a-float": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"seeds": [1.5]})], 2),
    "sweep-seed-negative": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"seeds": [-1]})], 2),
    "sweep-seed-a-bool": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"seeds": [True]})], 2),
    "sweep-seed-range-of-one": (lambda d: [
        "sweep", "--config", _sweep_file(d, gen={"seeds": None, "seed_range": [1]})], 2),
    "sweep-zero-threads": (lambda d: [
        "sweep", "--config", _sweep_file(d), "--threads", "0"], 2),
    "sweep-negative-threads": (lambda d: [
        "sweep", "--config", _sweep_file(d), "--threads", "-2"], 2),
    "report-missing-results": (lambda d: [
        "report", "--in", str(d / "none.csv"), "--outdir", str(d / "figs")], 2),
    "report-non-numeric-total": (lambda d: [
        "report", "--in", _results_file(d, total="abc"), "--outdir", str(d / "figs")], 2),
    "report-field-past-the-csv-limit": (lambda d: [
        "report", "--in", _text_file(d, "total\n" + "1" * 200_000), "--outdir", str(d / "figs")], 2),
    "report-without-I-column": (lambda d: [
        "report", "--in", _results_file(d, x_column="J"), "--outdir", str(d / "figs")], 2),
    "report-outdir-a-file": (lambda d: [
        "report", "--in", _results_file(d), "--outdir", str(d / "text.json")], 2),
    "sweep-solver-failure": (lambda d: [
        "sweep", "--config", _sweep_file(d, algos=["pba", "exact"]), "--threads", "1"], 1),
}


# what the one line of a bad input names, where the exit code alone would
# not tell the check that caught it from another
NAMED = {
    "sweep-num-contents-a-float": "num_contents must be an integer",
    "sweep-horizon-a-float": "horizon must be an integer",
    "sweep-num-requests-a-bool": "num_requests must be an integer",
    "sweep-rho-m-a-bool": "rho_m must be a finite number",
    "sweep-window-max-a-float": "window_max must be an integer",
    "sweep-rho-b-a-string": "rho_b must be a finite number",
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_line_and_an_exit_code(tmp_path, capsys, case):
    """Each bad input exits 2 with ``mcsp <command>: error: ...``, or 1 with
    ``solver failed: ...`` for a sweep whose run fails, as one line on
    stderr with no traceback, which names what ``NAMED`` gives. A usage
    error writes no file; the failed sweep writes the rows of the runs
    before the failed one."""
    argv, code = BAD_INPUTS[case]
    argv = argv(tmp_path)
    out = tmp_path / "out.csv"
    if argv[0] == "sweep" and "--out" not in argv:
        argv += ["--out", str(out)]
    inputs = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert NAMED.get(case, "") in err
    if code == 2:
        assert err.startswith(f"mcsp {argv[0]}: error: ")
        assert sorted(tmp_path.rglob("*")) == inputs
    else:
        assert err.startswith("solver failed: exact")
        assert [row["algo"] for row in read_results_csv(out)] == ["pba"]


# what an existing ``sweep --out`` holds that is no results CSV a sweep can
# resume from
NOT_RESULTS = {
    "undecodable": b"\xff\xfe" + ",".join(CSV_COLUMNS).encode(),
    "field-past-the-csv-limit": (",".join(CSV_COLUMNS) + "\n" + "1" * 200_000 + "\n").encode(),
    "another-csv": b"name,value\nalpha,1\nbeta,2\n",
}


@pytest.mark.parametrize("case", list(NOT_RESULTS))
def test_sweep_leaves_an_out_that_is_no_results_csv(tmp_path, capsys, case):
    """An existing ``sweep --out`` that cannot be read, or whose header does
    not begin with the results columns, is a usage error that names it: exit
    2, one line on stderr, nothing run, and the file's bytes unchanged."""
    out = tmp_path / "notes.csv"
    out.write_bytes(NOT_RESULTS[case])
    argv = ["sweep", "--config", _sweep_file(tmp_path), "--out", str(out)]
    capsys.readouterr()
    assert exit_code(argv) == 2
    printed = capsys.readouterr()
    assert len(printed.err.strip().splitlines()) == 1
    assert printed.err.startswith(f"mcsp sweep: error: {out}: ")
    assert "runs requested" not in printed.out
    assert out.read_bytes() == NOT_RESULTS[case]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["notes.csv", "sweep.json"]


def test_an_interrupted_write_leaves_the_results_whole(tmp_path, monkeypatch):
    """The results are written beside the file and moved over it, so a
    write that stops part-way leaves the previous file as it was."""
    path = tmp_path / "results.csv"
    write_results_csv([{"seed": 1, "algo": "pba"}], path)
    before = path.read_bytes()

    def interrupted(value):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_fmt", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_results_csv([{"seed": 2, "algo": "pba"}], path)
    assert path.read_bytes() == before


def test_threads_follow_the_cores_alone(tmp_path, monkeypatch):
    """The thread count is ``sweep --threads`` or, without it, the core
    count; no environment variable is read, so a bad one is no error."""
    monkeypatch.setenv("MCSP_THREADS", "abc")
    assert cli.default_threads() == (os.cpu_count() or 1)
    assert main(["sweep", "--config", _sweep_file(tmp_path),
                 "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_keeps_finished_runs_when_a_run_fails(tmp_path, capsys, threads):
    """A sweep whose fifth run fails (the exact oracle refuses a 3-cell
    instance) writes the four runs before it in job order and exits 1; a
    rerun resumes with those four present and fails at the same run."""
    gen = {"cells": "3-cell", "num_contents": 5, "num_requests": 15, "horizon": 3}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"runs": [
        {"gen": {**gen, "seeds": [1, 2]}, "algos": ["pba", "lb"]},
        {"gen": {**gen, "seeds": [1]}, "algos": ["exact"]},
    ]}))
    out = tmp_path / "results.csv"
    argv = ["sweep", "--config", str(config), "--out", str(out), "--threads", threads]
    assert exit_code(argv) == 1
    rows = read_results_csv(out)
    assert [(row["seed"], row["algo"]) for row in rows] == [
        ("1", "pba"), ("1", "lb"), ("2", "pba"), ("2", "lb")]
    capsys.readouterr()
    assert exit_code(argv) == 1
    assert "5 runs requested, 4 already present, 1 to do" in capsys.readouterr().out
    assert read_results_csv(out) == rows
