import json

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
