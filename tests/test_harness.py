import json
import os

import numpy as np
import pytest

from inertial_rates import io
from inertial_rates.cli import main
from inertial_rates.config import config_from_dict, parse_config
from inertial_rates.gridrun import run_cell, run_grid, worker_count
from inertial_rates.svgplot import emit_svg

SMALL_RUN = {
    "objective": "power:gamma=2,dim=1",
    "alpha": 6.0,
    "steps": 60_000,
    "h": 1e-4,
    "stride": 10,
    "x0": [0.5],
}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# single cells and grids
# ---------------------------------------------------------------------------

def test_run_cell_writes_all_outputs(tmp_path):
    cfg = config_from_dict(SMALL_RUN)
    res = run_cell(cfg, str(tmp_path))
    assert res.error is None
    for name in ("trajectory.csv", "energy.csv", "z.csv", "verdict.json"):
        assert (tmp_path / name).exists()
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["branch"] == "sharp-subcritical"
    assert verdict["theoretical"] == pytest.approx(6.0)
    assert verdict["upper_bound"] == "proven"
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "n,t,x_0,v_0,gap"
    assert (tmp_path / "energy.csv").read_text().splitlines()[0] == "t,a,b,c,E,H,z"


def test_run_cell_byte_identical_reruns(tmp_path):
    cfg = config_from_dict(SMALL_RUN)
    run_cell(cfg, str(tmp_path / "a"))
    run_cell(cfg, str(tmp_path / "b"))
    for name in ("trajectory.csv", "energy.csv", "z.csv", "verdict.json"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)


def test_run_grid_outputs_and_isolation(tmp_path):
    doc = json.dumps({
        "grid": {"pairs": [[6, 2], [0.35, 2]]},
        "run": {"steps": 60_000, "h": 1e-4, "stride": 10},
    })
    grid = parse_config(doc)
    results = run_grid(grid, str(tmp_path))
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    assert (tmp_path / "z_overlay.svg").exists()
    by_label = {r.label: r for r in results}
    ok = by_label["alpha=6_gamma=2"]
    assert ok.error is None and ok.verdict is not None
    # the alpha=0.35 cell has a tail that decays too slowly for rate 0.35*...;
    # whatever its verdict, it must not corrupt the good cell
    assert (tmp_path / "alpha=6_gamma=2" / "verdict.json").exists()
    summary = (tmp_path / "summary.csv").read_text()
    assert "alpha=6_gamma=2" in summary and "alpha=0.35_gamma=2" in summary


def test_run_cell_short_ode_run_reports_unassessed_verdict(tmp_path):
    # simulation fine, but the horizon cannot support the tail statistics:
    # the cell keeps its files and a verdict marked not assessed
    cfg = config_from_dict({
        "objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 2000,
        "mode": "ode-rk4", "dt": 1e-3, "t0": 0.1, "x0": [0.5],
    })
    res = run_cell(cfg, str(tmp_path))
    assert res.error is None
    assert res.verdict["verdict_error"]
    assert res.verdict["passed"] is False
    assert (tmp_path / "trajectory.csv").exists()
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["fitted"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("objective, h, x0", [
    ("power:gamma=3,dim=1", 10.0, [5.0]),       # the last finite gap overflows a float
    ("power:gamma=4,dim=2", 1.0, [5.0, 0.0]),   # diverges before the first stride point
    ("power:gamma=4,dim=1", 1.0, [1e103]),      # diverges at its first step
])
def test_run_cell_reports_divergence_in_verdict(tmp_path, objective, h, x0):
    cfg = config_from_dict({
        "objective": objective, "alpha": 3.0, "steps": 1000, "h": h, "x0": x0,
        "stride": 100,
    })
    res = run_cell(cfg, str(tmp_path))
    assert res.error is not None and res.error.startswith("non-finite state at step")
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["trajectory_error"] == res.error
    assert verdict["passed"] is False
    assert (tmp_path / "trajectory.csv").exists()


def test_run_grid_marks_failed_cells(tmp_path, monkeypatch):
    # sabotage one cell through an unreadable lsq file at expansion-free level:
    # a cell whose objective file disappears between parse and run
    doc = json.dumps({
        "grid": {"pairs": [[6, 2]]},
        "run": {"steps": 10, "h": 1e-4, "stride": 5},
    })
    grid = parse_config(doc)

    import inertial_rates.gridrun as gr

    def boom(cfg, obj):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(gr.dynamics, "run", boom)
    results = run_grid(grid, str(tmp_path))
    assert results[0].error is not None and "injected" in results[0].error
    assert (tmp_path / "summary.csv").exists()


def test_grid_parallel_workers_match_serial(tmp_path, monkeypatch):
    doc = json.dumps({
        "grid": {"pairs": [[6, 2], [3, 2]], "parallelism": 2},
        "run": {"steps": 20_000, "h": 1e-4, "stride": 10},
    })
    grid = parse_config(doc)
    run_grid(grid, str(tmp_path / "par"))
    monkeypatch.setenv("INERTIAL_RATES_WORKERS", "1")
    run_grid(grid, str(tmp_path / "ser"))
    for label in ("alpha=6_gamma=2", "alpha=3_gamma=2"):
        for name in ("trajectory.csv", "verdict.json"):
            assert _read(tmp_path / "par" / label / name) == _read(
                tmp_path / "ser" / label / name
            )


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("INERTIAL_RATES_WORKERS", "3")
    assert worker_count(8) == 3
    monkeypatch.delenv("INERTIAL_RATES_WORKERS")
    assert worker_count(2) == 2
    monkeypatch.setenv("INERTIAL_RATES_WORKERS", "zero")
    with pytest.raises(ValueError):
        worker_count(2)


# ---------------------------------------------------------------------------
# csv
# ---------------------------------------------------------------------------

def test_csv_writer_blocks_match_fmt(tmp_path):
    """One row more than a block: every cell is %d or io.fmt of its value."""
    rows = io._BLOCK_ROWS + 1
    rng = np.random.default_rng(5)
    n = np.arange(rows, dtype=np.int64) * 7
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    x[:4] = [0.0, -0.0, np.inf, np.nan]
    path = tmp_path / "cols.csv"
    io._write_columns(str(path), ["n", "x", "y"], [n, x, x[::-1]])
    lines = path.read_text().split("\n")
    assert lines[0] == "n,x,y" and lines[-1] == ""
    body = lines[1:-1]
    assert len(body) == rows
    for i, line in enumerate(body):
        assert line == f"{n[i]},{io.fmt(x[i])},{io.fmt(x[rows - 1 - i])}"


# ---------------------------------------------------------------------------
# svg
# ---------------------------------------------------------------------------

def test_svg_deterministic_and_legend(tmp_path):
    t = np.logspace(0, 2, 50)
    z1 = np.ones_like(t)
    z2 = np.concatenate([np.zeros(5), np.linspace(0.2, 1.0, 45)])
    emit_svg([("flat", t, z1), ("ramp", t, z2)], str(tmp_path / "a.svg"))
    emit_svg([("flat", t, z1), ("ramp", t, z2)], str(tmp_path / "b.svg"))
    a = _read(tmp_path / "a.svg")
    assert a == _read(tmp_path / "b.svg")
    text = a.decode()
    assert "flat" in text and "ramp (first 5 records zero)" in text
    assert text.count("<polyline") == 2


def test_svg_constant_series_is_horizontal(tmp_path):
    t = np.logspace(0, 1, 20)
    emit_svg([("one", t, np.ones_like(t))], str(tmp_path / "c.svg"))
    text = _read(tmp_path / "c.svg").decode()
    pts = [p for line in text.splitlines() if "polyline" in line
           for p in line.split('points="')[1].split('"')[0].split()]
    ys = {p.split(",")[1] for p in pts}
    assert len(ys) == 1


def test_svg_requires_series(tmp_path):
    with pytest.raises(ValueError):
        emit_svg([], str(tmp_path / "x.svg"))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def test_cli_rate_prints_branch(capsys):
    assert main(["rate", "--alpha", "8", "--gamma", "3"]) == 0
    out = capsys.readouterr().out
    assert "flat-saturated" in out and "6" in out


def test_cli_probe_exit_codes(capsys):
    assert main(["probe", "--objective", "power:gamma=2,dim=1", "--h1", "2"]) == 0
    assert main(["probe", "--objective", "power:gamma=2,dim=1", "--h1", "3"]) == 1
    out = capsys.readouterr().out
    assert "violated" in out


def test_cli_probe_needs_a_hypothesis():
    assert main(["probe", "--objective", "power:gamma=2,dim=1"]) == 2


def test_cli_run_inline_flags(tmp_path, capsys):
    code = main([
        "run", "--objective", "power:gamma=2,dim=1", "--alpha", "6",
        "--steps", "60000", "--h", "1e-4", "--stride", "10",
        "--outdir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "theoretical  6" in out
    assert (tmp_path / "verdict.json").exists()


def test_cli_run_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**SMALL_RUN, "outdir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "z.csv").exists()


def test_cli_grid_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({
        "grid": {"pairs": [[6, 2]]},
        "run": {"steps": 60_000, "h": 1e-4, "stride": 10},
    }))
    code = main(["grid", "--config", str(cfg_path), "--outdir", str(tmp_path / "g")])
    out = capsys.readouterr().out
    assert code == 0
    assert "alpha=6_gamma=2" in out
    assert (tmp_path / "g" / "z_overlay.svg").exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objective": "power:gamma=2", "alpha": 6}')
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--objective", "power:gamma=2,dim=1"]) == 2
    assert main(["grid", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_cli_run_rejects_grid_config(tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"grid": {"pairs": [[6, 2]]}, "run": {"steps": 10}}')
    assert main(["run", "--config", str(p)]) == 2
    p2 = tmp_path / "r.json"
    p2.write_text(json.dumps(SMALL_RUN))
    assert main(["grid", "--config", str(p2)]) == 2
