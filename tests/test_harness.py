import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertial_rates import dynamics, gridrun, io, lyapunov, rates
from inertial_rates.cli import main
from inertial_rates.config import config_from_dict, parse_config
from inertial_rates.gridrun import run_cell, run_grid, worker_count
from inertial_rates.rates import ZSeries
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


@pytest.mark.parametrize("run, branch, family", [
    (SMALL_RUN, "sharp-subcritical", "sharp"),
    (dict(SMALL_RUN, objective="power:gamma=4,dim=1", alpha=2.5), "flat-intermediate",
     "sharp"),
    (dict(SMALL_RUN, objective="power:gamma=3,dim=1", alpha=8.0), "flat-saturated", "flat"),
])
def test_run_cell_energy_uses_the_family_of_the_rate_branch(tmp_path, run, branch, family):
    """energy.csv is the energy of the regime's Lyapunov family at the regime's
    exponent, the one verdict.json tests: flat on the saturated branch only."""
    cfg = config_from_dict(run)
    res = run_cell(cfg, str(tmp_path / "cell"))
    assert res.error is None and res.verdict["branch"] == branch
    obj = cfg.build_objective()
    traj = dynamics.run(cfg, obj)
    gamma = obj.nominal_gamma
    table = lyapunov.energy_along(
        traj, lyapunov.select_params(cfg.alpha, gamma, family),
        x_star=gridrun.energy_reference_point(obj, cfg.x0),
        rate=rates.theoretical_rate(cfg.alpha, gamma).exponent,
    )
    io.write_energy_csv(table, str(tmp_path / "energy.csv"))
    assert _read(tmp_path / "energy.csv") == _read(tmp_path / "cell" / "energy.csv")


def test_run_cell_writes_no_nan_z_when_a_gap_overflows(tmp_path, recwarn):
    cfg = config_from_dict({"objective": "power:gamma=4,dim=1", "alpha": 3.0,
                            "mode": "nesterov", "h": 0.5, "x0": [3.0], "steps": 100,
                            "stride": 1})
    res = run_cell(cfg, str(tmp_path))
    assert res.error.startswith("non-finite state at step")
    assert "a gap overflowed" in res.verdict["verdict_error"]
    z = (tmp_path / "z.csv").read_text().splitlines()
    assert "nan" not in "".join(z) and z[-1].endswith(",inf")
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
                and w.filename.endswith(os.path.join("inertial_rates", "rates.py"))]


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


def test_pool_is_bounded_by_the_cell_count(tmp_path, monkeypatch):
    """A 2-cell grid at parallelism 6 starts 2 worker processes, not 6."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            started.append(len(self._processes))
            super().shutdown(*args, **kwargs)

    monkeypatch.delenv("INERTIAL_RATES_WORKERS", raising=False)
    monkeypatch.setattr(gridrun, "ProcessPoolExecutor", CountingPool)
    doc = json.dumps({
        "grid": {"pairs": [[6, 2], [3, 2]], "parallelism": 6},
        "run": {"steps": 2_000, "h": 1e-4, "stride": 10},
    })
    results = run_grid(parse_config(doc), str(tmp_path))
    assert started == [2]
    assert [r.error for r in results] == [None, None]


def _crash_in(label, real_run_cell, outdir):
    """run_cell, except that the cell ``label`` kills its worker process once
    every other cell's verdict.json is on disk (plus a margin for their
    results to reach the parent)."""

    def run_cell(cfg, out=None, lab="cell"):
        if lab != label:
            return real_run_cell(cfg, out, lab)
        others = [d for d in os.listdir(outdir) if d != label]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not all(
            os.path.exists(os.path.join(outdir, d, "verdict.json")) for d in others
        ):
            time.sleep(0.01)
        time.sleep(0.5)
        os._exit(1)

    return run_cell


def test_grid_survives_a_worker_crash(tmp_path, monkeypatch):
    """A worker process that dies (not an exception inside a cell) breaks the
    pool; the grid still writes its summary and the overlay of the finished
    cells, and the unfinished cells say why."""
    monkeypatch.delenv("INERTIAL_RATES_WORKERS", raising=False)
    doc = json.dumps({
        "grid": {"pairs": [[6, 2], [3, 2], [5, 2]], "parallelism": 2},
        "run": {"steps": 20_000, "h": 1e-4, "stride": 10},
    })
    grid = parse_config(doc)
    labels = [label for label, _ in grid.cells()]
    for label in labels:  # the crashing cell waits for these directories
        (tmp_path / label).mkdir()
    crash = labels[-1]
    monkeypatch.setattr(gridrun, "run_cell", _crash_in(crash, gridrun.run_cell, str(tmp_path)))
    results = run_grid(grid, str(tmp_path))

    assert [r.label for r in results] == labels
    by_label = {r.label: r for r in results}
    assert by_label[crash].error.startswith("BrokenProcessPool: ")
    assert by_label[crash].verdict is None
    for label in labels[:-1]:
        assert by_label[label].error is None and by_label[label].verdict["passed"]
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + len(labels)
    assert summary[-1].startswith(crash + ",") and "BrokenProcessPool" in summary[-1]
    assert (tmp_path / "summary.txt").exists()
    svg = (tmp_path / "z_overlay.svg").read_text()
    assert all(label in svg for label in labels[:-1]) and crash not in svg


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


def _plain_csv(header, columns):
    """The reference text: every cell formatted on its own, %d or io.fmt."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(
            "%d" % c[i] if c.dtype.kind in "iu" else io.fmt(float(c[i])) for c in columns
        ))
    return "\n".join(lines) + "\n"


def _assert_same_lines(got, want):
    """Equal texts, reporting only the first line that differs (pytest's own
    diff of two 4k-line texts takes minutes)."""
    g, w = got.split("\n"), want.split("\n")
    first = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), None)
    assert first is None, f"line {first}: {g[first]!r} != {w[first]!r}"
    assert len(g) == len(w)


_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, _NAN_PAYLOAD,
            5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.sampled_from([io._BLOCK_ROWS - 1, io._BLOCK_ROWS, io._BLOCK_ROWS + 1])
    | st.integers(1, 40),
    palette=st.lists(st.sampled_from(_SPECIAL) | st.floats(allow_subnormal=True),
                     min_size=1, max_size=6),
    max_run=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_columns_matches_per_cell_format(tmp_path_factory, rows, palette, max_run, seed):
    """Columns of repeated values (runs of up to max_run equal rows, and the
    same value in separate runs), 0.0 beside -0.0, inf, nan with payloads and
    subnormals, as contiguous, reversed and strided views, around one
    block."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(palette), size=rows)
    x = np.repeat(np.array(palette)[picks], rng.integers(1, max_run + 1, size=rows))[:rows]
    zeros = np.where(rng.random(rows) < 0.5, 0.0, -0.0)
    table = np.stack([rng.standard_normal(rows), x], axis=1)
    columns = [np.arange(rows, dtype=np.int64) * 3, x, x[::-1], table[:, 0], table[::-1, 1],
               zeros]
    header = ["n", "x", "rev", "noise", "strided", "zeros"]
    path = tmp_path_factory.mktemp("cols") / "cols.csv"
    io._write_columns(str(path), header, columns)
    _assert_same_lines(path.read_text(), _plain_csv(header, columns))


def _marked(values):
    """A ColumnText whose cells name their row, to see which rows a writer
    takes from it."""
    marks = [f"row{i}" for i in range(len(values))]
    blocks = range(0, len(values), io._BLOCK_ROWS)
    return io.ColumnText(values, ["\n".join(marks[lo:lo + io._BLOCK_ROWS]) for lo in blocks])


@pytest.mark.parametrize("rows", [1, io._BLOCK_ROWS - 1, io._BLOCK_ROWS, io._BLOCK_ROWS + 1,
                                  2 * io._BLOCK_ROWS + 1])
@pytest.mark.parametrize("offset", [0, 1, io._BLOCK_ROWS + 2])
def test_z_writer_reuses_the_t_text_at_its_offset(tmp_path, rows, offset):
    """offset 1 is a scheme run (its t = 0 record is dropped), offset 0 an
    ODE run; a suffix that starts past the first block works too."""
    t = np.arange(rows + offset) * 0.1 + (0.0 if offset else 0.5)
    zs = ZSeries(t[offset:].copy(), np.full(rows, 0.25), 1.0, 1.0)
    io.write_z_csv(zs, str(tmp_path / "z.csv"), t_text=_marked(t))
    want = ["t,z"] + [f"row{i + offset},0.25" for i in range(rows)] + [""]
    _assert_same_lines((tmp_path / "z.csv").read_text(), "\n".join(want))


@pytest.mark.parametrize("change", ["one bit", "longer", "-0.0", "empty"])
def test_writers_format_t_when_it_is_not_a_suffix(tmp_path, change):
    t = np.arange(io._BLOCK_ROWS + 2) * 0.1
    own = t[1:].copy()
    if change == "one bit":
        own[-7] = np.nextafter(own[-7], np.inf)
    elif change == "longer":
        own = np.concatenate([[0.05], t])
    elif change == "-0.0":
        t[0], own = 0.0, np.concatenate([[-0.0], t[1:]])
    else:
        own = t[:0]
    zs = ZSeries(own, np.zeros(len(own)), 1.0, 1.0)
    io.write_z_csv(zs, str(tmp_path / "z.csv"), t_text=_marked(t))
    _assert_same_lines((tmp_path / "z.csv").read_text(), _plain_csv(["t", "z"], [zs.t, zs.z]))


@pytest.mark.parametrize("run, offset", [
    (dict(SMALL_RUN, mode="prox-nesterov", objective="power:gamma=1.5,dim=1", steps=50_000,
          stride=7), 1),
    (dict(SMALL_RUN, mode="ode-rk4", objective="power:gamma=3,dim=2", x0=[0.5, -0.2],
          steps=5_000, dt=1e-2, stride=9), 0),
])
def test_run_cell_shares_t_and_writes_the_same_files(tmp_path, monkeypatch, run, offset):
    """run_cell hands the trajectory's t text to the energy and z writers
    (a scheme run at offset 1, an ODE run at offset 0); every file equals the
    one its writer makes alone, formatting its own t."""
    shared = []
    suffix_of = io._suffix_of

    def spy(text, values):
        col, off = suffix_of(text, values)
        shared.append((isinstance(col, io.ColumnText), off))
        return col, off

    monkeypatch.setattr(io, "_suffix_of", spy)
    cfg = config_from_dict(run)
    res = run_cell(cfg, str(tmp_path / "cell"))
    assert res.error is None
    assert shared == [(True, offset), (True, offset)]

    obj = cfg.build_objective()
    traj = dynamics.run(cfg, obj)
    regime = rates.theoretical_rate(cfg.alpha, obj.nominal_gamma)
    rate = regime.exponent
    family = "flat" if regime.branch == rates.BRANCH_SATURATED else "sharp"
    params = lyapunov.select_params(cfg.alpha, obj.nominal_gamma, family)
    x_star = gridrun.energy_reference_point(obj, cfg.x0)
    io.write_trajectory_csv(traj, str(tmp_path / "trajectory.csv"))
    io.write_energy_csv(lyapunov.energy_along(traj, params, x_star=x_star, rate=rate),
                        str(tmp_path / "energy.csv"))
    io.write_z_csv(rates.z_sequence(traj, rate), str(tmp_path / "z.csv"))
    for name in ("trajectory.csv", "energy.csv", "z.csv"):
        assert _read(tmp_path / name) == _read(tmp_path / "cell" / name)


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
