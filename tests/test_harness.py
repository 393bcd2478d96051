import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertial_rates import dynamics, gridrun, io, lyapunov, objectives, rates
from inertial_rates.cli import main
from inertial_rates.config import MAX_RECORDS, config_from_dict, parse_config
from inertial_rates.dynamics import _FACTOR_BLOCK as _BLOCK
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


CSVS = ("trajectory.csv", "energy.csv", "z.csv")


def _exported(celldir):
    """``celldir`` after export has written its CSV files."""
    assert gridrun.export(str(celldir)) == [str(celldir)]
    return celldir


# ---------------------------------------------------------------------------
# single cells and grids
# ---------------------------------------------------------------------------

def test_run_cell_writes_all_outputs(tmp_path):
    cfg = config_from_dict(SMALL_RUN)
    res = run_cell(cfg, str(tmp_path))
    assert res.error is None
    assert sorted(os.listdir(tmp_path)) == ["records.npz", "verdict.json"]
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["branch"] == "sharp-subcritical"
    assert verdict["theoretical"] == pytest.approx(6.0)
    assert verdict["upper_bound"] == "proven"
    _exported(tmp_path)
    for name in CSVS:
        assert (tmp_path / name).exists()
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "n,t,x_0,v_0,gap"
    assert (tmp_path / "energy.csv").read_text().splitlines()[0] == "t,a,b,c,E,H"


def test_run_cell_byte_identical_reruns(tmp_path):
    cfg = config_from_dict(SMALL_RUN)
    run_cell(cfg, str(tmp_path / "a"))
    run_cell(cfg, str(tmp_path / "b"))
    for name in ("records.npz", "verdict.json"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)
    _exported(tmp_path / "a")
    _exported(tmp_path / "b")
    for name in CSVS:
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
    assert (_exported(tmp_path) / "trajectory.csv").exists()
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
    assert (_exported(tmp_path) / "trajectory.csv").exists()


def test_verdict_json_has_one_key_set_and_always_the_regime(tmp_path):
    """An assessed cell, a verdict_error cell, a trajectory_error cell and a
    cell that diverged at its first step write the same verdict keys (plus
    their error notes), and each carries the regime of its (alpha, gamma)."""
    short_rk4 = {"objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 2000,
                 "mode": "ode-rk4", "dt": 1e-3, "t0": 0.1, "x0": [0.5]}
    divergent = {"alpha": 3.0, "steps": 1000, "stride": 100}
    cells = {  # name: (run, gamma, error notes)
        "assessed": (SMALL_RUN, 2.0, set()),
        "short-rk4": (short_rk4, 2.0, {"verdict_error"}),
        "overflowed-gap": (dict(divergent, objective="power:gamma=3,dim=1", h=10.0, x0=[5.0]),
                           3.0, {"verdict_error", "trajectory_error"}),
        "diverged-at-step-1": (dict(divergent, objective="power:gamma=4,dim=1", h=1.0,
                                    x0=[1e103]), 4.0, {"trajectory_error"}),
    }
    keys = set()
    for name, (run, gamma, notes) in cells.items():
        res = run_cell(config_from_dict(run), str(tmp_path / name))
        verdict = json.loads((tmp_path / name / "verdict.json").read_text())
        assert verdict == res.verdict
        assert notes <= set(verdict)
        keys.add(frozenset(set(verdict) - notes))
        reg = rates.theoretical_rate(run["alpha"], gamma)
        assert (verdict["alpha"], verdict["gamma"]) == (reg.alpha, reg.gamma)
        assert (verdict["branch"], verdict["theoretical"]) == (reg.branch, reg.exponent)
        assert verdict["upper_bound"] == ("proven" if reg.upper_bound_proven else "unproven")
        assert verdict["lower_bound"] == ("proven" if reg.lower_bound_proven else "unproven")
        assert verdict["passed"] is not bool(notes)
        assert (verdict["fitted"] is None) is bool(notes)
    assert keys == {frozenset({"objective", "alpha", "gamma", "branch", "theoretical",
                               "upper_bound", "lower_bound", *io.ASSESSED, "passed"})}


@pytest.mark.parametrize("mode", ["nesterov", "prox-nesterov", "ode-rk4"])
def test_run_cell_runs_an_lsq_file_with_one_unknown(tmp_path, mode):
    path = tmp_path / "one.csv"
    path.write_text("2,4\n1,1.5\n")
    cfg = config_from_dict({"objective": f"lsq:file={path}", "alpha": 3.0, "mode": mode,
                            "h": 1e-3, "dt": 1e-3, "t0": 0.5, "steps": 20_000, "stride": 4})
    res = run_cell(cfg, str(tmp_path / "cell"))
    assert res.error is None and res.verdict is not None
    assert (_exported(tmp_path / "cell") / "energy.csv").exists()


@pytest.mark.parametrize("run, branch, family", [
    (SMALL_RUN, "sharp-subcritical", "sharp"),
    (dict(SMALL_RUN, objective="power:gamma=4,dim=1", alpha=2.5), "flat-intermediate",
     "sharp"),
    (dict(SMALL_RUN, objective="power:gamma=3,dim=1", alpha=8.0), "flat-saturated", "flat"),
])
def test_run_cell_energy_uses_the_family_of_the_rate_branch(tmp_path, run, branch, family):
    """The exported energy.csv is the energy of the Lyapunov family of the
    rate branch verdict.json tests: flat on the saturated branch only."""
    cfg = config_from_dict(run)
    res = run_cell(cfg, str(tmp_path / "cell"))
    assert res.error is None and res.verdict["branch"] == branch
    _exported(tmp_path / "cell")
    obj = cfg.build_objective()
    traj = dynamics.run(cfg, obj)
    gamma = obj.nominal_gamma
    table = lyapunov.energy_along(
        traj, lyapunov.select_params(cfg.alpha, gamma, family),
        x_star=objectives.reference_point(obj, cfg.x0),
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
    z = (_exported(tmp_path) / "z.csv").read_text().splitlines()
    assert "nan" not in "".join(z) and z[-1].endswith(",inf")
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
                and w.filename.endswith(os.path.join("inertial_rates", "rates.py"))]


def test_run_cell_energy_of_an_overflowed_record_does_not_warn(tmp_path, recwarn):
    """The last record of this run overflowed: its energy row has (a, b, c,
    E, H) = (inf, inf, inf, nan, nan), since xi < 0 makes E inf - inf.
    Every earlier row is finite, and lyapunov.py emits no numpy warning."""
    cfg = config_from_dict({"objective": "power:gamma=4,dim=1", "alpha": 3.0,
                            "mode": "nesterov", "h": 0.5, "x0": [3.0], "steps": 100,
                            "stride": 1})
    res = run_cell(cfg, str(tmp_path))
    assert res.error.startswith("non-finite state at step")
    rows = (_exported(tmp_path) / "energy.csv").read_text().splitlines()[1:]
    *finite, last = [[float(v) for v in row.split(",")] for row in rows]
    assert finite and np.all(np.isfinite(finite))
    assert np.array_equal(last[1:], [math.inf, math.inf, math.inf, math.nan, math.nan],
                          equal_nan=True)
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
                and w.filename.endswith(os.path.join("inertial_rates", "lyapunov.py"))]


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
        for name in ("records.npz", "verdict.json"):
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
# export
# ---------------------------------------------------------------------------

EXPORT_CELLS = {
    "scheme-1d": SMALL_RUN,
    "rk4-3d": {"objective": "power:gamma=3,dim=3", "alpha": 3.0, "mode": "ode-rk4",
               "dt": 1e-2, "t0": 0.1, "steps": 2_000, "stride": 9,
               "x0": [0.5, -0.2, 0.1], "v0": [0.1, 0.0, -0.1]},
    # reaches x = 0 exactly near record 200: the rest are filled without stepping
    "prox-freezes": {"objective": "power:gamma=1.5,dim=1", "alpha": 3.0,
                     "mode": "prox-nesterov", "h": 1e-4, "steps": 50_000, "stride": 10,
                     "x0": [0.5]},
    "diverges-at-step-1": {"objective": "power:gamma=4,dim=1", "alpha": 3.0, "h": 1.0,
                           "steps": 1000, "stride": 100, "x0": [1e103]},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", list(EXPORT_CELLS))
def test_export_writes_what_the_writers_make_of_the_run(tmp_path, name):
    """export's files equal, byte for byte, the CSV writers applied to the
    in-memory run and to its energy (select_params' family, centred on
    reference_point(obj, x0)) and z (at the regime exponent); a run with one
    record gets trajectory.csv only.  records.npz keeps its bytes on a rerun."""
    cfg = config_from_dict(EXPORT_CELLS[name])
    run_cell(cfg, str(tmp_path / "cell"))
    run_cell(cfg, str(tmp_path / "again"))
    assert _read(tmp_path / "cell" / "records.npz") == _read(tmp_path / "again" / "records.npz")
    _exported(tmp_path / "cell")

    obj = cfg.build_objective()
    traj = dynamics.run(cfg, obj)
    want = tmp_path / "want"
    io.write_trajectory_csv(traj, str(want / "trajectory.csv"))
    if len(traj) > 1:
        regime = rates.theoretical_rate(cfg.alpha, obj.nominal_gamma)
        params = lyapunov.select_params(cfg.alpha, obj.nominal_gamma)
        x_star = objectives.reference_point(obj, cfg.x0)
        io.write_energy_csv(lyapunov.energy_along(traj, params, x_star=x_star),
                            str(want / "energy.csv"))
        io.write_z_csv(rates.z_sequence(traj, regime.exponent), str(want / "z.csv"))
    written = sorted(f for f in os.listdir(tmp_path / "cell") if f.endswith(".csv"))
    assert written == sorted(os.listdir(want)) == (list(CSVS[:1]) if len(traj) == 1
                                                   else sorted(CSVS))
    for f in written:
        assert _read(tmp_path / "cell" / f) == _read(want / f), f
    if name == "prox-freezes":
        assert traj.x[-1, 0] == 0.0 and np.all(traj.x[300:] == 0.0)


def test_export_of_a_grid_writes_every_cell_and_keeps_the_grid_files(tmp_path, capsys):
    doc = json.dumps({"grid": {"pairs": [[6, 2], [3, 2]]},
                      "run": {"steps": 20_000, "h": 1e-4, "stride": 10}})
    run_grid(parse_config(doc), str(tmp_path))
    grid_files = {f: _read(tmp_path / f) for f in ("summary.csv", "summary.txt", "z_overlay.svg")}
    assert main(["export", str(tmp_path)]) == 0
    labels = ["alpha=3_gamma=2", "alpha=6_gamma=2"]
    assert capsys.readouterr().out.split() == [w for lab in labels
                                               for w in ("exported", str(tmp_path / lab))]
    for label in labels:
        assert sorted(os.listdir(tmp_path / label)) == sorted(
            [*CSVS, "records.npz", "verdict.json"])
    assert {f: _read(tmp_path / f) for f in grid_files} == grid_files


def test_export_exits_2_without_records_or_on_a_file_that_does_not_load(tmp_path, capsys):
    assert main(["export", str(tmp_path)]) == 2
    assert main(["export", str(tmp_path / "missing")]) == 2
    cell = tmp_path / "cell"
    run_cell(config_from_dict(SMALL_RUN), str(cell))
    good = _read(cell / "records.npz")
    for name, text in (("records.npz", b"not an npz"), ("records.npz", good[:1000]),
                       ("verdict.json", b"{"), ("verdict.json", b"{}"),
                       ("verdict.json", b'{"objective": "x", "alpha": null, "gamma": 2}')):
        saved = _read(cell / name)
        (cell / name).write_bytes(text)
        assert main(["export", str(cell)]) == 2
        (cell / name).write_bytes(saved)
    (cell / "verdict.json").unlink()
    assert main(["export", str(tmp_path)]) == 2
    assert "cannot load cell" in capsys.readouterr().err
    assert not list(cell.glob("*.csv"))


def test_export_exits_2_when_verdict_and_records_disagree_on_alpha(tmp_path, capsys):
    """The regime of an export, and so the exponent of z.csv and the
    Lyapunov parameters of energy.csv, comes from verdict.json: one whose
    alpha is not the alpha of records.npz does not load."""
    cell = tmp_path / "cell"
    run_cell(config_from_dict(SMALL_RUN), str(cell))  # alpha 6
    verdict = json.loads((cell / "verdict.json").read_text())
    for alpha in (2.0, 6.000000000000001, "6"):
        (cell / "verdict.json").write_text(json.dumps({**verdict, "alpha": alpha}))
        with pytest.raises(ValueError, match="cannot load cell .*alpha"):
            io.read_cell(str(cell))
        assert main(["export", str(cell)]) == 2
        assert "cannot load cell" in capsys.readouterr().err
        assert not list(cell.glob("*.csv"))
    (cell / "verdict.json").write_text(json.dumps(verdict))
    assert main(["export", str(cell)]) == 0


ROUND_TRIP_CELLS = {
    **{k: EXPORT_CELLS[k] for k in ("scheme-1d", "prox-freezes", "diverges-at-step-1")},
    "rk4-3d-clamped-t0": dict(EXPORT_CELLS["rk4-3d"], t0=1e-3),  # starts at dt = 1e-2
    "diverges-mid-run": {"objective": "power:gamma=3,dim=1", "alpha": 3.0, "h": 10.0,
                         "steps": 1000, "stride": 2, "x0": [5.0]},
    # runs at rest, whose records.npz ends at the first filled record
    "prox-rests-off-stride": dict(EXPORT_CELLS["prox-freezes"], steps=50_003),
    "prox-rests-3d": {"objective": "power:gamma=1.5,dim=3", "alpha": 3.0,
                      "mode": "prox-nesterov", "h": 1e-4, "steps": 50_003, "stride": 10,
                      "x0": [0.5, -0.2, 0.1]},
    "x2-underflows-to-rest": {"objective": "power:gamma=2,dim=1", "alpha": 3.0, "h": 0.3,
                              "steps": 50_000, "stride": 7, "x0": [0.5]},
    # at rest from step _BLOCK on (see test_interval_loop_freezes_inside_and_at_the_end_of_a_block)
    "rests-at-a-block-boundary": {"objective": "power:gamma=1,dim=1", "alpha": 3.0,
                                  "mode": "prox-nesterov", "h": 9.235e-7, "steps": 9000,
                                  "stride": _BLOCK, "x0": [0.1]},
}
RESTING_CELLS = ("prox-freezes", "prox-rests-off-stride", "prox-rests-3d",
                 "x2-underflows-to-rest", "rests-at-a-block-boundary")
MEMBERS = ["n", "x", "v", "gap", "mode", "alpha", "step", "t0", "error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", list(ROUND_TRIP_CELLS))
def test_read_cell_gives_back_the_run(tmp_path, name):
    """records.npz holds n, x, v, gap and the run fields, and read_cell
    rebuilds the Trajectory of the run from it bit for bit, t and
    first_filled included; verify_rate on the loaded Trajectory writes the
    cell's verdict.json.  Only the runs at rest have a first filled record,
    and their records.npz stores the records up to it and the member tail,
    no filled record after it."""
    cfg = config_from_dict(ROUND_TRIP_CELLS[name])
    run_cell(cfg, str(tmp_path))
    obj = cfg.build_objective()
    traj = dynamics.run(cfg, obj)
    rests = name in RESTING_CELLS
    assert (traj.first_filled is not None) == rests
    with np.load(tmp_path / "records.npz", allow_pickle=False) as npz:
        assert npz.files == MEMBERS + ["tail"] * rests
        stored = traj.first_filled + 1 if rests else len(traj)
        assert len(npz["n"]) == len(npz["x"]) == stored
    if rests:
        assert stored < len(traj)
        assert np.all(traj.x[stored:] == traj.x[stored - 1]) and np.all(traj.v[stored - 1:] == 0.0)
    if name == "rests-at-a-block-boundary":
        assert list(traj.n) == [0, _BLOCK, 2 * _BLOCK, 9000] and traj.first_filled == 2
    loaded, objective, regime = io.read_cell(str(tmp_path))
    for field in dataclasses.fields(dynamics.Trajectory):
        want, got = getattr(traj, field.name), getattr(loaded, field.name)
        assert type(got) is type(want), field.name
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), field.name
        else:
            assert got == want, field.name
    assert (objective, regime) == (cfg.objective, rates.theoretical_rate(cfg.alpha,
                                                                         obj.nominal_gamma))
    assert (traj.error is not None) == name.startswith("diverges")
    if name.startswith("diverges"):
        assert len(traj) == {"diverges-at-step-1": 1, "diverges-mid-run": 5}[name]
    if name == "rk4-3d-clamped-t0":
        assert traj.t0 == cfg.dt > cfg.t0

    verdict, notes = None, {}
    if len(loaded) > 1:
        try:
            zs = rates.z_sequence(loaded, regime.exponent)
            verdict = rates.verify_rate(loaded, regime, zs)
        except ValueError as exc:
            notes["verdict_error"] = str(exc)
    if loaded.error:
        notes["trajectory_error"] = loaded.error
    io.write_json({**io.verdict_to_dict(objective, regime, verdict), **notes},
                  str(tmp_path / "again.json"))
    assert _read(tmp_path / "again.json") == _read(tmp_path / "verdict.json")
    if not loaded.is_scheme:
        params = lyapunov.select_params(cfg.alpha, obj.nominal_gamma)
        assert (lyapunov.check_Hprime_closed_form(loaded, params, x_star=np.zeros(3))
                == lyapunov.check_Hprime_closed_form(traj, params, x_star=np.zeros(3)))


def _malformed(npz):
    """(name, members) pairs: the members of a good records.npz of a scheme
    run at rest with one changed to what no run writes, or removed, or with
    mode ode-rk4 and a t0 no RK4 run starts at (below its step), or with
    mode ode-rk4 and a valid t0 but the tail of a run at rest, which no RK4
    run writes; a file without tail is a run that never rests."""
    m = dict(npz)
    first, stride, last = m["tail"].tolist()
    tails = ([first + stride, stride, last], [m["n"][-2], stride, last], [first, 0, last],
             [first, -stride, last], [first, stride, first - 1],
             [first, 1, first + MAX_RECORDS])
    yield from ((k, dict(m, **{k: v})) for k, v in (
        ("x", m["x"].ravel()), ("x", m["x"][:-1]), ("v", np.repeat(m["v"], 2, axis=1)),
        ("x", m["x"][:, :0]), ("gap", m["gap"][1:]), ("gap", m["gap"][:, None]),
        ("n", m["n"].astype(float)), ("n", m["n"].astype(np.int32)), ("n", m["n"][:0]),
        ("x", m["x"].astype(np.float32)), ("mode", "gradient"), ("mode", np.float64(1.0)),
        ("alpha", 0.0), ("alpha", -1.0), ("alpha", math.nan), ("alpha", "3"),
        ("step", 0.0), ("step", -1e-4), ("step", math.inf), ("step", np.array([1e-4])),
        ("t0", math.nan), ("t0", -math.inf), ("t0", 5.0), ("t0", -3.0),
        ("error", None), ("error", 0.0),
        ("tail", m["tail"].astype(float)), ("tail", m["tail"].astype(np.int32)),
        ("tail", m["tail"][:2]), ("tail", m["tail"][None]),
        *(("tail", np.array(t, dtype=np.int64)) for t in tails),
    ))
    yield from ((f"no {k}", {j: v for j, v in m.items() if j != k}) for k in m if k != "tail")
    yield from ((f"ode-rk4 at t0 {t0}", dict(m, mode="ode-rk4", t0=t0))
                for t0 in (-1.0, 0.0, float(m["step"]) / 2))
    yield "ode-rk4 with a tail", dict(m, mode="ode-rk4", t0=float(m["step"]))


def test_export_exits_2_on_a_malformed_records_file_and_writes_nothing(tmp_path, capsys):
    """A records.npz member of the wrong dtype or shape, a run field with a
    value no run has (a mode not in MODES, alpha or step not finite and
    positive, t0 not the start time of its mode: 0 for the scheme, at least
    the step for RK4), a tail in an RK4 file, or a tail that does not
    continue the stored records (its first n not the last stored n,
    stride < 1, last n below first n, more than MAX_RECORDS records) is a
    ValueError of read_cell: export exits 2 and writes no CSV for the cell."""
    cell = tmp_path / "cell"
    run_cell(config_from_dict(ROUND_TRIP_CELLS["prox-rests-off-stride"]), str(cell))
    with np.load(cell / "records.npz", allow_pickle=False) as npz:
        cases = list(_malformed(npz))
    assert len(cases) == 49
    for name, members in cases:
        np.savez(cell / "records.npz", **members)
        with pytest.raises(ValueError, match="cannot load cell"):
            io.read_cell(str(cell))
        assert main(["export", str(cell)]) == 2, name
        assert "cannot load cell" in capsys.readouterr().err
        assert not list(cell.glob("*.csv")), name


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


@pytest.mark.parametrize("change", ["one bit", "longer", "-0.0", "empty"])
def test_writers_format_t_when_it_is_not_a_suffix(tmp_path, change):
    """The z writer formats its own t, also where it is not the tail of a
    trajectory's t: one bit off, a record more, -0.0 for 0.0, or no rows."""
    t = np.arange(io._BLOCK_ROWS + 2) * 0.1
    own = t[1:].copy()
    if change == "one bit":
        own[-7] = np.nextafter(own[-7], np.inf)
    elif change == "longer":
        own = np.concatenate([[0.05], t])
    elif change == "-0.0":
        own = np.concatenate([[-0.0], t[1:]])
    else:
        own = t[:0]
    zs = ZSeries(own, np.zeros(len(own)), 1.0, 1.0)
    io.write_z_csv(zs, str(tmp_path / "z.csv"))
    _assert_same_lines((tmp_path / "z.csv").read_text(), _plain_csv(["t", "z"], [zs.t, zs.z]))


@pytest.mark.parametrize("run, offset", [
    (dict(SMALL_RUN, mode="prox-nesterov", objective="power:gamma=1.5,dim=1", steps=50_000,
          stride=7), 1),
    (dict(SMALL_RUN, mode="ode-rk4", objective="power:gamma=3,dim=2", x0=[0.5, -0.2],
          steps=5_000, dt=1e-2, stride=9), 0),
])
def test_run_cell_shares_t_and_writes_the_same_files(tmp_path, run, offset):
    """read_cell rebuilds the run's t column bit for bit from records.npz,
    which holds no t; the exported z.csv takes its t text at the run's
    offset (a scheme run drops its t = 0 record: offset 1, an ODE run:
    offset 0), and every exported file equals the one its writer makes of
    the in-memory run."""
    cfg = config_from_dict(run)
    res = run_cell(cfg, str(tmp_path / "cell"))
    assert res.error is None
    cell = _exported(tmp_path / "cell")

    obj = cfg.build_objective()
    traj = dynamics.run(cfg, obj)
    with np.load(cell / "records.npz", allow_pickle=False) as npz:
        assert "t" not in npz.files
    assert io.read_cell(str(cell))[0].t.tobytes() == traj.t.tobytes()
    traj_t = [row.split(",")[1] for row in (cell / "trajectory.csv").read_text().splitlines()[1:]]
    z_t = [row.split(",")[0] for row in (cell / "z.csv").read_text().splitlines()[1:]]
    assert z_t == traj_t[offset:]

    regime = rates.theoretical_rate(cfg.alpha, obj.nominal_gamma)
    params = lyapunov.select_params(cfg.alpha, obj.nominal_gamma)
    x_star = objectives.reference_point(obj, cfg.x0)
    io.write_trajectory_csv(traj, str(tmp_path / "trajectory.csv"))
    io.write_energy_csv(lyapunov.energy_along(traj, params, x_star=x_star),
                        str(tmp_path / "energy.csv"))
    io.write_z_csv(rates.z_sequence(traj, regime.exponent), str(tmp_path / "z.csv"))
    for name in CSVS:
        assert _read(tmp_path / name) == _read(cell / name)


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

def test_cli_run_prints_n_a_for_tests_it_did_not_assess(tmp_path, capsys):
    """A cell whose verdict is not assessed (its plateau gaps reach 0, so
    the fit window holds too few positive gaps) prints n/a, not FAIL, for
    both z tests, and exits 1."""
    assert main(["run", "--objective", "plateau:gamma=2,a=1", "--alpha", "3", "--mode",
                 "nesterov", "--h", "1e-4", "--stride", "50", "--steps", "100000", "--x0", "2",
                 "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "boundedness  n/a\n" in out and "nonvanishing n/a\n" in out
    assert "FAIL" not in out and "not assessed" in err


def test_cli_rate_prints_branch(capsys):
    assert main(["rate", "--alpha", "8", "--gamma", "3"]) == 0
    out = capsys.readouterr().out
    assert "flat-saturated" in out and "6" in out


@pytest.mark.parametrize("alpha, gamma, upper, lower", [
    (6.0, 2.0, "proven", "proven"),      # sharp-subcritical, gamma <= 2
    (1.5, 3.0, "proven", "unproven"),    # sharp-subcritical, alpha <= 1 + 2/gamma
    (3.0, 3.0, "unproven", "proven"),    # flat-intermediate
    (8.0, 3.0, "proven", "proven"),      # flat-saturated
])
def test_rate_command_and_verdict_json_print_the_regime_bounds(capsys, alpha, gamma,
                                                              upper, lower):
    regime = rates.theoretical_rate(alpha, gamma)
    assert regime.bounds() == {"upper_bound": upper, "lower_bound": lower}
    assert main(["rate", "--alpha", str(alpha), "--gamma", str(gamma)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [f"upper bound {upper}",
                                                         f"lower bound {lower}"]
    verdict = io.verdict_to_dict("power:gamma=3,dim=1", regime, None)
    assert (verdict["upper_bound"], verdict["lower_bound"]) == (upper, lower)


def test_cli_probe_exit_codes(capsys):
    assert main(["probe", "--objective", "power:gamma=2,dim=1", "--h1", "2"]) == 0
    assert main(["probe", "--objective", "power:gamma=2,dim=1", "--h1", "3"]) == 1
    out = capsys.readouterr().out
    assert "violated" in out


def test_cli_probe_on_an_lsq_file_with_one_unknown(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("2,4\n1,1.5\n")
    assert main(["probe", "--objective", f"lsq:file={path}", "--h1", "2", "--h2", "2",
                 "--K", "0.1"]) == 0


def test_cli_probe_rejects_a_centre_of_the_wrong_dimension(capsys):
    assert main(["probe", "--objective", "power:gamma=3,dim=1", "--h1", "3",
                 "--x-star", "0.1,5"]) == 2
    assert "dimension 1" in capsys.readouterr().err


def test_cli_probe_needs_a_hypothesis():
    assert main(["probe", "--objective", "power:gamma=2,dim=1"]) == 2


@pytest.mark.parametrize("flags", [
    ["--h1", "3", "--radius", "nan"],
    ["--h2", "3", "--K", "nan"],
    ["--h1", "nan"],
    ["--h2", "nan"],
    ["--h1", "3", "--x-star", "nan"],
    ["--h1", "3", "--radius", "inf"],
    ["--h1", "0"],  # the margin divides by gamma
])
def test_cli_probe_rejects_non_finite_numbers_and_gamma_0(flags, capsys):
    assert main(["probe", "--objective", "power:gamma=3,dim=1", *flags]) == 2
    assert "holds" not in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_cli_rate_rejects_non_finite_numbers(alpha, capsys):
    assert main(["rate", "--alpha", alpha, "--gamma", "3"]) == 2
    assert "branch" not in capsys.readouterr().out


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
    assert (tmp_path / "out" / "records.npz").exists()
    assert main(["export", str(tmp_path / "out")]) == 0
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
