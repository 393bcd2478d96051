"""Grid execution: one output directory per cell, failure isolation, a
theoretical-vs-fitted summary across cells, and the CSV export of run and
grid directories.

Workers recreate objectives from their config strings, so cells ship only
plain dataclasses between processes.  INERTIAL_RATES_WORKERS overrides the
configured parallelism degree.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from . import dynamics, io, rates
from .config import ExperimentConfig, GridSpec
from .objectives import parse_objective, reference_point

if TYPE_CHECKING:  # an annotation only; io loads numpy for a run
    import numpy as np

WORKERS_ENV = "INERTIAL_RATES_WORKERS"


@dataclass
class CellResult:
    label: str
    config: ExperimentConfig
    verdict: Optional[dict]
    z: Optional[Tuple[np.ndarray, np.ndarray]]  # (t, z) of the records the run holds
    error: Optional[str] = None
    rest: Optional[dynamics.Trajectory] = None  # a run at rest, for z_points

    def z_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """(t, z) of every record: a run at rest gets its filled ones built."""
        if self.rest is None:
            return self.z
        zs = rates.z_sequence(self.rest.expanded(), self.verdict["theoretical"])
        return zs.t, zs.z

    def summary_row(self) -> dict:
        """The verdict with label and error: the cell's error, else the
        verdict_error of a cell not assessed; write_summary picks its
        columns."""
        verdict = self.verdict or {}
        return {"label": self.label, **verdict,
                "error": self.error or verdict.get("verdict_error")}


def run_cell(cfg: ExperimentConfig, outdir: Optional[str] = None, label: str = "cell") -> CellResult:
    """Run one experiment and write records.npz and verdict.json.

    verdict.json always carries the (alpha, gamma) rate regime; the verdict
    starts not assessed.  A run with more than one record also gets its z
    sequence, at the regime's exponent, and its verify_rate verdict, or a
    verdict_error when the records cannot support one.  export_cell turns
    the two files into CSV."""
    out = outdir if outdir is not None else cfg.outdir
    try:
        obj = cfg.build_objective()
        regime = rates.theoretical_rate(cfg.alpha, obj.nominal_gamma)
        traj = dynamics.run(cfg, obj)
        io.write_records(traj, os.path.join(out, "records.npz"))
        verdict, notes, z = None, {}, None
        if len(traj) > 1:  # else it diverged at its first step: no record with t > 0
            zs = rates.z_sequence(traj, regime.exponent)
            z = (zs.t, zs.z)
            try:
                verdict = rates.verify_rate(traj, regime, zs)
            except ValueError as exc:
                # simulation succeeded but cannot support a rate verdict
                # (degenerate gaps or a horizon too short for the tail tests)
                notes["verdict_error"] = str(exc)
        if traj.error:
            notes["trajectory_error"] = traj.error
        vdict = {**io.verdict_to_dict(cfg.objective, regime, verdict), **notes}
        io.write_json(vdict, os.path.join(out, "verdict.json"))
        return CellResult(label, cfg, vdict, z, error=traj.error,
                          rest=None if traj.first_filled is None else traj)
    except Exception as exc:  # isolate the cell; the grid must survive
        return CellResult(label, cfg, None, None, error=f"{type(exc).__name__}: {exc}")


def export_cell(celldir: str) -> None:
    """Write trajectory.csv, and for a run with more than one record
    energy.csv and z.csv, from the cell's records.npz (every record) and verdict.json.

    z is taken at the regime exponent of verdict.json's (alpha, gamma); the
    energy uses select_params' default Lyapunov family for that regime,
    centred on reference_point(obj, x0)."""
    from . import lyapunov  # only the export computes energies

    traj, objective, regime = io.read_cell(celldir)
    traj = traj.expanded()
    io.write_trajectory_csv(traj, os.path.join(celldir, "trajectory.csv"))
    if len(traj) > 1:
        params = lyapunov.select_params(regime.alpha, regime.gamma)
        x_star = reference_point(parse_objective(objective), traj.x[0])
        io.write_energy_csv(lyapunov.energy_along(traj, params, x_star=x_star),
                            os.path.join(celldir, "energy.csv"))
        io.write_z_csv(rates.z_sequence(traj, regime.exponent), os.path.join(celldir, "z.csv"))


def export(path: str) -> list:
    """export_cell on each cell directory (one holding records.npz) among
    ``path``, a run's directory, and its subdirectories, a grid's cells;
    returns them.  ValueError when there is none or a cell does not load."""
    cells = [d for d in (path, *sorted(os.path.join(path, e) for e in os.listdir(path)))
             if os.path.isfile(os.path.join(d, "records.npz"))]
    if not cells:
        raise ValueError(f"no records.npz in {path} or its subdirectories")
    for cell in cells:
        export_cell(cell)
    return cells


def _grid_worker(item):
    label, cfg, outdir = item
    return run_cell(cfg, outdir, label)


def _pool_result(future, item) -> CellResult:
    """The cell's result; a cell left unfinished by a crashed worker process
    gets a BrokenProcessPool error instead of taking the grid down."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool as exc:
        label, cfg, _ = item
        return CellResult(label, cfg, None, None, error=f"BrokenProcessPool: {exc}")


def worker_count(requested: int) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}")
    return max(1, requested)


def run_grid(grid: GridSpec, outdir: str = "out") -> list:
    """Execute every cell, then assemble summary table and z overlay."""
    cells = grid.cells()
    items = [(label, cfg, os.path.join(outdir, label)) for label, cfg in cells]
    n_workers = min(worker_count(grid.parallelism), len(items))
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial grid needs no pool

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_grid_worker, it) for it in items]
            results = [_pool_result(f, it) for f, it in zip(futures, items)]
    else:
        results = [_grid_worker(it) for it in items]
    rows = [r.summary_row() for r in results]
    io.write_summary(
        rows, os.path.join(outdir, "summary.csv"), os.path.join(outdir, "summary.txt")
    )
    series = [(r.label, *r.z_points()) for r in results if r.z is not None]
    if series:
        from .svgplot import emit_svg

        emit_svg(series, os.path.join(outdir, "z_overlay.svg"))
    return results
