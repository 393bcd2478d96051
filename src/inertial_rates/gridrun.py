"""Grid execution: one output directory per cell, failure isolation, and a
theoretical-vs-fitted summary across cells.

Workers recreate objectives from their config strings, so cells ship only
plain dataclasses between processes.  INERTIAL_RATES_WORKERS overrides the
configured parallelism degree.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import dynamics, io, lyapunov, rates
from .config import ExperimentConfig, GridSpec
from .objectives import ObjectiveSpec

WORKERS_ENV = "INERTIAL_RATES_WORKERS"


@dataclass
class CellResult:
    label: str
    config: ExperimentConfig
    verdict: Optional[dict]
    z: Optional[Tuple[np.ndarray, np.ndarray]]
    error: Optional[str] = None

    def summary_row(self) -> dict:
        """The verdict with label and error; write_summary picks its columns."""
        return {"label": self.label, "error": self.error, **(self.verdict or {})}


def energy_reference_point(obj: ObjectiveSpec, x0: Sequence[float]):
    """Minimizer used in the energy: the hint itself, or for an interval
    minimizer set the extremal point on the side the run starts from."""
    hint = obj.minimizer_hint
    if isinstance(hint, tuple):
        lo, hi = hint
        return hi if float(x0[0]) >= 0.0 else lo
    return hint


def default_fit_window(
    traj: dynamics.Trajectory, gamma: float
) -> Optional[Tuple[float, float]]:
    """Absolute fit window for scheme runs of sharp objectives.

    For gamma <= 2 the sqrt(h)-scale viscosity of the scheme steepens the
    measured decay past t ~ 0.05/sqrt(h); exponent fits are restricted to
    the decade before that cap.  Flat objectives and integrator runs use the
    relative default (last half of the log-time span).
    """
    if not traj.is_scheme or gamma > 2.0:
        return None
    cap = rates.scheme_fit_cap(traj.step)
    t_pos = traj.t[traj.t > 0.0]
    if len(t_pos) == 0 or cap >= float(t_pos[-1]):
        return None
    return (cap / 10.0, cap)


def run_cell(cfg: ExperimentConfig, outdir: Optional[str] = None, label: str = "cell") -> CellResult:
    """Run one experiment and write trajectory/energy/z/verdict files.

    energy.csv and z.csv use the exponent of the (alpha, gamma) rate regime,
    the one verdict.json tests; the energy uses the Lyapunov family of its
    branch (flat on the saturated branch, sharp elsewhere)."""
    out = outdir if outdir is not None else cfg.outdir
    try:
        obj = cfg.build_objective()
        traj = dynamics.run(cfg, obj)
        t_text = io.write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
        gamma = obj.nominal_gamma
        if len(traj) == 1:
            # diverged at its first step: no record with t > 0 to assess
            vdict = io.verdict_to_dict(None, cfg.objective, cfg.alpha, gamma)
            vdict["trajectory_error"] = traj.error
            io.write_json(vdict, os.path.join(out, "verdict.json"))
            return CellResult(label, cfg, vdict, None, error=traj.error)
        regime = rates.theoretical_rate(cfg.alpha, gamma)
        family = (lyapunov.REGIME_FLAT if regime.branch == rates.BRANCH_SATURATED
                  else lyapunov.REGIME_SHARP)
        params = lyapunov.select_params(cfg.alpha, gamma, family)
        x_star = energy_reference_point(obj, cfg.x0)
        table = lyapunov.energy_along(traj, params, x_star=x_star, rate=regime.exponent)
        io.write_energy_csv(table, os.path.join(out, "energy.csv"), t_text=t_text)
        zs = rates.z_sequence(traj, regime.exponent)
        io.write_z_csv(zs, os.path.join(out, "z.csv"), t_text=t_text)
        try:
            verdict = rates.verify_rate(
                traj, regime, fit_t_window=default_fit_window(traj, gamma)
            )
            vdict = io.verdict_to_dict(verdict, cfg.objective, cfg.alpha, gamma)
        except ValueError as exc:
            # simulation succeeded but cannot support a rate verdict
            # (degenerate gaps or a horizon too short for the tail tests)
            vdict = io.verdict_to_dict(None, cfg.objective, cfg.alpha, gamma)
            vdict.update(branch=regime.branch, theoretical=regime.exponent,
                         verdict_error=str(exc))
        if traj.error:
            vdict["trajectory_error"] = traj.error
        io.write_json(vdict, os.path.join(out, "verdict.json"))
        return CellResult(label, cfg, vdict, (zs.t, zs.z), error=traj.error)
    except Exception as exc:  # isolate the cell; the grid must survive
        return CellResult(label, cfg, None, None, error=f"{type(exc).__name__}: {exc}")


def _grid_worker(item):
    label, cfg, outdir = item
    return run_cell(cfg, outdir, label)


def _pool_result(future, item) -> CellResult:
    """The cell's result; a cell left unfinished by a crashed worker process
    gets a BrokenProcessPool error instead of taking the grid down."""
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
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_grid_worker, it) for it in items]
            results = [_pool_result(f, it) for f, it in zip(futures, items)]
    else:
        results = [_grid_worker(it) for it in items]
    rows = [r.summary_row() for r in results]
    io.write_summary(
        rows, os.path.join(outdir, "summary.csv"), os.path.join(outdir, "summary.txt")
    )
    series = [(r.label, r.z[0], r.z[1]) for r in results if r.z is not None]
    if series:
        from .svgplot import emit_svg

        emit_svg(series, os.path.join(outdir, "z_overlay.svg"))
    return results
