"""Deterministic file output: trajectory / energy / z CSV files, verdict
JSON, and grid summaries.  Identical inputs produce byte-identical files.
"""
from __future__ import annotations

import json
import os
from typing import Optional, Sequence

import numpy as np

from .dynamics import Trajectory
from .lyapunov import EnergyTable
from .rates import RateVerdict, ZSeries


def fmt(x: float) -> str:
    """Decimal float with 17 significant digits (round-trip exact)."""
    return f"{x:.17g}"


def _open_text(path: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path: str, text: str) -> None:
    with _open_text(path) as fh:
        fh.write(text)


# Rows formatted per write: one string for a whole 2e5-row file would add tens
# of MB to the peak memory of a run.
_BLOCK_ROWS = 4096


def _write_columns(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """CSV of equal-length 1-D columns: integer columns as %d, float columns
    as %.17g (the same text as fmt), written in blocks of _BLOCK_ROWS rows."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with _open_text(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = zip(*(c[lo:lo + _BLOCK_ROWS].tolist() for c in columns))
            fh.write("".join([row % r for r in block]))


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    d = range(traj.dim)
    header = ["n", "t", *(f"x_{i}" for i in d), *(f"v_{i}" for i in d), "gap"]
    _write_columns(path, header, [traj.n, traj.t, *traj.x.T, *traj.v.T, traj.gap])


def write_energy_csv(table: EnergyTable, path: str) -> None:
    _write_columns(
        path, "t,a,b,c,E,H,z".split(","),
        [table.t, table.a, table.b, table.c, table.E, table.H, table.z],
    )


def write_z_csv(zs: ZSeries, path: str) -> None:
    _write_columns(path, ["t", "z"], [zs.t, zs.z])


def verdict_to_dict(
    verdict: Optional[RateVerdict], objective: str, alpha: float, gamma: float
) -> dict:
    """Flatten a verdict for JSON; None yields a not-assessed skeleton."""
    base = {
        "objective": objective,
        "alpha": alpha,
        "gamma": gamma,
        "branch": None,
        "theoretical": None,
        "fitted": None,
        "fitted_err": None,
        "z_global_max": None,
        "z_tail_ratio": None,
        "boundedness": None,
        "nonvanishing": None,
        "upper_bound": None,
        "lower_bound": None,
        "passed": False,
    }
    if verdict is None:
        return base
    base.update(
        branch=verdict.branch,
        theoretical=verdict.theoretical,
        fitted=verdict.fitted,
        fitted_err=verdict.fitted_err,
        z_global_max=verdict.z_global_max,
        z_tail_ratio=verdict.z_tail_ratio,
        boundedness=verdict.boundedness,
        nonvanishing=verdict.nonvanishing,
        upper_bound="proven" if verdict.upper_bound_proven else "unproven",
        lower_bound="proven" if verdict.lower_bound_proven else "unproven",
        passed=verdict.passed,
    )
    return base


def write_json(obj: dict, path: str) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_summary(rows: Sequence[dict], csv_path: str, txt_path: str) -> None:
    """Theoretical-vs-fitted table across grid cells (CSV plus aligned text)."""
    cols = [
        "label", "branch", "theoretical", "fitted", "fitted_err",
        "z_tail_ratio", "boundedness", "nonvanishing", "passed", "error",
    ]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_cell(r.get(c)) for c in cols))
    _write_text(csv_path, "\n".join(lines) + "\n")

    widths = {c: len(c) for c in cols}
    rendered = []
    for r in rows:
        rr = {c: _cell(r.get(c), text=True) for c in cols}
        rendered.append(rr)
        for c in cols:
            widths[c] = max(widths[c], len(rr[c]))
    head = "  ".join(c.ljust(widths[c]) for c in cols)
    sep = "  ".join("-" * widths[c] for c in cols)
    body = ["  ".join(r[c].ljust(widths[c]) for c in cols) for r in rendered]
    _write_text(txt_path, "\n".join([head, sep] + body) + "\n")


def _cell(v, text: bool = False) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.6g}" if text else fmt(v)
    return str(v)
