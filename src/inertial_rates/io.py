"""Deterministic file output: trajectory / energy / z CSV files, verdict
JSON, and grid summaries.  Identical inputs produce byte-identical files.
"""
from __future__ import annotations

import json
import os
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dynamics import Trajectory
from .lyapunov import EnergyTable
from .rates import RateRegime, RateVerdict, ZSeries


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


class ColumnText(NamedTuple):
    """The CSV text of a float column: ``values`` and, for each block of
    _BLOCK_ROWS rows, its cells joined by newlines.  A file whose column is a
    bit-identical suffix of ``values`` writes this text instead of formatting
    the column again."""

    values: np.ndarray
    blocks: List[str]


def _texts(block: np.ndarray) -> List[str]:
    """The cells of one column block: integers as %d, floats as %.17g (the
    same text as fmt).  Floats are split into runs of equal bit patterns
    (0.0, -0.0 and NaN payloads stay apart) and each run is formatted once."""
    if block.dtype.kind in "iu":
        return list(map(str, block.tolist()))
    block = np.asarray(block, dtype=np.float64)
    bits = block.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if len(starts) + 1 == len(block):
        return ["%.17g" % v for v in block.tolist()]
    if len(starts) == 0:
        return ["%.17g" % block[0]] * len(block)
    starts = np.concatenate(([0], starts))
    text = np.array(["%.17g" % v for v in block[starts].tolist()], dtype=object)
    return np.repeat(text, np.diff(starts, append=len(block))).tolist()


def _column_text(values: np.ndarray) -> ColumnText:
    blocks = range(0, len(values), _BLOCK_ROWS)
    return ColumnText(values, ["\n".join(_texts(values[lo:lo + _BLOCK_ROWS])) for lo in blocks])


def _suffix_of(text: Optional[ColumnText], values: np.ndarray) -> Tuple[object, int]:
    """(text, rows it has before ``values``) when ``values`` is a nonempty
    bit-identical suffix of ``text.values``, else (values, 0)."""
    if text is not None:
        offset = len(text.values) - len(values)
        if 0 <= offset < len(text.values) and np.array_equal(
            text.values[offset:].view(np.int64), np.asarray(values, dtype=np.float64).view(np.int64)
        ):
            return text, offset
    return values, 0


def _write_columns(
    path: str, header: Sequence[str], columns: Sequence[object], offset: int = 0
) -> None:
    """CSV of equal-length columns, written in blocks of _BLOCK_ROWS rows.

    A column is a 1-D array (see _texts) or a ColumnText whose values hold
    ``offset`` rows before this file's first row.  Blocks are aligned on the
    ColumnText's blocks, so the first one can be short."""
    first = columns[0]
    n = len(first.values) - offset if isinstance(first, ColumnText) else len(first)
    with _open_text(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(-(offset % _BLOCK_ROWS), n, _BLOCK_ROWS):
            a, b = max(lo, 0), min(lo + _BLOCK_ROWS, n)
            j = (lo + offset) // _BLOCK_ROWS
            cells = [
                c.blocks[j].split("\n")[a - lo:] if isinstance(c, ColumnText) else _texts(c[a:b])
                for c in columns
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_trajectory_csv(traj: Trajectory, path: str) -> ColumnText:
    """Write trajectory.csv; returns the text of ``traj.t`` for the energy and
    z writers."""
    d = range(traj.dim)
    header = ["n", "t", *(f"x_{i}" for i in d), *(f"v_{i}" for i in d), "gap"]
    t_text = _column_text(traj.t)
    _write_columns(path, header, [traj.n, t_text, *traj.x.T, *traj.v.T, traj.gap])
    return t_text


def write_energy_csv(table: EnergyTable, path: str, t_text: Optional[ColumnText] = None) -> None:
    """Write energy.csv; its t column reuses ``t_text`` when it is a suffix of it."""
    t, offset = _suffix_of(t_text, table.t)
    _write_columns(
        path, "t,a,b,c,E,H".split(","),
        [t, table.a, table.b, table.c, table.E, table.H], offset,
    )


def write_z_csv(zs: ZSeries, path: str, t_text: Optional[ColumnText] = None) -> None:
    """Write z.csv; its t column reuses ``t_text`` when it is a suffix of it."""
    t, offset = _suffix_of(t_text, zs.t)
    _write_columns(path, ["t", "z"], [t, zs.z], offset)


# The RateVerdict fields verdict.json carries; null when a cell is not assessed.
ASSESSED = ("fitted", "fitted_err", "z_global_max", "z_tail_ratio", "boundedness", "nonvanishing")


def verdict_to_dict(objective: str, regime: RateRegime, verdict: Optional[RateVerdict]) -> dict:
    """Flatten one cell's verdict for JSON: the regime of every cell, and the
    ASSESSED fields of ``verdict`` (None: not assessed, all null)."""
    return {
        "objective": objective,
        "alpha": regime.alpha,
        "gamma": regime.gamma,
        "branch": regime.branch,
        "theoretical": regime.exponent,
        "upper_bound": "proven" if regime.upper_bound_proven else "unproven",
        "lower_bound": "proven" if regime.lower_bound_proven else "unproven",
        **{k: None if verdict is None else getattr(verdict, k) for k in ASSESSED},
        "passed": verdict is not None and verdict.passed,
    }


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
