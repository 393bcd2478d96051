"""Deterministic file output: the records.npz of a run and its CSV export
(trajectory / energy / z), verdict JSON, and grid summaries.  Identical
inputs produce byte-identical files.
"""
from __future__ import annotations

import csv
import json
import math
import os
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .config import MAX_RECORDS, _as_float
from .dynamics import MODES, Trajectory, record_times
from .objectives import parse_objective
from .rates import RateRegime, RateVerdict, ZSeries, theoretical_rate

if TYPE_CHECKING:  # an annotation only: writing records loads no Lyapunov code
    from .lyapunov import EnergyTable


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


def _write_columns(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """CSV of equal-length 1-D columns (see _texts), written in blocks of
    _BLOCK_ROWS rows."""
    with _open_text(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [_texts(c[lo:lo + _BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    d = range(traj.x.shape[1])
    header = ["n", "t", *(f"x_{i}" for i in d), *(f"v_{i}" for i in d), "gap"]
    _write_columns(path, header, [traj.n, traj.t, *traj.x.T, *traj.v.T, traj.gap])


def write_energy_csv(table: EnergyTable, path: str) -> None:
    _write_columns(path, "t,a,b,c,E,H".split(","),
                   [table.t, table.a, table.b, table.c, table.E, table.H])


def write_z_csv(zs: ZSeries, path: str) -> None:
    _write_columns(path, ["t", "z"], [zs.t, zs.z])


# The members of records.npz, each with its dtype (its kind alone for text)
# and its shape in the record count N and the dimension D: the Trajectory's
# arrays but t, which read_cell rebuilds from n, and its run fields, with ""
# for no error.
_MEMBERS = {"n": ("i8", "N"), "x": ("f8", "ND"), "v": ("f8", "ND"), "gap": ("f8", "N"),
            "mode": ("U", ""), "alpha": ("f8", ""), "step": ("f8", ""), "t0": ("f8", ""),
            "error": ("U", "")}


def write_records(traj: Trajectory, path: str) -> None:
    """Write records.npz: the _MEMBERS of ``traj``, uncompressed.  A run at
    rest keeps its records up to its first filled one, and adds the member
    tail, int64 (that record's n, its fill_stride, the last n), from which
    read_cell takes the last record."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    members = {**{k: getattr(traj, k) for k in _MEMBERS}, "error": traj.error or ""}
    i = traj.first_filled
    if i is not None:
        members.update({k: members[k][:i + 1] for k in ("n", "x", "v", "gap")},
                       tail=np.array([traj.n[i], traj.fill_stride, traj.n[-1]], dtype=np.int64))
    np.savez(path, **members)


def _trajectory(npz) -> Trajectory:
    """The Trajectory of the records.npz members ``npz``; ValueError when a
    member has the wrong dtype or shape, a run field a value no run has (t0
    included: the start time of its mode), or tail is present though the
    mode never rests, or does not continue the records (see _filled)."""
    m = {k: npz[k] for k in _MEMBERS}
    N = len(m["n"]) if m["n"].ndim == 1 and m["n"].size else -1  # -1: no shape matches
    D = m["x"].shape[1] if m["x"].ndim == 2 and m["x"].shape[1] else -1
    shapes = {"": (), "N": (N,), "ND": (N, D)}
    for k, (dtype, shape) in _MEMBERS.items():
        if not m[k].dtype.str[1:].startswith(dtype) or m[k].shape != shapes[shape]:
            raise ValueError(f"member {k} is {m[k].dtype} of shape {m[k].shape}, not "
                             f"{dtype} of shape ({', '.join(shape)}) with N, D >= 1")
    mode, alpha, step, t0 = str(m["mode"]), float(m["alpha"]), float(m["step"]), float(m["t0"])
    finite = all(map(math.isfinite, (alpha, step, t0)))
    if (mode not in MODES or not (finite and alpha > 0.0 and step > 0.0)
            or MODES[mode].start_time(t0, step) != t0):
        raise ValueError(f"run fields mode {mode!r}, alpha {alpha}, step {step}, t0 {t0}: "
                         f"want a mode of {tuple(MODES)}, finite alpha > 0, step > 0 and its t0")
    n, x, v, gap = m["n"], m["x"], m["v"], m["gap"]
    first_filled, fill_stride = None, 1
    if "tail" in npz.files:
        if not MODES[mode].is_scheme:
            raise ValueError(f"member tail in a {mode} file: only a scheme run comes to rest")
        first_filled, (fill_stride, last) = N - 1, _filled(npz["tail"], n)
        if last > n[-1]:  # the last record repeats the first filled one
            n, x, v, gap = (np.concatenate((a, a[-1:])) for a in (n, x, v, gap))
            n[-1] = last
    return Trajectory(mode, alpha, step, t0, n=n, t=record_times(mode, step, t0, n),
                      x=x, v=v, gap=gap, error=str(m["error"]) or None, first_filled=first_filled,
                      fill_stride=fill_stride)


def _filled(tail: np.ndarray, n: np.ndarray) -> Tuple[int, int]:
    """(stride, last n) of the member tail, int64 (first n, stride, last n);
    ValueError unless its first n is the last stored record's, stride >= 1,
    last n >= first n, and the filled records stay within MAX_RECORDS."""
    if tail.dtype.str[1:] != "i8" or tail.shape != (3,):
        raise ValueError(f"member tail is {tail.dtype} of shape {tail.shape}, "
                         f"not i8 of shape (3,)")
    first, stride, last = map(int, tail)
    if (first != n[-1] or stride < 1 or last < first
            or len(n) + (last - first) // stride + 1 > MAX_RECORDS):
        raise ValueError(f"member tail (first n {first}, stride {stride}, last n {last}) does "
                         f"not continue the records: want first n = {n[-1]}, the last stored, "
                         f"stride >= 1, last n >= first n and at most {MAX_RECORDS} records")
    return stride, last


def read_cell(celldir: str) -> Tuple[Trajectory, str, RateRegime]:
    """The Trajectory of a cell directory's records.npz, and the objective
    and rate regime of its verdict.json; ValueError when either does not
    load, verdict.json's alpha or gamma is not a finite number (a JSON true
    is not), the objective does not parse or its gamma is not verdict.json's,
    or the two files disagree on alpha or the dimension."""
    import zipfile  # numpy has loaded it: np.load raises its BadZipFile

    try:
        # np.load drops its own handle before it raises BadZipFile; this one closes
        with open(os.path.join(celldir, "records.npz"), "rb") as fh, \
                np.load(fh, allow_pickle=False) as npz:
            traj = _trajectory(npz)
        with open(os.path.join(celldir, "verdict.json"), encoding="utf-8") as fh:
            verdict = json.load(fh)
        objective = verdict["objective"]
        alpha, gamma = (_as_float(verdict[k], f"verdict.json {k}") for k in ("alpha", "gamma"))
        if alpha != traj.alpha:
            raise ValueError(f"verdict.json has alpha {alpha!r}, records.npz {traj.alpha!r}")
        if not isinstance(objective, str):
            raise TypeError(f"verdict.json has objective {objective!r}, not a string")
        obj = parse_objective(objective)
        if gamma != obj.nominal_gamma:
            raise ValueError(f"verdict.json has gamma {gamma!r}, its objective {objective!r} "
                             f"{obj.nominal_gamma!r}")
        if obj.dim != traj.dim:
            raise ValueError(f"verdict.json has objective {objective!r} of dim {obj.dim}, "
                             f"records.npz dim {traj.dim}")
        return traj, objective, theoretical_rate(alpha, gamma)
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot load cell {celldir}: {type(exc).__name__}: {exc}") from None


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
        **regime.bounds(),
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
    with _open_text(csv_path) as fh:  # quotes a field with a comma, as an error may have
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(cols)
        out.writerows([_cell(r.get(c)) for c in cols] for r in rows)

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
