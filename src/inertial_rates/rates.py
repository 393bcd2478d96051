"""Theoretical decay-rate function, empirical exponent estimation, and the
bounded / non-vanishing z-sequence tests behind the optimality claims.

Solutions oscillate, so empirical decay orders are fitted on the envelope:
the suffix running maximum of the series, reduced to >= 30 log-spaced bins,
regressed in log-log coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dynamics import Trajectory

BRANCH_SHARP = "sharp-subcritical"
BRANCH_SATURATED = "flat-saturated"
BRANCH_INTERMEDIATE = "flat-intermediate"

# Default thresholds for the z-sequence verdicts; loose enough to be robust
# at h = 1e-5 and overridable per call.
NONVANISH_THRESHOLD = 0.05
BOUNDEDNESS_SLACK = 1.05


@dataclass(frozen=True)
class RateRegime:
    """Branch and exponent of the piecewise theoretical rate at (alpha, gamma)."""

    alpha: float
    gamma: float
    branch: str
    exponent: float
    upper_bound_proven: bool
    lower_bound_proven: bool


def theoretical_rate(alpha: float, gamma: float) -> RateRegime:
    """Piecewise decay exponent for F(x(t)) - F*.

    gamma <= 2 (or gamma > 2 with alpha <= 1 + 2/gamma): 2*alpha*gamma/(gamma+2).
    gamma > 2 with alpha >= (gamma+2)/(gamma-2): saturates at 2*gamma/(gamma-2).
    In between only a matching lower bound is known; the branches agree at
    both boundaries.
    """
    if alpha <= 0.0:
        raise ValueError(f"theoretical_rate requires alpha > 0, got {alpha}")
    if gamma < 1.0:
        raise ValueError(f"theoretical_rate requires gamma >= 1, got {gamma}")
    sharp_exp = 2.0 * alpha * gamma / (gamma + 2.0)
    if gamma <= 2.0:
        return RateRegime(alpha, gamma, BRANCH_SHARP, sharp_exp, True, True)
    if alpha <= 1.0 + 2.0 / gamma:
        # upper bound certified by flatness alone; optimality only observed
        return RateRegime(alpha, gamma, BRANCH_SHARP, sharp_exp, True, False)
    if alpha >= (gamma + 2.0) / (gamma - 2.0):
        return RateRegime(
            alpha, gamma, BRANCH_SATURATED, 2.0 * gamma / (gamma - 2.0), True, True
        )
    # lower bound proven, matching upper bound open
    return RateRegime(alpha, gamma, BRANCH_INTERMEDIATE, sharp_exp, False, True)


# ---------------------------------------------------------------------------
# envelope extraction and log-log regression
# ---------------------------------------------------------------------------

def envelope_points(
    t: np.ndarray, y: np.ndarray, t_lo: float, t_hi: float, n_bins: int = 30
) -> Tuple[np.ndarray, np.ndarray]:
    """Envelope of an oscillating positive series on [t_lo, t_hi].

    A sample sits on the envelope when it meets its own suffix running
    maximum (nothing later exceeds it); those peak-crest points are then
    reduced to at most n_bins log-spaced representatives.
    """
    m = (t > 0.0) & (y > 0.0) & np.isfinite(y)
    t, y = t[m], y[m]
    hull = np.maximum.accumulate(y[::-1])[::-1]
    crest = y >= hull
    w = crest & (t >= t_lo) & (t <= t_hi)
    tw, yw = t[w], y[w]
    if len(tw) < 2:
        return tw, yw
    edges = np.logspace(math.log10(tw[0]), math.log10(tw[-1]), n_bins + 1)
    edges[-1] = tw[-1]
    pts_t, pts_y = [], []
    for i in range(n_bins):
        sel = (tw >= edges[i]) & (tw <= edges[i + 1])
        if sel.any():
            j = int(np.argmax(yw[sel]))
            pts_t.append(tw[sel][j])
            pts_y.append(yw[sel][j])
    return np.asarray(pts_t), np.asarray(pts_y)


def _loglog_slope(pt: np.ndarray, py: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares slope of log y vs log t; returns (slope, stderr, rmse)."""
    lt, ly = np.log(pt), np.log(py)
    A = np.vstack([lt, np.ones_like(lt)]).T
    sol, rss, *_ = np.linalg.lstsq(A, ly, rcond=None)
    n = len(lt)
    rss = float(rss[0]) if len(rss) else 0.0
    sxx = float(np.sum((lt - lt.mean()) ** 2))
    se = math.sqrt(rss / (max(n - 2, 1) * sxx)) if sxx > 0 else math.inf
    return float(sol[0]), se, math.sqrt(rss / n)


@dataclass(frozen=True)
class ExponentFit:
    exponent: float           # decay exponent (positive for decaying gap)
    stderr: float
    n_points: int
    t_window: Tuple[float, float]
    degenerate: bool = False  # all gaps zero


def _window_times(
    t: np.ndarray,
    window: Tuple[float, float],
    t_window: Optional[Tuple[float, float]],
) -> Tuple[float, float]:
    lo, hi = window
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"window fractions must satisfy 0 <= lo < hi <= 1, got {window}")
    if t_window is not None:
        return float(t_window[0]), float(t_window[1])
    l0, l1 = math.log10(t[0]), math.log10(t[-1])
    return 10.0 ** (l0 + lo * (l1 - l0)), 10.0 ** (l0 + hi * (l1 - l0))


def fit_exponent(
    traj: Trajectory,
    window: Tuple[float, float] = (0.5, 1.0),
    n_bins: int = 30,
    t_window: Optional[Tuple[float, float]] = None,
) -> ExponentFit:
    """Fit the decay exponent of the gap envelope over a log-time window.

    ``window`` selects fractions of the positive-time log span; ``t_window``
    (absolute times) overrides it.  Needs at least 10 positive-gap records in
    the window; an all-zero gap yields a degenerate fit.
    """
    t, gap = traj.t, traj.gap
    pos = (t > 0.0) & (gap > 0.0)
    if not pos.any():
        return ExponentFit(math.nan, math.nan, 0, (math.nan, math.nan), degenerate=True)
    tp = t[pos]
    t_lo, t_hi = _window_times(tp, window, t_window)
    usable = int(np.sum((tp >= t_lo) & (tp <= t_hi)))
    if usable < 10:
        raise ValueError(
            f"fit_exponent needs >= 10 positive-gap records in [{t_lo:g}, {t_hi:g}], got {usable}"
        )
    pt, py = envelope_points(t, gap, t_lo, t_hi, n_bins=n_bins)
    slope, se, _ = _loglog_slope(pt, py)
    return ExponentFit(-slope, se, len(pt), (t_lo, t_hi))


def tail_model_residuals(
    traj: Trajectory,
    window: Tuple[float, float] = (0.5, 1.0),
    n_bins: int = 30,
    t_window: Optional[Tuple[float, float]] = None,
) -> Tuple[float, float]:
    """RMS residuals of log-log (power-law) vs log-linear (exponential) fits
    to the gap envelope; a power-law decay fits the first model strictly
    better, which is the numerical signature of "polynomial, not geometric".
    """
    t, gap = traj.t, traj.gap
    pos = (t > 0.0) & (gap > 0.0)
    tp = t[pos]
    t_lo, t_hi = _window_times(tp, window, t_window)
    pt, py = envelope_points(t, gap, t_lo, t_hi, n_bins=n_bins)
    if len(pt) < 3:
        raise ValueError("tail_model_residuals needs >= 3 envelope points")
    _, _, rmse_loglog = _loglog_slope(pt, py)
    ly = np.log(py)
    A = np.vstack([pt, np.ones_like(pt)]).T
    _, rss, *_ = np.linalg.lstsq(A, ly, rcond=None)
    rmse_loglin = math.sqrt((float(rss[0]) if len(rss) else 0.0) / len(pt))
    return rmse_loglog, rmse_loglin


# ---------------------------------------------------------------------------
# z-sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZSeries:
    """gap * t**exponent over positive times, rescaled to max 1."""

    t: np.ndarray
    z: np.ndarray
    prenorm_max: float
    exponent: float
    degenerate: bool = False


def z_sequence(traj: Trajectory, exponent: float) -> ZSeries:
    if not math.isfinite(exponent):
        raise ValueError(f"z_sequence requires a finite exponent, got {exponent}")
    m = traj.t > 0.0
    t = traj.t[m]
    z = np.maximum(traj.gap[m], 0.0) * np.power(t, exponent)
    zmax = float(z.max()) if len(z) else 0.0
    if zmax <= 0.0:
        return ZSeries(t, z, 0.0, exponent, degenerate=True)
    return ZSeries(t, z / zmax, zmax, exponent)


@dataclass(frozen=True)
class RateVerdict:
    """Combined empirical verdict for one trajectory against one regime."""

    branch: str
    theoretical: float
    fitted: float
    fitted_err: float
    z_global_max: float       # pre-normalization max of gap * t**rate
    z_tail_ratio: float       # tail max / global max (z is normalized to max 1)
    boundedness: bool
    nonvanishing: bool
    tail_window: Tuple[float, float]
    upper_bound_proven: bool
    lower_bound_proven: bool

    @property
    def passed(self) -> bool:
        """Asserted z-verdicts: the boundedness test is informative only on
        the branch whose upper bound the theory leaves open."""
        if self.branch == BRANCH_INTERMEDIATE:
            return self.nonvanishing
        return self.boundedness and self.nonvanishing


def verify_rate(
    traj: Trajectory,
    regime: RateRegime,
    fit_window: Tuple[float, float] = (0.5, 1.0),
    fit_t_window: Optional[Tuple[float, float]] = None,
    n_bins: int = 30,
    nonvanish_threshold: float = NONVANISH_THRESHOLD,
    boundedness_slack: float = BOUNDEDNESS_SLACK,
) -> RateVerdict:
    """Fit the gap envelope and test the z-sequence at the regime exponent.

    The z statistics use the last half of the log-time span (asymptotic
    claims; transients excluded), which must span at least one decade.
    Non-vanishing: tail max >= nonvanish_threshold * global max.
    Boundedness: tail max <= boundedness_slack * global max.
    """
    zs = z_sequence(traj, regime.exponent)
    if zs.degenerate:
        raise ValueError("verify_rate: all gaps are zero (degenerate trajectory)")
    t = zs.t
    l0, l1 = math.log10(t[0]), math.log10(t[-1])
    t_mid = 10.0 ** (0.5 * (l0 + l1))
    if l1 - 0.5 * (l0 + l1) < 1.0:
        raise ValueError("verify_rate: tail half spans less than one decade")
    tail = zs.z[t >= t_mid]
    ratio = float(tail.max()) if len(tail) else 0.0
    fit = fit_exponent(traj, window=fit_window, n_bins=n_bins, t_window=fit_t_window)
    return RateVerdict(
        branch=regime.branch,
        theoretical=regime.exponent,
        fitted=fit.exponent,
        fitted_err=fit.stderr,
        z_global_max=zs.prenorm_max,
        z_tail_ratio=ratio,
        boundedness=ratio <= boundedness_slack,
        nonvanishing=ratio >= nonvanish_threshold,
        tail_window=(t_mid, float(t[-1])),
        upper_bound_proven=regime.upper_bound_proven,
        lower_bound_proven=regime.lower_bound_proven,
    )


def scheme_fit_cap(h: float, budget: float = 0.05) -> float:
    """Largest time up to which scheme-run exponent fits are trusted.

    The discrete scheme carries an extra viscosity of order sqrt(h) (for
    F = x**2 the iterate envelope is exactly t**(-alpha/...) times
    exp(-sqrt(h) t)), which steepens measured slopes past t ~ budget/sqrt(h).
    """
    return budget / math.sqrt(h)
