"""Theoretical decay-rate function, empirical exponent estimation, and the
bounded / non-vanishing z-sequence tests behind the optimality claims.

Solutions oscillate, so empirical decay orders are fitted on the envelope:
the suffix running maximum of the series, reduced to at most ENVELOPE_BINS
log-spaced points, regressed in log-log coordinates (fit_series).
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

# Thresholds for the z-sequence verdicts; loose enough to be robust at
# h = 1e-5.
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

    def bounds(self) -> dict:
        """The upper_bound and lower_bound markers, "proven" or "unproven"."""
        return {f"{side}_bound": "proven" if proven else "unproven" for side, proven
                in (("upper", self.upper_bound_proven), ("lower", self.lower_bound_proven))}


def theoretical_rate(alpha: float, gamma: float) -> RateRegime:
    """Piecewise decay exponent for F(x(t)) - F*.

    gamma <= 2 (or gamma > 2 with alpha <= 1 + 2/gamma): 2*alpha*gamma/(gamma+2).
    gamma > 2 with alpha >= (gamma+2)/(gamma-2): saturates at 2*gamma/(gamma-2).
    In between only a matching lower bound is known; the branches agree at
    both boundaries.
    """
    if not (math.isfinite(alpha) and math.isfinite(gamma)):
        raise ValueError(
            f"theoretical_rate requires finite alpha and gamma, got {alpha}, {gamma}"
        )
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
# envelope fit
# ---------------------------------------------------------------------------

# Log-spaced bins the envelope crest points are reduced to.
ENVELOPE_BINS = 30


@dataclass(frozen=True)
class SeriesFit:
    """Power-law fit y ~ t**-exponent to the envelope of a positive series."""

    exponent: float             # minus the log-log slope (positive for decay)
    stderr: float
    t_window: Tuple[float, float]
    t_points: np.ndarray        # envelope points the line is fitted to
    y_points: np.ndarray
    rmse: float                 # log-log residual
    degenerate: bool = False    # no positive finite sample


def _line_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line y ~ slope*x + c; returns (slope, stderr, rmse)."""
    A = np.vstack([x, np.ones_like(x)]).T
    sol, rss, *_ = np.linalg.lstsq(A, y, rcond=None)
    n = len(x)
    rss = float(rss[0]) if len(rss) else 0.0
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(rss / (max(n - 2, 1) * sxx)) if sxx > 0 else math.inf
    return float(sol[0]), se, math.sqrt(rss / n)


def fit_series(
    t: np.ndarray, y: np.ndarray, t_window: Optional[Tuple[float, float]] = None
) -> SeriesFit:
    """Fit the decay exponent of the envelope of y(t) over a time window.

    Only positive, finite samples at t > 0 count.  ``t_window`` (absolute
    times) defaults to the last half of their log-time span, and must hold at
    least 10 of them; a series with none is degenerate.  A sample sits on the
    envelope when nothing later exceeds it (suffix running maximum); the
    crest points in the window are reduced to the largest one in each of
    ENVELOPE_BINS log-spaced bins from the first to the last of them, and
    log y is regressed on log t.
    """
    m = (t > 0.0) & (y > 0.0) & np.isfinite(y)
    t, y = t[m], y[m]
    if len(t) == 0:
        return SeriesFit(math.nan, math.nan, (math.nan, math.nan),
                         t, y, math.nan, degenerate=True)
    if t_window is None:
        l0, l1 = math.log10(t[0]), math.log10(t[-1])
        t_lo, t_hi = 10.0 ** (l0 + 0.5 * (l1 - l0)), 10.0 ** (l0 + (l1 - l0))
    else:
        t_lo, t_hi = float(t_window[0]), float(t_window[1])
    w = (t >= t_lo) & (t <= t_hi)
    usable = int(np.sum(w))
    if usable < 10:
        raise ValueError(
            f"fit_series needs >= 10 positive-gap records in [{t_lo:g}, {t_hi:g}], got {usable}"
        )
    hull = np.maximum.accumulate(y[::-1])[::-1]
    w &= y >= hull
    tw, yw = t[w], y[w]
    if len(tw) < 2:  # later samples exceed all but at most one in the window
        raise ValueError(
            f"fit_series needs >= 2 envelope points in [{t_lo:g}, {t_hi:g}], got {len(tw)}"
        )
    edges = np.logspace(math.log10(tw[0]), math.log10(tw[-1]), ENVELOPE_BINS + 1)
    edges[0], edges[-1] = tw[0], tw[-1]
    # crest values are nonincreasing in t, so a bin's largest point is its
    # first; bin i is [edges[i], edges[i+1]], empty when that point is past it
    first = np.searchsorted(tw, edges[:-1])
    first = first[np.append(tw, math.inf)[first] <= edges[1:]]
    pt, py = tw[first], yw[first]
    slope, se, rmse = _line_fit(np.log(pt), np.log(py))
    return SeriesFit(-slope, se, (t_lo, t_hi), pt, py, rmse)


def tail_model_residuals(
    traj: Trajectory, t_window: Optional[Tuple[float, float]] = None
) -> Tuple[float, float]:
    """RMS residuals of log-log (power-law) vs log-linear (exponential) fits
    to the gap envelope; a power-law decay fits the first model strictly
    better, which is the numerical signature of "polynomial, not geometric".
    """
    fit = fit_series(traj.t, traj.gap, t_window)
    if len(fit.t_points) < 3:
        raise ValueError("tail_model_residuals needs >= 3 envelope points")
    return fit.rmse, _line_fit(fit.t_points, np.log(fit.y_points))[2]


# ---------------------------------------------------------------------------
# z-sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZSeries:
    """gap * t**exponent over positive times, rescaled to max 1; a series whose
    maximum is zero or not finite is left unscaled and marked degenerate."""

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
    if not 0.0 < zmax < math.inf:  # all gaps zero, or one overflowed
        return ZSeries(t, z, zmax, exponent, degenerate=True)
    return ZSeries(t, z / zmax, zmax, exponent)


@dataclass(frozen=True)
class RateVerdict:
    """Combined empirical verdict for one trajectory against one regime."""

    regime: RateRegime
    fitted: float
    fitted_err: float
    z_global_max: float       # pre-normalization max of gap * t**rate
    z_tail_ratio: float       # tail max / global max (z is normalized to max 1)
    boundedness: bool
    nonvanishing: bool

    @property
    def branch(self) -> str:
        return self.regime.branch

    @property
    def passed(self) -> bool:
        """Asserted z-verdicts: the boundedness test is informative only on
        the branch whose upper bound the theory leaves open."""
        if self.branch == BRANCH_INTERMEDIATE:
            return self.nonvanishing
        return self.boundedness and self.nonvanishing


# Fraction of the viscosity time scale 1/sqrt(h) that scheme fits may use.
SCHEME_FIT_BUDGET = 0.05


def scheme_fit_cap(h: float) -> float:
    """Largest time up to which scheme-run exponent fits are trusted.

    The discrete scheme carries an extra viscosity of order sqrt(h) (for
    F = x**2 the iterate envelope is exactly t**(-alpha/...) times
    exp(-sqrt(h) t)), which steepens measured slopes past
    t ~ SCHEME_FIT_BUDGET/sqrt(h).
    """
    return SCHEME_FIT_BUDGET / math.sqrt(h)


def verdict_windows(is_scheme: bool, gamma: float, step: float, t_first: float,
                    t_last: float) -> Tuple[float, Optional[Tuple[float, float]]]:
    """(t_mid, window) of a run whose records at t > 0 span [t_first,
    t_last]: the z tail is t >= t_mid, the last half of that span in log
    time (asymptotic claims; transients excluded), and must span a decade
    (ValueError otherwise).  The gap is fitted over ``window``, the decade
    below cap = scheme_fit_cap(step) for a scheme run on a sharp objective
    (gamma <= 2) that passes the cap, where the scheme's viscosity would
    otherwise steepen the slope; else None, fit_series' default."""
    l0, l1 = math.log10(t_first), math.log10(t_last)
    if l1 - 0.5 * (l0 + l1) < 1.0:
        raise ValueError("verify_rate: tail half spans less than one decade")
    window = None
    if is_scheme and gamma <= 2.0:
        cap = scheme_fit_cap(step)
        if cap < t_last:
            window = (cap / 10.0, cap)
    return 10.0 ** (0.5 * (l0 + l1)), window


def verify_rate(traj: Trajectory, regime: RateRegime, zs: ZSeries) -> RateVerdict:
    """Fit the gap envelope (fit_series) and test ``zs``, the run's
    z_sequence at the regime exponent (a ValueError names any other
    exponent), over the z tail and fit window of verdict_windows.
    Non-vanishing: tail max >= NONVANISH_THRESHOLD * global max.
    Boundedness: tail max <= BOUNDEDNESS_SLACK * global max.
    """
    if zs.exponent != regime.exponent:
        raise ValueError(f"verify_rate: z is taken at exponent {zs.exponent}, "
                         f"the regime's is {regime.exponent}")
    if zs.degenerate:
        raise ValueError(
            "verify_rate: degenerate z-sequence (all gaps are zero, or a gap overflowed)"
        )
    t = zs.t
    t_mid, window = verdict_windows(traj.is_scheme, regime.gamma, traj.step, t[0], t[-1])
    tail = zs.z[t >= t_mid]
    ratio = float(tail.max()) if len(tail) else 0.0
    fit = fit_series(traj.t, traj.gap, window)
    return RateVerdict(
        regime=regime,
        fitted=fit.exponent,
        fitted_err=fit.stderr,
        z_global_max=zs.prenorm_max,
        z_tail_ratio=ratio,
        boundedness=ratio <= BOUNDEDNESS_SLACK,
        nonvanishing=ratio >= NONVANISH_THRESHOLD,
    )
