"""Lyapunov energies along trajectories and the monotonicity / closed-form
derivative diagnostics that mirror the rate proofs.

With gap = F(x) - F*, d = x - x*, and parameters (lambda, xi, p):

    a = t*gap,  b = ||lam*d + t*v||^2 / (2t),  c = ||d||^2 / (2t),
    E = t*(a + b + xi*c),  H = t**p * E,       xi = lam*(lam + 1 - alpha).

The sharp parameter family (lam = 2*alpha/(gamma+2), p = rate - 2) makes the
a and b coefficients of dH/dt vanish, leaving dH/dt <= K1 * t**p * c with
equality for power objectives; the flat family (lam = 2/(gamma1-2),
p = 2*lam) instead zeroes the a and c coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dynamics import Trajectory
from .rates import BRANCH_SATURATED, SeriesFit, fit_series, theoretical_rate

REGIME_SHARP = "sharp"
REGIME_FLAT = "flat"
REGIME_MANUAL = "manual"

# Tolerance per comparison in the monotonicity check; covers rounding across
# ~1e6-record trajectories.
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class LyapunovParams:
    alpha: float
    lam: float
    p: float
    xi: float
    K1: float
    regime: str


def sharp_K1(alpha: float, gamma: float) -> float:
    """Closed form of the c-coefficient constant under sharp parameters."""
    return (
        4.0 * alpha * gamma / (gamma + 2.0) ** 3
        * (1.0 + 2.0 / gamma - alpha)
        * (alpha * (gamma - 2.0) - gamma - 2.0)
    )


def select_params(
    alpha: float, gamma1: float, regime_hint: Optional[str] = None
) -> LyapunovParams:
    """Parameter family for the given damping and flatness exponent.

    Default: the family that certifies the branch of
    rates.theoretical_rate(alpha, gamma1), flat on the saturated branch and
    sharp elsewhere.  The flat family is only defined for gamma1 > 2.
    """
    if alpha <= 0.0:
        raise ValueError(f"select_params requires alpha > 0, got {alpha}")
    if gamma1 < 1.0:
        raise ValueError(f"select_params requires gamma1 >= 1, got {gamma1}")
    regime = regime_hint or (
        REGIME_FLAT if theoretical_rate(alpha, gamma1).branch == BRANCH_SATURATED
        else REGIME_SHARP
    )
    if regime == REGIME_SHARP:
        lam = 2.0 * alpha / (gamma1 + 2.0)
        p = 2.0 * gamma1 * alpha / (gamma1 + 2.0) - 2.0
        xi = lam * (lam + 1.0 - alpha)
        return LyapunovParams(alpha, lam, p, xi, sharp_K1(alpha, gamma1), regime)
    if regime == REGIME_FLAT:
        if gamma1 <= 2.0:
            raise ValueError(f"flat regime requires gamma1 > 2, got {gamma1}")
        lam = 2.0 / (gamma1 - 2.0)
        p = 4.0 / (gamma1 - 2.0)
        xi = lam * (lam + 1.0 - alpha)
        return LyapunovParams(alpha, lam, p, xi, xi * (p - 2.0 * lam), regime)
    raise ValueError(f"unknown regime hint {regime_hint!r}")


def manual_params(alpha: float, lam: float, p: float) -> LyapunovParams:
    if alpha <= 0.0:
        raise ValueError(f"manual_params requires alpha > 0, got {alpha}")
    xi = lam * (lam + 1.0 - alpha)
    return LyapunovParams(alpha, lam, p, xi, xi * (p - 2.0 * lam), REGIME_MANUAL)


@dataclass(frozen=True)
class EnergyTable:
    """Energy components along a trajectory (one row per kept record)."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    E: np.ndarray
    H: np.ndarray
    params: LyapunovParams

    def __len__(self) -> int:
        return len(self.t)


def energy_along(traj: Trajectory, params: LyapunovParams, x_star=None) -> EnergyTable:
    """Evaluate a, b, c, E, H at every record with t > 0 of ``traj``.

    Gaps are clamped at 0 so a stays nonnegative under rounding.  A record
    whose state overflowed has inf terms, and E and H are nan there when
    xi < 0 (inf - inf has no sign); numpy warns for neither.
    """
    keep = traj.t > 0.0
    t = traj.t[keep]
    if len(t) == 0:
        raise ValueError("energy_along: no records with t > 0")
    x = traj.x[keep]
    v = traj.v[keep]
    gap = np.maximum(traj.gap[keep], 0.0)
    if x_star is None:
        xs = np.zeros(x.shape[1])
    else:
        xs = np.asarray(x_star, dtype=float).reshape(x.shape[1])
    d = x - xs
    lam, xi, p = params.lam, params.xi, params.p
    with np.errstate(over="ignore", invalid="ignore"):
        a = t * gap
        b = np.sum((lam * d + t[:, None] * v) ** 2, axis=1) / (2.0 * t)
        c = np.sum(d * d, axis=1) / (2.0 * t)
        E = t * (a + b + xi * c)
        H = np.power(t, p) * E
    return EnergyTable(t=t, a=a, b=b, c=c, E=E, H=H, params=params)


@dataclass(frozen=True)
class MonotoneReport:
    holds: bool
    worst_violation: float          # max positive excess over the tolerance
    worst_pair: Tuple[float, float]  # (t_i, t_{i+1}) of the worst comparison
    n_compared: int


def check_H_monotone(
    table: EnergyTable, direction: str, tol: float = MONOTONE_TOL
) -> MonotoneReport:
    """Check H against a monotonicity direction record by record.

    A comparison violates "nonincreasing" when H[i+1] - H[i] exceeds
    tol * max(1, |H[i]|); symmetric for "nondecreasing".
    """
    if direction not in ("nonincreasing", "nondecreasing"):
        raise ValueError(f"unknown direction {direction!r}")
    if tol < 0.0:
        raise ValueError("tol must be >= 0")
    H, t = table.H, table.t
    if len(H) < 2:
        raise ValueError("check_H_monotone needs at least 2 records")
    dH = np.diff(H)
    allowance = tol * np.maximum(1.0, np.abs(H[:-1]))
    excess = dH - allowance if direction == "nonincreasing" else -dH - allowance
    i = int(np.argmax(excess))
    worst = float(excess[i])
    return MonotoneReport(
        holds=worst <= 0.0,
        worst_violation=max(worst, 0.0),
        worst_pair=(float(t[i]), float(t[i + 1])),
        n_compared=len(dH),
    )


def check_Hprime_closed_form(traj: Trajectory, params: LyapunovParams, x_star=None) -> float:
    """Max residual of dH/dt against K1 * t**p * c(t) for a power objective.

    dH/dt comes from a three-point finite difference across consecutive
    records of an integrator trajectory (scheme runs are rejected: their
    divided-difference velocity makes H only O(sqrt(h)) accurate).  The
    residual is relative to the closed form's scale max(1, max |K1 t^p c|).
    """
    if traj.is_scheme:
        raise ValueError("check_Hprime_closed_form requires an integrator trajectory")
    table = energy_along(traj, params, x_star=x_star)
    t, H, c = table.t, table.H, table.c
    if len(t) < 3:
        raise ValueError("check_Hprime_closed_form needs at least 3 records")
    cf = params.K1 * np.power(t, params.p) * c
    dm = t[1:-1] - t[:-2]
    dp = t[2:] - t[1:-1]
    fd = (
        H[:-2] * (-dp / (dm * (dm + dp)))
        + H[1:-1] * ((dp - dm) / (dm * dp))
        + H[2:] * (dm / (dp * (dm + dp)))
    )
    resid = np.abs(fd - cf[1:-1])
    scale = max(1.0, float(np.max(np.abs(cf[1:-1]))))
    if not np.any(cf[1:-1]):
        scale = max(1.0, float(np.max(np.abs(H))))
    return float(resid.max()) / scale


def first_gap_dominance_time(table: EnergyTable) -> Optional[float]:
    """First record time where H >= 0.5 * t**(p+1) * a.

    From there on the energy controls the gap term; reported in place of the
    proof's unspecified threshold time.
    """
    lhs = table.H
    rhs = 0.5 * np.power(table.t, table.params.p + 1.0) * table.a
    idx = np.nonzero(lhs >= rhs)[0]
    return float(table.t[idx[0]]) if len(idx) else None


def velocity_decay_exponent(traj: Trajectory, t_lo: float, t_hi: float) -> SeriesFit:
    """Envelope decay exponent of ||v|| over [t_lo, t_hi] (rates.fit_series).

    Speeds at or below 1e-300 count as zero; an all-zero speed is degenerate.
    Oscillating runs are handled by the running-max envelope.
    """
    speed = np.linalg.norm(traj.v, axis=1)
    speed[speed <= 1e-300] = 0.0
    return fit_series(traj.t, speed, (t_lo, t_hi))
