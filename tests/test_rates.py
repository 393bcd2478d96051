import math

import numpy as np
import pytest

from inertial_rates.dynamics import Trajectory, run_ode, run_scheme
from inertial_rates.objectives import make_power
from inertial_rates.rates import (
    BRANCH_INTERMEDIATE,
    BRANCH_SATURATED,
    BRANCH_SHARP,
    ENVELOPE_BINS,
    fit_series,
    scheme_fit_cap,
    tail_model_residuals,
    theoretical_rate,
    verify_rate,
    z_sequence,
)


def _verify(traj, regime):
    """verify_rate on the run's z sequence at the regime exponent."""
    return verify_rate(traj, regime, z_sequence(traj, regime.exponent))


def _gap_traj(t, gap, mode="nesterov"):
    t = np.asarray(t, dtype=float)
    gap = np.asarray(gap, dtype=float)
    n = np.arange(len(t))
    zeros = np.zeros((len(t), 1))
    return Trajectory(
        mode=mode, alpha=1.0, step=1e-4, t0=0.0,
        n=n, t=t, x=zeros, v=zeros, gap=gap,
    )


# ---------------------------------------------------------------------------
# theoretical rate
# ---------------------------------------------------------------------------

def test_rate_fig5_left():
    reg = theoretical_rate(1.0, 1.5)
    assert reg.exponent == pytest.approx(6.0 / 7.0)
    assert reg.branch == BRANCH_SHARP


def test_rate_fig7_intermediate():
    reg = theoretical_rate(4.0, 3.0)
    assert reg.exponent == pytest.approx(4.8)
    assert reg.branch == BRANCH_INTERMEDIATE
    assert not reg.upper_bound_proven and reg.lower_bound_proven


def test_rate_fig7_saturated():
    reg = theoretical_rate(8.0, 3.0)
    assert reg.exponent == pytest.approx(6.0)
    assert reg.branch == BRANCH_SATURATED
    assert reg.upper_bound_proven and reg.lower_bound_proven


def test_rate_subcritical_flat_gamma():
    reg = theoretical_rate(1.0, 3.0)
    assert reg.exponent == pytest.approx(1.2)
    assert reg.branch == BRANCH_SHARP
    assert reg.upper_bound_proven and not reg.lower_bound_proven


def test_rate_branch_continuity():
    for gamma in (2.1, 3.0, 5.0, 10.0):
        a_c = (gamma + 2.0) / (gamma - 2.0)
        flat = theoretical_rate(a_c, gamma).exponent
        just_below = theoretical_rate(a_c * (1 - 1e-13), gamma).exponent
        assert abs(flat - 2.0 * gamma / (gamma - 2.0)) <= 1e-12 * flat
        assert abs(just_below - flat) <= 1e-10 * flat
        a_s = 1.0 + 2.0 / gamma
        lo = theoretical_rate(a_s, gamma).exponent
        hi = theoretical_rate(a_s * (1 + 1e-13), gamma).exponent
        assert abs(lo - hi) <= 1e-10 * max(lo, hi)


def test_rate_monotone_in_alpha_on_sharp_branch():
    for gamma in (1.0, 1.5, 2.0):
        exps = [theoretical_rate(a, gamma).exponent for a in np.linspace(0.2, 10, 30)]
        assert all(b > a for a, b in zip(exps, exps[1:]))


def test_rate_saturates_for_large_alpha():
    for gamma in (2.5, 3.0, 5.0):
        a_c = (gamma + 2.0) / (gamma - 2.0)
        exps = {theoretical_rate(a, gamma).exponent for a in np.linspace(a_c, a_c + 20, 10)}
        assert len(exps) == 1


def test_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        theoretical_rate(0.0, 2.0)
    with pytest.raises(ValueError):
        theoretical_rate(1.0, 0.5)


@pytest.mark.parametrize("alpha, gamma", [
    (math.nan, 3.0), (math.inf, 3.0), (3.0, math.nan), (3.0, math.inf),
])
def test_rate_rejects_non_finite_input(alpha, gamma):
    with pytest.raises(ValueError, match="finite"):
        theoretical_rate(alpha, gamma)


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    t = np.logspace(0, 3, 4000)
    fit = fit_series(t, t**-2.0, (t[0], t[-1]))
    assert fit.exponent == pytest.approx(2.0, abs=1e-6)
    assert fit.stderr <= 1e-6


def test_fit_oscillating_power_law():
    t = np.linspace(1.0, 1000.0, 200_000)
    gap = t**-2.0 * (2.0 + np.sin(t))
    fit = fit_series(t, gap, (t[0], t[-1]))
    assert fit.exponent == pytest.approx(2.0, abs=0.05)


def test_fit_constant_gap():
    t = np.logspace(0, 2, 500)
    fit = fit_series(t, np.ones_like(t), (t[0], t[-1]))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_degenerate_when_all_zero():
    t = np.logspace(0, 2, 100)
    fit = fit_series(t, np.zeros_like(t))
    assert fit.degenerate


def test_fit_errors_with_too_few_records():
    t = np.logspace(0, 2, 100)
    gap = t**-1.0
    with pytest.raises(ValueError):
        fit_series(t, gap, (50.0, 52.0))
    with pytest.raises(ValueError, match="envelope points"):
        fit_series(t, t, (1.0, 10.0))  # rising: later samples exceed the window's


def test_fit_keeps_the_first_crest_point_of_its_window():
    """np.logspace can put the first bin edge past the first crest point
    (10**log10(1.87) > 1.87); that point still starts the first bin."""
    t0 = 1.87
    assert np.logspace(math.log10(t0), 2.0, 3)[0] > t0
    t = t0 * np.linspace(1.0, 50.0, 400)
    fit = fit_series(t, t**-2.0, (t[0], t[-1]))
    assert fit.t_points[0] == t0 and len(fit.t_points) == ENVELOPE_BINS


@pytest.mark.parametrize("seed", range(4))
def test_fit_points_are_the_largest_crest_point_of_each_bin(seed):
    """The envelope points are, bin by bin, the largest crest point in
    [edges[i], edges[i+1]], log-spaced edges pinned to the first and last
    crest points of the window; empty bins give none."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(1.0, 1e3, 3000))
    y = t**-1.5 * (1.5 + np.sin(t)) * rng.uniform(0.5, 1.0, len(t))
    fit = fit_series(t, y, (2.0, 900.0))
    crest = (t >= 2.0) & (t <= 900.0) & (y >= np.maximum.accumulate(y[::-1])[::-1])
    tw, yw = t[crest], y[crest]
    edges = np.logspace(math.log10(tw[0]), math.log10(tw[-1]), ENVELOPE_BINS + 1)
    edges[0], edges[-1] = tw[0], tw[-1]
    bins = [(tw >= lo) & (tw <= hi) for lo, hi in zip(edges[:-1], edges[1:])]
    want = [np.argmax(np.where(b, yw, -np.inf)) for b in bins if b.any()]
    assert fit.t_points.tolist() == tw[want].tolist()
    assert fit.y_points.tolist() == yw[want].tolist()


# ---------------------------------------------------------------------------
# z sequence
# ---------------------------------------------------------------------------

def test_z_exact_cancellation():
    t = np.logspace(0, 3, 1000)
    zs = z_sequence(_gap_traj(t, t**-1.7), 1.7)
    assert np.allclose(zs.z, 1.0)
    assert zs.prenorm_max == pytest.approx(1.0)


def test_z_zero_exponent_is_normalized_gap():
    t = np.logspace(0, 2, 200)
    gap = 3.0 * t**-1.0
    zs = z_sequence(_gap_traj(t, gap), 0.0)
    assert np.allclose(zs.z, gap / gap.max())
    assert zs.prenorm_max == pytest.approx(gap.max())


def test_z_drops_nonpositive_times():
    t = np.array([0.0, 1.0, 2.0])
    zs = z_sequence(_gap_traj(t, np.array([5.0, 1.0, 0.5])), 1.0)
    assert len(zs.t) == 2


def test_z_degenerate():
    t = np.logspace(0, 2, 50)
    zs = z_sequence(_gap_traj(t, np.zeros_like(t)), 1.0)
    assert zs.degenerate


def test_z_overflowed_gap_is_degenerate_not_nan():
    t = np.logspace(0, 2, 50)
    gap = t**-1.0
    gap[-1] = math.inf
    with np.errstate(all="raise"):  # no inf / inf
        zs = z_sequence(_gap_traj(t, gap), 1.0)
    assert zs.degenerate and zs.prenorm_max == math.inf
    assert np.array_equal(zs.z, gap * t)  # left unnormalized
    with pytest.raises(ValueError, match="all gaps are zero, or a gap overflowed"):
        _verify(_gap_traj(t, gap), theoretical_rate(1.0, 2.0))


def test_z_requires_finite_exponent():
    t = np.logspace(0, 2, 50)
    with pytest.raises(ValueError):
        z_sequence(_gap_traj(t, t**-1.0), math.inf)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_verify_rate_synthetic_pass():
    t = np.linspace(0.01, 1000.0, 100_000)
    gap = t**-2.0 * (1.5 + np.sin(3 * t))
    verdict = _verify(_gap_traj(t, gap), theoretical_rate(2.0, 2.0))
    assert verdict.boundedness and verdict.nonvanishing and verdict.passed
    assert verdict.fitted == pytest.approx(2.0, abs=0.05)


def test_verify_rate_vanishing_z_fails():
    # true decay much faster than the candidate exponent: z dies off
    t = np.linspace(0.01, 1000.0, 100_000)
    gap = t**-4.0
    verdict = _verify(_gap_traj(t, gap), theoretical_rate(2.0, 2.0))  # rate 2
    assert not verdict.nonvanishing
    assert not verdict.passed


def test_verify_rate_intermediate_branch_asserts_only_nonvanishing():
    t = np.linspace(0.01, 1000.0, 100_000)
    reg = theoretical_rate(4.0, 3.0)
    gap = t**-reg.exponent * (1.5 + np.sin(t))
    verdict = _verify(_gap_traj(t, gap), reg)
    assert verdict.branch == BRANCH_INTERMEDIATE
    assert verdict.passed == verdict.nonvanishing


def test_verify_rate_rejects_a_z_sequence_at_another_exponent():
    t = np.linspace(0.01, 1000.0, 1000)
    traj = _gap_traj(t, t**-2.0)
    with pytest.raises(ValueError, match="exponent 1.0, the regime's is 2.0"):
        verify_rate(traj, theoretical_rate(2.0, 2.0), z_sequence(traj, 1.0))


def test_verify_rate_needs_a_decade_of_tail():
    t = np.linspace(1.0, 5.0, 1000)
    with pytest.raises(ValueError):
        _verify(_gap_traj(t, t**-1.0), theoretical_rate(1.0, 2.0))


def test_quadratic_rate_matches_alpha_and_beats_exponential_model():
    """For gamma = 2 the decay exponent is alpha itself, and the tail is
    polynomial: a log-linear (exponential) model must fit strictly worse.

    On the quadratic the iteration is a linear recursion whose envelope is
    exactly t**(-alpha) * exp(-sqrt(h) t), so the slope bias at time t is
    2*sqrt(h)*t; the window below keeps it within 0.15 and starts past the
    release transient.
    """
    obj = make_power(2.0)
    cap = scheme_fit_cap(1e-5)
    window = (cap / 4.0, 1.5 * cap)
    for alpha in (1.0, 6.0):
        traj = run_scheme(obj, alpha=alpha, h=1e-5, steps=400_000, x0=0.5, stride=10)
        fit = fit_series(traj.t, traj.gap, window)
        assert fit.exponent == pytest.approx(alpha, abs=0.15)
        r_loglog, r_loglin = tail_model_residuals(traj, t_window=window)
        assert r_loglin > r_loglog


def test_scheme_fit_cap_value():
    assert scheme_fit_cap(1e-5) == pytest.approx(0.05 / math.sqrt(1e-5))


# ---------------------------------------------------------------------------
# the fit window verify_rate picks
# ---------------------------------------------------------------------------

H_WINDOW = 1e-4     # scheme_fit_cap(1e-4) = 5


def test_verify_rate_fits_the_decade_below_the_cap_on_a_sharp_scheme_run():
    traj = run_scheme(make_power(1.5), alpha=1.0, h=H_WINDOW, steps=100_000, x0=0.5,
                      stride=10, use_prox=True)
    cap = scheme_fit_cap(H_WINDOW)
    assert traj.t[-1] > cap
    capped = fit_series(traj.t, traj.gap, (cap / 10.0, cap)).exponent
    assert capped != fit_series(traj.t, traj.gap).exponent
    assert _verify(traj, theoretical_rate(1.0, 1.5)).fitted == capped


@pytest.mark.parametrize("run, gamma", [
    # the integrator has no scheme viscosity (its dt = 1e-2 puts the cap at 0.5)
    (lambda: run_ode(make_power(2.0), alpha=4.0, dt=1e-2, t0=0.1, steps=20_000, x0=0.6,
                     stride=9), 2.0),
    # a flat objective
    (lambda: run_scheme(make_power(3.0), alpha=3.0, h=H_WINDOW, steps=100_000, x0=0.5,
                        stride=10), 3.0),
    # a scheme run that stops before the cap (t = 4)
    (lambda: run_scheme(make_power(1.5), alpha=1.0, h=H_WINDOW, steps=400, x0=0.5,
                        stride=1, use_prox=True), 1.5),
], ids=["rk4", "gamma3-scheme", "short-scheme"])
def test_verify_rate_uses_the_relative_window_elsewhere(run, gamma):
    traj = run()
    verdict = _verify(traj, theoretical_rate(traj.alpha, gamma))
    assert verdict.fitted == fit_series(traj.t, traj.gap).exponent
