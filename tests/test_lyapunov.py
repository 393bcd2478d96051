import numpy as np
import pytest

from inertial_rates.dynamics import Trajectory, run_ode, run_scheme
from inertial_rates.lyapunov import (
    check_H_monotone,
    check_Hprime_closed_form,
    energy_along,
    first_gap_dominance_time,
    manual_params,
    select_params,
    sharp_K1,
    velocity_decay_exponent,
)
from inertial_rates.objectives import ObjectiveSpec, make_power
from inertial_rates.rates import theoretical_rate


def _zero_objective():
    return ObjectiveSpec(
        name="zero", dim=1, value=lambda x: 0.0, gradient=lambda x: 0.0,
        f_star=0.0, minimizer_hint=0.0, distance_to_minset=lambda x: 0.0,
        nominal_gamma=1.0,
    )


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

def test_select_params_boundary_alpha_gamma_one():
    p = select_params(3.0, 1.0)
    assert p.lam == 2.0 and p.xi == 0.0 and p.K1 == 0.0 and p.p == 0.0


def test_select_params_sharp_example():
    p = select_params(5.0, 2.0)
    assert p.lam == pytest.approx(2.5)
    assert p.xi == pytest.approx(-3.75)
    assert p.p == pytest.approx(3.0)
    assert p.K1 == pytest.approx(7.5)


def test_select_params_flat_example():
    p = select_params(6.0, 3.0, "flat")
    assert p.lam == pytest.approx(2.0)
    assert p.p == pytest.approx(4.0)
    assert p.xi == pytest.approx(-6.0)
    assert p.regime == "flat"


def test_flat_regime_rejects_gamma_at_most_two():
    with pytest.raises(ValueError):
        select_params(6.0, 2.0, "flat")


def test_default_regime_follows_gamma():
    assert select_params(3.0, 1.5).regime == "sharp"
    assert select_params(6.0, 3.0).regime == "flat"


@pytest.mark.parametrize("alpha, gamma, family", [
    (1.0, 3.0, "sharp"),   # sharp-subcritical branch
    (2.5, 4.0, "sharp"),   # flat-intermediate: the flat rate 4 exceeds the cell's 10/3
    (8.0, 3.0, "flat"),    # flat-saturated
])
def test_default_regime_follows_the_rate_branch(alpha, gamma, family):
    assert select_params(alpha, gamma).regime == family


def test_manual_params_enforce_xi():
    p = manual_params(4.0, 1.5, 2.0)
    assert p.xi == pytest.approx(1.5 * (1.5 + 1.0 - 4.0))
    assert p.K1 == pytest.approx(p.xi * (p.p - 2.0 * p.lam))


def test_sharp_K1_matches_coefficient_form():
    for alpha in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
        for gamma in (1.0, 1.3, 1.7, 2.0, 2.5, 4.0):
            p = select_params(alpha, gamma, "sharp")
            assert p.K1 == pytest.approx(p.xi * (p.p - 2.0 * p.lam), rel=1e-12, abs=1e-12)
            assert p.K1 == pytest.approx(sharp_K1(alpha, gamma), rel=1e-12, abs=1e-12)


def test_xi_sign_law_on_grid():
    # xi >= 0 exactly when alpha <= 1 + 2/gamma under sharp parameters
    for alpha in np.linspace(0.5, 10.0, 39):
        for gamma in np.linspace(1.0, 2.0, 21):
            xi = select_params(alpha, gamma, "sharp").xi
            if alpha <= 1.0 + 2.0 / gamma - 1e-9:
                assert xi > -1e-12
            elif alpha >= 1.0 + 2.0 / gamma + 1e-9:
                assert xi < 1e-12


def test_K1_sign_law_on_grid():
    # for gamma <= 2: K1 <= 0 exactly when alpha <= 1 + 2/gamma
    for alpha in np.linspace(0.5, 10.0, 39):
        for gamma in np.linspace(1.0, 2.0, 21):
            K1 = select_params(alpha, gamma, "sharp").K1
            if alpha <= 1.0 + 2.0 / gamma - 1e-9:
                assert K1 < 1e-12
            elif alpha >= 1.0 + 2.0 / gamma + 1e-9:
                assert K1 > -1e-12


def test_rate_branches_agree_at_flat_boundary():
    for gamma in (2.5, 3.0, 5.0):
        alpha = (gamma + 2.0) / (gamma - 2.0)
        sharp = 2.0 * gamma * alpha / (gamma + 2.0)
        flat = 2.0 * gamma / (gamma - 2.0)
        assert abs(sharp - flat) <= 1e-12 * flat
        assert theoretical_rate(alpha, gamma).exponent == pytest.approx(flat, rel=1e-12)


# ---------------------------------------------------------------------------
# energy tables
# ---------------------------------------------------------------------------

def _synthetic_traj(t, x, v, gap, mode="ode-rk4"):
    n = np.arange(len(t))
    return Trajectory(
        mode=mode, alpha=1.0, step=1.0,
        t0=float(t[0]), n=n, t=np.asarray(t, dtype=float),
        x=np.asarray(x, dtype=float).reshape(-1, 1),
        v=np.asarray(v, dtype=float).reshape(-1, 1),
        gap=np.asarray(gap, dtype=float),
    )


def test_energy_hand_example():
    # F = x^2 at x = 1, v = 0, t = 1 with lambda = 2.5, xi = -3.75
    traj = _synthetic_traj([1.0], [1.0], [0.0], [1.0])
    params = select_params(5.0, 2.0)
    table = energy_along(traj, params, x_star=0.0)
    assert table.a[0] == pytest.approx(1.0)
    assert table.b[0] == pytest.approx(3.125)
    assert table.c[0] == pytest.approx(0.5)
    assert table.E[0] == pytest.approx(2.25)
    assert table.H[0] == pytest.approx(2.25)  # t = 1


def test_energy_zero_at_rest_minimizer():
    traj = _synthetic_traj([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    table = energy_along(traj, select_params(3.0, 2.0))
    assert np.all(table.E == 0.0) and np.all(table.H == 0.0)
    rep = check_H_monotone(table, "nonincreasing")
    assert rep.holds
    rep = check_H_monotone(table, "nondecreasing")
    assert rep.holds


def test_energy_identities_on_real_run():
    obj = make_power(2.0)
    traj = run_ode(obj, alpha=5.0, dt=1e-3, t0=0.5, steps=5000, x0=0.7, stride=10)
    params = select_params(5.0, 2.0)
    table = energy_along(traj, params, x_star=0.0)
    t, lam, xi, p = table.t, params.lam, params.xi, params.p
    keep = traj.t > 0
    x = traj.x[keep][:, 0]
    v = traj.v[keep][:, 0]
    gap = traj.gap[keep]
    displayed = t**2 * gap + 0.5 * (lam * x + t * v) ** 2 + 0.5 * xi * x**2
    assert np.all(np.abs(table.E - displayed) <= 1e-12 * np.maximum(1.0, np.abs(table.E)))
    recomposed = t ** (p + 1.0) * (table.a + table.b + xi * table.c)
    assert np.all(np.abs(table.H - recomposed) <= 1e-12 * np.maximum(1.0, np.abs(table.H)))
    assert np.all(table.a >= 0.0) and np.all(table.b >= 0.0) and np.all(table.c >= 0.0)


def test_energy_drops_t_zero_records():
    obj = make_power(2.0)
    traj = run_scheme(obj, alpha=3.0, h=0.01, steps=100, x0=1.0, stride=10)
    table = energy_along(traj, select_params(3.0, 2.0))
    assert len(table) == len(traj) - 1
    assert table.t[0] > 0.0


def test_check_H_monotone_reports_worst_pair():
    traj = _synthetic_traj([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0, 0, 0], [1.0, 1.0, 1.0])
    params = manual_params(3.0, 0.0, 0.0)  # H = t^0 * E = E grows with t here
    table = energy_along(traj, params)
    rep = check_H_monotone(table, "nonincreasing")
    assert not rep.holds and rep.worst_violation > 0.0
    assert rep.worst_pair[0] < rep.worst_pair[1]
    rep2 = check_H_monotone(table, "nondecreasing")
    assert rep2.holds


def test_check_H_monotone_requires_two_records():
    traj = _synthetic_traj([1.0], [1.0], [0.0], [1.0])
    table = energy_along(traj, select_params(3.0, 2.0))
    with pytest.raises(ValueError):
        check_H_monotone(table, "nonincreasing")
    with pytest.raises(ValueError):
        check_H_monotone(table, "sideways")


# ---------------------------------------------------------------------------
# closed-form derivative diagnostics
# ---------------------------------------------------------------------------

def test_hprime_closed_form_quadratic():
    obj = make_power(2.0)
    traj = run_ode(obj, alpha=5.0, dt=1e-4, t0=1.0, steps=90_000, x0=0.5, stride=25)
    params = select_params(5.0, 2.0)
    resid = check_Hprime_closed_form(traj, params)
    assert resid <= 5e-4


def test_hprime_rejects_scheme_trajectories():
    obj = make_power(2.0)
    traj = run_scheme(obj, alpha=5.0, h=1e-4, steps=1000, x0=0.5)
    with pytest.raises(ValueError):
        check_Hprime_closed_form(traj, select_params(5.0, 2.0))


def test_hprime_zero_K1_keeps_H_constant():
    # alpha = 1 + 2/gamma makes K1 = 0, so H is a conserved quantity
    obj = make_power(2.0)
    traj = run_ode(obj, alpha=2.0, dt=1e-4, t0=1.0, steps=90_000, x0=0.5, stride=25)
    params = select_params(2.0, 2.0)
    assert params.K1 == pytest.approx(0.0, abs=1e-15)
    table = energy_along(traj, params, x_star=0.0)
    H0 = table.H[0]
    assert np.max(np.abs(table.H - H0)) <= 1e-6 * H0


def test_hprime_resting_trajectory_is_zero():
    traj = _synthetic_traj([1.0, 1.1, 1.2, 1.3], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0])
    resid = check_Hprime_closed_form(traj, select_params(5.0, 2.0))
    assert resid == 0.0


def test_first_gap_dominance_time_exists_for_growing_H():
    obj = make_power(2.0)
    traj = run_ode(obj, alpha=6.0, dt=1e-3, t0=0.1, steps=20_000, x0=0.5, stride=10)
    table = energy_along(traj, select_params(6.0, 2.0), x_star=0.0)
    t1 = first_gap_dominance_time(table)
    assert t1 is not None and t1 >= 0.1


# ---------------------------------------------------------------------------
# velocity decay
# ---------------------------------------------------------------------------

def test_velocity_decay_pure_damping_recovers_alpha():
    obj = _zero_objective()
    traj = run_ode(obj, alpha=3.0, dt=1e-3, t0=1.0, steps=99_000, x0=0.0, v0=1.0, stride=10)
    fit = velocity_decay_exponent(traj, 2.0, 90.0)
    assert fit.exponent == pytest.approx(3.0, abs=1e-6)


def test_velocity_decay_degenerate_when_at_rest():
    traj = _synthetic_traj([1.0, 2.0, 3.0], [0, 0, 0], [0.0, 0.0, 0.0], [0, 0, 0])
    fit = velocity_decay_exponent(traj, 1.0, 3.0)
    assert fit.degenerate


def test_velocity_decay_empty_window_raises():
    traj = _synthetic_traj([1.0, 2.0], [0, 0], [1.0, 1.0], [0, 0])
    with pytest.raises(ValueError):
        velocity_decay_exponent(traj, 5.0, 6.0)
