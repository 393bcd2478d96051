"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to see them on success).  All tolerances are pinned here.  Desk-scale
parameters throughout: h = 1e-5 for scheme runs (exponent fits are windowed
below the sqrt(h)-viscosity cap, see rates.scheme_fit_cap).
"""
import math
import time

import numpy as np
import pytest

from inertial_rates.config import config_from_dict
from inertial_rates.dynamics import run_ode, run_scheme
from inertial_rates.gridrun import run_cell
from inertial_rates.lyapunov import (
    check_H_monotone,
    check_Hprime_closed_form,
    energy_along,
    select_params,
    velocity_decay_exponent,
)
from inertial_rates.objectives import (
    ObjectiveSpec,
    check_gradient,
    make_least_squares,
    make_plateau,
    make_power,
    probe_h1,
    probe_h2,
)
from inertial_rates.rates import (
    scheme_fit_cap,
    tail_model_residuals,
    theoretical_rate,
    verify_rate,
    z_sequence,
)

H_SCHEME = 1e-5
STEPS = 2_000_000
CAP = scheme_fit_cap(H_SCHEME)          # ~15.8 for h = 1e-5
SHARP_WINDOW = (CAP / 10.0, CAP)        # fit decade below the viscosity cap


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig5_left():
    t0 = time.perf_counter()
    traj = run_scheme(
        make_power(1.5), alpha=1.0, h=H_SCHEME, steps=STEPS, x0=0.5,
        stride=10, use_prox=True,
    )
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig6_right():
    return run_scheme(make_power(2.0), alpha=6.0, h=H_SCHEME, steps=STEPS, x0=0.5, stride=10)


@pytest.fixture(scope="module")
def fig7_family():
    return {
        alpha: run_scheme(make_power(3.0), alpha=alpha, h=H_SCHEME, steps=STEPS,
                          x0=0.5, stride=10)
        for alpha in (1.0, 4.0, 6.0, 8.0)
    }


def test_criterion_1_fig5_left_optimal_sharp_rate(fig5_left):
    """power gamma=1.5, alpha=1, prox steps: rate 6/7 is achieved."""
    traj, elapsed = fig5_left
    regime = theoretical_rate(1.0, 1.5)
    assert regime.exponent == pytest.approx(6.0 / 7.0)
    verdict = verify_rate(traj, regime, z_sequence(traj, regime.exponent))
    ok = (
        abs(verdict.fitted - 6.0 / 7.0) <= 0.1
        and verdict.boundedness
        and verdict.nonvanishing
        and elapsed < 30.0
    )
    _report(
        "C1",
        ok,
        f"fig5-left: fitted={verdict.fitted:.4f} (target {6/7:.4f}+-0.1), "
        f"z tail ratio={verdict.z_tail_ratio:.3f}, bounded={verdict.boundedness}, "
        f"nonvanishing={verdict.nonvanishing}, runtime={elapsed:.1f}s (< 30s)",
    )
    assert abs(verdict.fitted - 6.0 / 7.0) <= 0.1
    assert verdict.boundedness and verdict.nonvanishing
    assert elapsed < 30.0


def test_criterion_2_fig6_right_quadratic_rate_not_exponential(fig6_right):
    """power gamma=2, alpha=6: rate 6, and the decay is polynomial."""
    traj = fig6_right
    regime = theoretical_rate(6.0, 2.0)
    verdict = verify_rate(traj, regime, z_sequence(traj, regime.exponent))
    r_loglog, r_loglin = tail_model_residuals(traj, t_window=SHARP_WINDOW)
    ok = (
        abs(verdict.fitted - 6.0) <= 0.3
        and verdict.nonvanishing
        and r_loglin >= 2.0 * r_loglog
    )
    _report(
        "C2",
        ok,
        f"fig6-right: fitted={verdict.fitted:.4f} (target 6+-0.3), "
        f"nonvanishing={verdict.nonvanishing}, exponential-model residual "
        f"{r_loglin:.3f} >= 2x power-law residual {r_loglog:.3f}",
    )
    assert abs(verdict.fitted - 6.0) <= 0.3
    assert verdict.nonvanishing
    assert r_loglin >= 2.0 * r_loglog


def test_criterion_3_fig7_flat_family(fig7_family):
    """power gamma=3 at alpha in {1, 4, 6, 8}: piecewise rate branches."""
    expected = {1.0: 1.2, 4.0: 4.8, 6.0: 6.0, 8.0: 6.0}
    details = []
    ok = True
    for alpha, traj in fig7_family.items():
        regime = theoretical_rate(alpha, 3.0)
        assert regime.exponent == pytest.approx(expected[alpha])
        verdict = verify_rate(traj, regime, z_sequence(traj, regime.exponent))
        if alpha == 4.0:
            cell_ok = verdict.nonvanishing  # Prop-4.8 regime: lower bound only
            details.append(
                f"a=4: nonvanishing={verdict.nonvanishing} "
                f"(fitted={verdict.fitted:.3f} informative)"
            )
        else:
            cell_ok = abs(verdict.fitted - expected[alpha]) <= 0.3
            details.append(f"a={alpha:g}: fitted={verdict.fitted:.3f}~{expected[alpha]:g}")
        ok = ok and cell_ok
    _report("C3", ok, "fig7 gamma=3: " + "; ".join(details))
    for alpha, traj in fig7_family.items():
        regime = theoretical_rate(alpha, 3.0)
        verdict = verify_rate(traj, regime, z_sequence(traj, regime.exponent))
        if alpha == 4.0:
            assert verdict.nonvanishing
        else:
            assert abs(verdict.fitted - expected[alpha]) <= 0.3


def test_criterion_4_lyapunov_monotonicity_suite():
    """H monotone in the theorem-prescribed direction at tolerance 1e-9.

    The gamma < 2 runs start high enough that x never crosses the gradient
    singularity at 0 inside [0.1, 100]: each crossing of |x|**gamma with
    gamma < 2 injects O(dt**1.5) integration noise, orders of magnitude
    above the 1e-9 tolerance (see notes in the repo docs), while the smooth
    segment exercises the same monotonicity content.
    """
    cases = [
        # (gamma, alpha, x0, direction)
        (1.5, 1.0, 2e8, "nonincreasing"),   # K1 < 0: H strictly decreasing
        (1.0, 3.0, 2000.0, "nonincreasing"),  # boundary alpha = 1+2/gamma: K1 = 0
        (2.0, 6.0, 0.5, "nondecreasing"),   # K1 > 0 branch
    ]
    details = []
    ok = True
    for gamma, alpha, x0, direction in cases:
        obj = make_power(gamma)
        traj = run_ode(obj, alpha=alpha, dt=1e-4, t0=0.1,
                       steps=int(round(99.9 / 1e-4)), x0=x0, stride=100)
        assert traj.t[-1] == pytest.approx(100.0)
        if gamma < 2.0:
            assert np.min(traj.x) > 0.0  # stayed on the smooth segment
        params = select_params(alpha, gamma, "sharp")
        table = energy_along(traj, params, x_star=0.0)
        rep = check_H_monotone(table, direction, tol=1e-9)
        ok = ok and rep.holds
        details.append(
            f"(g={gamma:g},a={alpha:g}) {direction} "
            f"{'ok' if rep.holds else f'violated by {rep.worst_violation:.2e}'}"
        )
    _report("C4", ok, "H monotonicity on RK4 t in [0.1,100], dt=1e-4: " + "; ".join(details))
    assert ok


def test_criterion_5_hprime_closed_form_identity():
    """dH/dt = K1 t^p c(t) along the flow for power objectives."""
    worst = 0.0
    details = []
    for gamma in (1.5, 2.0):
        for alpha in (1.0, 3.0, 6.0):
            traj = run_ode(make_power(gamma), alpha=alpha, dt=1e-4, t0=1.0,
                           steps=90_000, x0=0.5, stride=50)
            params = select_params(alpha, gamma, "sharp")
            resid = check_Hprime_closed_form(traj, params)
            worst = max(worst, resid)
            details.append(f"(g={gamma:g},a={alpha:g})={resid:.1e}")
    ok = worst <= 5e-4
    _report("C5", ok, f"max residual {worst:.2e} <= 5e-4; " + " ".join(details))
    assert worst <= 5e-4


def test_criterion_6_velocity_bound_and_finite_length():
    """gamma=3, alpha=6: ||v|| envelope decays at least like t^-2.7 and the
    trajectory has numerically finite length."""
    traj = run_ode(make_power(3.0), alpha=6.0, dt=1e-3, t0=0.1,
                   steps=299_900, x0=0.5, stride=10)
    fit = velocity_decay_exponent(traj, 10.0, 300.0)
    dx = np.abs(np.diff(traj.x[:, 0]))
    total = float(dx.sum())
    tail = float(dx[traj.t[1:] >= 30.0].sum())
    ok = fit.exponent >= 2.7 and tail <= 0.01 * total
    _report(
        "C6",
        ok,
        f"velocity envelope exponent {fit.exponent:.3f} >= 2.7 (theory 3); "
        f"path length {total:.4f}, last-decade share {tail / total:.2e} <= 1%",
    )
    assert fit.exponent >= 2.7
    assert tail <= 0.01 * total


def test_criterion_7_geometry_probe_suite():
    """Flatness/growth probes reproduce the power-function duality and the
    plateau growth bound."""
    ok = True
    details = []
    for gamma in (1.5, 2.0, 3.0):
        obj = make_power(gamma)
        for gp in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5):
            rep = probe_h1(obj, gp, 0.0, 1.0, 200, seed=7)
            want = gp <= gamma
            ok = ok and (rep.holds == want)
            if not want and rep.holds != want:
                details.append(f"H1({gp}) on gamma={gamma} wrong")
            if not rep.holds:
                ok = ok and rep.witness is not None
        for r in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
            rep = probe_h2(obj, r, 1.0, 0.0, 1.0, 200, seed=7)
            want = r >= gamma
            ok = ok and (rep.holds == want)
    plateau = make_plateau(2.0, 1.0)
    rep = probe_h2(plateau, 2.0, 1.0, 1.0, 1.0, 200, seed=7)
    ok = ok and rep.holds
    _report(
        "C7",
        ok,
        "power H1/H2 duality exact for gamma in {1.5,2,3}; "
        f"plateau H2(2) at the interval edge holds (worst margin {rep.worst_margin:.1e})",
    )
    assert ok


def _rk4_damping_error(alpha, t0, v0, dt):
    obj = ObjectiveSpec(
        name="zero", dim=1, value=lambda x: 0.0, gradient=lambda x: 0.0,
        f_star=0.0, minimizer_hint=0.0, distance_to_minset=lambda x: 0.0,
        nominal_gamma=1.0,
    )
    traj = run_ode(obj, alpha, dt, t0, int(round(t0 / dt)), x0=0.0, v0=v0, stride=1)
    T = 2.0 * t0
    v_ref = v0 * (t0 / T) ** alpha
    x_ref = v0 * t0**alpha * (T ** (1 - alpha) - t0 ** (1 - alpha)) / (1 - alpha)
    return abs(traj.x[-1, 0] - x_ref) + abs(traj.v[-1, 0] - v_ref)


def _scheme_ode_discrepancy(h):
    obj = make_power(2.0)
    sh = math.sqrt(h)
    traj = run_scheme(obj, alpha=6.0, h=h, steps=int(round(10.0 / sh)), x0=1.0, stride=1)
    dt = 1e-3
    ode = run_ode(obj, alpha=6.0, dt=dt, t0=sh, steps=int(round((10.0 - sh) / dt)),
                  x0=1.0, stride=1)
    worst = 0.0
    for T in range(1, 11):
        n = int(round(T / sh))
        k = int(round((T - sh) / dt))
        worst = max(worst, abs(traj.x[n, 0] - ode.x[k, 0]))
    return worst


def test_criterion_8_infrastructure(tmp_path):
    """Prox residuals, gradient checks, RK4 order, scheme/ODE consistency,
    and byte-identical reruns."""
    # 1008 random prox cases across the catalog, residual <= 1e-10
    rng = np.random.default_rng(2024)
    objs = [
        make_power(1.5), make_power(2.0), make_power(2.5), make_power(3.0),
        make_power(4.0), make_plateau(1.5, 0.5), make_plateau(2.0, 1.0),
        make_least_squares(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([1.0, 3.0])),
    ]
    worst_prox = 0.0
    n_cases = 0
    for obj in objs:
        for h in (1e-3, 1e-1, 1.0):
            for _ in range(42):
                if obj.dim == 1:
                    y = float(rng.uniform(-5, 5))
                    z = obj.prox(h, y)
                    res = abs(z - y + h * obj.gradient(z))
                else:
                    y = rng.uniform(-5, 5, size=obj.dim)
                    z = obj.prox(h, y)
                    res = float(np.linalg.norm(z - y + h * obj.gradient(z)))
                worst_prox = max(worst_prox, res)
                n_cases += 1
    prox_ok = worst_prox <= 1e-10 and n_cases >= 1000

    # finite-difference gradient error <= 1e-6 at 100 points per objective
    worst_grad = 0.0
    for obj in (make_power(1.5), make_power(2.0), make_power(3.0), make_plateau(2.0, 1.0)):
        for _ in range(100):
            x = float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))
            worst_grad = max(worst_grad, check_gradient(obj, x))
    lsq = objs[-1]
    for _ in range(100):
        worst_grad = max(worst_grad, check_gradient(lsq, rng.uniform(-2, 2, size=2)))
    grad_ok = worst_grad <= 1e-6

    # RK4 order on the pure-damping oracle
    e1 = _rk4_damping_error(3.0, 1.0, 1.0, 0.02)
    e2 = _rk4_damping_error(3.0, 1.0, 1.0, 0.01)
    order = math.log2(e1 / e2)
    order_ok = order >= 3.9

    # scheme tracks the flow at O(sqrt(h)): quartering h halves the error
    d1 = _scheme_ode_discrepancy(1e-4)
    d2 = _scheme_ode_discrepancy(2.5e-5)
    consistency = d1 / d2
    consistency_ok = consistency >= 1.5

    # byte-identical reruns of a full cell
    cfg = config_from_dict({
        "objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 50_000,
        "h": 1e-4, "stride": 10,
    })
    run_cell(cfg, str(tmp_path / "a"))
    run_cell(cfg, str(tmp_path / "b"))
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("records.npz", "verdict.json")
    )

    ok = prox_ok and grad_ok and order_ok and consistency_ok and identical
    _report(
        "C8",
        ok,
        f"prox residual {worst_prox:.1e} <= 1e-10 ({n_cases} cases); "
        f"grad fd error {worst_grad:.1e} <= 1e-6; RK4 order {order:.2f} >= 3.9; "
        f"scheme/ODE factor {consistency:.2f} >= 1.5; byte-identical={identical}",
    )
    assert prox_ok and grad_ok and order_ok and consistency_ok and identical
