import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertial_rates.config import config_from_dict
from inertial_rates.dynamics import _FACTOR_BLOCK as _BLOCK
from inertial_rates import dynamics
from inertial_rates.dynamics import MODES, record_times, run, run_ode, run_scheme
from inertial_rates.objectives import (
    ObjectiveSpec,
    make_least_squares,
    make_plateau,
    make_power,
    parse_objective,
    prox_power,
)


def _zero_objective():
    """grad F == 0 everywhere; the flow reduces to pure damping."""
    return ObjectiveSpec(
        name="zero", dim=1, value=lambda x: 0.0, gradient=lambda x: 0.0,
        f_star=0.0, minimizer_hint=0.0, distance_to_minset=lambda x: 0.0,
        nominal_gamma=1.0, prox=lambda h, y: y,
    )


def _damping_closed_form(alpha, t0, x0, v0, t):
    """Solution of v' = -(alpha/t) v with x' = v (alpha != 1)."""
    v = v0 * (t0 / t) ** alpha
    x = x0 + v0 * t0**alpha * (t ** (1.0 - alpha) - t0 ** (1.0 - alpha)) / (1.0 - alpha)
    return x, v


def _scheme_recurrence(step, alpha, x0, steps):
    """x_{n+1} = step(x_n + n/(n+alpha) (x_n - x_{n-1})) from rest, written out."""
    xs = [x0]
    x_prev = x = x0
    for n in range(steps):
        y = x + (n / (n + alpha)) * (x - x_prev)
        x_prev, x = x, step(y)
        xs.append(x)
    return np.array(xs)


def _rk4_recurrence(grad, alpha, dt, t0, x0, v0, steps):
    """Classical RK4 on (x' = v, v' = -(alpha/t) v - grad(x)), written out."""
    xs, vs = [x0], [v0]
    x, v = x0, v0

    def acc(t, x, v):
        return -(alpha / t) * v - grad(x)

    for k in range(steps):
        t = t0 + k * dt
        k1x, k1v = v, acc(t, x, v)
        k2x = v + 0.5 * dt * k1v
        k2v = acc(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
        k3x = v + 0.5 * dt * k2v
        k3v = acc(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
        k4x = v + dt * k3v
        k4v = acc(t + dt, x + dt * k3x, k4x)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        xs.append(x)
        vs.append(v)
    return np.array(xs), np.array(vs)


# ---------------------------------------------------------------------------
# single steps, through stride-1 runs
# ---------------------------------------------------------------------------

def test_nesterov_step_hand_recurrence():
    traj = run_scheme(make_power(2.0), alpha=3.0, h=0.01, steps=2, x0=1.0, stride=1)
    assert traj.x[1, 0] == pytest.approx(0.98, rel=1e-15)
    # y_1 = 0.98 + (1/4)(0.98 - 1) = 0.975; x_2 = 0.975 - 0.01*1.95
    assert traj.x[2, 0] == pytest.approx(0.9555, rel=1e-15)
    assert list(traj.n) == [0, 1, 2]
    assert traj.v[2, 0] == (traj.x[2, 0] - traj.x[1, 0]) / 0.1


def test_nesterov_step_fixed_point_at_minimizer():
    traj = run_scheme(make_power(2.0), alpha=3.0, h=0.1, steps=10, x0=0.0, stride=1)
    assert np.all(traj.x == 0.0) and np.all(traj.v == 0.0)


def test_prox_step_soft_threshold_kills_small_state():
    traj = run_scheme(make_power(1.0), alpha=3.0, h=0.1, steps=1, x0=0.05, stride=1,
                      use_prox=True)
    assert traj.x[1, 0] == 0.0


def test_prox_step_quadratic_shrink():
    traj = run_scheme(make_power(2.0), alpha=3.0, h=0.5, steps=1, x0=3.0, stride=1,
                      use_prox=True)
    assert traj.x[1, 0] == pytest.approx(1.5)


def test_prox_step_zero_is_fixed():
    traj = run_scheme(make_power(1.5), alpha=3.0, h=0.5, steps=1, x0=0.0, stride=1,
                      use_prox=True)
    assert traj.x[1, 0] == 0.0


def test_prox_step_requires_prox():
    obj = _zero_objective()
    obj = ObjectiveSpec(**{**obj.__dict__, "prox": None})
    with pytest.raises(ValueError):
        run_scheme(obj, alpha=3.0, h=0.1, steps=1, x0=1.0, use_prox=True)


def test_rk4_step_matches_pure_damping():
    obj = _zero_objective()
    alpha, t0, v0 = 3.0, 1.0, 1.0
    dt = 0.01
    steps = int(round(t0 / dt))  # integrate to t = 2*t0
    traj = run_ode(obj, alpha, dt, t0, steps, x0=0.0, v0=v0, stride=1)
    x_ref, v_ref = _damping_closed_form(alpha, t0, 0.0, v0, 2.0 * t0)
    assert traj.v[-1, 0] == pytest.approx(v_ref, abs=5.0 * dt**4)
    assert traj.x[-1, 0] == pytest.approx(x_ref, abs=5.0 * dt**4)


def test_rk4_fourth_order_on_damping_oracle():
    obj = _zero_objective()
    alpha, t0, v0 = 3.0, 1.0, 1.0
    x_ref, v_ref = _damping_closed_form(alpha, t0, 0.0, v0, 2.0)

    def err(dt):
        traj = run_ode(obj, alpha, dt, t0, int(round(1.0 / dt)), x0=0.0, v0=v0, stride=1)
        return abs(traj.x[-1, 0] - x_ref) + abs(traj.v[-1, 0] - v_ref)

    e1, e2 = err(0.02), err(0.01)
    assert math.log2(e1 / e2) >= 3.9


def test_rk4_equilibrium_is_constant():
    traj = run_ode(make_power(2.0), alpha=4.0, dt=0.05, t0=1.0, steps=1, x0=0.0, v0=0.0,
                   stride=1)
    assert traj.x[1, 0] == 0.0 and traj.v[1, 0] == 0.0 and traj.t[1] == 1.05


def test_rk4_rejects_bad_alpha_and_dt():
    obj = make_power(2.0)
    with pytest.raises(ValueError):
        run_ode(obj, alpha=0.0, dt=0.1, t0=1.0, steps=1, x0=1.0)
    with pytest.raises(ValueError):
        run_ode(obj, alpha=3.0, dt=0.0, t0=1.0, steps=1, x0=1.0)
    with pytest.raises(ValueError):
        run_ode(obj, alpha=3.0, dt=0.1, t0=0.0, steps=1, x0=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("dim", [1, 3])
def test_runs_reject_a_non_finite_start(dim, bad):
    """A non-finite start is a bad argument, not a step that diverged."""
    obj = make_power(2.0, dim=dim)
    start = [bad] + [0.0] * (dim - 1)
    with pytest.raises(ValueError, match="run_scheme requires a finite x0"):
        run_scheme(obj, alpha=3.0, h=1e-3, steps=10, x0=start)
    with pytest.raises(ValueError, match="run_ode requires a finite x0"):
        run_ode(obj, alpha=3.0, dt=1e-3, t0=1.0, steps=10, x0=start)
    with pytest.raises(ValueError, match="run_ode requires a finite v0"):
        run_ode(obj, alpha=3.0, dt=1e-3, t0=1.0, steps=10, x0=[0.5] * dim, v0=start)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_scheme_matches_single_steps():
    obj = make_power(2.0)
    traj = run_scheme(obj, alpha=3.0, h=0.01, steps=50, x0=1.0, stride=1)
    xs = _scheme_recurrence(lambda y: y - 0.01 * (2.0 * y), 3.0, 1.0, 50)
    assert np.array_equal(traj.x[:, 0], xs)


def test_run_prox_scheme_matches_single_steps():
    obj = make_power(1.5)
    traj = run_scheme(obj, alpha=2.0, h=0.05, steps=30, x0=0.7, stride=1, use_prox=True)
    xs = _scheme_recurrence(lambda y: prox_power(1.5, 0.05, y), 2.0, 0.7, 30)
    assert np.array_equal(traj.x[:, 0], xs)


@pytest.mark.parametrize("dim", [1, 2])
def test_run_ode_matches_rk4_recurrence(dim):
    obj = make_power(3.0, dim)
    x0 = 0.8 if dim == 1 else np.array([0.8, -0.3])
    v0 = 0.1 if dim == 1 else np.array([0.1, 0.2])
    traj = run_ode(obj, alpha=4.0, dt=0.01, t0=0.5, steps=40, x0=x0, v0=v0, stride=1)
    xs, vs = _rk4_recurrence(obj.gradient, 4.0, 0.01, 0.5, x0, v0, 40)
    assert np.array_equal(traj.x, xs.reshape(-1, dim))
    assert np.array_equal(traj.v, vs.reshape(-1, dim))


def test_one_step_run_has_two_records():
    traj = run_scheme(make_power(2.0), alpha=3.0, h=0.01, steps=1, x0=1.0, stride=100)
    assert len(traj) == 2
    assert list(traj.n) == [0, 1]


def test_stride_and_endpoints():
    traj = run_scheme(make_power(2.0), alpha=3.0, h=0.01, steps=1005, x0=1.0, stride=100)
    assert traj.n[0] == 0 and traj.n[-1] == 1005
    assert all(n % 100 == 0 or n == 1005 for n in traj.n)


def test_time_map_is_exact():
    h = 1e-4
    traj = run_scheme(make_power(2.0), alpha=6.0, h=h, steps=2000, x0=1.0, stride=37)
    assert np.array_equal(traj.t, traj.n * math.sqrt(h))


def test_scheme_velocity_is_divided_difference():
    obj = make_power(2.0)
    traj = run_scheme(obj, alpha=3.0, h=0.01, steps=10, x0=1.0, stride=1)
    dd = np.diff(traj.x[:, 0]) / math.sqrt(0.01)
    assert np.allclose(traj.v[1:, 0], dd)
    assert traj.v[0, 0] == 0.0


def test_plateau_start_inside_minimizer_set():
    traj = run_scheme(make_plateau(2.0, 1.0), alpha=3.0, h=0.01, steps=200, x0=0.3)
    assert np.all(traj.gap == 0.0)


def test_gap_decreases_overall():
    traj = run_scheme(make_power(2.0), alpha=6.0, h=1e-4, steps=100_000, x0=1.0)
    assert traj.gap[-1] < traj.gap[0]
    assert traj.gap[-1] < 1e-6  # h below 1/L: the run contracts, no divergence
    assert np.all(traj.gap >= -1e-12)


def test_nonfinite_gradient_aborts_with_marker():
    bad = ObjectiveSpec(
        name="bad", dim=1, value=lambda x: 0.0, gradient=lambda x: math.nan,
        f_star=0.0, minimizer_hint=0.0, distance_to_minset=abs,
        nominal_gamma=2.0,
    )
    traj = run_scheme(bad, alpha=3.0, h=0.1, steps=100, x0=1.0, stride=10)
    assert traj.error is not None and "non-finite" in traj.error
    assert len(traj) >= 1  # partial trajectory survives


def test_run_ode_records_and_time_map():
    traj = run_ode(make_power(2.0), alpha=6.0, dt=1e-3, t0=0.1, steps=5000, x0=1.0)
    assert traj.mode == "ode-rk4"
    assert traj.t[0] == 0.1
    assert np.array_equal(traj.t, 0.1 + traj.n * 1e-3)
    assert traj.t[-1] == pytest.approx(5.1)


def test_run_ode_clamps_t0_to_dt():
    traj = run_ode(make_power(2.0), alpha=6.0, dt=0.05, t0=1e-9, steps=100, x0=1.0)
    assert traj.t[0] == 0.05


def test_scheme_ode_consistency_improves_with_h():
    """x_n at T = n sqrt(h) approaches the flow at T; halving sqrt(h) shrinks
    the discrepancy by at least 1.5 over T in [1, 10]."""
    obj = make_power(2.0)

    def discrepancy(h):
        sh = math.sqrt(h)
        steps = int(round(10.0 / sh))
        traj = run_scheme(obj, alpha=6.0, h=h, steps=steps, x0=1.0, stride=1)
        dt = 1e-3
        ode = run_ode(obj, alpha=6.0, dt=dt, t0=sh, steps=int(round((10.0 - sh) / dt)),
                      x0=1.0, stride=1)
        worst = 0.0
        for T in range(1, 11):
            n = int(round(T / sh))
            k = int(round((T - sh) / dt))
            worst = max(worst, abs(traj.x[n, 0] - ode.x[k, 0]))
        return worst

    d1, d2 = discrepancy(1e-4), discrepancy(1e-4 / 4.0)
    assert d1 / d2 >= 1.5


@pytest.mark.parametrize("mode", MODES)
def test_run_dispatches_on_config_mode(mode):
    """run steps the dynamics of the config's mode with the step of its
    entry's step key, as run_scheme or run_ode would, from the entry's start
    time and with the record times of record_times."""
    cfg = config_from_dict({
        "objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 1000, "mode": mode,
        "h": 1e-3, "dt": 2e-3, "t0": 0.1, "x0": [1.0], "stride": 100,
    })
    entry, obj = MODES[mode], cfg.build_objective()
    traj = run(cfg, obj)
    step = 1e-3 if entry.is_scheme else 2e-3
    assert (traj.mode, traj.step, len(traj)) == (mode, step, 11)
    assert traj.t0 == entry.start_time(cfg.t0, step) == (0.0 if entry.is_scheme else 0.1)
    assert np.array_equal(traj.t, record_times(mode, step, traj.t0, traj.n))
    assert traj.t[-1] == pytest.approx(math.sqrt(1e-3) * 1000 if entry.is_scheme else 2.1)
    direct = (run_scheme(obj, 6.0, 1e-3, 1000, 1.0, 100, entry.prox) if entry.is_scheme
              else run_ode(obj, 6.0, 2e-3, 0.1, 1000, 1.0, 0.0, 100))
    assert traj.x.tobytes() == direct.x.tobytes() and traj.v.tobytes() == direct.v.tobytes()


def _mode_comparisons(source: str) -> list:
    """The line of each comparison in ``source`` with a mode name among its
    operands (a tuple of names included)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str) and c.value in MODES
                    for side in (node.left, *node.comparators) for c in ast.walk(side))]


def test_only_dynamics_compares_with_a_mode_name():
    """Every rule that depends on the mode is an attribute of its MODES
    entry: no other module of the package compares a value with a mode name
    (returning one, as resolve_mode does, is not a comparison), and none
    imports a private name of dynamics."""
    assert _mode_comparisons('m != "ode-rk4"\nm in ("x", "nesterov")\nm == "auto"\n') == [1, 2]
    found = {}
    for path in sorted(Path(dynamics.__file__).parent.glob("*.py")):
        if path.name != "dynamics.py":
            source = path.read_text(encoding="utf-8")
            private = [a.name for node in ast.walk(ast.parse(source))
                       if isinstance(node, ast.ImportFrom) and node.module == "dynamics"
                       for a in node.names if a.name.startswith("_")]
            lines = _mode_comparisons(source)
            if lines or private:
                found[path.name] = (lines, private)
    assert found == {}


def test_run_vector_dimension():
    cfg = config_from_dict({
        "objective": "power:gamma=2,dim=3", "alpha": 6.0, "steps": 200,
        "mode": "nesterov", "h": 1e-3, "x0": [1.0, -1.0, 0.5], "stride": 50,
    })
    traj = run(cfg, cfg.build_objective())
    assert traj.x.shape[1] == 3
    assert traj.gap[-1] < traj.gap[0]


# ---------------------------------------------------------------------------
# exact fixed points: records filled without stepping
# ---------------------------------------------------------------------------

def _assert_records_match_recurrence(traj, obj, use_prox, alpha, h, x0, steps, stride,
                                     error_step=None):
    """Every record of traj (n, x, v, gap, sign bits included), its filled
    ones built by Trajectory.expanded, equals the written-out recurrence
    stepped to the end, or, for a run whose step ``error_step`` goes
    non-finite, stepped to the state before it: records at the stride
    multiples up to that state, that state itself as the last one, and the
    error marker.  A run at rest holds its records up to the first filled
    one and the last."""
    held, traj = traj, traj.expanded()
    if use_prox:
        step = lambda y: obj.prox(h, y)
    else:
        step = lambda y: y - h * obj.gradient(y)
    last = steps if error_step is None else error_step - 1
    xs = _scheme_recurrence(step, alpha, x0, last).reshape(last + 1, obj.dim)
    ns = list(range(0, last + 1, stride)) + ([last] if last % stride else [])
    vs = np.zeros_like(xs)
    vs[1:] = (xs[1:] - xs[:-1]) / math.sqrt(h)
    points = xs[ns, 0].tolist() if obj.dim == 1 else xs[ns]
    gaps = np.array([obj.value(p) - obj.f_star for p in points])
    if error_step is None:
        assert traj.error is None
    else:
        assert traj.error == f"non-finite state at step {error_step}"
    assert list(traj.n) == ns
    for got, want in ((traj.x, xs[ns]), (traj.v, vs[ns]), (traj.gap, gaps)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    if traj.first_filled is not None:  # filled from a state at rest
        n = traj.n[traj.first_filled]
        assert xs[n].tobytes() == xs[n - 1].tobytes()
        rows = [*range(traj.first_filled + 1), len(traj) - 1][:len(held)]
        assert held.first_filled == traj.first_filled and len(held) <= traj.first_filled + 2
        for got, want in ((held.n, traj.n), (held.t, traj.t), (held.x, traj.x),
                          (held.v, traj.v), (held.gap, traj.gap)):
            assert got.tobytes() == want[rows].tobytes()
    else:
        assert held is traj


_FIXED_POINT_CASES = [
    (f"power:gamma={gamma:g},dim={dim}", use_prox)
    for dim in (1, 3)
    for gamma, use_prox in ((1.0, True), (1.5, True), (2.0, True), (2.0, False))
] + [("plateau:gamma=2,a=1", False), ("plateau:gamma=2,a=1", True)]


@pytest.mark.parametrize("spec, use_prox", _FIXED_POINT_CASES)
@settings(max_examples=15, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    h=st.floats(0.01, 0.45),
    x0=st.sampled_from([0.0, -0.0])
    | st.floats(-310.0, -3.0).map(lambda e: 10.0 ** e)
    | st.floats(0.1, 1.0),
    negative=st.booleans(),
    stride=st.integers(1, 50),
    intervals=st.integers(0, 40),
    offset=st.integers(0, 49),
)
def test_fixed_point_fast_path_matches_recurrence(spec, use_prox, alpha, h, x0, negative,
                                                  stride, intervals, offset):
    """Objectives whose scheme runs reach an exact fixed point (prox runs
    extinguish, gradient steps on x^2 underflow, a plateau start is at rest
    on the minimizer set), from +-0.0, tiny and O(1) starts (inside the
    plateau's [-1, 1]), with steps on and off a stride multiple."""
    obj = parse_objective(spec)
    x0 = -x0 if negative else x0
    start = x0 if obj.dim == 1 else np.array([x0, -0.5 * x0, 0.25 * x0])
    steps = intervals * stride + offset % stride or stride
    traj = run_scheme(obj, alpha, h, steps, start, stride=stride, use_prox=use_prox)
    _assert_records_match_recurrence(traj, obj, use_prox, alpha, h, start, steps, stride)


def test_frozen_run_stops_stepping():
    """The Fig. 5 prox run extinguishes x near step 41,160; the steps after
    that are not taken, and the records are still those of the recurrence."""
    obj = make_power(1.5)
    calls = [0]

    def prox(h, y):
        calls[0] += 1
        return obj.prox(h, y)

    counted = ObjectiveSpec(**{**obj.__dict__, "prox": prox})
    traj = run_scheme(counted, alpha=1.0, h=1e-5, steps=200_000, x0=0.6, stride=10,
                      use_prox=True)
    assert calls[0] < 42_000
    _assert_records_match_recurrence(traj, obj, True, 1.0, 1e-5, 0.6, 200_000, 10)


@pytest.mark.parametrize("dim", [1, 3])
def test_zeros_of_opposite_sign_are_not_at_rest(dim):
    """-0.0 == 0.0, yet x = -0.0 after x_prev = +0.0 is not at rest: a soft
    threshold that keeps the sign of a zero maps y = -0.0 + m*(-0.0) to -0.0
    once, and the step after that (y = -0.0 + m*(+0.0) = +0.0) to +0.0."""
    if dim == 1:
        prox = lambda h, y: math.copysign(max(abs(y) - h, 0.0), y)
    else:
        prox = lambda h, y: np.copysign(np.maximum(np.abs(y) - h, 0.0), y)
    obj = ObjectiveSpec(
        name="signed-soft-threshold", dim=dim, value=lambda x: float(np.sum(np.abs(x))),
        gradient=np.sign, f_star=0.0, minimizer_hint=0.0, distance_to_minset=abs,
        nominal_gamma=1.0, prox=prox,
    )
    # x_0 = h/2 > 0, x_1 = +0.0, x_2 = -0.0 (from y_1 = -h/2 * m), x_3 = -0.0, x_4 = +0.0
    x0 = 0.05 if dim == 1 else np.full(dim, 0.05)
    run = run_scheme(obj, alpha=3.0, h=0.1, steps=12, x0=x0, stride=1, use_prox=True)
    traj = run.expanded()
    assert np.all(np.signbit(traj.x[2:4])) and not np.any(np.signbit(traj.x[4:]))
    _assert_records_match_recurrence(run, obj, True, 3.0, 0.1, x0, 12, 1)


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_in_objective_aborts_with_marker():
    def grad(x):
        raise OverflowError(34, "Numerical result out of range")

    obj = ObjectiveSpec(**{**_zero_objective().__dict__, "gradient": grad})
    for traj in (
        run_scheme(obj, alpha=3.0, h=0.1, steps=100, x0=1.0, stride=10),
        run_ode(obj, alpha=3.0, dt=0.1, t0=1.0, steps=100, x0=1.0, stride=10),
    ):
        assert traj.error == "non-finite state at step 1"
        assert list(traj.n) == [0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec, h, x0, last", [
    ("power:gamma=3,dim=1", 10.0, 5.0, 7),        # the gap of x_7 overflows a float
    ("power:gamma=4,dim=2", 1.0, [5.0, 0.0], 5),  # diverges before the first stride point
])
def test_diverging_scheme_records_last_finite_state(spec, h, x0, last):
    traj = run_scheme(parse_objective(spec), alpha=3.0, h=h, steps=1000, x0=x0, stride=100)
    assert traj.error == f"non-finite state at step {last + 1}"
    assert list(traj.n) == [0, last]
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.v))
    assert traj.gap[-1] == math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2])
def test_diverging_rk4_reports_step_in_every_dimension(dim):
    x0 = 5.0 if dim == 1 else [5.0, 0.0]
    traj = run_ode(make_power(4.0, dim), alpha=3.0, dt=0.5, t0=0.5, steps=1000, x0=x0,
                   stride=100)
    assert traj.error == "non-finite state at step 4"
    assert list(traj.n) == [0, 3]
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.v))


@pytest.mark.parametrize("ode", [False, True])
def test_diverging_nd_run_reports_by_its_marker_alone(ode):
    """A 3-D run that leaves the floats emits no numpy RuntimeWarning."""
    obj, x0 = make_power(4.0, 3), [5.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = (run_ode(obj, alpha=3.0, dt=10.0, t0=1.0, steps=100, x0=x0, stride=7) if ode
                else run_scheme(obj, alpha=3.0, h=10.0, steps=100, x0=x0, stride=7))
    assert traj.error.startswith("non-finite state at step")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("spec, x0", [
    ("power:gamma=1.5,dim=1", 0.7), ("power:gamma=1.5,dim=3", [0.7, -0.1, 0.2]),
    ("plateau:gamma=2,a=0.5", -1.5), ("power:gamma=3,dim=1", 5.0),
    ("power:gamma=4,dim=2", [5.0, 0.0]),
])
def test_gap_is_recorded_with_each_point(mode, spec, x0):
    """The gap of every record, filled ones and overflowing ones included, is
    F(x) - F* of that record's point, as a pass over the finished records
    would compute it (an overflow counts as inf)."""
    obj = parse_objective(spec)
    h = 10.0 if spec.startswith("power:gamma=3") else 0.05
    traj = run(config_from_dict({
        "objective": spec, "alpha": 3.0, "mode": mode, "h": h, "dt": h, "t0": 1.0,
        "steps": 3_000, "stride": 7, "x0": x0 if isinstance(x0, list) else [x0],
    }), obj)

    def gap(p):
        try:
            return obj.value(p) - obj.f_star
        except OverflowError:
            return math.inf

    points = traj.x[:, 0].tolist() if obj.dim == 1 else traj.x
    want = np.array([gap(p) for p in points])
    assert np.array_equal(traj.gap, want) and np.array_equal(np.signbit(traj.gap), np.signbit(want))


# ---------------------------------------------------------------------------
# float and array forms of the loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0, 4.0])
@settings(max_examples=15, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    log_step=st.floats(-5.0, -2.0),
    x0_u=st.floats(0.0, 1.0),
    x0_sign=st.sampled_from([-1.0, 1.0]),
    v0=st.floats(-1.0, 1.0),
)
def test_float_and_array_loops_agree_on_an_axis(mode, gamma, alpha, log_step, x0_u,
                                                x0_sign, v0):
    """power at dim 1 against power at dim 3 started on the first axis: the
    off-axis components stay exactly 0.  The gradient loops agree bit for bit
    for gamma 2 and 3, where the 1-D product (2.0*y, 3.0*y*|y|) and the
    radial gamma * |x|**(gamma-2) * x round alike; gamma 1.5, gamma 4 (the
    1-D product 4.0*y*y*y against the radial 4.0 * n**2.0 * x) and every
    prox run (the radial prox rescales y by prox(|y|)/|y|, which rounds
    differently from the scalar prox) agree to a bounded relative drift.

    |x0| is log-uniform on [1e-300, 2], which covers the range where the
    squared sum inside the radial norm is subnormal.  RK4 at gamma 1.5 keeps
    |x0| >= 1e-3: its right-hand side is only Hoelder at 0, and a start near
    0 amplifies the last-bit gradient differences past the bound (6e-3
    relative at x0 = -1e-7, dt = 1e-2, v0 = 0).
    """
    lo = -3.0 if (mode, gamma) == ("ode-rk4", 1.5) else -300.0
    x0_abs = 10.0 ** (lo + x0_u * (math.log10(2.0) - lo))
    steps, step, x0 = 500, 10.0 ** log_step, x0_sign * x0_abs
    flat, radial = make_power(gamma, 1), make_power(gamma, 3)
    if mode == "ode-rk4":
        dt = step
        a = run_ode(flat, alpha, dt, 0.1, steps, x0, v0, stride=1)
        b = run_ode(radial, alpha, dt, 0.1, steps, [x0, 0.0, 0.0], [v0, 0.0, 0.0], stride=1)
    else:
        prox = mode == "prox-nesterov"
        a = run_scheme(flat, alpha, step, steps, x0, stride=1, use_prox=prox)
        b = run_scheme(radial, alpha, step, steps, [x0, 0.0, 0.0], stride=1, use_prox=prox)
    assert a.error is None and b.error is None
    assert np.all(b.x[:, 1:] == 0.0) and np.all(b.v[:, 1:] == 0.0)
    if gamma in (2.0, 3.0) and mode != "prox-nesterov":
        assert np.array_equal(a.x, b.x[:, :1]) and np.array_equal(a.v, b.v[:, :1])
    else:
        for p, q in ((a.x, b.x[:, :1]), (a.v, b.v[:, :1])):
            scale = float(np.max(np.abs(p))) or 1.0
            assert float(np.max(np.abs(p - q))) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# the interval loop: factor blocks, one finiteness test per record interval
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stride", [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 9_000])
@pytest.mark.parametrize("spec, use_prox", [
    ("power:gamma=3,dim=1", False), ("power:gamma=1.5,dim=1", True),
    ("power:gamma=3,dim=3", False), ("power:gamma=2.5,dim=3", True),
])
def test_interval_loop_matches_recurrence(spec, use_prox, stride):
    """9,000 steps: two full factor blocks and part of a third, and a step
    count that is no multiple of the stride (except stride = steps)."""
    obj = parse_objective(spec)
    x0 = 0.6 if obj.dim == 1 else np.array([0.6, -0.2, 0.1])
    traj = run_scheme(obj, 3.0, 1e-3, 9_000, x0, stride=stride, use_prox=use_prox)
    _assert_records_match_recurrence(traj, obj, use_prox, 3.0, 1e-3, x0, 9_000, stride)


def _rest_step(step, alpha, x0, steps):
    """First n with x_n equal to x_{n-1} bit for bit, from the recurrence."""
    xs = _scheme_recurrence(step, alpha, x0, steps)
    same = (xs[1:] == xs[:-1]) & (np.signbit(xs[1:]) == np.signbit(xs[:-1]))
    return int(np.argmax(same)) + 1


@pytest.mark.parametrize("h, stride, rest", [
    (1e-6, 7, 3949),           # at rest inside block 0, found at the next multiple of 7
    (1e-6, 5_000, 3949),       # found at the block's end, no record before it
    (9.235e-7, _BLOCK, _BLOCK),      # at rest exactly at the block's end
    (9.235e-7, _BLOCK - 1, _BLOCK),  # ... one step after a record
])
def test_interval_loop_freezes_inside_and_at_the_end_of_a_block(h, stride, rest):
    """The soft threshold extinguishes x from 0.1; the run stops stepping once
    at rest, by the end of block 0, and still records the recurrence."""
    obj = make_power(1.0)
    assert _rest_step(lambda y: obj.prox(h, y), 3.0, 0.1, 9_000) == rest
    calls = [0]

    def prox(h, y):
        calls[0] += 1
        return obj.prox(h, y)

    counted = ObjectiveSpec(**{**obj.__dict__, "prox": prox})
    traj = run_scheme(counted, 3.0, h, 9_000, 0.1, stride=stride, use_prox=True)
    assert calls[0] <= _BLOCK + 1
    _assert_records_match_recurrence(traj, obj, True, 3.0, h, 0.1, 9_000, stride)


def _cliff_objective(dim, c, beyond):
    """F(x) = -<u, x>, a constant push along u, while the extrapolated point
    has norm below c; at norm c and beyond, gradient and prox call
    ``beyond(y)``."""
    u = 1.0 if dim == 1 else np.array([1.0, 0.5, -0.25])
    norm = abs if dim == 1 else np.linalg.norm
    return ObjectiveSpec(
        name="cliff", dim=dim, value=lambda x: -float(np.sum(u * x)),
        gradient=lambda y: -u if norm(y) < c else beyond(y),
        f_star=0.0, minimizer_hint=0.0, distance_to_minset=norm,
        nominal_gamma=1.0,
        prox=lambda h, y: y + h * u if norm(y) < c else beyond(y),
    )


def _cliff_at(dim, use_prox, j, beyond, h=1e-4):
    """A cliff objective whose step j (counted from 1) is the first to reach
    the cliff, the start it is run from, and the objective without a cliff."""
    x0 = 0.5 if dim == 1 else 0.5 * np.array([1.0, 0.5, -0.25])
    free = _cliff_objective(dim, math.inf, None)
    step = (lambda y: free.prox(h, y)) if use_prox else (lambda y: y - h * free.gradient(y))
    xs = _scheme_recurrence(step, 3.0, x0, j - 1)
    x, x_prev = xs[-1], xs[-2] if j > 1 else x0
    y = x + ((j - 1) / (j - 1 + 3.0)) * (x - x_prev)
    c = abs(y) if dim == 1 else np.linalg.norm(y)
    return _cliff_objective(dim, c, beyond), x0, y


def _to_infinity(y):
    return math.inf if np.ndim(y) == 0 else math.inf * np.array([1.0, 0.5, -0.25])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("use_prox", [False, True])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("stride", [7, _BLOCK])
@pytest.mark.parametrize("j", [
    1,               # the first step
    73,              # mid-interval (stride 7)
    77,              # an interval's last step (stride 7)
    _BLOCK,          # the last step of block 0
    _BLOCK + 1,      # the first step of block 1
    5_000,           # the run's last step
])
def test_interval_loop_divergence_matches_per_step_reference(j, stride, dim, use_prox):
    """Step j is the first non-finite state: same marker, records up to the
    state before it and that state as the last record, as stepping and
    testing one step at a time gives."""
    obj, x0, _ = _cliff_at(dim, use_prox, j, _to_infinity)
    traj = run_scheme(obj, 3.0, 1e-4, 5_000, x0, stride=stride, use_prox=use_prox)
    _assert_records_match_recurrence(traj, obj, use_prox, 3.0, 1e-4, x0, 5_000, stride,
                                     error_step=j)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("j", [1, 73, _BLOCK + 1])
def test_overflow_error_at_step_j_gives_marker_step_j(j, dim):
    def overflow(y):
        raise OverflowError(34, "Numerical result out of range")

    obj, x0, _ = _cliff_at(dim, False, j, overflow)
    traj = run_scheme(obj, 3.0, 1e-4, 5_000, x0, stride=100)
    _assert_records_match_recurrence(traj, obj, False, 3.0, 1e-4, x0, 5_000, 100,
                                     error_step=j)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("j", [1, 73, _BLOCK + 1])
def test_other_exceptions_propagate_from_their_step(j, dim):
    """Not a non-finite state: the ValueError leaves run_scheme, raised at the
    extrapolated point of step j."""
    def fail(y):
        raise ValueError(y)

    obj, x0, y = _cliff_at(dim, False, j, fail)
    with pytest.raises(ValueError) as info:
        run_scheme(obj, 3.0, 1e-4, 5_000, x0, stride=100)
    assert np.array_equal(info.value.args[0], y)


_CATALOG = [f"power:gamma={g},dim={d}" for g in (1, 1.5, 2, 2.5, 3, 4) for d in (1, 3)] + [
    f"plateau:gamma={g},a=0.5" for g in (1, 1.5, 2, 3)] + ["lsq"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec", _CATALOG)
def test_steps_map_non_finite_points_to_non_finite_points(spec):
    """The precondition of the deferred finiteness test: a gradient step or
    prox of a catalog objective never brings a non-finite point back."""
    if spec == "lsq":
        obj = make_least_squares(np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 1.0]]),
                                 np.array([1.0, 0.0]))
    else:
        obj = parse_objective(spec)
    if obj.dim == 1:
        points = [math.inf, -math.inf, math.nan]
    else:
        points = [np.array(p) for p in ([math.inf, 0.0, 0.0], [0.0, -math.inf, 1.0],
                                        [math.nan, 0.5, 0.0], [math.inf, -math.inf, 0.0])]
    for y in points:
        for h in (1e-5, 0.5, 10.0):
            assert not np.all(np.isfinite(y - h * obj.gradient(y)))
            assert not np.all(np.isfinite(obj.prox(h, y)))


def test_factor_memory_is_bounded_by_the_block():
    """A single record interval of 2e5 steps holds one block of factors at a
    time, not 2e5 of them."""
    tracemalloc.start()
    try:
        run_scheme(make_power(2.0), 3.0, 1e-5, 200_000, 0.6, stride=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# RK4 through the same interval loop: time blocks, deferred finiteness test
# ---------------------------------------------------------------------------

def _assert_rk4_records_match_recurrence(traj, obj, alpha, dt, t0, x0, v0, steps, stride,
                                         error_step=None):
    """Every record of traj (n, t, x, v, gap, sign bits included) equals the
    written-out RK4 recurrence, stepped to the end or, for a run whose step
    ``error_step`` goes non-finite, to the state before it, which is then
    the last record, with the error marker."""
    last = steps if error_step is None else error_step - 1
    xs, vs = _rk4_recurrence(obj.gradient, alpha, dt, t0, x0, v0, last)
    xs, vs = xs.reshape(last + 1, obj.dim), vs.reshape(last + 1, obj.dim)
    ns = list(range(0, last + 1, stride)) + ([last] if last % stride else [])
    points = xs[ns, 0].tolist() if obj.dim == 1 else xs[ns]
    gaps = np.array([obj.value(p) - obj.f_star for p in points])
    if error_step is None:
        assert traj.error is None
    else:
        assert traj.error == f"non-finite state at step {error_step}"
    assert list(traj.n) == ns
    assert np.array_equal(traj.t, t0 + np.array(ns) * dt)
    for got, want in ((traj.x, xs[ns]), (traj.v, vs[ns]), (traj.gap, gaps)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("stride", [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 9_000])
@pytest.mark.parametrize("dim", [1, 3])
def test_rk4_interval_loop_matches_recurrence(dim, stride):
    """9,000 steps: two full time blocks and part of a third, and a step
    count that is no multiple of the stride (except stride = steps)."""
    obj = make_power(3.0, dim)
    x0 = 0.6 if dim == 1 else np.array([0.6, -0.2, 0.1])
    v0 = 0.1 if dim == 1 else np.array([0.1, 0.0, -0.05])
    traj = run_ode(obj, 3.0, 1e-3, 0.5, 9_000, x0, v0, stride=stride)
    _assert_rk4_records_match_recurrence(traj, obj, 3.0, 1e-3, 0.5, x0, v0, 9_000, stride)


_RK4_ALPHA, _RK4_DT, _RK4_T0 = 3.0, 1e-3, 1.0


def _rk4_cliff_at(dim, j, beyond):
    """A cliff objective (a constant push along u below norm c) whose RK4
    step j (counted from 1) is the first to reach the cliff, at its last
    stage point x4, the start (x0, v0) it is run from, and that point."""
    x0 = 0.5 if dim == 1 else 0.5 * np.array([1.0, 0.5, -0.25])
    v0 = 0.2 * x0
    free = _cliff_objective(dim, math.inf, None)
    alpha, dt = _RK4_ALPHA, _RK4_DT
    xs, vs = _rk4_recurrence(free.gradient, alpha, dt, _RK4_T0, x0, v0, j - 1)
    norm = abs if dim == 1 else np.linalg.norm
    stages = []
    for k in range(j):
        x, v, t = xs[k], vs[k], _RK4_T0 + k * dt
        v2 = v + 0.5 * dt * (-(alpha / t) * v - free.gradient(x))
        v3 = v + 0.5 * dt * (-(alpha / (t + 0.5 * dt)) * v2 - free.gradient(x + 0.5 * dt * v))
        stages += [x, x + 0.5 * dt * v, x + 0.5 * dt * v2, x + dt * v3]
    c = norm(stages[-1])
    assert all(norm(p) < c for p in stages[:-1])  # the push moves every stage out along u
    return _cliff_objective(dim, c, beyond), x0, v0, stages[-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("stride", [7, _BLOCK])
@pytest.mark.parametrize("j", [
    1,               # the first step
    73,              # mid-interval (stride 7)
    77,              # an interval's last step (stride 7)
    _BLOCK,          # the last step of block 0
    _BLOCK + 1,      # the first step of block 1
    5_000,           # the run's last step
])
def test_rk4_divergence_matches_per_step_reference(j, stride, dim):
    """The gradient at step j's last stage is infinite, so v goes non-finite
    at step j while x stays finite: same marker, and records up to the state
    before it with that state as the last record, as stepping and testing
    one step at a time gives."""
    obj, x0, v0, _ = _rk4_cliff_at(dim, j, _to_infinity)
    traj = run_ode(obj, _RK4_ALPHA, _RK4_DT, _RK4_T0, 5_000, x0, v0, stride=stride)
    _assert_rk4_records_match_recurrence(traj, obj, _RK4_ALPHA, _RK4_DT, _RK4_T0, x0, v0,
                                         5_000, stride, error_step=j)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("j", [1, 73, _BLOCK + 1])
def test_rk4_overflow_error_at_step_j_gives_marker_step_j(j, dim):
    def overflow(y):
        raise OverflowError(34, "Numerical result out of range")

    obj, x0, v0, _ = _rk4_cliff_at(dim, j, overflow)
    traj = run_ode(obj, _RK4_ALPHA, _RK4_DT, _RK4_T0, 5_000, x0, v0, stride=100)
    _assert_rk4_records_match_recurrence(traj, obj, _RK4_ALPHA, _RK4_DT, _RK4_T0, x0, v0,
                                         5_000, 100, error_step=j)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("j", [1, 73, _BLOCK + 1])
def test_rk4_other_exceptions_propagate_from_their_step(j, dim):
    """Not a non-finite state: the ValueError leaves run_ode, raised at the
    last stage point of step j."""
    def fail(y):
        raise ValueError(y)

    obj, x0, v0, x4 = _rk4_cliff_at(dim, j, fail)
    with pytest.raises(ValueError) as info:
        run_ode(obj, _RK4_ALPHA, _RK4_DT, _RK4_T0, 5_000, x0, v0, stride=100)
    assert np.array_equal(info.value.args[0], x4)


def test_rk4_time_memory_is_bounded_by_the_block():
    """A single record interval of 5e4 RK4 steps holds one block of step
    start times at a time, not 5e4 of them."""
    tracemalloc.start()
    try:
        run_ode(make_power(2.0), 3.0, 1e-5, 0.1, 50_000, 0.6, stride=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_scheme_converges_to_the_flow_at_first_order_in_sqrt_h(gamma):
    """Under t = n sqrt(h), x_n at T = 2 approaches the flow's x(2) (RK4 with
    dt = 2**-16 from rest at t0 = dt, alpha 3, x0 0.8) at first order in
    sqrt(h): each 4x smaller h (h = 4**-k, k = 5..8) halves the error."""
    obj = make_power(gamma)
    dt = 2.0 ** -16
    flow = run_ode(obj, 3.0, dt, dt, 2 * 2**16 - 1, 0.8, stride=2**20)
    assert flow.t[-1] == 2.0
    errors = []
    for k in range(5, 9):
        traj = run_scheme(obj, 3.0, 4.0 ** -k, 2 * 2**k, 0.8, stride=2**20)
        assert traj.t[-1] == 2.0
        errors.append(abs(traj.x[-1, 0] - flow.x[-1, 0]))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def _fill_by_concatenation(n, x, v, gap, stride, last):
    """fill_records as it was written before it filled its results in place."""
    first = int(n[-1])
    tail = np.arange(first + stride, last + 1, stride, dtype=np.int64)
    if (last - first) % stride:
        tail = np.append(tail, np.int64(last))
    k = len(tail)
    return (np.concatenate((n, tail)), np.concatenate((x, np.repeat(x[-1:], k, axis=0))),
            np.concatenate((v, np.repeat(v[-1:], k, axis=0))),
            np.concatenate((gap, np.full(k, gap[-1]))))


@settings(max_examples=100, deadline=None)
@given(
    records=st.integers(1, 5),
    dim=st.integers(1, 3),
    first=st.integers(0, 10 ** 9),
    stride=st.integers(1, 1000),
    span=st.integers(0, 5000),
    values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3),
)
def test_fill_records_matches_the_concatenated_fill(records, dim, first, stride, span, values):
    """The same records, dtypes and bits (signed zeros and NaN payloads
    included) as the concatenation of each array with its repeated last row."""
    n = np.arange(first - records + 1, first + 1, dtype=np.int64)
    x, v = (np.arange(records * dim, dtype=float).reshape(records, dim) for _ in "xv")
    gap = np.arange(records, dtype=float)
    x[-1], v[-1], gap[-1] = values  # the last record, which the fill repeats
    got = dynamics.fill_records(stride, first + span, n, x, v, gap)
    want = _fill_by_concatenation(n, x, v, gap, stride, first + span)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
