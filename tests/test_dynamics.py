import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertial_rates.config import config_from_dict
from inertial_rates.dynamics import MODES, run, run_ode, run_scheme
from inertial_rates.objectives import (
    ObjectiveSpec,
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
        nominal_gamma=1.0, nominal_r=1.0, prox=lambda h, y: y,
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
        nominal_gamma=2.0, nominal_r=2.0,
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


def test_run_dispatches_on_config_mode():
    cfg = config_from_dict({
        "objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 100,
        "mode": "nesterov", "h": 1e-3, "x0": [1.0], "stride": 10,
    })
    traj = run(cfg, cfg.build_objective())
    assert traj.mode == "nesterov" and len(traj) == 11

    cfg = config_from_dict({
        "objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 1000,
        "mode": "ode-rk4", "dt": 1e-3, "t0": 0.1, "x0": [1.0], "v0": [0.0],
    })
    traj = run(cfg, cfg.build_objective())
    assert traj.mode == "ode-rk4"
    assert traj.t[-1] == pytest.approx(1.1)


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

def _assert_records_match_recurrence(traj, obj, use_prox, alpha, h, x0, steps, stride):
    """Every record of traj (n, x, v, gap, sign bits included) equals the
    written-out recurrence stepped to the end."""
    if use_prox:
        step = lambda y: obj.prox(h, y)
    else:
        step = lambda y: y - h * obj.gradient(y)
    xs = _scheme_recurrence(step, alpha, x0, steps).reshape(steps + 1, obj.dim)
    ns = list(range(0, steps + 1, stride)) + ([steps] if steps % stride else [])
    vs = np.zeros_like(xs)
    vs[1:] = (xs[1:] - xs[:-1]) / math.sqrt(h)
    points = xs[ns, 0].tolist() if obj.dim == 1 else xs[ns]
    gaps = np.array([obj.value(p) - obj.f_star for p in points])
    assert traj.error is None
    assert list(traj.n) == ns
    for got, want in ((traj.x, xs[ns]), (traj.v, vs[ns]), (traj.gap, gaps)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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
        nominal_gamma=1.0, nominal_r=1.0, prox=prox,
    )
    # x_0 = h/2 > 0, x_1 = +0.0, x_2 = -0.0 (from y_1 = -h/2 * m), x_3 = -0.0, x_4 = +0.0
    x0 = 0.05 if dim == 1 else np.full(dim, 0.05)
    traj = run_scheme(obj, alpha=3.0, h=0.1, steps=12, x0=x0, stride=1, use_prox=True)
    assert np.all(np.signbit(traj.x[2:4])) and not np.any(np.signbit(traj.x[4:]))
    _assert_records_match_recurrence(traj, obj, True, 3.0, 0.1, x0, 12, 1)


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


# ---------------------------------------------------------------------------
# float and array forms of the loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
@settings(max_examples=15, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    log_step=st.floats(-5.0, -2.0),
    x0_abs=st.floats(1e-3, 2.0),
    x0_sign=st.sampled_from([-1.0, 1.0]),
    v0=st.floats(-1.0, 1.0),
)
def test_float_and_array_loops_agree_on_an_axis(mode, gamma, alpha, log_step, x0_abs,
                                                x0_sign, v0):
    """power at dim 1 against power at dim 3 started on the first axis: the
    off-axis components stay exactly 0.  The gradient loops agree bit for bit
    for gamma 2 and 3 (pow-free gradients); gamma 1.5 and every prox run
    (the radial prox rescales y by prox(|y|)/|y|, which rounds differently
    from the scalar prox) agree to a bounded relative drift.

    |x0| stays above 1e-3: the radial norm underflows to 0 below ~1e-154,
    where the dim-3 objective is flat and the dim-1 one is not.
    """
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
