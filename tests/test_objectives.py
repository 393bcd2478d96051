import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inertial_rates.objectives import (
    ObjectiveSpec,
    as_point,
    check_gradient,
    flatness_constant,
    make_least_squares,
    make_plateau,
    make_power,
    parse_objective,
    probe_h1,
    probe_h2,
    prox_power,
    reference_point,
    sample_ball,
)
from inertial_rates.config import MAX_PROX_STEP
from inertial_rates.objectives import _prox_newton, _safe_pow


# ---------------------------------------------------------------------------
# catalog values and gradients
# ---------------------------------------------------------------------------

def test_power_quadratic_values():
    obj = make_power(2.0, 1)
    assert obj.value(3.0) == 9.0
    assert obj.gradient(3.0) == 6.0
    assert obj.f_star == 0.0
    assert obj.distance_to_minset(-2.5) == 2.5


def test_power_cubic_gradient_sign():
    obj = make_power(3.0, 1)
    assert obj.value(-2.0) == 8.0
    assert obj.gradient(-2.0) == -12.0


def test_power_2d_minimizer():
    obj = make_power(1.5, 2)
    x = np.zeros(2)
    assert obj.value(x) == 0.0
    assert np.all(obj.gradient(x) == 0.0)


def test_power_radial_consistency():
    obj1 = make_power(2.5, 1)
    obj3 = make_power(2.5, 3)
    x = np.array([0.3, -0.4, 1.2])
    assert obj3.value(x) == pytest.approx(obj1.value(float(np.linalg.norm(x))))


def test_power_rejects_gamma_below_one():
    with pytest.raises(ValueError):
        make_power(0.5)


def test_plateau_values_and_distance():
    obj = make_plateau(2.0, 1.0)
    assert obj.value(3.0) == 4.0
    assert obj.value(0.5) == 0.0
    assert obj.distance_to_minset(3.0) == 2.0
    assert obj.distance_to_minset(0.2) == 0.0
    assert obj.minimizer_hint == (-1.0, 1.0)


def test_plateau_gradient_chain_rule():
    obj = make_plateau(3.0, 0.5)
    assert obj.gradient(1.0) == pytest.approx(0.75)
    assert obj.gradient(0.3) == 0.0
    # gradient vanishes on the whole minimizer set
    for x in (-0.5, -0.1, 0.0, 0.49):
        assert abs(obj.gradient(x)) <= 1e-12


def test_least_squares_identity():
    obj = make_least_squares(np.eye(2), np.array([1.0, 2.0]))
    assert obj.f_star == 0.0
    assert np.allclose(obj.minimizer_hint, [1.0, 2.0])
    assert np.all(np.abs(obj.gradient(np.asarray(obj.minimizer_hint))) <= 1e-12)


def test_least_squares_rank_deficient():
    # normal equations by hand: x1 = 1, x2 free; minimum norm picks (1, 0)
    obj = make_least_squares(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
    assert obj.f_star == pytest.approx(0.5)
    assert np.allclose(obj.minimizer_hint, [1.0, 0.0])
    # distance ignores the free direction
    assert obj.distance_to_minset(np.array([1.0, 57.0])) == pytest.approx(0.0, abs=1e-12)
    assert obj.distance_to_minset(np.array([3.0, 57.0])) == pytest.approx(2.0)


def test_least_squares_scalar_gradient():
    obj = make_least_squares(np.array([[2.0]]), np.array([4.0]))
    assert obj.gradient(1.0) == pytest.approx(-4.0)


def test_least_squares_with_one_unknown_takes_and_returns_floats():
    obj = make_least_squares(np.array([[2.0], [1.0]]), np.array([4.0, 1.5]))
    assert type(obj.gradient(1.0)) is float and type(obj.prox(0.1, 1.0)) is float
    x_hat = reference_point(obj)
    assert type(x_hat) is float and obj.gradient(x_hat) == pytest.approx(0.0, abs=1e-12)
    assert check_gradient(obj, 0.3) < 1e-6


def test_least_squares_prox_equals_a_fresh_solve_for_any_sequence_of_h():
    """The prox keeps I + h*A^T A for the latest h; alternating and repeated
    steps give the bits of a solve with the matrix built afresh."""
    A = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 1.0]])
    b = np.array([1.0, 0.0, 2.0])
    obj = make_least_squares(A, b)
    y = np.array([0.3, -0.7])
    for h in (1e-3, 1e-3, 0.5, 1e-3, 2.0, 2.0, 1e-3):
        want = np.linalg.solve(np.eye(2) + h * (A.T @ A), y + h * (A.T @ b))
        assert obj.prox(h, y).tobytes() == want.tobytes()


def test_least_squares_rejects_zero_operator():
    with pytest.raises(ValueError):
        make_least_squares(np.zeros((2, 2)), np.ones(2))


def test_value_never_below_f_star():
    rng = np.random.default_rng(7)
    for obj in (make_power(1.5), make_power(3.0), make_plateau(2.0, 1.0)):
        for x in rng.uniform(-3, 3, size=50):
            assert obj.value(float(x)) >= obj.f_star - 1e-15


# ---------------------------------------------------------------------------
# proximal maps
# ---------------------------------------------------------------------------

def test_prox_soft_threshold():
    # optimality condition z + h*sign(z) = y
    assert prox_power(1.0, 0.1, 0.5) == pytest.approx(0.4)
    assert prox_power(1.0, 0.1, -0.5) == pytest.approx(-0.4)
    assert prox_power(1.0, 0.1, 0.05) == 0.0


def test_prox_quadratic_shrinkage():
    # z*(1+2h) = y
    assert prox_power(2.0, 0.5, 3.0) == pytest.approx(1.5)


def test_prox_cubic_root():
    # positive root of z + z^2 = 2
    assert prox_power(3.0, 1.0 / 3.0, 2.0) == pytest.approx(1.0)


def test_prox_zero_input():
    assert prox_power(1.7, 0.3, 0.0) == 0.0


def test_prox_rejects_bad_args():
    with pytest.raises(ValueError):
        prox_power(0.9, 0.1, 1.0)
    with pytest.raises(ValueError):
        prox_power(2.0, 0.0, 1.0)


@pytest.mark.parametrize("gamma,h,message", [
    (math.nan, 0.1, "gamma >= 1, got nan"),  # was an ArithmeticError after 200 Newton steps
    (1.5, math.nan, "h > 0, got nan"),       # was a nan result
], ids=["nan-gamma", "nan-h"])
def test_prox_rejects_a_nan_gamma_or_h(gamma, h, message):
    with pytest.raises(ValueError, match=message):
        prox_power(gamma, h, 1.0)


def _prox_residual(obj, h, y):
    """|z - y + h g| with g = gradient(z); the optimality residual."""
    z = obj.prox(h, y)
    g = obj.gradient(z)
    if obj.dim == 1:
        return abs(z - y + h * g)
    return float(np.linalg.norm(z - y + h * g))


@pytest.mark.parametrize("h", [1e-3, 1e-1, 1.0])
def test_prox_optimality_residual_catalog(h):
    rng = np.random.default_rng(11)
    objs = [
        make_power(1.5), make_power(2.0), make_power(2.5), make_power(3.0),
        make_power(4.0), make_plateau(2.0, 1.0), make_plateau(1.5, 0.5),
    ]
    for obj in objs:
        for y in rng.uniform(-5.0, 5.0, size=100):
            assert _prox_residual(obj, h, float(y)) <= 1e-10
    lsq = make_least_squares(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([1.0, 3.0]))
    for _ in range(100):
        y = rng.uniform(-5.0, 5.0, size=2)
        assert _prox_residual(lsq, h, y) <= 1e-10


def test_prox_radial_matches_scalar():
    obj = make_power(1.5, 2)
    y = np.array([3.0, 4.0])  # norm 5
    z = obj.prox(0.2, y)
    mag = prox_power(1.5, 0.2, 5.0)
    assert np.allclose(z, y / 5.0 * mag)


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("r", [6.3e-174, 1e-200, 1e-159, 1e-161, 1e155])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gamma >= 2 overflows at 1e155
def test_radial_power_below_norm_underflow_matches_dim1(gamma, r):
    """np.linalg.norm is inexact below ~1.5e-154 (0 below ~1e-162) and inf
    above ~1.3e154; on an axis the radial value, gradient and prox must still
    match the 1-D objective there."""
    flat, radial = make_power(gamma, 1), make_power(gamma, 3)
    for x in (r, -r):
        on_axis = np.array([0.0, x, 0.0])
        try:
            want = flat.value(x)
        except OverflowError:  # the 1-D float ** raises where numpy gives inf
            want = math.inf
        assert radial.value(on_axis) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert radial.distance_to_minset(on_axis) == pytest.approx(r, rel=1e-12, abs=0.0)
        for got, want in ((radial.gradient(on_axis), flat.gradient(x)),
                          (radial.prox(1e-3, on_axis), flat.prox(1e-3, x))):
            assert got[0] == 0.0 and got[2] == 0.0
            assert got[1] == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(1.0, 6.0),
    log_h=st.floats(-4.0, 0.5),
    y=st.floats(-20.0, 20.0),
)
def test_prox_optimality_property(gamma, log_h, y):
    h = 10.0 ** log_h
    z = prox_power(gamma, h, y)
    if z == 0.0:
        if gamma == 1.0:
            assert abs(y) <= h + 1e-10 * max(1.0, abs(y))
        elif y != 0.0:
            # for gamma > 1 a zero output means the true root underflowed:
            # log of the penalty-dominated root (|y|/(h gamma))^(1/(gamma-1))
            # sits below the smallest positive double
            log_root = math.log(abs(y) / (h * gamma)) / (gamma - 1.0)
            assert log_root < -700.0 or abs(y) < 1e-150
    else:
        res = z - y + h * gamma * abs(z) ** (gamma - 1.0) * math.copysign(1.0, z)
        assert abs(res) <= 1e-10 * max(1.0, abs(y))


def test_prox_newton_general_gamma_residual():
    rng = np.random.default_rng(3)
    for gamma in (1.2, 1.8, 2.7, 5.0):
        for _ in range(50):
            y = float(rng.uniform(-10, 10))
            h = float(10 ** rng.uniform(-4, 0.5))
            z = prox_power(gamma, h, y)
            assert abs(z) <= abs(y) or y == 0.0
            res = z - y + h * gamma * abs(z) ** (gamma - 1.0) * math.copysign(1.0, z)
            assert abs(res) <= 1e-10 * max(1.0, abs(y))


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.sampled_from([1.5, 3.0]),
    log_h=st.floats(-12.0, 4.0),
    y=st.floats(min_value=-1.7976931348623157e308, max_value=1.7976931348623157e308,
                allow_subnormal=True).filter(lambda v: v != 0.0),
)
def test_prox_closed_form_matches_newton(gamma, log_h, y):
    """The closed forms of gamma 1.5 and 3 against the general Newton branch,
    over every finite nonzero y and step sizes far beyond any run's.

    Tolerance: Newton stops once |f(u)| <= tol = 1e-14*max(1, |y|) for
    f(u) = u + h*gamma*u**(gamma-1) - |y|, and f' >= 1, so its answer lies
    within tol of the root.  Evaluating f rounds each of its terms, all at
    most |y|, by a few ulps (under 1e-15*|y|), and the closed form is a few
    ulps of a root that is at most |y|.  Together that stays below
    2*tol.  The closed form must also meet Newton's own stopping rule, which
    a zero returned for a huge root (an overflow inside the formula) fails;
    the rule is skipped only where its penalty term itself overflows."""
    h = 10.0 ** log_h
    closed = prox_power(gamma, h, y)
    newton = _prox_newton(gamma, h, y)
    tol = 1e-14 * max(1.0, abs(y))
    assert math.copysign(1.0, closed) == math.copysign(1.0, y)
    assert abs(closed - newton) <= 2.0 * tol
    u = abs(closed)
    penalty = _safe_pow(h * gamma, u, gamma - 1.0)
    if penalty < math.inf:  # inf only for |y| within ulps of the float max
        assert abs(u + penalty - abs(y)) <= tol


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.1, 8.0)),
    h=st.floats(-300.0, 150.0).map(lambda e: 10.0 ** e),
    y=st.floats(min_value=-1.7976931348623157e308, max_value=1.7976931348623157e308,
                allow_subnormal=True).filter(lambda v: v != 0.0),
)
@example(gamma=1.5, h=1.085e-12, y=166617610.71128255)  # s*s rounded up past |y|
def test_prox_never_exceeds_its_point(gamma, h, y):
    """The exact prox shrinks y toward 0, so |prox(y)| <= |y| for the closed
    forms (gamma 1, 1.5, 2, 3) and for Newton, up to config.MAX_PROX_STEP."""
    assert abs(prox_power(gamma, h, y)) <= abs(y)


@pytest.mark.parametrize("gamma, h, y", [
    (3.0, 1e-11, 3.3e299), (3.0, 1.0, 1e308), (1.5, 0.3, 5e307), (1.5, 1.0, 1.7976931348623157e308),
])
def test_prox_closed_forms_do_not_overflow(gamma, h, y):
    """Huge inputs once overflowed inside the closed forms (4*|y|, 12*h*|y|,
    the square of the gamma 1.5 root) and inside the Newton residual, and the
    result was 0, inf or nan."""
    z = prox_power(gamma, h, y)
    assert 0.0 < z <= y and math.isfinite(z)
    assert z == pytest.approx(_prox_newton(gamma, h, y), rel=1e-13)


@pytest.mark.parametrize("gamma, h, y", [
    (1.01, 0.01434140163867841, -8.65023729472042e-06),   # root ~4e-323, a subnormal
    (1.001, 136.4920447608856, 65.17979644909627),
    (1.001, 4744.159586527272, -5.06812187634493e-290),  # u**(gamma-2) past the floats
])
def test_prox_newton_roots_near_the_float_floor(gamma, h, y):
    """Roots at or below the smallest subnormal end the iteration as an
    underflow to 0; the residual there cannot reach the tolerance."""
    z = prox_power(gamma, h, y)
    assert abs(z) <= 1e-300 and math.copysign(1.0, z) == math.copysign(1.0, y)


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(1.1, 8.0),
    log_h=st.floats(-300.0, 150.0),
    y=st.floats(min_value=-1.7976931348623157e308, max_value=1.7976931348623157e308,
                allow_subnormal=True).filter(lambda v: v != 0.0),
)
def test_prox_newton_converges_up_to_the_step_cap(gamma, log_h, y):
    """Every finite y != 0 and 1e-300 <= h <= config.MAX_PROX_STEP: Newton
    meets its tolerance (or its root underflows to 0) within 200 iterations.
    Two cases of tiny h and huge |y| once failed: |y|/(h gamma) overflowed and
    the start fell back to |y|, and the penalty h*gamma*u**(gamma-1) past
    the overflow of u**(gamma-1) was off by more than the tolerance."""
    z = prox_power(gamma, min(10.0 ** log_h, MAX_PROX_STEP), y)
    assert math.isfinite(z) and math.copysign(1.0, z) == math.copysign(1.0, y)


@pytest.mark.parametrize("gamma, h, y", [
    (5.714998896148783, 6.493888032188644e-212, -2.1554377199715058e+105),
    (7.0, 1e-233, 1.2583851944036333e+76),   # u**6 overflows near the root
])
def test_prox_newton_roots_of_tiny_steps_and_huge_points(gamma, h, y):
    z = prox_power(gamma, h, y)
    root = math.exp((math.log(abs(y)) - math.log(h * gamma)) / (gamma - 1.0))
    assert z == pytest.approx(math.copysign(root, y), rel=1e-12)


def test_prox_newton_non_convergence_names_its_cause():
    # a step size no run uses: the residual of the tiny root is not
    # representable to the tolerance within 200 iterations
    with pytest.raises(ArithmeticError) as info:
        prox_power(4.0, 1e290, 8e-42)
    msg = str(info.value)
    for part in ("gamma=4.0", "h=1e+290", "y=8e-42", "residual="):
        assert part in msg


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
def test_prox_newton_passes_non_finite_points_through(y):
    z = prox_power(4.0, 1e-3, y)
    assert not math.isfinite(z)


# ---------------------------------------------------------------------------
# point form and reference point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("coords", [0.25, [0.25], np.array([0.25]), (0.25,)])
def test_as_point_at_dim_1_is_a_float(coords):
    p = as_point(coords, 1)
    assert type(p) is float and p == 0.25


def test_as_point_above_dim_1_is_a_float_array():
    p = as_point([1, 2, 3], 3)
    assert p.shape == (3,) and p.dtype == float
    assert p.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("coords, dim", [([0.1, 5.0], 1), (0.5, 3), ([1.0, 2.0], 3), ([], 1)])
def test_as_point_rejects_a_wrong_count_naming_the_dimension(coords, dim):
    with pytest.raises(ValueError, match=f"dimension {dim}"):
        as_point(coords, dim)


@pytest.mark.parametrize("x0, end", [(-0.3, -1.5), ([-2.0], -1.5), (0.0, 1.5), ([0.7], 1.5),
                                     (None, 1.5)])
def test_reference_point_of_a_plateau_is_the_end_on_the_side_of_x0(x0, end):
    p = reference_point(make_plateau(2.0, 1.5), x0)
    assert type(p) is float and p == end


def test_reference_point_of_a_point_minimizer_is_that_point():
    p = reference_point(make_power(3.0), [0.4])
    assert type(p) is float and p == 0.0
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    lsq = make_least_squares(A, np.array([1.0, 4.0, 2.5]))
    p = reference_point(lsq, [0.3, -0.7])
    assert isinstance(p, np.ndarray) and np.array_equal(p, lsq.minimizer_hint)


# ---------------------------------------------------------------------------
# geometry probes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("obj", [make_power(3.0), make_plateau(2.0, 0.5)])
def test_probes_give_one_report_for_every_form_of_a_1d_centre(obj):
    c = 0.3
    for probe, args in ((probe_h1, (2.5,)), (probe_h1, (3.5,)), (probe_h2, (2.0, 1.0))):
        reports = [probe(obj, *args, x, 1.0, 100, seed=5) for x in (c, [c], np.array([c]))]
        assert reports[0] == reports[1] == reports[2]


def test_probe_h1_quadratic_equality():
    obj = make_power(2.0)
    rep = probe_h1(obj, 2.0, 0.0, 1.0, 200, seed=1)
    assert rep.holds
    assert abs(rep.worst_margin) <= 1e-12


def test_probe_h1_quadratic_too_flat_fails():
    obj = make_power(2.0)
    rep = probe_h1(obj, 3.0, 0.0, 1.0, 200, seed=1)
    assert not rep.holds
    assert rep.witness is not None
    # any nonzero sample flips the inequality: (2/3 - 1) x^2 < 0
    assert rep.worst_margin < 0


def test_probe_h1_cubic_at_two_holds():
    rep = probe_h1(make_power(3.0), 2.0, 0.0, 1.0, 200, seed=1)
    assert rep.holds
    assert rep.worst_margin > 0


def test_probe_h2_quadratic_equality():
    rep = probe_h2(make_power(2.0), 2.0, 1.0, 0.0, 1.0, 200, seed=1)
    assert rep.holds
    assert abs(rep.worst_margin) <= 1e-12


def test_probe_h2_quadratic_r3_holds_inside_unit_ball():
    rep = probe_h2(make_power(2.0), 3.0, 1.0, 0.0, 1.0, 200, seed=1)
    assert rep.holds


def test_probe_h2_cubic_r2_fails_near_zero():
    rep = probe_h2(make_power(3.0), 2.0, 1.0, 0.0, 1.0, 200, seed=1)
    assert not rep.holds
    assert rep.witness is not None
    assert abs(rep.witness) < 1.0


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_probe_duality_for_powers(gamma):
    """Sample-level flatness/growth duality: H1 passes exactly up to gamma,
    H2 (K=1, radius 1) passes exactly from gamma up."""
    obj = make_power(gamma)
    for gp in (1.0, 0.5 * (1.0 + gamma), gamma):
        assert probe_h1(obj, gp, 0.0, 1.0, 200, seed=2).holds
    for gp in (gamma + 0.25, gamma + 1.0):
        rep = probe_h1(obj, gp, 0.0, 1.0, 200, seed=2)
        assert not rep.holds and rep.witness is not None
    for r in (gamma, gamma + 0.5, gamma + 2.0):
        assert probe_h2(obj, r, 1.0, 0.0, 1.0, 200, seed=2).holds
    for r in (1.0, gamma - 0.25):
        if r >= 1.0:
            rep = probe_h2(obj, r, 1.0, 0.0, 1.0, 200, seed=2)
            assert not rep.holds


def test_plateau_growth_at_extremal_point():
    obj = make_plateau(2.0, 1.0)
    rep = probe_h2(obj, 2.0, 1.0, 1.0, 1.0, 200, seed=3)
    assert rep.holds
    assert abs(rep.worst_margin) <= 1e-12  # gap equals d(x, X*)^2 exactly


@pytest.mark.parametrize("probe, args", [
    (probe_h1, dict(gamma=math.nan)),
    (probe_h1, dict(radius=math.nan)),
    (probe_h1, dict(radius=math.inf)),
    (probe_h1, dict(x_star=math.nan)),
    (probe_h2, dict(r=math.nan)),
    (probe_h2, dict(K=math.nan)),
    (probe_h2, dict(K=math.inf)),
    (probe_h2, dict(x_star=np.array([0.0, math.inf]))),
    (flatness_constant, dict(radius=math.nan)),
    (flatness_constant, dict(gamma=math.nan)),
    (flatness_constant, dict(x_star=math.inf)),
])
def test_probes_reject_non_finite_arguments(probe, args):
    dim = 2 if isinstance(args.get("x_star"), np.ndarray) else 1
    base = dict(obj=make_power(3.0, dim), x_star=0.0 if dim == 1 else np.zeros(2),
                radius=1.0)
    base.update(dict(r=3.0, K=1.0) if probe is probe_h2 else dict(gamma=3.0))
    with pytest.raises(ValueError, match="finite"):
        probe(**{**base, **args})


@pytest.mark.parametrize("probe", [probe_h1, flatness_constant])
@pytest.mark.parametrize("args", [dict(n_samples=0), dict(radius=-1.0), dict(gamma=0.0)])
def test_flatness_probes_reject_out_of_range_arguments(probe, args):
    """No samples, or a ball of negative radius, would make flatness_constant
    return a vacuous 0.0 or a bound taken over the wrong ball."""
    base = dict(obj=make_power(3.0), gamma=3.0, x_star=0.0, radius=1.0)
    with pytest.raises(ValueError, match="gamma > 0, radius > 0 and n_samples >= 1"):
        probe(**{**base, **args})


def test_probe_counts_a_nan_margin_as_the_worst_violation():
    """A margin that is nan (here from a nan gradient at every sample but the
    first few) can never make a vacuous "holds"."""
    obj = make_power(2.0)
    samples = sample_ball(0.0, 1.0, 50, seed=1, dim=1)
    bad = ObjectiveSpec(**{**obj.__dict__,
                           "gradient": lambda x: 2.0 * x if x in samples[:3] else math.nan})
    rep = probe_h1(bad, 2.0, 0.0, 1.0, 50, seed=1)
    assert not rep.holds and math.isnan(rep.worst_margin)
    assert rep.witness == samples[3]


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(1.0, 3.0),
    frac=st.floats(0.01, 1.0),
    seed=st.integers(0, 1000),
)
def test_probe_h1_monotone_in_gamma(gamma, frac, seed):
    """If the flatness probe holds at gamma it holds at any smaller exponent
    (same samples)."""
    obj = make_power(2.0)
    hi = probe_h1(obj, gamma, 0.0, 1.0, 50, seed=seed)
    lo = probe_h1(obj, 1.0 + frac * (gamma - 1.0), 0.0, 1.0, 50, seed=seed)
    if hi.holds:
        assert lo.holds


def test_sample_ball_deterministic_and_in_ball():
    a = sample_ball(0.5, 2.0, 100, seed=9, dim=1)
    b = sample_ball(0.5, 2.0, 100, seed=9, dim=1)
    assert a == b
    assert all(abs(x - 0.5) <= 2.0 for x in a)
    pts = sample_ball(np.zeros(3), 1.5, 100, seed=9, dim=3)
    assert all(np.linalg.norm(p) <= 1.5 for p in pts)


def test_flatness_constant_reports_finite_bound():
    cases = [
        (make_power(1.5), 0.0),
        (make_power(2.0), 0.0),
        (make_power(3.0), 0.0),
        (make_plateau(2.0, 1.0), 1.0),  # probe at the extremal minimizer
    ]
    for obj, x_star in cases:
        M = flatness_constant(obj, obj.nominal_gamma, x_star, 1.0, 200, seed=4)
        assert math.isfinite(M) and M > 0.0
        # the bound it reports actually holds on a fresh sample set
        for x in sample_ball(x_star, 1.0, 100, seed=5, dim=1):
            gap = obj.value(x) - obj.f_star
            assert gap <= (M + 1e-12) * abs(x - x_star) ** obj.nominal_gamma + 1e-15
    lsq = make_least_squares(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([1.0, 3.0]))
    M = flatness_constant(lsq, 2.0, np.asarray(lsq.minimizer_hint), 1.0, 200, seed=4)
    assert math.isfinite(M) and M > 0.0


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def test_check_gradient_quadratic():
    assert check_gradient(make_power(2.0), 1.0, 1e-5) <= 1e-8


def test_check_gradient_cubic():
    assert check_gradient(make_power(3.0), 0.5, 1e-5) <= 1e-7


def test_check_gradient_least_squares():
    obj = make_least_squares(np.array([[2.0]]), np.array([4.0]))
    assert check_gradient(obj, np.array([1.0]), 1e-5) <= 1e-8


def test_check_gradient_random_points_catalog():
    rng = np.random.default_rng(21)
    objs = [make_power(1.5), make_power(2.0), make_power(3.0), make_plateau(2.0, 1.0)]
    for obj in objs:
        for _ in range(100):
            x = float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))
            assert check_gradient(obj, x) <= 1e-6
    lsq = make_least_squares(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([1.0, 3.0]))
    for _ in range(100):
        assert check_gradient(lsq, rng.uniform(-2, 2, size=2)) <= 1e-6


# ---------------------------------------------------------------------------
# objective string parsing
# ---------------------------------------------------------------------------

def test_parse_objective_power_and_plateau():
    assert parse_objective("power:gamma=1.5,dim=2").dim == 2
    obj = parse_objective("plateau:gamma=2,a=1")
    assert obj.value(3.0) == 4.0


def test_parse_objective_lsq_csv(tmp_path):
    f = tmp_path / "problem.csv"
    f.write_text("1,0,1\n0,1,2\n")
    obj = parse_objective(f"lsq:file={f}")
    assert obj.dim == 2
    assert obj.f_star == pytest.approx(0.0)
    assert np.allclose(obj.minimizer_hint, [1.0, 2.0])


def test_parse_objective_rejects_unknown():
    with pytest.raises(ValueError):
        parse_objective("rosenbrock:a=1")
    with pytest.raises(ValueError):
        parse_objective("power:gamma=2,foo=1")
    with pytest.raises(ValueError):
        parse_objective("plateau:gamma=2")
