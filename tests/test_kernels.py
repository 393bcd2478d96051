"""The inlined gradient and prox steps of every mode's kernel against the
call-through steps, bit for bit.

The 1-D catalog gradients are stated as one expression each, and so are
the closed-form 1-D power proxes (gamma 1, 1.5, 2 and 3): each is an
objectives.Expr built by objectives._expr, whose function is the public
``gradient`` or ``prox`` callable and carries the Expr (objectives.inlined).
dynamics._kernel inlines the text of any operation that carries one into
the loop template of every MODES entry (the scheme's and RK4's), so an
objective built by hand from _expr is inlined too.  The references below
are the gradients and proxes as they were written before they became
expressions, gamma 4's gradient as the product that replaced its pow form:
the expression-built callables must return their bits (or raise as they
do), and a scheme or RK4 run with the inlined step must record what a run
calling the reference records.  The integer-gamma products are also bounded
against the pow form they replace, in ulps per gradient and in relative
drift per run.
"""
import ast
import builtins
import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from inertial_rates.dynamics import MODES, _kernel, run_ode, run_scheme
from inertial_rates.objectives import (
    _PROX_EXPRS,
    _PRODUCT_GAMMAS,
    ObjectiveSpec,
    _expr,
    inlined,
    make_least_squares,
    make_plateau,
    make_power,
    prox_power,
)

POWER_GAMMAS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
PLATEAU_GAMMAS = (1.0, 2.0, 2.5)


def _pow_power_gradient(gamma):
    return lambda x: math.copysign(gamma * abs(x) ** (gamma - 1.0), x) if x != 0.0 else 0.0


def _reference_power_gradient(gamma):
    if gamma == 2.0:
        return lambda x: 2.0 * x
    if gamma == 3.0:
        return lambda x: 3.0 * x * abs(x)
    if gamma == 4.0:
        return lambda x: 4.0 * x * x * x
    if gamma == 1.0:
        return lambda x: math.copysign(1.0, x) if x != 0.0 else 0.0
    return _pow_power_gradient(gamma)


def _reference_plateau_gradient(gamma, a):
    def gradient(x):
        e = abs(x) - a
        if e <= 0.0:
            return 0.0
        if gamma == 1.0:
            return math.copysign(1.0, x)
        return math.copysign(gamma * e ** (gamma - 1.0), x)

    return gradient


def _objectives():
    """(label, catalog objective, reference gradient) for every case."""
    cases = [(f"power-g{g:g}", make_power(g), _reference_power_gradient(g))
             for g in POWER_GAMMAS]
    cases += [(f"plateau-g{g:g}", make_plateau(g, 0.75), _reference_plateau_gradient(g, 0.75))
              for g in PLATEAU_GAMMAS]
    return cases


CASES = _objectives()
IDS = [label for label, _, _ in CASES]


def _names(mode, obj):
    """The names the compiled record interval of ``mode`` on ``obj`` refers
    to."""
    return _kernel(MODES[mode], obj, 1e-3, 3.0).__code__.co_names


def _outcome(f, *args):
    """The bits f returns, or the type of the exception it raises."""
    try:
        return struct.pack("<d", f(*args))
    except ArithmeticError as exc:
        return type(exc)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-160, -1e-170, 0.75, -0.75,
           0.7500000000000001, 1.0, -3.5, 1e150, -1e154, 1e200, -1e300, 1.7e308,
           math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_expression_gradient_matches_reference_at_special_points(label, obj, reference):
    assert inlined(obj.gradient) is not None and inlined(obj.gradient).terms == ()
    for y in SPECIAL:
        assert _outcome(obj.gradient, y) == _outcome(reference, y), (label, y)
    # a power gradient that uses ** raises where its power overflows; the
    # integer-gamma products give inf there instead
    if label == "power-g2.5":
        assert _outcome(obj.gradient, 1e300) is OverflowError
    if label == "power-g4":
        assert _outcome(obj.gradient, 1e300) == struct.pack("<d", math.inf)


@settings(max_examples=300, deadline=None)
@given(y=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_expression_gradient_matches_reference(label, obj, reference, y):
    assert _outcome(obj.gradient, y) == _outcome(reference, y)


@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_only_the_catalog_callable_is_inlined(label, obj, reference):
    """The inlined scheme and RK4 loops name no gradient; an objective whose
    gradient is swapped for another callable (the reference here) calls
    it."""
    swapped = ObjectiveSpec(**{**obj.__dict__, "gradient": reference})
    for mode in ("nesterov", "ode-rk4"):
        assert "grad" not in _names(mode, obj) and "grad" in _names(mode, swapped)
    assert "grad" not in _names("prox-nesterov", obj)


def _trajectory_bits(traj):
    return (traj.error, traj.n.tobytes(), traj.x.tobytes(), traj.v.tobytes(),
            traj.gap.tobytes())


# starts: ordinary ones, huge ones that diverge (an interval replayed step by
# step), and tiny ones whose gradient underflows to an exact fixed point
X0 = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(1e2, 1e200).flatmap(lambda m: st.sampled_from((m, -m))),
    st.floats(-1e-150, 1e-150),
)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    log_h=st.floats(-6.0, 1.0),
    stride=st.integers(1, 60),
    steps=st.integers(1, 1500),
    x0=X0,
)
@example(alpha=3.0, log_h=-1.0, stride=7, steps=200, x0=10.0)        # diverges at step 6
@example(alpha=3.0, log_h=-4.0, stride=10, steps=300, x0=1e-170)     # fixed point at once
@example(alpha=3.0, log_h=-2.0, stride=3, steps=100, x0=-0.0)        # rest at -0.0
@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_inlined_run_matches_call_through_run(label, obj, reference, alpha, log_h, stride,
                                              steps, x0):
    h = 10.0 ** log_h
    through = ObjectiveSpec(**{**obj.__dict__, "gradient": reference})
    inlined = run_scheme(obj, alpha, h, steps, x0, stride=stride)
    called = run_scheme(through, alpha, h, steps, x0, stride=stride)
    assert _trajectory_bits(inlined) == _trajectory_bits(called)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    log_dt=st.floats(-4.0, 0.5),
    t0=st.floats(1e-3, 10.0),
    stride=st.integers(1, 60),
    steps=st.integers(1, 800),
    x0=X0,
    v0=st.floats(-3.0, 3.0),
)
@example(alpha=3.0, log_dt=0.0, t0=1.0, stride=7, steps=200, x0=1e200, v0=0.0)  # diverges
@example(alpha=3.0, log_dt=0.5, t0=1.0, stride=7, steps=300, x0=10.0, v0=0.0)   # mid-interval
@example(alpha=3.0, log_dt=-2.0, t0=0.5, stride=3, steps=100, x0=-0.0, v0=0.0)  # rest at -0.0
@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_inlined_rk4_run_matches_call_through_run(label, obj, reference, alpha, log_dt, t0,
                                                  stride, steps, x0, v0):
    """RK4 inlines the gradient at each of its four stages: its records and
    error marker are those of the run calling the reference."""
    dt = 10.0 ** log_dt
    through = ObjectiveSpec(**{**obj.__dict__, "gradient": reference})
    inlined = run_ode(obj, alpha, dt, t0, steps, x0, v0, stride)
    called = run_ode(through, alpha, dt, t0, steps, x0, v0, stride)
    assert _trajectory_bits(inlined) == _trajectory_bits(called)


@settings(max_examples=200, deadline=None)
@given(
    log_h=st.floats(-8.0, 3.0),
    y=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
@pytest.mark.parametrize("gamma", POWER_GAMMAS)
def test_catalog_prox_is_prox_power(gamma, log_h, y):
    """The 1-D power prox is prox_power's closed form (or Newton) for that
    gamma, built once at construction."""
    h = 10.0 ** log_h
    assert _outcome(make_power(gamma).prox, h, y) == _outcome(prox_power, gamma, h, y)


def test_kernel_warnings_meet_the_package_warning_filter():
    """A numpy RuntimeWarning raised inside any mode's compiled kernel is
    attributed to the package, so the pytest configuration's
    ``error::RuntimeWarning:inertial_rates`` turns it into an error; here
    inf - inf, outside the errstate that the run loop sets: x - xp in a
    scheme, v + 0.5*h*a1v with a1v = -inf in RK4."""
    inf = np.array([math.inf, 0.0, 0.0])
    for entry in MODES.values():
        interval = _kernel(entry, make_power(2.0, 3), 1e-3, 3.0)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            if entry.is_scheme:
                interval([0.5], inf, inf)
            else:
                interval([1.0], np.zeros(3), inf)


# ---------------------------------------------------------------------------
# integer-gamma products against the pow form they replace
# ---------------------------------------------------------------------------

def _ulps(a, b):
    """The distance of two finite floats of one sign, in units in the last place."""
    return abs(struct.unpack("<q", struct.pack("<d", a))[0]
               - struct.unpack("<q", struct.pack("<d", b))[0])


# The largest distance of the product from the pow form over 4.5e6 random
# normal points per gamma (mantissa uniform in [1, 2), exponent uniform where
# the result is normal).  Gamma 2 and 3 keep the texts they had before the
# product rule; gamma 4 is the one whose bits moved.
PRODUCT_ULPS = {2: 0, 3: 2, 4: 1}


@settings(max_examples=200, deadline=None)
@given(mantissa=st.floats(1.0, 2.0, exclude_max=True), negative=st.booleans(),
       data=st.data())
@pytest.mark.parametrize("k", [int(g) for g in _PRODUCT_GAMMAS])
def test_product_gradient_is_within_pinned_ulps_of_the_pow_form(k, mantissa, negative, data):
    """At every finite y where neither form overflows or turns subnormal."""
    span = 1021 // (k - 1)  # exponents whose (k-1)-th power stays normal
    y = math.ldexp(-mantissa if negative else mantissa,
                   data.draw(st.integers(-span + 1, span - 2), label="exponent"))
    product, pow_form = make_power(float(k)).gradient(y), _pow_power_gradient(float(k))(y)
    assume(all(2.2250738585072014e-308 <= abs(g) < math.inf for g in (product, pow_form)))
    assert math.copysign(1.0, product) == math.copysign(1.0, y) == math.copysign(1.0, pow_form)
    assert _ulps(product, pow_form) <= PRODUCT_ULPS[k], (y, product, pow_form)


@pytest.mark.parametrize("k", [int(g) for g in _PRODUCT_GAMMAS])
def test_product_gradient_keeps_the_sign_of_zero(k):
    """The product at -0.0 is -0.0, where the pow form's guard returns +0.0.
    A run started at -0.0 records the same bits with either form."""
    obj = make_power(float(k))
    pow_form = _pow_power_gradient(float(k))
    for y in (0.0, -0.0):
        assert _outcome(obj.gradient, y) == struct.pack("<d", y)
        assert _outcome(pow_form, y) == struct.pack("<d", 0.0)
    through = ObjectiveSpec(**{**obj.__dict__, "gradient": pow_form})
    product, called = (run_scheme(o, 3.0, 1e-2, 50, -0.0, stride=10) for o in (obj, through))
    assert product.x.tobytes() == called.x.tobytes() and product.v.tobytes() == called.v.tobytes()


# relative drift of a gamma-4 run's records from the pow form's (4.1e-13 is
# the largest over 7,000 random runs like these)
RUN_DRIFT = 1e-10


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    log_h=st.floats(-6.0, 0.0),
    stride=st.integers(1, 60),
    steps=st.integers(1, 1500),
    x0=X0,
)
@example(alpha=3.0, log_h=0.0, stride=7, steps=200, x0=1e103)  # diverges at step 1
def test_gamma_4_run_stays_within_a_relative_bound_of_the_pow_form_run(alpha, log_h, stride,
                                                                      steps, x0):
    """A run records the same steps, the same divergence, and (when it does
    not diverge) x and v within RUN_DRIFT of the largest |x| and |v|."""
    obj = make_power(4.0)
    through = ObjectiveSpec(**{**obj.__dict__, "gradient": _pow_power_gradient(4.0)})
    product = run_scheme(obj, alpha, 10.0 ** log_h, steps, x0, stride=stride)
    pow_form = run_scheme(through, alpha, 10.0 ** log_h, steps, x0, stride=stride)
    assert product.error == pow_form.error
    assert np.array_equal(product.n, pow_form.n)
    if product.error is None:
        for p, q in ((product.x, pow_form.x), (product.v, pow_form.v)):
            scale = float(np.max(np.abs(p))) or 1.0
            assert float(np.max(np.abs(p - q))) <= RUN_DRIFT * scale


def test_gamma_4_run_that_overflows_at_once_still_names_step_1():
    """The product overflows to inf where the pow form raised OverflowError;
    both end the run at the same step with the same marker."""
    obj = make_power(4.0)
    through = ObjectiveSpec(**{**obj.__dict__, "gradient": _pow_power_gradient(4.0)})
    with pytest.raises(OverflowError):
        through.gradient(1e103)
    assert obj.gradient(1e103) == math.inf
    for o in (obj, through):
        traj = run_scheme(o, 3.0, 1.0, 100, 1e103, stride=10)
        assert traj.error == "non-finite state at step 1"
        assert traj.n.tolist() == [0] and traj.x[0, 0] == 1e103


# ---------------------------------------------------------------------------
# closed-form proxes: the inlined text against the functions it replaced
# ---------------------------------------------------------------------------

PROX_GAMMAS = (1.0, 1.5, 2.0, 3.0)


def _reference_power_prox(gamma):
    """The closed-form prox_power of ``gamma`` as written before it became an
    expression."""
    if gamma == 1.0:
        def prox(h, y):
            if y == 0.0:
                return 0.0
            return math.copysign(max(abs(y) - h, 0.0), y)
    elif gamma == 2.0:
        def prox(h, y):
            if y == 0.0:
                return 0.0
            return y / (1.0 + 2.0 * h)
    elif gamma == 1.5:
        def prox(h, y):
            if y == 0.0:
                return 0.0
            ay = abs(y)
            b = 1.5 * h
            s = ay / (0.5 * b + math.sqrt(0.25 * b * b + ay))
            return math.copysign(min(s * s, ay), y)
    else:
        def prox(h, y):
            if y == 0.0:
                return 0.0
            ay = abs(y)
            q = 3.0 * h * ay
            if q == math.inf:
                return math.copysign(math.sqrt(ay) / math.sqrt(3.0 * h), y)
            return math.copysign(ay / (0.5 + math.sqrt(0.25 + q)), y)
    return prox


def _inlined_prox(obj, h):
    """The prox text as the scheme's loop evaluates it: with the terms in h
    that the kernel binds once per run (Expr.bind) as globals."""
    expr = inlined(obj.prox)
    return eval("lambda y: " + expr.text, expr.bind(h))


PROX_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 0.75, -3.5, 1e300, -1e300,
                1.7e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
PROX_H = (1e-5, 0.5, 1.0, 1e10)


@pytest.mark.parametrize("gamma", PROX_GAMMAS)
def test_inlined_prox_matches_reference_at_special_points(gamma):
    """The callable and the text under the kernel's bound terms give the old
    function's bits at each point, for steps from a run's to ones where the
    terms overflow their products."""
    obj, reference = make_power(gamma), _reference_power_prox(gamma)
    assert inlined(obj.prox) is _PROX_EXPRS[gamma]
    for h in PROX_H:
        text = _inlined_prox(obj, h)
        for y in PROX_SPECIAL:
            want = _outcome(reference, h, y)
            assert _outcome(obj.prox, h, y) == want, (gamma, h, y)
            assert _outcome(text, y) == want, (gamma, h, y)
    if gamma == 1.5:  # s*s rounds above |y| and min picks |y|
        assert obj.prox(1e-5, 1.7e308) == 1.7e308 and obj.prox(1e-5, -1.7e308) == -1.7e308
    if gamma == 3.0:  # the points take the branch where 3h|y| overflows
        for h, y in ((1.0, 1.7e308), (1e10, -1e300)):
            assert 3.0 * h * abs(y) == math.inf
            assert obj.prox(h, y) == math.copysign(math.sqrt(abs(y)) / math.sqrt(3.0 * h), y)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    log_h=st.floats(-6.0, 1.0),
    stride=st.integers(1, 60),
    steps=st.integers(1, 1500),
    x0=X0,
)
@example(alpha=1.0, log_h=-2.0, stride=10, steps=1500, x0=0.5)      # arrives at x = 0
@example(alpha=3.0, log_h=-4.0, stride=10, steps=300, x0=1e-170)    # fixed point at once
@example(alpha=3.0, log_h=-2.0, stride=3, steps=100, x0=-0.0)       # rest at -0.0
@example(alpha=3.0, log_h=0.0, stride=7, steps=200, x0=1e200)       # huge start
@pytest.mark.parametrize("gamma", PROX_GAMMAS)
def test_inlined_prox_run_matches_reference_prox_run(gamma, alpha, log_h, stride, steps, x0):
    """A run with the inlined prox step records what a run calling the
    reference prox records, with the same first_filled and error marker."""
    h = 10.0 ** log_h
    obj = make_power(gamma)
    through = ObjectiveSpec(**{**obj.__dict__, "prox": _reference_power_prox(gamma)})
    inlined = run_scheme(obj, alpha, h, steps, x0, stride=stride, use_prox=True)
    called = run_scheme(through, alpha, h, steps, x0, stride=stride, use_prox=True)
    assert _trajectory_bits(inlined) == _trajectory_bits(called)
    assert inlined.first_filled == called.first_filled


def _prox_objectives():
    """(label, objective) for every catalog prox: the 1-D powers (closed
    form or Newton), a radial power, the plateau and lsq."""
    cases = [(f"power-g{g:g}", make_power(g)) for g in POWER_GAMMAS]
    cases += [("power-g1.5-d3", make_power(1.5, 3)), ("plateau-g1.5", make_plateau(1.5, 0.75)),
              ("lsq", make_least_squares(np.array([[2.0, 1.0], [0.5, 3.0]]), np.ones(2)))]
    return cases


@pytest.mark.parametrize("label,obj", _prox_objectives(), ids=[c[0] for c in _prox_objectives()])
def test_only_the_closed_form_prox_is_inlined(label, obj):
    """The loop names no prox for a closed-form 1-D power prox; every other
    prox is called, and so is a closed-form one swapped for another
    callable (the reference here)."""
    closed_form = label in {f"power-g{g:g}" for g in PROX_GAMMAS}
    assert ("prox" in _names("prox-nesterov", obj)) == (not closed_form)
    assert (inlined(obj.prox) is not None) == closed_form
    if closed_form:
        reference = _reference_power_prox(obj.nominal_gamma)
        swapped = ObjectiveSpec(**{**obj.__dict__, "prox": reference})
        assert "prox" in _names("prox-nesterov", swapped)


# ---------------------------------------------------------------------------
# any operation compiled by _expr is inlined, with no registration
# ---------------------------------------------------------------------------

def _hand_built(c):
    """F(x) = c/2 * x**2, its gradient and prox each one _expr call, built
    outside the catalog; and the same objective with plain callables."""
    value = lambda x: 0.5 * c * x * x
    inlined_ops = dict(gradient=_expr("y", "c * y", c=c).function,
                       prox=_expr("h, y", "y / shrink", (("shrink", "1.0 + c * h"),), c=c).function)
    called_ops = dict(gradient=lambda y: c * y, prox=lambda h, y: y / (1.0 + c * h))
    return [ObjectiveSpec(name=f"quadratic:c={c:g}", dim=1, value=value, f_star=0.0,
                          minimizer_hint=0.0, distance_to_minset=abs, nominal_gamma=2.0, **ops)
            for ops in (inlined_ops, called_ops)]


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(0.1, 10.0),
    alpha=st.floats(0.5, 8.0),
    log_h=st.floats(-6.0, 0.0),
    stride=st.integers(1, 60),
    steps=st.integers(1, 1500),
    x0=X0,
    use_prox=st.booleans(),
)
@example(c=2.0, alpha=3.0, log_h=0.5, stride=7, steps=200, x0=10.0, use_prox=False)  # diverges
def test_an_objective_built_by_hand_from_expr_is_inlined(c, alpha, log_h, stride, steps, x0,
                                                        use_prox):
    """Its gradient and prox are inlined (no mode's loop names either), and
    its run records what the run calling plain callables records."""
    obj, through = _hand_built(c)
    assert inlined(obj.gradient).function is obj.gradient
    assert inlined(obj.prox).function is obj.prox
    for mode, entry in MODES.items():
        names = _names(mode, obj)
        assert "grad" not in names and "prox" not in names
        assert ("prox" if entry.prox else "grad") in _names(mode, through)
    h = 10.0 ** log_h
    inlined_run = run_scheme(obj, alpha, h, steps, x0, stride=stride, use_prox=use_prox)
    called_run = run_scheme(through, alpha, h, steps, x0, stride=stride, use_prox=use_prox)
    assert _trajectory_bits(inlined_run) == _trajectory_bits(called_run)
    assert inlined_run.first_filled == called_run.first_filled


def test_a_wrapper_of_an_inlined_operation_is_called():
    """functools.wraps copies the compiled function's attributes, its Expr
    among them; the wrapper is still called, since the Expr is not its."""
    obj = make_power(1.5)
    calls = []
    wrapped = _wrapped(obj, calls)
    assert wrapped.gradient.expr is inlined(obj.gradient)
    assert inlined(wrapped.gradient) is None and inlined(wrapped.prox) is None
    for use_prox in (False, True):
        calls.clear()
        run = run_scheme(wrapped, 3.0, 1e-4, 50, 0.5, stride=10, use_prox=use_prox)
        assert len(calls) == 50
        assert _trajectory_bits(run) == _trajectory_bits(
            run_scheme(obj, 3.0, 1e-4, 50, 0.5, stride=10, use_prox=use_prox))
    calls.clear()
    run = run_ode(wrapped, 3.0, 1e-3, 0.1, 50, 0.5, None, 10)
    assert len(calls) == 4 * 50  # one call per RK4 stage
    assert _trajectory_bits(run) == _trajectory_bits(run_ode(obj, 3.0, 1e-3, 0.1, 50, 0.5,
                                                             None, 10))


def _wrapped(obj, calls):
    """``obj`` with its gradient and prox behind functools.wraps wrappers
    that append each call's arguments to ``calls``."""
    def counted(op):
        @functools.wraps(op)
        def wrapper(*args):
            calls.append(args)
            return op(*args)
        return wrapper

    return ObjectiveSpec(**{**obj.__dict__, "gradient": counted(obj.gradient),
                            "prox": counted(obj.prox)})


# ---------------------------------------------------------------------------
# every mode's kernel: one inline-or-call rule, and no name shared with a template
# ---------------------------------------------------------------------------

def _operation_cases():
    """(label, objective, (gradient inlined, prox inlined)) for the 1-D
    catalog, and for operations that are called: n-D, lsq, swapped and
    wrapped ones."""
    cases = [(label, obj, (True, label in {f"power-g{g:g}" for g in PROX_GAMMAS}))
             for label, obj, _ in CASES]
    cases += [(f"{label}-swapped",
               ObjectiveSpec(**{**obj.__dict__, "gradient": reference,
                                "prox": lambda h, y, prox=obj.prox: prox(h, y)}),
               (False, False))
              for label, obj, reference in CASES]
    cases += [(f"{label}-wrapped", _wrapped(obj, []), (False, False))
              for label, obj in (("power-g1.5", make_power(1.5)),
                                 ("plateau-g2", make_plateau(2.0, 0.75)))]
    cases += [(label, obj, (False, False)) for label, obj in (
        ("power-g1.5-d3", make_power(1.5, 3)), ("power-g2-d2", make_power(2.0, 2)),
        ("lsq", make_least_squares(np.array([[2.0, 1.0], [0.5, 3.0]]), np.ones(2))))]
    return cases


OPERATION_CASES = _operation_cases()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label,obj,inline", OPERATION_CASES,
                         ids=[c[0] for c in OPERATION_CASES])
def test_a_kernel_calls_its_operation_exactly_when_it_carries_no_expr(mode, label, obj,
                                                                       inline):
    """Every MODES entry's kernel names the operation it steps (``grad`` or
    ``prox``) when that operation carries no Expr, and inlines it
    otherwise."""
    entry = MODES[mode]
    op, name = (obj.prox, "prox") if entry.prox else (obj.gradient, "grad")
    assert (inlined(op) is not None) == inline[entry.prox]
    assert (name in _names(mode, obj)) == (not inline[entry.prox])


def _bound(tree):
    """The names ``tree`` binds: function and argument names, assignment,
    loop and ``:=`` targets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return names


def _reserved():
    """The names some MODES template binds or reads as a global of the
    compiled kernel, with {op} read as y."""
    reserved = set()
    for entry in MODES.values():
        tree = ast.parse(entry.template.format(op="y"))
        bound = _bound(tree)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        reserved |= bound | {name for name in read - bound if name not in dir(builtins)}
    return reserved


def _expr_bound(expr):
    """The names an Expr binds in the kernel's scope: its names, its terms
    and the ``:=`` targets of its texts."""
    bound = {name for name, _ in expr.names} | {name for name, _ in expr.terms}
    for text in (expr.text, *(term for _, term in expr.terms)):
        bound |= _bound(ast.parse(text, mode="eval"))
    return bound


def test_no_catalog_expr_binds_a_name_a_template_reserves():
    """An inlined Expr shares the compiled kernel's globals and locals with
    the template, so a name both bind (a stage local such as t or v2, or
    alpha) would be overwritten without any error.  y, the point, and h,
    which Expr.bind supplies, are the names both use by design."""
    reserved = _reserved() - {"y", "h"}
    assert {"interval", "x", "xp", "m", "t", "v2", "a4v", "alpha"} <= reserved
    exprs = [inlined(obj.gradient) for _, obj, _ in CASES] + list(_PROX_EXPRS.values())
    for expr in exprs:
        assert not _expr_bound(expr) & reserved, expr.text
    # the guard sees a collision of each kind
    for clash, name in ((_expr("y", "(t := abs(y)) * y"), "t"),
                        (_expr("h, y", "y / v2", (("v2", "1.0 + h"),)), "v2"),
                        (_expr("y", "alpha * y", alpha=2.0), "alpha")):
        assert _expr_bound(clash) & reserved == {name}


# ---------------------------------------------------------------------------
# _drive iterates each coefficient block as a memoryview of its numpy array
# ---------------------------------------------------------------------------

def _interval_outcome(interval, coefs, a, b):
    """The bits of the state ``interval`` returns, or the type of the
    exception it raises."""
    try:
        return struct.pack("<2d", *interval(coefs, a, b))
    except ArithmeticError as exc:
        return type(exc)


def _called(op):
    """``op`` behind a plain function, which the kernel calls."""
    return lambda *args: op(*args)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.5, 8.0),
    log_step=st.floats(-6.0, 0.5),
    t0=st.floats(1e-3, 10.0),
    base=st.integers(0, 10 ** 7),
    lo=st.integers(0, 40),
    count=st.integers(0, 40),
    a=X0,
    b=X0,
)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_a_kernel_steps_a_memoryview_slice_as_the_list_slice(label, obj, reference, mode, alpha,
                                                             log_step, t0, base, lo, count, a, b):
    """Each kernel, inlined or calling, returns the same bits from a slice of
    a coefficient block's memoryview as from the same slice of its list."""
    entry = MODES[mode]
    step = 10.0 ** log_step
    coefficients, _, _ = entry.drive(alpha, step, entry.start_time(t0, step), a, b)
    block = coefficients(np.arange(base, base + 80, dtype=float))
    for interval in (_kernel(entry, obj, step, alpha),
                     _kernel(entry, ObjectiveSpec(**{**obj.__dict__, "gradient": reference,
                                                     "prox": _called(obj.prox)}), step, alpha)):
        assert (_interval_outcome(interval, memoryview(block)[lo:lo + count], a, b)
                == _interval_outcome(interval, block.tolist()[lo:lo + count], a, b))
