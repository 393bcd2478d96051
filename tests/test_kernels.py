"""The scheme's inlined gradient step against the call-through step, bit for bit.

The 1-D catalog gradients are stated as one expression each
(objectives.GradientExpr); run_scheme inlines that text into its stepping
loop, and the public ``gradient`` callable is compiled from the same text.
The references below are the gradients as they were written before they
became expressions: the expression-built callables must return their bits
(or raise as they do), and a run with the inlined step must record what a run
calling the reference records.
"""
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inertial_rates.dynamics import _interval_kernel, _rk4_kernel, run_scheme
from inertial_rates.objectives import (
    ObjectiveSpec,
    make_plateau,
    make_power,
    prox_power,
)

POWER_GAMMAS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
PLATEAU_GAMMAS = (1.0, 2.0, 2.5)


def _reference_power_gradient(gamma):
    if gamma == 2.0:
        return lambda x: 2.0 * x
    if gamma == 3.0:
        return lambda x: 3.0 * x * abs(x)
    if gamma == 1.0:
        return lambda x: math.copysign(1.0, x) if x != 0.0 else 0.0
    g1 = gamma - 1.0
    return lambda x: math.copysign(gamma * abs(x) ** g1, x) if x != 0.0 else 0.0


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
    assert obj.gradient is obj.gradient_expr.function
    for y in SPECIAL:
        assert _outcome(obj.gradient, y) == _outcome(reference, y), (label, y)
    # every power gradient above gamma 2 that uses ** overflows somewhere
    if label in ("power-g2.5", "power-g4"):
        assert _outcome(obj.gradient, 1e300) is OverflowError


@settings(max_examples=300, deadline=None)
@given(y=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_expression_gradient_matches_reference(label, obj, reference, y):
    assert _outcome(obj.gradient, y) == _outcome(reference, y)


@pytest.mark.parametrize("label,obj,reference", CASES, ids=IDS)
def test_only_the_catalog_callable_is_inlined(label, obj, reference):
    """The inlined loop names no gradient; an objective whose gradient is
    swapped for another callable (the reference here) calls it."""
    inlined = _interval_kernel(obj, 1e-3, use_prox=False).__code__.co_names
    swapped = ObjectiveSpec(**{**obj.__dict__, "gradient": reference})
    through = _interval_kernel(swapped, 1e-3, use_prox=False).__code__.co_names
    assert "grad" not in inlined and "grad" in through
    assert "grad" not in _interval_kernel(obj, 1e-3, use_prox=True).__code__.co_names


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
    """A numpy RuntimeWarning raised inside a compiled kernel is attributed
    to the package, so the pytest configuration's
    ``error::RuntimeWarning:inertial_rates`` turns it into an error; here
    inf - inf, outside the errstate that the run loop sets."""
    inf = np.array([math.inf, 0.0, 0.0])
    obj = make_power(2.0, 3)
    scheme = _interval_kernel(obj, 1e-3, use_prox=False)
    with pytest.raises(RuntimeWarning, match="invalid value"):
        scheme([0.5], inf, inf)  # x - xp
    rk4 = _rk4_kernel(obj, 3.0, 1e-3)
    with pytest.raises(RuntimeWarning, match="invalid value"):
        rk4([1.0], np.zeros(3), inf)  # v + 0.5*dt*a1v with a1v = -inf
