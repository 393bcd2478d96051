"""Trajectory generation: the discrete accelerated scheme (gradient or
proximal steps, time map t_n = n*sqrt(h)) and a fixed-step RK4 integrator of
the damped second-order flow  x'' + (alpha/t) x' + grad F(x) = 0.

Every rule that depends on the mode is one entry of MODES, which run,
run_scheme and run_ode (through _run) and the other modules read.  All
dynamics step through one driver loop (_drive), written once for both point
forms (objectives.as_point): Python floats in dimension 1, where a step
costs a small fraction of the array form's, and float arrays otherwise.
Each run compiles the steps of one record interval from its dynamics'
template: a gradient or prox that carries its expression (objectives.inlined:
the 1-D catalog gradients and closed-form power proxes) is inlined into the
scheme's as that text, and any other step calls the objective's operation.
Single runs are strictly sequential; distinct runs are independent and the
returned Trajectory values are immutable arrays, safe to share across
workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .objectives import ObjectiveSpec, as_point, inlined

# Steps whose coefficients (the scheme's extrapolation factors, RK4's step
# start times) _drive computes in one numpy pass; the coefficient memory of a
# run is bounded by it, whatever the stride.
_FACTOR_BLOCK = 4096

# The steps of one record interval of run_scheme.  {step} is package-owned
# expression text in the extrapolated point y; every number it names (h, an
# objective's constants and a prox's terms in h) is a global of the compiled
# function, so an inlined expression must not use the names bound here.
_INTERVAL = """\
def interval(factors, x, xp):
    for m in factors:
        y = x + m * (x - xp)
        xp, x = x, {step}
    return x, xp
"""

# The steps of one record interval of run_ode: classical RK4 on x' = v,
# v' = -(alpha/t) v - grad(x), from the step start times ``times``.
_RK4_INTERVAL = """\
def interval(times, x, v):
    for t in times:
        a1x = v
        a1v = -(alpha / t) * v - grad(x)
        t2 = t + 0.5 * dt
        x2 = x + 0.5 * dt * a1x
        v2 = v + 0.5 * dt * a1v
        a2x = v2
        a2v = -(alpha / t2) * v2 - grad(x2)
        x3 = x + 0.5 * dt * a2x
        v3 = v + 0.5 * dt * a2v
        a3x = v3
        a3v = -(alpha / t2) * v3 - grad(x3)
        t4 = t + dt
        x4 = x + dt * a3x
        v4 = v + dt * a3v
        a4x = v4
        a4v = -(alpha / t4) * v4 - grad(x4)
        xn = x + (dt / 6.0) * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
        vn = v + (dt / 6.0) * (a1v + 2.0 * a2v + 2.0 * a3v + a4v)
        x, v = xn, vn
    return x, v
"""


@dataclass(frozen=True)
class Trajectory:
    """Recorded (t, x, v, gap) samples of one run.

    For scheme runs v is the divided difference (x_n - x_{n-1})/sqrt(h); for
    integrator runs v is the state velocity.  t is record_times of the run
    fields and n.  A scheme run that comes to rest at an exact fixed point
    has ``first_filled``, the index of the first record filled without
    stepping: every later record repeats its x, v and gap (fill_records).
    It is None for a run that never rests.
    """

    mode: str
    alpha: float
    step: float              # h for schemes, dt for the integrator
    t0: float                # 0.0 for schemes
    n: np.ndarray            # record indices, shape (N,)
    t: np.ndarray            # shape (N,)
    x: np.ndarray            # shape (N, dim)
    v: np.ndarray            # shape (N, dim)
    gap: np.ndarray          # F(x) - F*, shape (N,)
    error: Optional[str] = None
    first_filled: Optional[int] = None

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def is_scheme(self) -> bool:
        return MODES[self.mode].is_scheme

    def __len__(self) -> int:
        return len(self.n)


def record_times(mode: str, step: float, t0: float, n: np.ndarray) -> np.ndarray:
    """The times of records ``n``, t0 + n * MODES[mode].time_unit(step):
    n*sqrt(h) for the scheme (t0 = 0) and t0 + n*dt for the integrator,
    computed from the index (no accumulated drift)."""
    return t0 + n * MODES[mode].time_unit(step)


def fill_records(n: np.ndarray, x: np.ndarray, v: np.ndarray, gap: np.ndarray,
                 stride: int, last: int):
    """(n, x, v, gap) followed by the fill of a run at rest from the last
    record: that record's x, v and gap at every ``stride``-th step after it
    up to ``last``, and at ``last``."""
    first = int(n[-1])
    tail = np.arange(first + stride, last + 1, stride, dtype=np.int64)
    if (last - first) % stride:
        tail = np.append(tail, np.int64(last))
    k = len(tail)
    return (np.concatenate((n, tail)), np.concatenate((x, np.repeat(x[-1:], k, axis=0))),
            np.concatenate((v, np.repeat(v[-1:], k, axis=0))),
            np.concatenate((gap, np.full(k, gap[-1]))))


def _point_form(dim: int):
    """(finiteness test, bit-equality test) for the point form of one
    dimension, forked since _drive runs them once per record interval and
    once per replayed step.

    Steps never update a point in place, so recorded points need no copy.
    Bit equality is value equality plus equal sign bits (-0.0 == 0.0 but the
    two step differently).
    """
    if dim == 1:
        return (
            math.isfinite,
            lambda a, b: a == b and math.copysign(1.0, a) == math.copysign(1.0, b),
        )
    return (
        lambda p: bool(np.isfinite(p).all()),
        lambda a, b: a.tobytes() == b.tobytes(),
    )


def _compile(template: str, names: dict, label: str):
    """The function ``interval`` of ``template`` with ``names`` as its
    globals.  The globals carry this module's ``__name__``, so a warning
    raised inside the kernel is attributed to the package and meets the
    warning filters set for it."""
    names["__name__"] = __name__
    exec(compile(template, f"<{__name__} {label} interval>", "exec"), names)
    return names["interval"]


def _interval_kernel(obj: ObjectiveSpec, h: float, use_prox: bool):
    """``interval(factors, x, xp) -> (x, xp)``: the steps of run_scheme with
    extrapolation factors ``factors`` from the state (x, xp).  The step
    y - h*grad(y), or prox(h, y) with ``use_prox``, inlines the Expr its
    operation carries (objectives.inlined), with the terms in h computed
    here, once, so it gives the call's bits; an operation with none is
    called."""
    op = obj.prox if use_prox else obj.gradient
    expr = inlined(op)
    if expr is not None:
        text, names = expr.text, expr.bind(h)
    elif use_prox:
        text, names = "prox(h, y)", {"h": h, "prox": op}
    else:
        text, names = "grad(y)", {"h": h, "grad": op}
    step = text if use_prox else f"y - h * ({text})"
    return _compile(_INTERVAL.format(step=step), names, "run_scheme")


def _rk4_kernel(obj: ObjectiveSpec, alpha: float, dt: float):
    """``interval(times, x, v) -> (x, v)``: the RK4 steps of run_ode that
    start at ``times``, from the state (x, v)."""
    return _compile(_RK4_INTERVAL, {"alpha": alpha, "dt": dt, "grad": obj.gradient}, "run_ode")


class _Recorder:
    """Recorded (n, x, b, gap) samples, where b is the second half of the
    state (x_{n-1} for the scheme, v for RK4), in lists (appending a float
    costs far less than storing it into an array element), and the fill of
    a run at rest as one segment: the stride and last n after the final
    sample, whose state repeats over it."""

    def __init__(self, obj: ObjectiveSpec):
        self.obj = obj
        self.ns: list = []
        self.xs: list = []
        self.bs: list = []
        self.gaps: list = []
        self.fill_to: Optional[tuple] = None  # (stride, last n) of the fill

    def gap(self, x) -> float:
        """F(x) - F*; a value that overflows counts as inf."""
        try:
            return self.obj.value(x) - self.obj.f_star
        except OverflowError:
            return math.inf

    def add(self, n: int, x, b) -> None:
        self.ns.append(n)
        self.xs.append(x)
        self.bs.append(b)
        self.gaps.append(self.gap(x))

    def fill(self, start: int, stop: int, stride: int, x, b) -> None:
        """Record (x, b) at every multiple of ``stride`` in [start, stop], and
        at ``stop`` itself: the first of these as a sample, the rest as the
        segment."""
        self.add(min(-(-start // stride) * stride, stop), x, b)
        self.fill_to = stride, stop

    def trajectory(self, error, velocity, mode: str, alpha: float, step: float,
                   t0: float) -> Trajectory:
        """The samples as a Trajectory with velocities ``velocity(x, b)``,
        taken over all samples at once, and the segment expanded after
        them."""
        dim = self.obj.dim
        n = np.asarray(self.ns, dtype=np.int64)
        x = np.asarray(self.xs, dtype=float).reshape(len(n), dim)
        b = np.asarray(self.bs, dtype=float).reshape(len(n), dim)
        v, gap = velocity(x, b), np.array(self.gaps, dtype=float)
        first_filled = None
        if self.fill_to is not None:
            first_filled = len(n) - 1
            n, x, v, gap = fill_records(n, x, v, gap, *self.fill_to)
        return Trajectory(mode, alpha, step, t0, n=n, t=record_times(mode, step, t0, n), x=x,
                          v=v, gap=gap, error=error, first_filled=first_filled)


def _drive(obj: ObjectiveSpec, interval, coefficients, state, steps: int, stride: int,
           velocity, fixed_points: bool = False, **fields) -> Trajectory:
    """Step ``interval`` from ``state`` for ``steps`` steps and record every
    ``stride``-th state plus first and last.

    ``interval(coefs, a, b) -> (a, b)`` takes one step per coefficient;
    ``coefficients(ns)`` maps an array of step indices to the coefficients of
    those steps.  The loop steps one record interval at a time, split at
    multiples of ``_FACTOR_BLOCK``: the coefficients of a block come from one
    numpy pass (the same IEEE operations as the per-step formula, so the same
    bits), and the state is tested for finiteness once, at the interval's
    end.  If that test fails, or a step raises, the interval is replayed from
    its saved start one step at a time, testing every state: a non-finite
    state, or an OverflowError, aborts the run at that step, and any other
    exception propagates from the step that raises it.  The partial
    trajectory carries an error marker and the last finite state as its
    final record.  The loop runs with numpy's overflow and invalid-value
    warnings off, so an n-D run that diverges warns no more than a 1-D one.

    With ``fixed_points``, a state (a, b) whose halves are identical bit for
    bit takes one step alone, and if that step returns the state unchanged,
    the run is at rest: the caller vouches that such a state steps to itself
    from then on.  The loop stops there; the first remaining record takes
    the state, and the rest are one segment (its stride and last n) that
    the Trajectory expands with numpy, marking that record first_filled.
    """
    finite, same = _point_form(obj.dim)
    a, b = state
    with np.errstate(over="ignore", invalid="ignore"):
        rec = _Recorder(obj)
        rec.add(0, a, b)
        error = None
        base, coefs = -_FACTOR_BLOCK, []  # coefs[i] is the coefficient of step base + i
        replay_end = 0
        k = 0
        while k < steps:
            if k - base == _FACTOR_BLOCK:
                base = k
                coefs = coefficients(
                    np.arange(k, min(k + _FACTOR_BLOCK, steps), dtype=float)).tolist()
            # at rest, take one step alone: if it returns the state, it is a
            # fixed point; a replayed interval goes one step at a time too
            at_rest = fixed_points and same(a, b)
            single = at_rest or k < replay_end
            end = k + 1 if single else min(k - k % stride + stride, steps, base + _FACTOR_BLOCK)
            start = a, b
            try:
                a, b = interval(coefs[k - base:end - base], a, b)
                ok = finite(a) and finite(b)
            except OverflowError:
                ok = False
            except Exception:
                if single:
                    raise
                ok = False
            if not ok:
                a, b = start
                if not single:
                    replay_end = end
                    continue
                error = f"non-finite state at step {k + 1}"
                if k % stride:
                    rec.add(k, a, b)
                break
            k = end
            if at_rest and same(a, b):
                rec.fill(k, steps, stride, a, b)
                break
            if k % stride == 0 or k == steps:
                rec.add(k, a, b)
        return rec.trajectory(error, velocity, **fields)


def _scheme_drive(mode: Mode, obj: ObjectiveSpec, alpha: float, h: float, t0: float, x, v):
    """_drive's (interval, coefficients, state, velocity) for the scheme:
    factors n/(n+alpha), (x_n, x_{n-1}) at rest at x, the divided difference."""
    sqrt_h = math.sqrt(h)
    return (_interval_kernel(obj, h, mode.prox), lambda ns: ns / (ns + alpha), (x, x),
            lambda x, xp: (x - xp) / sqrt_h)


def _flow_drive(mode: Mode, obj: ObjectiveSpec, alpha: float, dt: float, t0: float, x, v):
    """_drive's (interval, coefficients, state, velocity) for RK4: step start
    times t0 + k*dt, the state (x, v), and v."""
    return _rk4_kernel(obj, alpha, dt), lambda ns: t0 + ns * dt, (x, v), lambda x, v: v


def _flow_start(t0: float, dt: float) -> float:
    """t0 clamped up to dt, so that no RK4 stage samples the damping alpha/t
    near its singularity at t = 0; ValueError unless t0 > 0."""
    if not t0 > 0.0:
        raise ValueError(f"ode-rk4 requires t0 > 0, got {t0}")
    return max(t0, dt)


@dataclass(frozen=True)
class Mode:
    """Every rule of one dynamics that depends on its mode."""

    name: str
    step_key: str       # the config key of the step: h or dt
    is_scheme: bool     # starts from rest (x_{-1} = x0) and may stop at a fixed point
    prox: bool          # takes proximal steps, so needs the objective's prox
    time_unit: Callable[[float], float]          # record n is at t0 + n*time_unit(step)
    start_time: Callable[[float, float], float]  # (t0, step) -> the t0 a run starts at
    drive: Callable     # (mode, obj, alpha, step, t0, x, v) -> the _scheme_drive tuple


MODES = {m.name: m for m in (
    Mode("nesterov", "h", True, False, math.sqrt, lambda t0, h: 0.0, _scheme_drive),
    Mode("prox-nesterov", "h", True, True, math.sqrt, lambda t0, h: 0.0, _scheme_drive),
    Mode("ode-rk4", "dt", False, False, lambda dt: dt, _flow_start, _flow_drive),
)}


def _run(caller: str, entry: Mode, obj: ObjectiveSpec, alpha: float, step: float,
         t0: float, steps: int, x0, v0, stride: int) -> Trajectory:
    """The one path of run, run_scheme and run_ode (``caller``, named in
    errors) to _drive: checks the arguments, then steps the dynamics of
    ``entry`` from (x0, v0) at its start time."""
    if alpha <= 0.0 or step <= 0.0 or steps < 1 or stride < 1:
        raise ValueError(
            f"{caller} requires alpha > 0, {entry.step_key} > 0, steps >= 1, stride >= 1")
    if entry.prox and obj.prox is None:
        raise ValueError(f"objective {obj.name} exposes no prox")
    t0 = entry.start_time(t0, step)
    x, v = (as_point(p, obj.dim) for p in (x0, np.zeros(obj.dim) if v0 is None else v0))
    for name, p, coords in (("x0", x, x0), ("v0", v, v0)):
        if not np.all(np.isfinite(p)):
            raise ValueError(f"{caller} requires a finite {name}, got {coords!r}")
    interval, coefficients, state, velocity = entry.drive(entry, obj, alpha, step, t0, x, v)
    return _drive(obj, interval, coefficients, state, steps, stride, velocity,
                  fixed_points=entry.is_scheme, mode=entry.name, alpha=alpha, step=step, t0=t0)


def run_scheme(obj: ObjectiveSpec, alpha: float, h: float, steps: int, x0,
               stride: int = 100, use_prox: bool = False) -> Trajectory:
    """Run the discrete scheme from rest (x_prev = x_curr = x0).

    Each step extrapolates with factor n/(n+alpha), then takes a gradient
    step (or a proximal step with ``use_prox``).  Records every
    ``stride``-th state plus first and last; the steps, the divergence
    policy and the records are _drive's, on the state (x_n, x_{n-1}).

    Deferring the finiteness test to an interval's end is exact under one
    precondition: a gradient step or prox maps a non-finite point to a
    non-finite point, so a state that goes non-finite inside an interval is
    still non-finite at its end.  IEEE arithmetic guarantees this for
    y - h*grad(y), and every catalog prox satisfies it.

    Exact fixed points end the stepping early.  When x_n and x_{n-1} are
    identical bit for bit (sign bits included), x_n - x_{n-1} is +0.0 in
    every component, so the extrapolated point y_n = x_n + m*(+0.0) does not
    depend on n, and neither does the next state.  If that step then returns
    x_n bit for bit, every later step would too: the remaining records are
    filled with x_n and the velocity +0.0 without stepping, and the
    trajectory is the one that stepping to the end would have recorded.
    """
    mode = MODES["prox-nesterov" if use_prox else "nesterov"]
    return _run("run_scheme", mode, obj, alpha, h, 0.0, steps, x0, None, stride)


def run_ode(obj: ObjectiveSpec, alpha: float, dt: float, t0: float, steps: int, x0,
            v0=None, stride: int = 100) -> Trajectory:
    """Integrate the flow with classical fixed-step RK4 from (x0, v0) at t0.

    The system is x' = v, v' = -(alpha/t) v - grad F(x).  t0 is clamped up
    to dt (the damping is singular at 0, t0 > 0 mandatory), so no stage
    samples the damping at t <= 0; step k starts at t0 + k*dt, computed from
    the step index.  The steps, the divergence policy and the records are
    _drive's, on the state (x, v).  Deferring the finiteness test is exact
    for any objective: each step adds to x and to v, and IEEE addition keeps
    a non-finite term non-finite.  Fixed points are not detected: a step
    depends on t unless every stage velocity is zero, which the state (x, v)
    does not show.
    """
    return _run("run_ode", MODES["ode-rk4"], obj, alpha, dt, t0, steps, x0, v0, stride)


def run(config, obj: ObjectiveSpec) -> Trajectory:
    """Run one experiment described by an ExperimentConfig."""
    entry = MODES.get(config.mode)
    if entry is None:
        raise ValueError(f"unknown mode {config.mode!r}")
    return _run("run", entry, obj, config.alpha, getattr(config, entry.step_key), config.t0,
                config.steps, config.x0, config.v0, config.stride)
