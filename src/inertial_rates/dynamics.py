"""Trajectory generation: the discrete accelerated scheme (gradient or
proximal steps, time map t_n = n*sqrt(h)) and a fixed-step RK4 integrator of
the damped second-order flow  x'' + (alpha/t) x' + grad F(x) = 0.

Each dynamics has one stepping loop, written once for both point forms:
Python floats in dimension 1, where a step costs a small fraction of the
array form's, and float arrays otherwise.
Single runs are strictly sequential; distinct runs are independent and the
returned Trajectory values are immutable arrays, safe to share across
workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .objectives import ObjectiveSpec

MODES = ("nesterov", "prox-nesterov", "ode-rk4")


@dataclass(frozen=True)
class Trajectory:
    """Recorded (t, x, v, gap) samples of one run.

    For scheme runs v is the divided difference (x_n - x_{n-1})/sqrt(h) and
    t = n*sqrt(h) computed from the recorded index (no accumulated drift);
    for integrator runs v is the state velocity and t = t0 + k*dt.
    """

    mode: str
    objective_name: str
    alpha: float
    step: float              # h for schemes, dt for the integrator
    t0: float                # 0.0 for schemes
    stride: int
    n: np.ndarray            # record indices, shape (N,)
    t: np.ndarray            # shape (N,)
    x: np.ndarray            # shape (N, dim)
    v: np.ndarray            # shape (N, dim)
    gap: np.ndarray          # F(x) - F*, shape (N,)
    error: Optional[str] = None

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def is_scheme(self) -> bool:
        return self.mode != "ode-rk4"

    def __len__(self) -> int:
        return len(self.n)


def _point_form(dim: int):
    """(point conversion, zero velocity, finiteness test, bit-equality test)
    for one dimension.

    Dimension 1 runs on Python floats, higher dimensions on float arrays; the
    loops below are written once for both.  Steps never update a point in
    place, so recorded points need no copy.  Bit equality is value equality
    plus equal sign bits (-0.0 == 0.0 but the two step differently).
    """
    if dim == 1:
        return (
            lambda p: float(np.asarray(p).reshape(())),
            0.0,
            math.isfinite,
            lambda a, b: a == b and math.copysign(1.0, a) == math.copysign(1.0, b),
        )
    return (
        lambda p: np.array(p, dtype=float).reshape(dim),
        np.zeros(dim),
        lambda p: bool(np.isfinite(p).all()),
        lambda a, b: a.tobytes() == b.tobytes(),
    )


class _Recorder:
    """Recorded (n, x, v) samples.  Lists, not preallocated arrays: appending
    a float costs far less than storing it into an array element."""

    def __init__(self, dim: int):
        self.dim = dim
        self.ns: list = []
        self.xs: list = []
        self.vs: list = []

    def add(self, n: int, x, v) -> None:
        self.ns.append(n)
        self.xs.append(x)
        self.vs.append(v)

    def fill(self, start: int, stop: int, stride: int, x, v) -> None:
        """Record (x, v) at every multiple of ``stride`` in [start, stop], and
        at ``stop`` itself."""
        first = -(-start // stride) * stride
        ns = range(first, stop + 1, stride)
        count = len(ns) + (stop % stride != 0)
        self.ns.extend(ns)
        if stop % stride:
            self.ns.append(stop)
        self.xs.extend(repeat(x, count))
        self.vs.extend(repeat(v, count))

    def trajectory(self, obj: ObjectiveSpec, error, t_scale: float, **fields) -> Trajectory:
        """The samples as a Trajectory with times t0 + n*t_scale."""
        n = np.asarray(self.ns, dtype=np.int64)
        x = np.asarray(self.xs, dtype=float).reshape(len(n), self.dim)
        v = np.asarray(self.vs, dtype=float).reshape(len(n), self.dim)
        return Trajectory(
            objective_name=obj.name, n=n, t=fields["t0"] + n * t_scale, x=x, v=v,
            gap=_gaps(obj, x), error=error, **fields,
        )


def run_scheme(
    obj: ObjectiveSpec,
    alpha: float,
    h: float,
    steps: int,
    x0,
    stride: int = 100,
    use_prox: bool = False,
) -> Trajectory:
    """Run the discrete scheme from rest (x_prev = x_curr = x0).

    Each step extrapolates with factor n/(n+alpha), then takes a gradient
    step (or a proximal step with ``use_prox``).  Records every
    ``stride``-th state plus first and last; the loop steps one record
    interval at a time.  A non-finite state, or an OverflowError from the
    objective, aborts the run; the partial trajectory carries an error marker
    and the last finite state as its final record.

    Exact fixed points end the stepping early.  When x_n and x_{n-1} are
    identical bit for bit (sign bits included), x_n - x_{n-1} is +0.0 in
    every component, so the extrapolated point y_n = x_n + m*(+0.0) does not
    depend on n, and neither does the next state.  If that step then returns
    x_n bit for bit, every later step would too: the remaining records are
    filled with x_n and the velocity +0.0 without stepping, and the
    trajectory is the one that stepping to the end would have recorded.
    """
    if alpha <= 0.0 or h <= 0.0 or steps < 1 or stride < 1:
        raise ValueError("run_scheme requires alpha > 0, h > 0, steps >= 1, stride >= 1")
    if use_prox and obj.prox is None:
        raise ValueError(f"objective {obj.name} exposes no prox")
    sqrt_h = math.sqrt(h)
    point, zero, finite, same = _point_form(obj.dim)
    grad, prox = obj.gradient, obj.prox
    x = xp = point(x0)
    rec = _Recorder(obj.dim)
    rec.add(0, x, zero)
    error = None
    k = 0
    while k < steps:
        # at rest, take one step alone: if it returns x, x is a fixed point
        at_rest = same(x, xp)
        end = k + 1 if at_rest else min(k - k % stride + stride, steps)
        for n in range(k, end):
            m = n / (n + alpha)
            y = x + m * (x - xp)
            try:
                xn = prox(h, y) if use_prox else y - h * grad(y)
            except OverflowError:
                xn = math.nan
            if not finite(xn):
                error = f"non-finite state at step {n + 1}"
                if n % stride:
                    rec.add(n, x, (x - xp) / sqrt_h)
                break
            xp = x
            x = xn
        if error is not None:
            break
        k = end
        if at_rest and same(x, xp):
            rec.fill(k, steps, stride, x, (x - xp) / sqrt_h)
            break
        if k % stride == 0 or k == steps:
            rec.add(k, x, (x - xp) / sqrt_h)
    return rec.trajectory(
        obj, error, sqrt_h, mode="prox-nesterov" if use_prox else "nesterov",
        alpha=alpha, step=h, t0=0.0, stride=stride,
    )


def run_ode(
    obj: ObjectiveSpec,
    alpha: float,
    dt: float,
    t0: float,
    steps: int,
    x0,
    v0=None,
    stride: int = 100,
) -> Trajectory:
    """Integrate the flow with classical fixed-step RK4 from (x0, v0) at t0.

    The system is x' = v, v' = -(alpha/t) v - grad F(x).  t0 is clamped up
    to dt (the damping is singular at 0, t0 > 0 mandatory), so no stage
    samples the damping at t <= 0; times are t0 + k*dt computed from the
    step index.  Divergence is handled as in run_scheme.
    """
    if alpha <= 0.0 or dt <= 0.0 or steps < 1 or stride < 1:
        raise ValueError("run_ode requires alpha > 0, dt > 0, steps >= 1, stride >= 1")
    if t0 <= 0.0:
        raise ValueError(f"run_ode requires t0 > 0, got {t0}")
    t0 = max(t0, dt)
    point, zero, finite, _ = _point_form(obj.dim)
    grad = obj.gradient
    x = point(x0)
    v = zero if v0 is None else point(v0)
    rec = _Recorder(obj.dim)
    rec.add(0, x, v)
    error = None
    for k in range(steps):
        t = t0 + k * dt
        try:
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
        except OverflowError:
            xn = vn = math.nan
        if not (finite(xn) and finite(vn)):
            error = f"non-finite state at step {k + 1}"
            if k % stride:
                rec.add(k, x, v)
            break
        x = xn
        v = vn
        kk = k + 1
        if kk % stride == 0 or kk == steps:
            rec.add(kk, x, v)
    return rec.trajectory(
        obj, error, dt, mode="ode-rk4", alpha=alpha, step=dt, t0=t0, stride=stride
    )


def _gaps(obj: ObjectiveSpec, x_arr: np.ndarray) -> np.ndarray:
    """F(x) - F* per record; a value that overflows counts as inf."""
    value, f_star = obj.value, obj.f_star

    def gap(x):
        try:
            return value(x) - f_star
        except OverflowError:
            return math.inf

    points = x_arr[:, 0].tolist() if obj.dim == 1 else x_arr
    return np.array([gap(x) for x in points])


def run(config, obj: ObjectiveSpec) -> Trajectory:
    """Run one experiment described by an ExperimentConfig."""
    if config.mode not in MODES:
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.mode == "ode-rk4":
        return run_ode(
            obj,
            alpha=config.alpha,
            dt=config.dt,
            t0=config.t0,
            steps=config.steps,
            x0=config.x0,
            v0=config.v0,
            stride=config.stride,
        )
    return run_scheme(
        obj,
        alpha=config.alpha,
        h=config.h,
        steps=config.steps,
        x0=config.x0,
        stride=config.stride,
        use_prox=(config.mode == "prox-nesterov"),
    )
