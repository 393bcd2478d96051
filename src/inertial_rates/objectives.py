"""Benchmark objectives with exact values, gradients, proximal maps, and
sampling probes for the flatness / growth geometry hypotheses.

Catalog entries are 1-D by default; power objectives extend radially to R^n.
Points are plain floats in dimension 1 and numpy arrays otherwise (as_point
is the one definition of that form).  The simulation loops are written once
for both forms, so dimension 1 runs free of array overhead.  The 1-D power
and plateau gradients and the closed-form 1-D power proxes are stated as one
expression each (an Expr, built by _expr): the public callable is compiled
from it and carries it (inlined), and the scheme's stepping loop inlines the
same text.  Catalog parameters must be finite.  numpy loads with the first
array: the functions that build or read arrays import it in their bodies,
so a 1-D catalog parse loads none.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # annotations only: a catalog parse loads no numpy
    import numpy as np

Point = Union[float, "np.ndarray"]

# Relative probe tolerance separating analytic violation from rounding.
TOL_PROBE = 1e-10


@dataclass(frozen=True)
class Expr:
    """A 1-D gradient or prox stated as one Python expression ``text`` in
    the point ``y``; _expr compiles ``function`` from it, and the function
    carries it (inlined).

    ``terms`` holds, as (name, text) pairs in order, the terms that depend
    on the step ``h`` alone, each in ``h``, ``names`` and the terms before
    it; a gradient has none.  ``names`` holds, as (name, value) pairs, every
    constant and function the texts refer to besides builtins: numbers reach
    the code through these names only, never as text, except the small
    integer gamma of a product (_PRODUCT_GAMMAS).  dynamics.run_scheme binds
    the terms once per run (``bind``) and inlines ``text`` in place of a
    call to ``function``: both evaluate the same operations."""

    text: str
    terms: tuple
    names: tuple
    function: Callable

    def bind(self, h: float) -> dict:
        """The globals ``text`` takes at step ``h``: ``names``, ``h`` and the
        terms, computed by the statements ``function`` runs."""
        scope = {**dict(self.names), "h": h}
        exec("\n".join(f"{name} = {text}" for name, text in self.terms), scope)
        del scope["__builtins__"]
        return scope


def _expr(params: str, text: str, terms: tuple = (), **names) -> Expr:
    """The Expr of ``def f(<params>): <terms>; return <text>`` with ``names``
    as globals; params are ``"y"`` for a gradient, ``"h, y"`` for a prox."""
    body = "".join(f"    {name} = {term}\n" for name, term in terms)
    scope = dict(names)
    exec(f"def f({params}):\n{body}    return {text}\n", scope)
    expr = Expr(text, terms, tuple(names.items()), scope["f"])
    expr.function.expr = expr
    return expr


def inlined(fn) -> Optional[Expr]:
    """The Expr that _expr compiled ``fn`` from, or None.  A wrapper that
    copies fn's attributes (functools.wraps) has none: a run calls it."""
    expr = getattr(fn, "expr", None)
    return expr if isinstance(expr, Expr) and expr.function is fn else None


# The integer gammas whose 1-D power gradient is stated as a product
# (_product) rather than through **.  Gamma 3 and 4 are the gammas that the
# flat-band-grid workload steps; at gamma 4 the product steps at 92-98 against
# 151-154 ns/step for the pow form (1-D scheme kernel, 2-vCPU Xeon VM,
# Python 3.11).  Gamma 5-8 are faster as products in that kernel alone, but
# no workload runs them, so they keep the pow form and its bits.
_PRODUCT_GAMMAS = (2.0, 3.0, 4.0)


def _product(k: int) -> str:
    """The text of the gradient k * |y|**(k-1) * sign(y) for an integer gamma
    k in _PRODUCT_GAMMAS: ``k.0`` times k-1 factors ``y``, the last one
    ``abs(y)`` for odd k.  Gamma 4 is within 1 ulp of the pow form
    (tests/test_kernels.py pins the bound)."""
    return " * ".join([f"{k}.0"] + ["y"] * (k - 2) + ["y" if k % 2 == 0 else "abs(y)"])


@dataclass(frozen=True)
class ObjectiveSpec:
    """An objective F with exact minimum value and analytic geometry data.

    ``value``/``gradient``/``prox`` take and return points in the form of
    ``as_point``.  ``prox`` maps ``(h, y)`` to
    ``argmin_x 0.5*|x - y|^2 + h*F(x)`` and may be absent.
    ``minimizer_hint`` is a point, or an ``(lo, hi)`` interval when the
    minimizer set is not a single point; ``reference_point`` picks from it.
    """

    name: str
    dim: int
    value: Callable[[Point], float]
    gradient: Callable[[Point], Point]
    f_star: float
    minimizer_hint: object
    distance_to_minset: Callable[[Point], float]
    nominal_gamma: float
    prox: Optional[Callable[[float, Point], Point]] = None


@dataclass(frozen=True)
class GeometryProbeReport:
    """Outcome of sampling one geometry inequality on a ball."""

    hypothesis: str          # "H1" or "H2"
    exponent: float          # gamma (H1) or r (H2)
    radius: float
    n_samples: int
    worst_margin: float      # min over samples of (rhs - lhs)
    constant: Optional[float]  # K for H2, None for H1
    holds: bool
    witness: Optional[Point]   # most violating sample when not holds

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"


def as_point(coords, dim: int) -> Point:
    """The point form of ``dim`` coordinates: a Python float at dimension 1
    and a ``(dim,)`` float array otherwise.  ``coords`` is a number, or a
    sequence or array of ``dim`` numbers; the array may share its memory.
    Raises ValueError when the coordinate count is not ``dim``."""
    import numpy as np
    if dim > 1 and type(coords) is np.ndarray and coords.dtype is np.dtype(np.float64) \
            and coords.shape == (dim,):
        return coords  # already in point form
    p = np.asarray(coords, dtype=float).reshape(-1)
    if p.size != dim:
        raise ValueError(f"a point of dimension {dim} takes {dim} coordinate(s), got {p.size}")
    return float(p[0]) if dim == 1 else p


def reference_point(obj: ObjectiveSpec, x0=None) -> Point:
    """The minimizer that energies and probes are centred on, in point form:
    the hint itself, or for an ``(lo, hi)`` interval of minimizers the end on
    the side of ``x0`` (``hi`` for x0 >= 0 and when x0 is None)."""
    hint = obj.minimizer_hint
    if isinstance(hint, tuple):
        lo, hi = hint
        hint = hi if x0 is None or as_point(x0, 1) >= 0.0 else lo
    return as_point(hint, obj.dim)


# ---------------------------------------------------------------------------
# proximal map of the power penalty
# ---------------------------------------------------------------------------

def prox_power(gamma: float, h: float, y: float) -> float:
    """Return argmin_z 0.5*(z - y)^2 + h*|z|**gamma for scalar y.

    gamma = 1 is the soft threshold and gamma = 2 a pure shrinkage.  For
    gamma in {1.5, 3} the optimality equation u + h*gamma*u**(gamma-1) = |y|
    is quadratic in sqrt(u) resp. u and solved in closed form; any other
    gamma > 1 uses a bisection-safeguarded Newton iteration on [0, |y|]
    driven to |residual| <= 1e-14 * max(1, |y|) (_prox_newton).  Raises
    ValueError unless gamma >= 1 and h > 0 (a NaN fails both).
    """
    if not gamma >= 1.0:
        raise ValueError(f"prox_power requires gamma >= 1, got {gamma}")
    if not h > 0.0:
        raise ValueError(f"prox_power requires h > 0, got {h}")
    return _power_prox(gamma)(h, y)


# The closed-form proxes of prox_power, by gamma; each maps +-0.0 to +0.0.
# min(a, b) and max(a, b) are written as the conditionals the builtins
# evaluate, ``b if b < a else a`` and ``b if b > a else a``, so NaN and
# signed zeros come out as the builtins give them; at gamma 1.5 that takes
# the inlined step from ~280 to ~160 ns (kernel alone, 2-vCPU VM).  For
# gamma 1.5 and 3 the roots are written halved (ay / (b/2 + sqrt(b*b/4 + ay))
# for 2*ay / (b + sqrt(b*b + 4*ay))): the same bits, without overflowing
# 4*ay.
_PROX_EXPRS = {
    # max(abs(y) - h, 0.0)
    1.0: _expr("h, y",
               "0.0 if y == 0.0 else copysign(0.0 if 0.0 > (d := abs(y) - h) else d, y)",
               copysign=math.copysign),
    # a cancellation-safe root s; the exact prox is at most |y|, and s*s can
    # round above it, so min(s*s, ay)
    1.5: _expr("h, y", "0.0 if (ay := abs(y)) == 0.0 else copysign("
               "ay if (ss := (s := ay / (half_b + sqrt(quarter_bb + ay))) * s) > ay "
               "else ss, y)",
               (("b", "1.5 * h"), ("half_b", "0.5 * b"), ("quarter_bb", "0.25 * b * b")),
               copysign=math.copysign, sqrt=math.sqrt),
    2.0: _expr("h, y", "0.0 if y == 0.0 else y / shrink", (("shrink", "1.0 + 2.0 * h"),)),
    # where c*ay overflows, u = sqrt(ay/(3h)) to within a relative 1e-154
    3.0: _expr("h, y", "0.0 if (ay := abs(y)) == 0.0 else copysign("
               "sqrt(ay) / sqrt(c) if (q := c * ay) == inf "
               "else ay / (0.5 + sqrt(0.25 + q)), y)",
               (("c", "3.0 * h"),), copysign=math.copysign, sqrt=math.sqrt, inf=math.inf),
}


@functools.lru_cache(maxsize=64)
def _power_prox(gamma: float) -> Callable[[float, float], float]:
    """prox_power(gamma, h, y) as a function of (h, y), for gamma >= 1 and
    h > 0 unchecked: the dispatch on gamma is done here, once."""
    if gamma in _PROX_EXPRS:
        return _PROX_EXPRS[gamma].function

    def prox(h, y):
        if y == 0.0:
            return 0.0
        if not math.isfinite(y):
            return y  # no root to find; a run reports the non-finite state
        return _prox_newton(gamma, h, y)

    return prox


def _prox_newton(gamma: float, h: float, y: float) -> float:
    """prox_power for any gamma > 1 and finite y != 0, by a bisection-safeguarded
    Newton iteration; raises ArithmeticError when 200 iterations do not meet
    the tolerance (a root that underflows to 0 counts as met)."""
    # f(u) = u + c*u^(gamma-1) - ay, increasing on [0, ay].
    # The root can sit many decades below ay when the penalty dominates, so
    # start from the asymptotic solution and fall back geometrically.
    ay = abs(y)
    c = h * gamma
    g1 = gamma - 1.0
    tol = 1e-14 * max(1.0, ay)
    r = ay / c
    try:
        if r == math.inf:
            # tiny h, huge |y|: the same start taken in logs; from ay instead,
            # Newton shrinks u by only a factor ~(gamma-2)/(gamma-1) per step
            u = min(ay, math.exp((math.log(ay) - math.log(c)) / g1))
        else:
            u = min(ay, r ** (1.0 / g1))
    except OverflowError:
        u = ay
    if u <= 0.0 or not math.isfinite(u):
        u = ay
    lo, hi = 0.0, ay
    for _ in range(200):
        f = u + _safe_pow(c, u, g1) - ay
        if abs(f) <= tol:
            break
        if f > 0.0:
            hi = u
        else:
            lo = u
        df = 1.0 + _safe_pow(c * g1, u, g1 - 1.0)
        step = u - f / df
        if not (lo < step < hi):
            step = _geometric_mean(lo, hi) if lo > 0.0 else 1e-17 * hi
        u = step
        if u == 0.0:
            break  # true root underflows; 0 is the representable answer
    else:
        raise ArithmeticError(
            f"prox_power Newton did not converge in 200 iterations: gamma={gamma!r}, "
            f"h={h!r}, y={y!r}, residual={f!r} > tol={tol!r}"
        )
    return math.copysign(u, y)


def _geometric_mean(lo: float, hi: float) -> float:
    """sqrt(lo*hi), taken factor by factor when the product overflows.  A
    product that underflows still gives 0, which ends the iteration as an
    underflowed root: bisecting on among subnormals, f moves in steps larger
    than the tolerance and the iteration would not converge."""
    p = lo * hi
    return math.sqrt(p) if p < math.inf else math.sqrt(lo) * math.sqrt(hi)


def _safe_pow(coef: float, u: float, e: float) -> float:
    """coef * u**e for u > 0; when u**e overflows, (sqrt(coef) * u**(e/2))**2,
    and inf if that overflows too.  The halved form stays within a few ulps,
    as Newton's tolerance needs; (coef**(1/e) * u)**e would not, since 1/e
    rounds and |log coef| reaches ~700."""
    try:
        return coef * u ** e
    except OverflowError:
        pass
    try:
        return (math.sqrt(coef) * u ** (0.5 * e)) ** 2
    except OverflowError:
        return math.inf


def _norm(x, np):
    """np.linalg.norm, rescaled by max|x_i| when it falls outside
    [1e-150, 1e150] at a finite nonzero point: below ~1.5e-154 the squared sum
    is subnormal (inexact, or 0) and above ~1.3e154 it overflows to inf.
    Points whose norm lies in that range keep their bits.  ``np`` is numpy,
    bound once by the caller: an n-D run takes a norm at every step."""
    n = np.linalg.norm(x)
    if not 1e-150 <= n <= 1e150:
        s = np.max(np.abs(x))
        if 0.0 < s < math.inf:
            n = s * np.linalg.norm(np.asarray(x) / s)
    return n


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def make_power(gamma: float, dim: int = 1) -> ObjectiveSpec:
    """``F(x) = ||x||**gamma`` with minimizer 0 (radial extension for dim > 1).

    The gradient at 0 is defined as 0 for gamma < 2: 0 is the minimizer and
    the vector field is only evaluated there at rest; discrete runs use the
    proximal path for gamma < 2 to stay clear of the non-Lipschitz point.
    """
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"make_power requires a finite gamma >= 1, got {gamma}")
    if dim < 1:
        raise ValueError(f"make_power requires dim >= 1, got {dim}")
    name = f"power:gamma={gamma:g},dim={dim}"
    prox1 = _power_prox(gamma)
    if dim == 1:
        value = (lambda x: x * x) if gamma == 2.0 else (lambda x: abs(x) ** gamma)
        if gamma == 1.0:
            value = abs
            expr = _expr("y", "copysign(1.0, y) if y != 0.0 else 0.0", copysign=math.copysign)
        elif gamma in _PRODUCT_GAMMAS:
            expr = _expr("y", _product(int(gamma)))
        else:
            expr = _expr("y", "copysign(gamma * abs(y) ** g1, y) if y != 0.0 else 0.0",
                         copysign=math.copysign, gamma=gamma, g1=gamma - 1.0)
        gradient = expr.function
        prox = prox1
        dist = abs
        hint: object = 0.0
    else:
        import numpy as np

        def value(x, _g=gamma):
            return float(_norm(x, np) ** _g)

        def gradient(x, _g=gamma):
            n = float(_norm(x, np))
            if n == 0.0:
                return np.zeros_like(x)
            return (_g * n ** (_g - 2.0)) * x

        def prox(h, y):  # the radial extension of prox1
            ny = float(_norm(y, np))
            return np.zeros_like(y) if ny == 0.0 else (prox1(h, ny) / ny) * y

        dist = lambda x: float(_norm(x, np))
        hint = np.zeros(dim)
    return ObjectiveSpec(
        name=name,
        dim=dim,
        value=value,
        gradient=gradient,
        f_star=0.0,
        minimizer_hint=hint,
        distance_to_minset=dist,
        nominal_gamma=gamma,
        prox=prox,
    )


def make_plateau(gamma: float, a: float) -> ObjectiveSpec:
    """``F(x) = max(|x| - a, 0)**gamma`` with minimizer set [-a, a] (1-D)."""
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"make_plateau requires a finite gamma >= 1, got {gamma}")
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"make_plateau requires a finite a > 0, got {a}")

    def value(x):
        return max(abs(x) - a, 0.0) ** gamma

    if gamma == 1.0:
        expr = _expr("y", "0.0 if abs(y) - a <= 0.0 else copysign(1.0, y)",
                     copysign=math.copysign, a=a)
    else:
        expr = _expr("y", "0.0 if (e := abs(y) - a) <= 0.0 else copysign(gamma * e ** g1, y)",
                     copysign=math.copysign, a=a, gamma=gamma, g1=gamma - 1.0)
    prox1 = _power_prox(gamma)

    def prox(h, y):
        ay = abs(y)
        if ay <= a:
            return y
        return math.copysign(a + prox1(h, ay - a), y)

    return ObjectiveSpec(
        name=f"plateau:gamma={gamma:g},a={a:g}",
        dim=1,
        value=value,
        gradient=expr.function,
        f_star=0.0,
        minimizer_hint=(-a, a),
        distance_to_minset=lambda x: max(abs(x) - a, 0.0),
        nominal_gamma=gamma,
        prox=prox,
    )


def make_least_squares(A: np.ndarray, b: np.ndarray) -> ObjectiveSpec:
    """``F(x) = 0.5*||Ax - b||^2``; F* from the minimum-norm solution.

    Rank-deficient A is allowed: the minimizer set is the affine subspace
    x_hat + null(A) and the distance map projects onto the row space.
    """
    import numpy as np
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes A{A.shape}, b{b.shape}")
    if not np.any(A):
        raise ValueError("make_least_squares requires a nonzero A")
    m, n = A.shape
    x_hat = np.linalg.lstsq(A, b, rcond=None)[0]
    r_star = A @ x_hat - b
    f_star = 0.5 * float(r_star @ r_star)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(m, n) * np.finfo(float).eps))
    V_row = Vt[:rank]  # orthonormal basis of the row space
    AtA = A.T @ A
    Atb = A.T @ b

    # Points are taken as they come: A @ x needs an array, so a float point
    # (n == 1) is reshaped there; x - x_hat and y + h*Atb broadcast it.  The
    # gradient and prox give the point form themselves (a float for n == 1):
    # as_point would import numpy at every step.
    def value(x):
        r = A @ (x if n > 1 else np.reshape(x, 1)) - b
        return 0.5 * float(r @ r)

    def gradient(x):
        g = A.T @ (A @ (x if n > 1 else np.reshape(x, 1)) - b)
        return g if n > 1 else float(g[0])

    def dist(x):
        return float(np.linalg.norm(V_row @ (x - x_hat)))

    # (h, I + h*AtA) of the latest prox call: a run uses one h, so the matrix
    # is built once per run.  One tuple, so that concurrent calls never pair
    # a matrix with another call's h.
    system = [(None, None)]

    def prox(h, y):
        last_h, M = system[0]
        if h != last_h:
            M = np.eye(n) + h * AtA
            system[0] = h, M
        p = np.linalg.solve(M, y + h * Atb)
        return p if n > 1 else float(p[0])

    return ObjectiveSpec(
        name=f"lsq:m={m},n={n}",
        dim=n,
        value=value,
        gradient=gradient,
        f_star=f_star,
        minimizer_hint=x_hat,
        distance_to_minset=dist,
        nominal_gamma=2.0,
        prox=prox,
    )


# ---------------------------------------------------------------------------
# geometry probes
# ---------------------------------------------------------------------------

def sample_ball(
    x_star: Point, radius: float, n_samples: int, seed: int, dim: int
) -> list:
    """Uniform samples in the open ball B(x_star, radius), deterministic in
    seed, in point form."""
    import numpy as np
    rng = np.random.default_rng(seed)
    c = as_point(x_star, dim)
    if dim == 1:
        return [c + radius * (2.0 * float(u) - 1.0) for u in rng.random(n_samples)]
    g = rng.standard_normal((n_samples, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(n_samples) ** (1.0 / dim)
    return [c + r[i] * g[i] for i in range(n_samples)]


def _check_finite(caller: str, x_star: Point, **numbers: float) -> None:
    """Reject a non-finite probe argument: a nan or inf center, radius,
    exponent or constant turns the margins into nan or inf, and the verdict
    into a vacuous "holds"."""
    import numpy as np
    for key, value in numbers.items():
        if not math.isfinite(value):
            raise ValueError(f"{caller} requires a finite {key}, got {value}")
    if not np.all(np.isfinite(np.asarray(x_star, dtype=float))):
        raise ValueError(f"{caller} requires a finite x_star, got {x_star}")


def _check_range(
    caller: str, x_star: Point, gamma: float, radius: float, n_samples: int
) -> None:
    """The argument checks of the flatness probes (probe_h1, flatness_constant)."""
    _check_finite(caller, x_star, gamma=gamma, radius=radius)
    if gamma <= 0.0 or radius <= 0.0 or n_samples < 1:
        raise ValueError(f"{caller} requires gamma > 0, radius > 0 and n_samples >= 1")


def _probe(
    hypothesis: str,
    exponent: float,
    constant: Optional[float],
    margins: Sequence[float],
    gaps: Sequence[float],
    samples: Sequence[Point],
    radius: float,
) -> GeometryProbeReport:
    worst = math.inf
    worst_i = -1
    holds = True
    for i, (m, g) in enumerate(zip(margins, gaps)):
        # a nan margin is the worst one and a violation
        if m < worst or (math.isnan(m) and not math.isnan(worst)):
            worst, worst_i = m, i
        if not m >= -TOL_PROBE * max(1.0, abs(g)):
            holds = False
    return GeometryProbeReport(
        hypothesis=hypothesis,
        exponent=exponent,
        radius=radius,
        n_samples=len(margins),
        worst_margin=worst,
        constant=constant,
        holds=holds,
        witness=None if holds else samples[worst_i],
    )


def probe_h1(
    obj: ObjectiveSpec,
    gamma: float,
    x_star: Point,
    radius: float,
    n_samples: int = 200,
    seed: int = 0,
) -> GeometryProbeReport:
    """Sample the flatness inequality F(x) - F* <= (1/gamma) <grad F(x), x - x*>.

    The margin of a sample is rhs - lhs; the verdict is "holds" when every
    margin clears -TOL_PROBE relative to max(1, |F(x) - F*|); a nan margin
    violates.  gamma, x_star and radius must be finite; x_star is any form
    as_point accepts.
    """
    import numpy as np
    x_star = as_point(x_star, obj.dim)
    _check_range("probe_h1", x_star, gamma, radius, n_samples)
    samples = sample_ball(x_star, radius, n_samples, seed, obj.dim)
    margins, gaps = [], []
    for x in samples:
        gap = obj.value(x) - obj.f_star
        rhs = float(np.dot(obj.gradient(x), x - x_star)) / gamma
        margins.append(rhs - gap)
        gaps.append(gap)
    return _probe("H1", gamma, None, margins, gaps, samples, radius)


def probe_h2(
    obj: ObjectiveSpec,
    r: float,
    K: float,
    x_star: Point,
    radius: float,
    n_samples: int = 200,
    seed: int = 0,
) -> GeometryProbeReport:
    """Sample the growth inequality K * d(x, X*)**r <= F(x) - F*; r, K,
    x_star and radius must be finite."""
    x_star = as_point(x_star, obj.dim)
    _check_finite("probe_h2", x_star, r=r, K=K, radius=radius)
    if radius <= 0.0 or n_samples < 1 or K <= 0.0:
        raise ValueError("probe_h2 requires radius > 0, n_samples >= 1, K > 0")
    samples = sample_ball(x_star, radius, n_samples, seed, obj.dim)
    margins, gaps = [], []
    for x in samples:
        gap = obj.value(x) - obj.f_star
        margins.append(gap - K * obj.distance_to_minset(x) ** r)
        gaps.append(gap)
    return _probe("H2", r, K, margins, gaps, samples, radius)


def flatness_constant(
    obj: ObjectiveSpec,
    gamma: float,
    x_star: Point,
    radius: float,
    n_samples: int = 200,
    seed: int = 0,
) -> float:
    """Empirical M with F(x) - F* <= M*||x - x*||**gamma over the probe ball.

    The bound exists for any objective satisfying the flatness hypothesis at
    this gamma; the reported constant is the sampled maximum, not certified.
    Its arguments are checked as probe_h1 checks them.
    """
    import numpy as np
    x_star = as_point(x_star, obj.dim)
    _check_range("flatness_constant", x_star, gamma, radius, n_samples)
    samples = sample_ball(x_star, radius, n_samples, seed, obj.dim)
    M = 0.0
    for x in samples:
        d = float(_norm(x - x_star, np))
        if d == 0.0:
            continue
        M = max(M, (obj.value(x) - obj.f_star) / d ** gamma)
    return M


def parse_objective(spec: str) -> ObjectiveSpec:
    """Build a catalog objective from its config/CLI name.

    Formats: ``power:gamma=1.5,dim=1``, ``plateau:gamma=2,a=1``,
    ``lsq:file=problem.csv`` (CSV of m rows with n+1 columns = [A|b]).
    """
    kind, _, argstr = spec.partition(":")
    kind = kind.strip()
    args = {}
    if argstr.strip():
        for part in argstr.split(","):
            k, sep, v = part.partition("=")
            if not sep:
                raise ValueError(f"malformed objective argument {part!r} in {spec!r}")
            args[k.strip()] = v.strip()
    allowed = {"power": {"gamma", "dim"}, "plateau": {"gamma", "a"}, "lsq": {"file"}}
    if kind not in allowed:
        raise ValueError(f"unknown objective kind {kind!r} in {spec!r}")
    extra = set(args) - allowed[kind]
    if extra:
        raise ValueError(f"unknown objective arguments {sorted(extra)} in {spec!r}")
    try:
        if kind == "power":
            return make_power(float(args["gamma"]), int(args.get("dim", "1")))
        if kind == "plateau":
            return make_plateau(float(args["gamma"]), float(args["a"]))
        import numpy as np
        data = np.loadtxt(args["file"], delimiter=",", ndmin=2)
        if data.shape[1] < 2:
            raise ValueError("lsq file needs at least 2 columns ([A|b])")
        return make_least_squares(data[:, :-1], data[:, -1])
    except KeyError as exc:
        raise ValueError(f"objective {spec!r} is missing argument {exc}") from None


def check_gradient(obj: ObjectiveSpec, x: Point, delta: float = 1e-6) -> float:
    """Max relative error of the analytic gradient against central differences.

    Relative to max(1, |gradient|_inf); x must stay clear of gradient
    singularities (|x| > delta for power objectives with gamma < 2).
    """
    if delta <= 0.0:
        raise ValueError("check_gradient requires delta > 0")
    import numpy as np
    x = as_point(x, obj.dim)
    g = np.atleast_1d(obj.gradient(x))
    x = np.atleast_1d(x)
    fd = np.empty(obj.dim)
    for i, e in enumerate(delta * np.eye(obj.dim)):
        fd[i] = (obj.value(as_point(x + e, obj.dim))
                 - obj.value(as_point(x - e, obj.dim))) / (2.0 * delta)
    scale = max(1.0, float(np.max(np.abs(g))))
    return float(np.max(np.abs(fd - g))) / scale
