"""Benchmark objectives with exact values, gradients, proximal maps, and
sampling probes for the flatness / growth geometry hypotheses.

Catalog entries are 1-D by default; power objectives extend radially to R^n.
Points are plain floats in dimension 1 and numpy arrays otherwise.  The
simulation loops are written once for both forms, so dimension 1 runs free of
array overhead.  Catalog parameters must be finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

Point = Union[float, np.ndarray]

# Relative probe tolerance separating analytic violation from rounding.
TOL_PROBE = 1e-10


@dataclass(frozen=True)
class ObjectiveSpec:
    """An objective F with exact minimum value and analytic geometry data.

    ``value``/``gradient``/``prox`` operate on floats when ``dim == 1`` and on
    numpy arrays otherwise.  ``prox`` maps ``(h, y)`` to
    ``argmin_x 0.5*|x - y|^2 + h*F(x)`` and may be absent.
    ``minimizer_hint`` is a point, or an ``(lo, hi)`` interval when the
    minimizer set is not a single point.
    """

    name: str
    dim: int
    value: Callable[[Point], float]
    gradient: Callable[[Point], Point]
    f_star: float
    minimizer_hint: object
    distance_to_minset: Callable[[Point], float]
    nominal_gamma: float
    nominal_r: float
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


@dataclass(frozen=True)
class GammaBound:
    """Flatness exponent implied by Lipschitz smoothness plus quadratic growth."""

    gamma: float
    in_range: bool  # gamma within the admissible interval (1, 2]


# ---------------------------------------------------------------------------
# proximal map of the power penalty
# ---------------------------------------------------------------------------

def prox_power(gamma: float, h: float, y: float) -> float:
    """Return argmin_z 0.5*(z - y)^2 + h*|z|**gamma for scalar y.

    gamma = 1 is the soft threshold and gamma = 2 a pure shrinkage.  For
    gamma in {1.5, 3} the optimality equation u + h*gamma*u**(gamma-1) = |y|
    is quadratic in sqrt(u) resp. u and solved in closed form; any other
    gamma > 1 uses a bisection-safeguarded Newton iteration on [0, |y|]
    driven to |residual| <= 1e-14 * max(1, |y|) (_prox_newton).
    """
    if gamma < 1.0:
        raise ValueError(f"prox_power requires gamma >= 1, got {gamma}")
    if h <= 0.0:
        raise ValueError(f"prox_power requires h > 0, got {h}")
    if y == 0.0:
        return 0.0
    ay = abs(y)
    if gamma == 1.0:
        return math.copysign(max(ay - h, 0.0), y)
    if gamma == 2.0:
        return y / (1.0 + 2.0 * h)
    # The roots below are written halved (ay / (b/2 + sqrt(b*b/4 + ay)) for
    # 2*ay / (b + sqrt(b*b + 4*ay))): the same bits, without overflowing 4*ay.
    if gamma == 1.5:
        b = 1.5 * h
        s = ay / (0.5 * b + math.sqrt(0.25 * b * b + ay))  # cancellation-safe root
        # the exact prox is at most |y|; s*s can round above it (or overflow)
        return math.copysign(min(s * s, ay), y)
    if gamma == 3.0:
        q = 3.0 * h * ay
        if q == math.inf:  # u = sqrt(ay/(3h)) to within a relative 1e-154
            return math.copysign(math.sqrt(ay) / math.sqrt(3.0 * h), y)
        return math.copysign(ay / (0.5 + math.sqrt(0.25 + q)), y)
    if not math.isfinite(ay):
        return y  # no root to find; a run reports the non-finite state
    return _prox_newton(gamma, h, y)


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


def _norm(x):
    """np.linalg.norm, rescaled by max|x_i| when it falls outside
    [1e-150, 1e150] at a finite nonzero point: below ~1.5e-154 the squared sum
    is subnormal (inexact, or 0) and above ~1.3e154 it overflows to inf.
    Points whose norm lies in that range keep their bits."""
    n = np.linalg.norm(x)
    if not 1e-150 <= n <= 1e150:
        s = np.max(np.abs(x))
        if 0.0 < s < math.inf:
            n = s * np.linalg.norm(np.asarray(x) / s)
    return n


def _prox_power_radial(gamma: float, h: float, y: np.ndarray) -> np.ndarray:
    ny = float(_norm(y))
    if ny == 0.0:
        return np.zeros_like(y)
    return (prox_power(gamma, h, ny) / ny) * y


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
    if dim == 1:
        if gamma == 2.0:
            value = lambda x: x * x
            gradient = lambda x: 2.0 * x
        elif gamma == 3.0:
            value = lambda x: abs(x) ** 3
            gradient = lambda x: 3.0 * x * abs(x)
        elif gamma == 1.0:
            value = abs
            gradient = lambda x: math.copysign(1.0, x) if x != 0.0 else 0.0
        else:
            g1 = gamma - 1.0
            value = lambda x: abs(x) ** gamma
            gradient = lambda x: (
                math.copysign(gamma * abs(x) ** g1, x) if x != 0.0 else 0.0
            )
        prox = lambda h, y: prox_power(gamma, h, y)
        dist = abs
        hint: object = 0.0
    else:
        def value(x, _g=gamma):
            return float(_norm(x) ** _g)

        def gradient(x, _g=gamma):
            n = float(_norm(x))
            if n == 0.0:
                return np.zeros_like(x)
            return (_g * n ** (_g - 2.0)) * x

        prox = lambda h, y: _prox_power_radial(gamma, h, y)
        dist = lambda x: float(_norm(x))
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
        nominal_r=gamma,
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

    def gradient(x):
        e = abs(x) - a
        if e <= 0.0:
            return 0.0
        if gamma == 1.0:
            return math.copysign(1.0, x)
        return math.copysign(gamma * e ** (gamma - 1.0), x)

    def prox(h, y):
        ay = abs(y)
        if ay <= a:
            return y
        return math.copysign(a + prox_power(gamma, h, ay - a), y)

    return ObjectiveSpec(
        name=f"plateau:gamma={gamma:g},a={a:g}",
        dim=1,
        value=value,
        gradient=gradient,
        f_star=0.0,
        minimizer_hint=(-a, a),
        distance_to_minset=lambda x: max(abs(x) - a, 0.0),
        nominal_gamma=gamma,
        nominal_r=gamma,
        prox=prox,
    )


def make_least_squares(A: np.ndarray, b: np.ndarray) -> ObjectiveSpec:
    """``F(x) = 0.5*||Ax - b||^2``; F* from the minimum-norm solution.

    Rank-deficient A is allowed: the minimizer set is the affine subspace
    x_hat + null(A) and the distance map projects onto the row space.
    """
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

    def value(x):
        r = A @ x - b
        return 0.5 * float(r @ r)

    def gradient(x):
        return A.T @ (A @ x - b)

    def dist(x):
        return float(np.linalg.norm(V_row @ (x - x_hat)))

    def prox(h, y):
        return np.linalg.solve(np.eye(n) + h * AtA, y + h * Atb)

    return ObjectiveSpec(
        name=f"lsq:m={m},n={n}",
        dim=n,
        value=value,
        gradient=gradient,
        f_star=f_star,
        minimizer_hint=x_hat,
        distance_to_minset=dist,
        nominal_gamma=2.0,
        nominal_r=2.0,
        prox=prox,
    )


# ---------------------------------------------------------------------------
# geometry probes
# ---------------------------------------------------------------------------

def sample_ball(
    x_star: Point, radius: float, n_samples: int, seed: int, dim: int
) -> list:
    """Uniform samples in the open ball B(x_star, radius), deterministic in seed."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        c = float(np.asarray(x_star).reshape(()))
        return [c + radius * (2.0 * float(u) - 1.0) for u in rng.random(n_samples)]
    c = np.asarray(x_star, dtype=float)
    g = rng.standard_normal((n_samples, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(n_samples) ** (1.0 / dim)
    return [c + r[i] * g[i] for i in range(n_samples)]


def _inner(u: Point, v: Point) -> float:
    if isinstance(u, float) or np.isscalar(u):
        return float(u) * float(v)
    return float(np.dot(u, v))


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
        if m < worst:
            worst, worst_i = m, i
        if m < -TOL_PROBE * max(1.0, abs(g)):
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
    margin clears -TOL_PROBE relative to max(1, |F(x) - F*|).
    """
    if radius <= 0.0 or n_samples < 1:
        raise ValueError("probe_h1 requires radius > 0 and n_samples >= 1")
    samples = sample_ball(x_star, radius, n_samples, seed, obj.dim)
    margins, gaps = [], []
    for x in samples:
        gap = obj.value(x) - obj.f_star
        dx = x - x_star if obj.dim > 1 else float(x) - float(x_star)
        rhs = _inner(obj.gradient(x), dx) / gamma
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
    """Sample the growth inequality K * d(x, X*)**r <= F(x) - F*."""
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
    """
    samples = sample_ball(x_star, radius, n_samples, seed, obj.dim)
    M = 0.0
    for x in samples:
        dx = x - x_star if obj.dim > 1 else float(x) - float(x_star)
        d = abs(dx) if obj.dim == 1 else float(np.linalg.norm(dx))
        if d == 0.0:
            continue
        M = max(M, (obj.value(x) - obj.f_star) / d ** gamma)
    return M


def gamma_from_lipschitz(K: float, L: float) -> GammaBound:
    """Flatness exponent 1 + K/(2L) implied by an L-Lipschitz gradient plus
    quadratic growth with constant K; flags (without clamping) results
    outside the admissible range (1, 2], which signal inconsistent (K, L).
    """
    if K <= 0.0 or L <= 0.0:
        raise ValueError("gamma_from_lipschitz requires K > 0 and L > 0")
    gamma = 1.0 + K / (2.0 * L)
    return GammaBound(gamma=gamma, in_range=gamma <= 2.0)


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
    g = obj.gradient(x)
    if obj.dim == 1:
        fd = (obj.value(x + delta) - obj.value(x - delta)) / (2.0 * delta)
        return abs(fd - g) / max(1.0, abs(g))
    x = np.asarray(x, dtype=float)
    fd = np.empty_like(x)
    for i in range(obj.dim):
        e = np.zeros_like(x)
        e[i] = delta
        fd[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * delta)
    scale = max(1.0, float(np.max(np.abs(g))))
    return float(np.max(np.abs(fd - g))) / scale
