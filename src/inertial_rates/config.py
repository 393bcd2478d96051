"""Experiment configuration: strict JSON parsing, validation, canonical
rendering, and grid expansion.

Unknown keys are rejected outright; a silently dropped typo in alpha or
gamma would invalidate a scientific verdict.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple, Union

from .dynamics import MODES
from .objectives import ObjectiveSpec, parse_objective

LYAPUNOV_CHOICES = ("auto-sharp", "auto-flat", "manual")

DEFAULT_H = 1e-5
DEFAULT_DT = 1e-3
DEFAULT_T0 = 0.1
DEFAULT_STRIDE = 100
# recorded samples per run (steps // stride + 2 at most); each costs memory
# whether or not the run steps to the end
MAX_RECORDS = 10_000_000


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run: objective, dynamics parameters, outputs."""

    objective: str
    alpha: float
    steps: int
    mode: str
    h: float = DEFAULT_H
    dt: float = DEFAULT_DT
    t0: float = DEFAULT_T0
    x0: Tuple[float, ...] = (0.5,)
    v0: Tuple[float, ...] = (0.0,)
    stride: int = DEFAULT_STRIDE
    rate_override: Optional[float] = None
    lyapunov: str = "auto-sharp"
    lyapunov_lambda: Optional[float] = None
    lyapunov_p: Optional[float] = None
    outdir: str = "out"

    def build_objective(self) -> ObjectiveSpec:
        return parse_objective(self.objective)

    def warnings(self) -> Tuple[str, ...]:
        out = []
        obj = self.build_objective()
        if self.mode == "nesterov" and obj.nominal_gamma < 2.0:
            out.append(
                f"objective {self.objective!r} has gamma < 2 (gradient not Lipschitz "
                "near the minimizer); prox-nesterov is the recommended mode"
            )
        return tuple(out)


def resolve_mode(mode: Optional[str], obj: ObjectiveSpec) -> str:
    """Fill the default mode: proximal steps when the gradient degenerates."""
    if mode is None or mode == "auto":
        return "prox-nesterov" if (obj.nominal_gamma < 2.0 and obj.prox) else "nesterov"
    return mode


_RUN_KEYS = {
    "objective", "alpha", "steps", "mode", "h", "dt", "t0", "x0", "v0",
    "stride", "rate_override", "lyapunov", "lyapunov_lambda", "lyapunov_p",
    "outdir",
}
# float keys that must be finite whatever the mode (JSON accepts NaN/Infinity)
_FINITE_KEYS = ("h", "dt", "t0", "lyapunov_lambda", "lyapunov_p", "rate_override")


def _as_point(value, name: str) -> Tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),)
    if isinstance(value, (list, tuple)) and all(isinstance(v, (int, float)) for v in value):
        return tuple(float(v) for v in value)
    raise ConfigError(f"{name} must be a number or list of numbers, got {value!r}")


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _as_optional_float(raw: dict, name: str) -> Optional[float]:
    value = raw.get(name)
    return None if value is None else _as_float(value, name)


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw run mapping and fill defaults (strict keys)."""
    unknown = set(raw) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        objective, alpha, steps = raw["objective"], raw["alpha"], raw["steps"]
    except KeyError as exc:
        raise ConfigError(f"missing required config key {exc}") from None
    alpha = _as_float(alpha, "alpha")
    steps = _as_int(steps, "steps")
    try:
        obj = parse_objective(objective)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad objective {objective!r}: {exc}") from None
    mode = resolve_mode(raw.get("mode"), obj)
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES} or 'auto', got {mode!r}")
    cfg = ExperimentConfig(
        objective=objective,
        alpha=alpha,
        steps=steps,
        mode=mode,
        h=_as_float(raw.get("h", DEFAULT_H), "h"),
        dt=_as_float(raw.get("dt", DEFAULT_DT), "dt"),
        t0=_as_float(raw.get("t0", DEFAULT_T0), "t0"),
        x0=_as_point(raw.get("x0", (0.5,) * obj.dim), "x0"),
        v0=_as_point(raw.get("v0", (0.0,) * obj.dim), "v0"),
        stride=_as_int(raw.get("stride", DEFAULT_STRIDE), "stride"),
        rate_override=_as_optional_float(raw, "rate_override"),
        lyapunov=raw.get("lyapunov", "auto-sharp"),
        lyapunov_lambda=_as_optional_float(raw, "lyapunov_lambda"),
        lyapunov_p=_as_optional_float(raw, "lyapunov_p"),
        outdir=str(raw.get("outdir", "out")),
    )
    validate_config(cfg, obj)
    return cfg


def validate_config(cfg: ExperimentConfig, obj: Optional[ObjectiveSpec] = None) -> None:
    if obj is None:
        obj = cfg.build_objective()
    if not (math.isfinite(cfg.alpha) and cfg.alpha > 0.0):
        raise ConfigError(f"alpha must be positive and finite, got {cfg.alpha}")
    for key in _FINITE_KEYS:
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    for key in ("x0", "v0"):
        if not all(math.isfinite(c) for c in getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite, got {list(getattr(cfg, key))}")
    if cfg.steps < 1:
        raise ConfigError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.stride < 1:
        raise ConfigError(f"stride must be >= 1, got {cfg.stride}")
    if cfg.steps // cfg.stride + 2 > MAX_RECORDS:
        raise ConfigError(
            f"steps // stride + 2 = {cfg.steps // cfg.stride + 2} records exceed "
            f"{MAX_RECORDS}; raise stride or lower steps"
        )
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.mode == "prox-nesterov" and obj.prox is None:
        raise ConfigError(f"mode prox-nesterov needs a prox, {cfg.objective!r} has none")
    if cfg.mode == "ode-rk4":
        if cfg.dt <= 0.0 or cfg.t0 <= 0.0:
            raise ConfigError("ode-rk4 requires dt > 0 and t0 > 0")
        horizon = cfg.t0 + cfg.steps * cfg.dt
        if horizon < 10.0 * cfg.t0:
            raise ConfigError(
                f"ode-rk4 horizon {horizon:g} is below 10*t0 = {10 * cfg.t0:g}; "
                "rate verdicts need a longer run"
            )
    elif cfg.h <= 0.0:
        raise ConfigError(f"h must be > 0, got {cfg.h}")
    if len(cfg.x0) != obj.dim or len(cfg.v0) != obj.dim:
        raise ConfigError(
            f"x0/v0 must have dim {obj.dim} for {cfg.objective!r}, "
            f"got {len(cfg.x0)}/{len(cfg.v0)}"
        )
    if cfg.lyapunov not in LYAPUNOV_CHOICES:
        raise ConfigError(f"lyapunov must be one of {LYAPUNOV_CHOICES}, got {cfg.lyapunov!r}")
    if cfg.lyapunov == "auto-flat" and obj.nominal_gamma <= 2.0:
        raise ConfigError("lyapunov auto-flat requires an objective with gamma > 2")
    if cfg.lyapunov == "manual" and (cfg.lyapunov_lambda is None or cfg.lyapunov_p is None):
        raise ConfigError("lyapunov manual requires lyapunov_lambda and lyapunov_p")


@dataclass(frozen=True)
class GridSpec:
    """A family of (alpha, gamma) cells sharing run settings.

    The objective template is instantiated per cell with gamma substituted
    for ``{gamma}``; base entries are raw run keys (alpha and objective are
    supplied by the cells).
    """

    pairs: Tuple[Tuple[float, float], ...]
    objective_template: str
    base: Tuple[Tuple[str, object], ...]
    parallelism: int = 1

    def cell_label(self, alpha: float, gamma: float) -> str:
        return f"alpha={alpha:g}_gamma={gamma:g}"

    def cells(self):
        """Expand to (label, ExperimentConfig) pairs; validates every cell."""
        out = []
        for alpha, gamma in self.pairs:
            raw = dict(self.base)
            raw["alpha"] = alpha
            raw["objective"] = self.objective_template.replace("{gamma}", f"{gamma:g}")
            obj = parse_objective(raw["objective"])
            if not math.isclose(obj.nominal_gamma, gamma, rel_tol=1e-12):
                raise ConfigError(
                    f"cell gamma {gamma:g} does not match objective {raw['objective']!r}"
                )
            out.append((self.cell_label(alpha, gamma), config_from_dict(raw)))
        return out


_GRID_KEYS = {"pairs", "alphas", "gammas", "objective", "parallelism"}


def grid_from_dict(doc: dict) -> GridSpec:
    grid_raw = doc.get("grid")
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid document needs a 'grid' mapping")
    unknown = set(grid_raw) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    base_raw = doc.get("run", {})
    if not isinstance(base_raw, dict):
        raise ConfigError("'run' section must be a mapping")
    bad = (set(base_raw) - _RUN_KEYS) | ({"alpha", "objective"} & set(base_raw))
    if bad:
        raise ConfigError(f"grid run section cannot contain keys: {sorted(bad)}")
    extra_doc = set(doc) - {"grid", "run"}
    if extra_doc:
        raise ConfigError(f"unknown document keys: {sorted(extra_doc)}")
    if "pairs" in grid_raw:
        if "alphas" in grid_raw or "gammas" in grid_raw:
            raise ConfigError("give either 'pairs' or 'alphas'+'gammas', not both")
        pairs = tuple((float(a), float(g)) for a, g in grid_raw["pairs"])
    elif "alphas" in grid_raw and "gammas" in grid_raw:
        pairs = tuple(
            (float(a), float(g)) for a in grid_raw["alphas"] for g in grid_raw["gammas"]
        )
    else:
        raise ConfigError("grid needs 'pairs' or 'alphas'+'gammas'")
    if not pairs:
        raise ConfigError("grid is empty")
    template = grid_raw.get("objective", "power:gamma={gamma},dim=1")
    parallelism = _as_int(grid_raw.get("parallelism", 1), "parallelism")
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    spec = GridSpec(
        pairs=pairs,
        objective_template=template,
        base=tuple(sorted(base_raw.items())),
        parallelism=parallelism,
    )
    spec.cells()  # validate every cell now, not at run time
    return spec


def parse_config(text: str) -> Union[ExperimentConfig, GridSpec]:
    """Parse a JSON run or grid document (a 'grid' key selects a grid)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    if "grid" in doc:
        return grid_from_dict(doc)
    return config_from_dict(doc)


def render_config(cfg: Union[ExperimentConfig, GridSpec]) -> str:
    """Canonical JSON for a config; parse_config(render_config(c)) == c."""
    if isinstance(cfg, ExperimentConfig):
        doc = {k: v for k, v in asdict(cfg).items() if v is not None}
        doc["x0"] = list(cfg.x0)
        doc["v0"] = list(cfg.v0)
    else:
        doc = {
            "grid": {
                "pairs": [list(p) for p in cfg.pairs],
                "objective": cfg.objective_template,
                "parallelism": cfg.parallelism,
            },
            "run": dict(cfg.base),
        }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_config(path: str) -> Union[ExperimentConfig, GridSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
