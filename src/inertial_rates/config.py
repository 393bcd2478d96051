"""Experiment configuration: strict JSON parsing, validation, canonical
rendering, and grid expansion.

Unknown keys are rejected outright; a silently dropped typo in alpha or
gamma would invalidate a scientific verdict.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional, Tuple, Union

from .dynamics import MODES, Mode
from .objectives import ObjectiveSpec, parse_objective
from .rates import verdict_windows

# recorded samples per run (steps // stride + 2 at most); each costs memory
# whether or not the run steps to the end
MAX_RECORDS = 10_000_000

# largest prox-nesterov step: prox_power's Newton iteration converges for every
# h up to here (it first fails near h ~ 1e248), so a prox run never ends in a
# Newton error; at the other end it can fail for subnormal h, so the smallest
# step is the smallest normal float, sys.float_info.min
MAX_PROX_STEP = 1e150


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run: objective, dynamics parameters, outputs."""

    objective: str
    alpha: float
    steps: int
    mode: str
    h: float = 1e-5
    dt: float = 1e-3
    t0: float = 0.1
    x0: Tuple[float, ...] = (0.5,)
    v0: Tuple[float, ...] = (0.0,)
    stride: int = 100
    outdir: str = "out"

    def build_objective(self) -> ObjectiveSpec:
        return parse_objective(self.objective)

    def warnings(self) -> Tuple[str, ...]:
        mode = MODES[self.mode]
        if mode.is_scheme and not mode.prox and self.build_objective().nominal_gamma < 2.0:
            return (f"objective {self.objective!r} has gamma < 2 (gradient not Lipschitz "
                    "near the minimizer); prox-nesterov is the recommended mode",)
        return ()


def resolve_mode(mode: Optional[str], obj: ObjectiveSpec) -> str:
    """Fill the default mode: proximal steps when the gradient degenerates."""
    if mode is None or mode == "auto":
        return "prox-nesterov" if (obj.nominal_gamma < 2.0 and obj.prox) else "nesterov"
    return mode


def _as_float(value, name: str) -> float:
    """A finite JSON number; booleans, strings and null are not numbers."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # false for NaN and infinities
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _as_int(value, name: str) -> int:
    """An integral JSON number (1e6 counts)."""
    if not _as_float(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _as_numbers(value, name: str) -> Tuple[float, ...]:
    """A list of numbers (Python callers may pass a tuple)."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_as_float(v, name) for v in value)


def _as_point(value, name: str) -> Tuple[float, ...]:
    """A list of coordinates, or one number for a 1-D point."""
    return _as_numbers(value if isinstance(value, (list, tuple)) else [value], name)


def _as_pairs(value, name: str) -> Tuple[Tuple[float, ...], ...]:
    """A list of [alpha, gamma] pairs."""
    if isinstance(value, (list, tuple)):
        pairs = tuple(_as_numbers(p, name) for p in value)
        if all(len(p) == 2 for p in pairs):
            return pairs
    raise ConfigError(f"{name} must be a list of [alpha, gamma] pairs, got {value!r}")


def _or_null(coerce):
    """The same coercion with JSON null meaning unset."""
    return lambda value, name: None if value is None else coerce(value, name)


# Every run key and the coercion of its JSON value, in ExperimentConfig's field
# order; an absent key takes the field's default.  Each key is also a `run` flag.
RUN_SCHEMA = {
    "objective": _as_str,
    "alpha": _as_float,
    "steps": _as_int,
    "mode": _or_null(_as_str),  # null or "auto": chosen from the objective
    "h": _as_float,
    "dt": _as_float,
    "t0": _as_float,
    "x0": _as_point,
    "v0": _as_point,
    "stride": _as_int,
    "outdir": _as_str,
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw run mapping and fill defaults (strict keys)."""
    return _config_and_objective(raw)[0]


def _config_and_objective(raw: dict) -> Tuple[ExperimentConfig, ObjectiveSpec]:
    """config_from_dict, also returning the objective it parsed on the way."""
    unknown = set(raw) - set(RUN_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {"mode": None}  # a required field, resolved from the objective below
    values.update((k, coerce(raw[k], k)) for k, coerce in RUN_SCHEMA.items() if k in raw)
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"missing required config key {f.name!r}")
    try:
        obj = parse_objective(values["objective"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad objective {values['objective']!r}: {exc}") from None
    values["mode"] = resolve_mode(values["mode"], obj)
    values.setdefault("x0", (0.5,) * obj.dim)
    values.setdefault("v0", (0.0,) * obj.dim)
    cfg = ExperimentConfig(**values)
    validate_config(cfg, obj)
    return cfg, obj


def validate_config(cfg: ExperimentConfig, obj: Optional[ObjectiveSpec] = None) -> None:
    if obj is None:
        obj = cfg.build_objective()
    if cfg.alpha <= 0.0:
        raise ConfigError(f"alpha must be positive, got {cfg.alpha}")
    if cfg.steps < 1:
        raise ConfigError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.stride < 1:
        raise ConfigError(f"stride must be >= 1, got {cfg.stride}")
    if cfg.steps // cfg.stride + 2 > MAX_RECORDS:
        raise ConfigError(
            f"steps // stride + 2 = {cfg.steps // cfg.stride + 2} records exceed "
            f"{MAX_RECORDS}; raise stride or lower steps"
        )
    mode = MODES.get(cfg.mode)
    if mode is None:
        raise ConfigError(f"mode must be one of {tuple(MODES)} or 'auto', got {cfg.mode!r}")
    key, step = mode.step_key, getattr(cfg, mode.step_key)
    if mode.prox and obj.prox is None:
        raise ConfigError(f"mode {cfg.mode} needs a prox, {cfg.objective!r} has none")
    if mode.prox and step > MAX_PROX_STEP:
        raise ConfigError(f"{cfg.mode} needs {key} <= {MAX_PROX_STEP:g}, got {step:g}")
    if mode.prox and 0.0 < step < sys.float_info.min:
        raise ConfigError(f"{cfg.mode} needs a normal {key} >= {sys.float_info.min:g}, "
                          f"got {step:g}")
    if step <= 0.0:
        raise ConfigError(f"{key} must be > 0, got {step}")
    try:
        t0 = mode.start_time(cfg.t0, step)  # where the run starts
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    horizon = t0 + cfg.steps * mode.time_unit(step)
    if horizon < 10.0 * t0:
        raise ConfigError(f"{cfg.mode} horizon {horizon:g} is below 10 times its start time, "
                          f"{10 * t0:g}; rate verdicts need a longer run")
    if mode.is_scheme and any(cfg.v0):
        raise ConfigError(f"{cfg.mode} starts from rest; v0 must be zero, got {list(cfg.v0)}")
    _check_fit_window(cfg, mode, obj.nominal_gamma, step, t0)
    if len(cfg.x0) != obj.dim or len(cfg.v0) != obj.dim:
        raise ConfigError(
            f"x0/v0 must have dim {obj.dim} for {cfg.objective!r}, "
            f"got {len(cfg.x0)}/{len(cfg.v0)}"
        )


def _check_fit_window(cfg: ExperimentConfig, mode: Mode, gamma: float, step: float,
                      t0: float) -> None:
    """Reject a run that verify_rate would fail for its stride alone: one
    with a fit window and a z tail spanning a decade (rates.verdict_windows,
    over its record times at t > 0), but fewer than the 10 record times
    fit_series needs in that window, where stride 1 would give 10."""
    unit = mode.time_unit(step)
    t_first = t0 if t0 > 0.0 else min(cfg.stride, cfg.steps) * unit  # first record at t > 0
    try:
        window = verdict_windows(mode.is_scheme, gamma, step, t_first, t0 + cfg.steps * unit)[1]
    except ValueError:  # a tail under a decade, which verify_rate rejects at any stride
        return
    if window is None:
        return
    lo, hi = window

    def records(stride: int) -> int:  # a scheme's record j*stride is at t = j*stride*unit
        first = math.floor(lo / (stride * unit))  # the window starts 0-2 later
        return sum(lo <= j * stride * unit <= hi for j in range(first, first + 12))

    if records(cfg.stride) < 10 <= records(1):
        raise ConfigError(f"stride {cfg.stride} leaves {records(cfg.stride)} record(s) in "
                          f"[{lo:g}, {hi:g}], the window verify_rate fits on a gamma <= 2 "
                          "objective below scheme_fit_cap(h); it needs 10, so lower stride")


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
        """Expand to (label, ExperimentConfig) pairs; validates every cell.

        Each label names its cell's output directory, so two pairs with one
        label (a repeated pair, or values equal to %g's six digits) are
        rejected."""
        out, seen = [], {}
        for alpha, gamma in self.pairs:
            label = self.cell_label(alpha, gamma)
            if label in seen:
                raise ConfigError(
                    f"grid cells {list(seen[label])} and {[alpha, gamma]} share "
                    f"the label {label!r}"
                )
            seen[label] = (alpha, gamma)
            raw = dict(self.base)
            raw["alpha"] = alpha
            raw["objective"] = self.objective_template.replace("{gamma}", f"{gamma:g}")
            cfg, obj = _config_and_objective(raw)
            if not math.isclose(obj.nominal_gamma, gamma, rel_tol=1e-12):
                raise ConfigError(
                    f"cell gamma {gamma:g} does not match objective {raw['objective']!r}"
                )
            out.append((label, cfg))
        return out


# The grid section's keys and the coercions of their JSON values.
_GRID_SCHEMA = {
    "pairs": _as_pairs,
    "alphas": _as_numbers,
    "gammas": _as_numbers,
    "objective": _as_str,
    "parallelism": _as_int,
}


def grid_from_dict(doc: dict) -> GridSpec:
    grid_raw = doc.get("grid")
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid document needs a 'grid' mapping")
    unknown = set(grid_raw) - set(_GRID_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    grid = {k: coerce(grid_raw[k], k) for k, coerce in _GRID_SCHEMA.items() if k in grid_raw}
    base_raw = doc.get("run", {})
    if not isinstance(base_raw, dict):
        raise ConfigError("'run' section must be a mapping")
    bad = (set(base_raw) - set(RUN_SCHEMA)) | ({"alpha", "objective"} & set(base_raw))
    if bad:
        raise ConfigError(f"grid run section cannot contain keys: {sorted(bad)}")
    extra_doc = set(doc) - {"grid", "run"}
    if extra_doc:
        raise ConfigError(f"unknown document keys: {sorted(extra_doc)}")
    if "pairs" in grid:
        if "alphas" in grid or "gammas" in grid:
            raise ConfigError("give either 'pairs' or 'alphas'+'gammas', not both")
        pairs = grid["pairs"]
    elif "alphas" in grid and "gammas" in grid:
        pairs = tuple((a, g) for a in grid["alphas"] for g in grid["gammas"])
    else:
        raise ConfigError("grid needs 'pairs' or 'alphas'+'gammas'")
    if not pairs:
        raise ConfigError("grid is empty")
    parallelism = grid.get("parallelism", 1)
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    spec = GridSpec(
        pairs=pairs,
        objective_template=grid.get("objective", "power:gamma={gamma},dim=1"),
        base=tuple(sorted(base_raw.items())),
        parallelism=parallelism,
    )
    spec.cells()  # validate every cell now, not at run time
    return spec


def parse_document(text: str) -> dict:
    """A JSON config document as a mapping, before any of its keys is read."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def parse_config(text: str) -> Union[ExperimentConfig, GridSpec]:
    """Parse a JSON run or grid document (a 'grid' key selects a grid)."""
    doc = parse_document(text)
    return grid_from_dict(doc) if "grid" in doc else config_from_dict(doc)


def render_config(cfg: Union[ExperimentConfig, GridSpec]) -> str:
    """Canonical JSON for a config; parse_config(render_config(c)) == c."""
    if isinstance(cfg, ExperimentConfig):
        doc = asdict(cfg)
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
