"""Simulation and empirical rate verification for the damped inertial flow
x'' + (alpha/t) x' + grad F(x) = 0 and its discrete accelerated scheme.

The namespace is lazy (PEP 562): ``import inertial_rates`` loads no
submodule.  Each public name below, and each submodule name, loads its
submodule on first use and is then bound here, so ``inertial_rates.run_cell``
is ``inertial_rates.gridrun.run_cell``.  Parsing a config thus loads only
config, dynamics, objectives and rates; the grid pool, the Lyapunov energies
and the file writers load when a run or an export needs them.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "objectives": (
        "GeometryProbeReport", "ObjectiveSpec", "as_point", "check_gradient",
        "flatness_constant", "make_least_squares", "make_plateau", "make_power",
        "parse_objective", "probe_h1", "probe_h2", "prox_power", "reference_point",
    ),
    "dynamics": ("Trajectory", "run", "run_ode", "run_scheme"),
    "lyapunov": (
        "EnergyTable", "LyapunovParams", "MonotoneReport", "check_H_monotone",
        "check_Hprime_closed_form", "energy_along", "first_gap_dominance_time",
        "manual_params", "select_params", "sharp_K1", "velocity_decay_exponent",
    ),
    "rates": (
        "RateRegime", "RateVerdict", "SeriesFit", "ZSeries", "fit_series",
        "scheme_fit_cap", "tail_model_residuals", "theoretical_rate", "verify_rate",
        "z_sequence",
    ),
    "config": (
        "ConfigError", "ExperimentConfig", "GridSpec", "load_config", "parse_config",
        "render_config",
    ),
    "gridrun": ("CellResult", "run_cell", "run_grid"),
    "io": (),
}

# every public name, and every submodule name, -> the submodule that holds it
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
