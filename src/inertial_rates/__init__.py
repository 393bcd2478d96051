"""Simulation and empirical rate verification for the damped inertial flow
x'' + (alpha/t) x' + grad F(x) = 0 and its discrete accelerated scheme."""

from .objectives import (
    GeometryProbeReport,
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
)
from .dynamics import Trajectory, run, run_ode, run_scheme
from .lyapunov import (
    EnergyTable,
    LyapunovParams,
    MonotoneReport,
    check_H_monotone,
    check_Hprime_closed_form,
    energy_along,
    first_gap_dominance_time,
    manual_params,
    select_params,
    sharp_K1,
    velocity_decay_exponent,
)
from .rates import (
    RateRegime,
    RateVerdict,
    SeriesFit,
    ZSeries,
    fit_series,
    scheme_fit_cap,
    tail_model_residuals,
    theoretical_rate,
    verify_rate,
    z_sequence,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    load_config,
    parse_config,
    render_config,
)
from .gridrun import CellResult, run_cell, run_grid

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
