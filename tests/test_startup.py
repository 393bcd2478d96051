"""The lazy package namespace and the modules each entry point loads.

``import inertial_rates`` loads no submodule; a public name loads its
submodule on first use (PEP 562).  Each start-up test runs one fresh
interpreter through ``sys.executable -c`` and lists the modules it has
loaded when its work is done.
"""
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import inertial_rates

SRC = Path(inertial_rates.__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parents[1] / "bench"

# The package's public names before its namespace became lazy, by the
# submodule that defines each; the submodule names are public too.
PUBLIC = {
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
        "RateRegime", "RateVerdict", "SeriesFit", "ZSeries", "fit_series", "scheme_fit_cap",
        "tail_model_residuals", "theoretical_rate", "verify_rate", "z_sequence",
    ),
    "config": (
        "ConfigError", "ExperimentConfig", "GridSpec", "load_config", "parse_config",
        "render_config",
    ),
    "gridrun": ("CellResult", "run_cell", "run_grid"),
    "io": (),
}
NAMES = {name for module, names in PUBLIC.items() for name in (module, *names)}

SMALL_RUN = {"objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 2_000, "h": 1e-4,
             "stride": 10, "x0": [0.5]}


def _child(code: str, *args: str) -> str:
    """The stdout of a fresh interpreter that runs ``code`` with the
    package's source directory first on its path."""
    child = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
    return subprocess.run([sys.executable, "-c", child, *args], capture_output=True,
                          text=True, check=True, timeout=120).stdout


def _loaded(code: str, *args: str) -> set:
    """The modules a fresh interpreter has loaded after running ``code``."""
    return set(_child(code + "\nprint('\\n'.join(sys.modules))", *args).split())


def _package(modules: set) -> set:
    return {m for m in modules if m == "inertial_rates" or m.startswith("inertial_rates.")}


def test_a_bare_import_loads_no_submodule():
    assert _package(_loaded("import inertial_rates")) == {"inertial_rates"}


@pytest.mark.parametrize("workload", ["sharp-prox-record", "flat-band-grid"])
def test_parsing_a_workload_document_loads_only_the_parse_modules(workload, monkeypatch):
    """The benchmark's set-up child, import and parse, loads the config and
    the three modules its checks read, no pool and no numpy: validation
    does no array work."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    doc, _ = bench.WORKLOADS[workload](random.Random(1))
    modules = _loaded(bench.SETUP_CHILD, str(SRC), json.dumps(doc, sort_keys=True))
    assert _package(modules) == {"inertial_rates", "inertial_rates.config",
                                 "inertial_rates.dynamics", "inertial_rates.objectives",
                                 "inertial_rates.rates"}
    assert not {"multiprocessing", "concurrent.futures", "numpy"} & modules


@pytest.mark.parametrize("argv", [
    ["rate", "--alpha", "3", "--gamma", "1.5"],
    ["probe", "--objective", "power:gamma=2,dim=1", "--h1", "2", "--samples", "20"],
])
def test_rate_and_probe_load_no_runner_writer_or_energies(argv):
    """rate does no array work and loads no numpy; probe samples its ball
    with numpy, which loads on demand."""
    modules = _loaded("from inertial_rates.cli import main\nassert main(sys.argv[1:]) == 0",
                      *argv)
    assert not {"inertial_rates.gridrun", "inertial_rates.io",
                "inertial_rates.lyapunov"} & modules
    assert "multiprocessing" not in modules
    assert ("numpy" in modules) == (argv[0] == "probe")


def test_a_rejected_run_or_grid_config_exits_2_before_loading_the_runner(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"pairs": [[3.0, 2.0]]}, "run": {}, "bogus": 1}))
    for argv in (["run", "--objective", "power:gamma=2,dim=1", "--alpha", "-1",
                  "--steps", "100"],
                 ["grid", "--config", str(grid)]):
        modules = _loaded("from inertial_rates.cli import main\n"
                          "assert main(sys.argv[1:]) == 2", *argv)
        assert not {"inertial_rates.gridrun", "inertial_rates.io", "numpy"} & modules, argv


@pytest.mark.parametrize("objective, x0", [
    ("power:gamma=3,dim=3", [0.5, 0.0, -0.25]),
    ("lsq:file={csv}", [0.5, -0.25]),
])
def test_a_parse_that_needs_arrays_loads_numpy_on_demand(objective, x0, tmp_path):
    """An n-D power or a least-squares objective builds arrays when it is
    parsed; numpy loads then, and the objective steps."""
    csv = tmp_path / "lsq.csv"
    csv.write_text("2,0,1\n0,1,-1\n")
    doc = {**SMALL_RUN, "objective": objective.format(csv=csv), "x0": x0}
    code = ("from inertial_rates import as_point, parse_config\n"
            "cfg = parse_config(sys.argv[1])\nobj = cfg.build_objective()\n"
            "assert obj.gradient(as_point(cfg.x0, obj.dim)).shape == (len(cfg.x0),)")
    assert "numpy" in _loaded(code, json.dumps(doc))


def test_run_cell_loads_no_energies_plot_or_pool(tmp_path):
    """A parse, then run_cell: numpy loads with the run, and its verdict
    passes."""
    code = ("import json\nfrom inertial_rates import run_cell\n"
            "from inertial_rates.config import config_from_dict\n"
            "r = run_cell(config_from_dict(json.loads(sys.argv[1])), sys.argv[2])\n"
            "assert r.error is None and r.verdict['passed']")
    modules = _loaded(code, json.dumps(SMALL_RUN), str(tmp_path / "cell"))
    assert {"inertial_rates.gridrun", "inertial_rates.io", "numpy"} <= modules
    assert not {"inertial_rates.lyapunov", "inertial_rates.svgplot", "multiprocessing",
                "concurrent.futures"} & modules
    assert (tmp_path / "cell" / "verdict.json").is_file()


def test_every_public_name_is_its_submodule_attribute():
    assert set(inertial_rates.__all__) == NAMES
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"inertial_rates.{module}")
        assert getattr(inertial_rates, module) is sub
        for name in names:
            assert getattr(inertial_rates, name) is getattr(sub, name), name


def test_dir_lists_every_public_name_and_loads_none():
    out = _child("import inertial_rates\nprint(' '.join(dir(inertial_rates)))\n"
                 "print(' '.join(m for m in sys.modules if m.startswith('inertial_rates')))")
    listed, modules = out.splitlines()
    assert NAMES | {"__version__"} <= set(listed.split())
    assert modules.split() == ["inertial_rates"]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from inertial_rates import *", namespace)
    assert NAMES <= set(namespace)
    assert namespace["run_cell"] is inertial_rates.gridrun.run_cell
    assert namespace["io"] is inertial_rates.io


def test_an_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="module 'inertial_rates' has no attribute 'nope'"):
        inertial_rates.nope  # noqa: B018
    assert inertial_rates.__version__ == "0.1.0"
