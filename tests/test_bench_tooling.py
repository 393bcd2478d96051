"""Guards for the traced benchmark in bench/tracing.py.

The tracer replaces package functions by name and the kernel matrix calls
run_scheme/run_ode positionally; a renamed or deleted function would break
`bench/run_bench.py --trace 1` without failing any package test.
"""
import importlib.util
import json
import random
from pathlib import Path

import pytest

import inertial_rates

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    traced = tracing.traced_functions(inertial_rates)
    assert traced
    for module, attr, layer, _ in traced:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        assert layer in tracing.LAYERS


def test_kernel_matrix_call_shapes_run(tracing, monkeypatch):
    # the benchmark's own calls, shortened to a few hundred steps each
    monkeypatch.setattr(tracing, "KERNEL_STEPS", dict.fromkeys(tracing.KERNEL_STEPS, 200))
    out = tracing.kernel_matrix(inertial_rates, x0=0.6, repeats=1)
    assert len(out) == len(tracing.KERNEL_OBJECTIVES) * len(tracing.KERNEL_MODES)
    assert all(v > 0.0 for v in out.values())


def test_tracer_installs_and_restores(tracing, tmp_path):
    cfg = inertial_rates.config.config_from_dict({
        "objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 2000,
        "h": 1e-4, "stride": 10,
    })
    originals = {(m, a): getattr(m, a) for m, a, _, _ in tracing.traced_functions(inertial_rates)}
    tracer = tracing.Tracer(inertial_rates)
    tracer.install()
    try:
        inertial_rates.gridrun.run_cell(cfg, str(tmp_path))
    finally:
        tracer.uninstall()
    names = {sp.name for sp in tracer.take()}
    assert {"run", "write_trajectory_csv", "write_energy_csv", "write_z_csv"} <= names
    assert all(getattr(m, a) is f for (m, a), f in originals.items())


@pytest.mark.parametrize("workload", ["sharp-prox-record", "flat-band-grid"])
def test_workload_documents_pass_config_validation(workload, monkeypatch):
    """The benchmark's documents (2e5 records, 1,001 records per cell) stay
    inside the config boundary's record cap."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    doc, _ = module.WORKLOADS[workload](random.Random(1))
    inertial_rates.parse_config(json.dumps(doc))
