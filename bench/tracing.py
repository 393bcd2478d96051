"""Span tracing around the package's public functions, from the benchmark side.

The package itself is not modified: ``Tracer.install`` replaces module
attributes (``dynamics.run``, ``io.write_energy_csv``, ...) with timing
wrappers and ``Tracer.uninstall`` puts the originals back.  The package calls
its own modules through attribute lookups (``dynamics.run(...)``), so the
wrappers see every call a run makes.

Each span records its layer (the module name), the function, the process id,
start and end on the system-wide monotonic clock, its self time (duration
minus the time covered by nested spans in the same process) and a few counts
taken at the boundary.  Grid cells run in forked pool workers, which inherit
the wrappers; the ``run_cell`` wrapper attaches the worker's spans to the
returned ``CellResult`` and the ``run_grid`` wrapper moves them back into the
parent's span list.
"""
from __future__ import annotations

import importlib
import math
import os
import statistics
import time
from typing import Callable, Dict, List, NamedTuple

LAYERS = ("config", "objectives", "dynamics", "lyapunov", "rates", "io", "svgplot", "gridrun")
SPANS_ATTR = "bench_spans"


class Span(NamedTuple):
    layer: str
    name: str
    pid: int
    start: float
    end: float
    self_s: float
    counts: Dict[str, float]


def _path_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# counts taken at a boundary: (args, kwargs, result) -> {count: value}
def _count_dynamics(args, kwargs, traj):
    return {
        "steps": int(traj.n[-1]) if len(traj) else 0,
        "records": len(traj),
        "nonfinite_runs": 1 if traj.error else 0,
    }


def _count_records(args, kwargs, table):
    return {"records": len(table)}


def _count_file(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": _path_size(path), "files": 1}


def _count_summary(args, kwargs, result):
    paths = [kwargs[k] if k in kwargs else args[i] for i, k in ((1, "csv_path"), (2, "txt_path"))]
    return {"bytes": sum(_path_size(p) for p in paths), "files": len(paths)}


def traced_functions(pkg) -> List[tuple]:
    """(module, attribute, layer, counter) for every public function traced."""
    config, dynamics, lyapunov, rates = pkg.config, pkg.dynamics, pkg.lyapunov, pkg.rates
    io, gridrun = pkg.io, pkg.gridrun
    svgplot = importlib.import_module(pkg.__name__ + ".svgplot")  # run_grid imports it lazily
    return [
        (config, "parse_config", "config", None),
        # config binds parse_objective at import; ExperimentConfig.build_objective
        # and the grid's cell validation call it through that binding
        (config, "parse_objective", "objectives", None),
        (dynamics, "run", "dynamics", _count_dynamics),
        (lyapunov, "select_params", "lyapunov", None),
        (lyapunov, "manual_params", "lyapunov", None),
        (lyapunov, "energy_along", "lyapunov", _count_records),
        (rates, "theoretical_rate", "rates", None),
        (rates, "scheme_fit_cap", "rates", None),
        (rates, "z_sequence", "rates", None),
        (rates, "verify_rate", "rates", None),
        (io, "write_trajectory_csv", "io", _count_file),
        (io, "write_energy_csv", "io", _count_file),
        (io, "write_z_csv", "io", _count_file),
        (io, "verdict_to_dict", "io", None),
        (io, "write_json", "io", _count_file),
        (io, "write_summary", "io", _count_summary),
        (svgplot, "emit_svg", "svgplot", _count_file),
        (gridrun, "run_cell", "gridrun", None),
        (gridrun, "run_grid", "gridrun", None),
    ]


class Tracer:
    """In-memory span recorder; spans are read out after each traced call."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.owner_pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[List[float]] = []
        self._originals: List[tuple] = []

    def install(self) -> None:
        for module, attr, layer, counter in traced_functions(self.pkg):
            orig = getattr(module, attr)
            self._originals.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, layer, attr, counter))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._originals):
            setattr(module, attr, orig)
        self._originals.clear()

    def take(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, orig: Callable, layer: str, name: str, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            mark = len(tracer.spans)
            child = [0.0]
            tracer._stack.append(child)
            result, raised = None, True
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += end - start
                counts = {"raised": 1} if raised else (
                    counter(args, kwargs, result) if counter else {}
                )
                tracer.spans.append(
                    Span(layer, name, os.getpid(), start, end, end - start - child[0], counts)
                )
                if not raised:
                    tracer._hand_over(name, result, mark)

        return traced

    def _hand_over(self, name: str, result, mark: int) -> None:
        """Carry a pool worker's cell spans back to the parent process."""
        if name == "run_cell" and os.getpid() != self.owner_pid:
            setattr(result, SPANS_ATTR, self.spans[mark:])
            del self.spans[mark:]
        elif name == "run_grid":
            for cell in result:
                self.spans.extend(vars(cell).pop(SPANS_ATTR, ()))


# ---------------------------------------------------------------------------
# per-layer figures of one traced call
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def call_layer_metrics(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Per-layer busy (self) time and boundary counts for one run_cell/run_grid call."""
    busy = {layer: 0.0 for layer in LAYERS}
    counts: Dict[str, float] = {}
    for sp in spans:
        busy[sp.layer] += sp.self_s
        for k, v in sp.counts.items():
            key = f"{sp.layer}.{k}"
            counts[key] = counts.get(key, 0) + v
    verdict_errors = sum(
        1 for sp in spans if sp.name == "verify_rate" and sp.counts.get("raised")
    )
    cells = [sp for sp in spans if sp.name == "run_cell"]
    cell_s = [sp.end - sp.start for sp in cells] or [0.0]
    workers = len({sp.pid for sp in cells}) or 1
    # time of the call covered neither by a cell nor by work the calling
    # process does itself (summary, overlay): pool start, dispatch, result
    # transfer and shutdown
    inner = [(sp.start, sp.end) for sp in cells]
    inner += [
        (sp.start, sp.end) for sp in spans
        if sp.pid == os.getpid() and sp.name not in ("run_cell", "run_grid")
    ]
    steps = counts.get("dynamics.steps", 0)
    records = counts.get("dynamics.records", 0)
    return {
        "dynamics.busy_s": busy["dynamics"],
        "dynamics.ns_per_step": _ns_per(busy["dynamics"], steps),
        "dynamics.steps": steps,
        "dynamics.records": records,
        "dynamics.nonfinite_runs": counts.get("dynamics.nonfinite_runs", 0),
        "lyapunov.busy_s": busy["lyapunov"],
        "lyapunov.ns_per_record": _ns_per(busy["lyapunov"], counts.get("lyapunov.records", 0)),
        "rates.busy_s": busy["rates"],
        "rates.verdict_errors": verdict_errors,
        "io.busy_s": busy["io"],
        "io.ns_per_record": _ns_per(busy["io"], records),
        "io.bytes": counts.get("io.bytes", 0),
        "io.files": counts.get("io.files", 0),
        "svgplot.busy_s": busy["svgplot"],
        "svgplot.bytes": counts.get("svgplot.bytes", 0),
        "gridrun.busy_s": sum(sp.self_s for sp in cells),
        "gridrun.cell_s.p50": statistics.median(cell_s),
        "gridrun.cell_s.max": max(cell_s),
        "gridrun.parallel_efficiency": sum(cell_s) / (wall_s * workers),
        "gridrun.overhead_s": wall_s - _covered(inner),
    }


def _ns_per(seconds: float, count: float) -> float:
    """Nanoseconds per unit of work; 0 when no work was counted."""
    return 1e9 * seconds / count if count else 0.0


def parse_metrics(pkg, tracer: Tracer, doc_text: str, repeats: int) -> Dict[str, float]:
    """config.parse_s (self time of parse_config) and objectives.build_s
    (parse_objective time inside it), medians over ``repeats`` parses."""
    parse_s, build_s = [], []
    for _ in range(repeats):
        tracer.take()
        pkg.config.parse_config(doc_text)
        spans = tracer.take()
        parse_s.append(sum(sp.self_s for sp in spans if sp.layer == "config"))
        build_s.append(sum(sp.self_s for sp in spans if sp.layer == "objectives"))
    return {
        "config.parse_s": statistics.median(parse_s),
        "objectives.build_s": statistics.median(build_s),
    }


# ---------------------------------------------------------------------------
# objective and kernel micro-timings (direct calls, untraced)
# ---------------------------------------------------------------------------

def objective_call_ns(pkg, objectives: List[str], x0: float, h: float, repeats: int = 5):
    """Median ns per gradient and per prox call on the workload's objectives
    (1-D, at 2000 points between 0 and x0), averaged over its distinct
    objectives."""
    pts = [x0 * k / 2000 for k in range(1, 2001)]
    grad_ns, prox_ns = [], []
    for spec in objectives:
        obj = pkg.objectives.parse_objective(spec)
        grad, prox = obj.gradient, obj.prox
        g_runs, p_runs = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for p in pts:
                grad(p)
            t1 = time.perf_counter()
            for p in pts:
                prox(h, p)
            t2 = time.perf_counter()
            g_runs.append(t1 - t0)
            p_runs.append(t2 - t1)
        grad_ns.append(1e9 * statistics.median(g_runs) / len(pts))
        prox_ns.append(1e9 * statistics.median(p_runs) / len(pts))
    return {
        "objectives.grad_ns": statistics.fmean(grad_ns),
        "objectives.prox_ns": statistics.fmean(prox_ns),
    }


KERNEL_MODES = ("nesterov", "prox-nesterov", "ode-rk4")
# (metric label, objective spec, dim); plateau is 1-D only
KERNEL_OBJECTIVES = [
    (f"power-g{g}.d{d}", f"power:gamma={g},dim={d}", d)
    for g in ("1.5", "2", "3") for d in (1, 3)
] + [("plateau-g2.d1", "plateau:gamma=2,a=1", 1)]
# steps per timing: 30-50 ms each on a 2-vCPU Xeon virtual machine
KERNEL_STEPS = {("scheme", 1): 100_000, ("scheme", 3): 5_000,
                ("ode", 1): 50_000, ("ode", 3): 1_500}


def kernel_name(mode: str, label: str) -> str:
    return f"dynamics.ns_per_step.{mode}.{label}"


def kernel_matrix(pkg, x0: float, repeats: int = 3) -> Dict[str, float]:
    """ns/step of run_scheme/run_ode for every mode x objective x dim.

    Runs start at x0 on the first axis (outside the plateau's minimizer
    interval [-1, 1] for the plateau); the median of ``repeats`` runs counts.
    """
    dynamics = pkg.dynamics
    out = {}
    for label, spec, dim in KERNEL_OBJECTIVES:
        obj = pkg.objectives.parse_objective(spec)
        start = x0 + math.copysign(1.0, x0) if spec.startswith("plateau") else x0
        start = start if dim == 1 else [start] + [0.0] * (dim - 1)
        for mode in KERNEL_MODES:
            kind = "ode" if mode == "ode-rk4" else "scheme"
            steps = KERNEL_STEPS[(kind, dim)]
            runs = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                if kind == "ode":
                    traj = dynamics.run_ode(obj, 3.0, 1e-3, 0.1, steps, start, stride=100)
                else:
                    traj = dynamics.run_scheme(obj, 3.0, 1e-5, steps, start, stride=100,
                                               use_prox=(mode == "prox-nesterov"))
                runs.append(time.perf_counter() - t0)
                if traj.error or int(traj.n[-1]) != steps:
                    raise RuntimeError(f"kernel {mode} on {spec} stopped early: {traj.error}")
            out[kernel_name(mode, label)] = 1e9 * statistics.median(runs) / steps
    return out
