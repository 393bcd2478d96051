"""Benchmark of the rate lab: named workloads through the package's public
entry points (``config.parse_config``, then ``gridrun.run_cell`` or
``gridrun.run_grid``), with every verdict checked.

Run from the repository root:

    python3 bench/run_bench.py --workload sharp-prox-record --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.  The load is one process, closed loop: each call
starts when the previous one has finished, grid calls use a pool of at most
two workers.  A run makes one untimed warm-up call, then repeats the call
until ``--seconds`` have passed (at least ``MIN_CALLS`` timed calls) and
reports medians.  Before each timed call it times ``SETUP_PER_CALL`` fresh
interpreters that import the package and parse the workload document
(``setup_s``), so set-up samples are spread over the same window as the calls.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's public functions with spans (see ``tracing.py``), alternates traced
and untraced calls, and prints the per-layer metrics.  Stdout ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it name every metric with its unit, the failed share of cells, and the
environment the figures were taken on.  Workload rationale and the
layer -> end-to-end predictions are in ``README.md`` beside this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_PER_CALL = 2
MIN_CALLS = 3
PARSE_REPEATS = 20
WORKERS = 2
PROX_H = 1e-5  # step of the prox micro-timing, the scheme workloads' h

# A fresh interpreter imports the package and parses (validating every cell
# of) the workload document given as argv[2].
SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import inertial_rates\n"
    "inertial_rates.parse_config(sys.argv[2])\n"
)


# ---------------------------------------------------------------------------
# workloads: the seed sets x0 and nothing else
# ---------------------------------------------------------------------------

def _x0(rng: random.Random) -> float:
    """Magnitude uniform in [0.3, 0.9], random sign."""
    return rng.uniform(0.3, 0.9) * rng.choice((-1.0, 1.0))


def sharp_prox_record(rng):
    """Fig. 5 prox run (acceptance C1): ~2e5 records through the CSV writers."""
    pairs = [(1.0, 1.5)]
    doc = {
        "objective": "power:gamma=1.5,dim=1", "alpha": 1.0, "mode": "prox-nesterov",
        "h": 1e-5, "steps": 2_000_000, "stride": 10, "x0": _x0(rng),
    }
    return doc, pairs


def flat_band_grid(rng):
    """16 gradient cells strictly inside the intermediate band of gamma 3 and 4."""
    pairs = []
    for gamma in (3.0, 4.0):
        lo, hi = 1.0 + 2.0 / gamma, (gamma + 2.0) / (gamma - 2.0)
        pairs += [(lo + (hi - lo) * (k + 0.5) / 8, gamma) for k in range(8)]
    doc = {
        "grid": {"pairs": [list(p) for p in pairs], "parallelism": WORKERS},
        "run": {"mode": "nesterov", "h": 1e-5, "steps": 1_000_000, "stride": 1000,
                "x0": _x0(rng)},
    }
    return doc, pairs


WORKLOADS = {
    "sharp-prox-record": sharp_prox_record,
    "flat-band-grid": flat_band_grid,
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def paper_regime(alpha: float, gamma: float):
    """(branch, exponent) of the paper's piecewise rate table, restated here
    so the package's own table is checked against an independent copy."""
    sharp = 2.0 * alpha * gamma / (gamma + 2.0)
    if gamma <= 2.0 or alpha <= 1.0 + 2.0 / gamma:
        return "sharp-subcritical", sharp
    if alpha >= (gamma + 2.0) / (gamma - 2.0):
        return "flat-saturated", 2.0 * gamma / (gamma - 2.0)
    return "flat-intermediate", sharp


def cell_faults(result, alpha: float, gamma: float) -> list:
    """Reasons a cell counts as failed (empty when it is correct)."""
    if result.error is not None or result.verdict is None:
        return [f"error: {result.error}"]
    v = result.verdict
    faults = []
    if "trajectory_error" in v:
        faults.append(f"trajectory_error: {v['trajectory_error']}")
    if not math.isclose(result.config.alpha, alpha, rel_tol=1e-12):
        faults.append(f"alpha {result.config.alpha} != {alpha}")
    branch, exponent = paper_regime(alpha, gamma)
    if v["branch"] != branch:
        faults.append(f"branch {v['branch']} != {branch}")
    if v["theoretical"] is None or not math.isclose(v["theoretical"], exponent, rel_tol=1e-12):
        faults.append(f"theoretical {v['theoretical']} != {exponent}")
    for key in ("passed", "boundedness", "nonvanishing"):
        if v[key] is not True:
            faults.append(f"{key} is {v[key]}")
    return faults


def file_digests(outdir: Path) -> dict:
    """{relative path: (size, sha256)} of every file under outdir."""
    out = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[path.relative_to(outdir).as_posix()] = (path.stat().st_size, h.hexdigest())
    return out


class Checker:
    """Counts failed cells; the warm-up call's files are the reference that
    every later call (same seed) must reproduce byte for byte."""

    def __init__(self, pairs, is_grid: bool):
        self.pairs = pairs
        self.is_grid = is_grid
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, results, outdir: Path) -> int:
        """Check one call; returns the bytes it wrote."""
        digests = file_digests(outdir)
        if self.reference is None:
            self.reference = digests
        for (alpha, gamma), result in zip(self.pairs, results, strict=True):
            faults = cell_faults(result, alpha, gamma)
            prefix = f"{result.label}/" if self.is_grid else ""
            if self._differs(digests, lambda p: p.startswith(prefix)):
                faults.append("output files differ from the first call")
            if self.is_grid and self._differs(digests, lambda p: "/" not in p):
                faults.append("grid summary files differ from the first call")
            self.attempted += 1
            if faults:
                self.failed += 1
                self.reasons.append(f"{result.label}: {'; '.join(faults)}")
        return sum(size for size, _ in digests.values())

    def _differs(self, digests, select) -> bool:
        mine = {p: d for p, d in digests.items() if select(p)}
        ref = {p: d for p, d in self.reference.items() if select(p)}
        return mine != ref or not mine


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any one reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(doc_text: str, repeats: int) -> list:
    """Wall times of ``repeats`` fresh interpreters that import the package
    and parse the document."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), doc_text]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs the workload's call into a fresh output directory and checks it."""

    def __init__(self, pkg, cfg, pairs, outdir: Path):
        self.pkg, self.cfg, self.outdir = pkg, cfg, outdir
        self.is_grid = isinstance(cfg, pkg.config.GridSpec)
        self.checker = Checker(pairs, self.is_grid)

    def call(self):
        """One call; returns (wall_s, cpu_s, output_bytes, simulated steps).

        The results are dropped before the next call starts, so the peak
        resident set is that of one call, whatever the number of calls."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        gridrun = self.pkg.gridrun
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        if self.is_grid:
            results = gridrun.run_grid(self.cfg, str(self.outdir))
        else:
            results = [gridrun.run_cell(self.cfg, str(self.outdir))]
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        written = self.checker.check(results, self.outdir)
        return wall, cpu, written, sum(r.config.steps for r in results)


def closed_loop(seconds: float, call, min_calls: int = MIN_CALLS) -> list:
    """Repeat call() back to back; start another only while it is expected
    to finish inside the window, and always make min_calls."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(call())
        last = time.perf_counter() - t0
        if len(out) >= min_calls and time.perf_counter() - start + last > seconds:
            return out


def measure_end_to_end(runner: Runner, doc_text: str, seconds: float):
    """End-to-end metrics and the number of timed calls."""
    setup_seconds(doc_text, 1)  # warms the file and bytecode caches; untimed
    runner.call()  # warm-up: checked, not timed
    setup = []

    def call():
        setup.extend(setup_seconds(doc_text, SETUP_PER_CALL))
        return runner.call()

    calls = closed_loop(seconds, call)
    print("samples wall_s " + " ".join(f"{c[0]:.4f}" for c in calls))
    print("samples setup_s " + " ".join(f"{t:.4f}" for t in setup))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(c[0] for c in calls),
        "cpu_s": statistics.median(c[1] for c in calls),
        "steps_per_s": statistics.median(c[3] / c[0] for c in calls),
        "peak_rss_mb": peak_rss_mb(),
        "output_bytes": statistics.median(c[2] for c in calls),
    }, len(calls)


def measure_layers(pkg, runner: Runner, doc_text: str, seconds: float, x0: float,
                   objectives: list):
    """Per-layer metrics of the traced calls and the number of calls."""
    metrics = tracing.kernel_matrix(pkg, x0)
    metrics.update(tracing.objective_call_ns(pkg, objectives, x0, PROX_H))
    runner.call()  # warm-up, untraced
    tracer = tracing.Tracer(pkg)
    traced, plain = [], []

    def pair():
        tracer.install()
        try:
            wall = runner.call()[0]
        finally:
            tracer.uninstall()
        spans = tracer.take()
        cells = sum(1 for sp in spans if sp.name == "run_cell")
        if cells != len(runner.checker.pairs):
            raise RuntimeError(
                f"traced call returned spans of {cells} cells, expected "
                f"{len(runner.checker.pairs)}; pool workers must be forked"
            )
        traced.append(tracing.call_layer_metrics(spans, wall) | {"wall": wall})
        plain.append(runner.call()[0])

    tracer.install()
    try:
        metrics.update(tracing.parse_metrics(pkg, tracer, doc_text, PARSE_REPEATS))
    finally:
        tracer.uninstall()
    closed_loop(seconds, pair, min_calls=2)
    for key in traced[0]:
        if key != "wall":
            metrics[key] = statistics.median(m[key] for m in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(m["wall"] for m in traced) - statistics.median(plain)
    )
    return metrics, 2 * len(traced)


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def environment(pkg, seed: int) -> dict:
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "inertial_rates").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inertial_rates": pkg.__version__,
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
    }


def declared_units(trace: int) -> dict:
    """{name: unit} of the metrics a run reports, in BENCHMARK.json's order:
    ``end_to_end`` untraced, ``per_layer`` traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_package():
    """Import inertial_rates from src/ beside this directory, nowhere else."""
    init = SRC / "inertial_rates" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(SRC))
    import inertial_rates

    if Path(inertial_rates.__file__).resolve() != init.resolve():
        return None
    return inertial_rates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = import_package()
    if pkg is None:
        print(f"bench: no package source at {SRC / 'inertial_rates'}", file=sys.stderr)
        return 2
    os.environ.pop(pkg.gridrun.WORKERS_ENV, None)  # the workload fixes parallelism

    doc, pairs = WORKLOADS[args.workload](random.Random(args.seed))
    doc_text = json.dumps(doc, sort_keys=True)
    cfg = pkg.config.parse_config(doc_text)
    outdir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    runner = Runner(pkg, cfg, pairs, outdir)
    try:
        if args.trace:
            cells = [c for _, c in cfg.cells()] if runner.is_grid else [cfg]
            metrics, calls = measure_layers(
                pkg, runner, doc_text, args.seconds, cells[0].x0[0],
                sorted({c.objective for c in cells}),
            )
        else:
            metrics, calls = measure_end_to_end(runner, doc_text, args.seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    metrics = {name: metrics[name] for name in units}
    checker = runner.checker
    env = environment(pkg, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for reason in checker.reasons:
        print(f"failed {reason}")
    print(f"calls {calls}")
    print(f"metric {args.workload} failed_share {checker.failed / checker.attempted!r} ratio")
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
