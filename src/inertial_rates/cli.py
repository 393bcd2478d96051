"""Command-line interface.

Subcommands: run (single experiment), grid (cell family), probe (geometry
hypotheses), rate (theoretical exponent).  Exit codes: 0 all asserted
verdicts pass, 1 some asserted verdict fails, 2 configuration error.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import gridrun, rates
from .config import (
    RUN_SCHEMA,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    parse_document,
)
from .objectives import parse_objective, probe_h1, probe_h2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="inertial-rates",
        description="Inertial-dynamics simulation and convergence-rate verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--config", help="JSON run config file; the flags below override its keys")
    for key in RUN_SCHEMA:
        run.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS)

    grid = sub.add_parser("grid", help="run a grid of (alpha, gamma) cells")
    grid.add_argument("--config", required=True, help="JSON grid config file")
    grid.add_argument("--outdir", default=None, help="override output directory")

    probe = sub.add_parser("probe", help="sample geometry hypotheses on an objective")
    probe.add_argument("--objective", required=True)
    probe.add_argument("--h1", type=float, action="append", default=[],
                       metavar="GAMMA", help="flatness exponent to test (repeatable)")
    probe.add_argument("--h2", type=float, action="append", default=[],
                       metavar="R", help="growth exponent to test (repeatable)")
    probe.add_argument("--K", type=float, default=1.0, help="growth constant for --h2")
    probe.add_argument("--x-star", default=None, help="probe center (comma-separated)")
    probe.add_argument("--radius", type=float, default=1.0)
    probe.add_argument("--samples", type=int, default=200)
    probe.add_argument("--seed", type=int, default=0)

    rate = sub.add_parser("rate", help="print the theoretical branch and exponent")
    rate.add_argument("--alpha", type=float, required=True)
    rate.add_argument("--gamma", type=float, required=True)
    return ap


def _point_arg(text: Optional[str]):
    if text is None:
        return None
    return [float(p) for p in text.split(",")]


def _flag_value(key: str, text: str):
    """A run flag's JSON value: the text where the key takes a string, else the
    number or comma-separated numbers it spells (or the text, to be rejected)."""
    try:
        return RUN_SCHEMA[key](text, key)
    except ConfigError:
        try:
            numbers = _point_arg(text)
        except ValueError:
            return text
    return numbers[0] if len(numbers) == 1 else numbers


def _cmd_run(args) -> int:
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_document(fh.read())
        if "grid" in raw:
            raise ConfigError("got a grid config; use the 'grid' subcommand")
    raw.update((k, _flag_value(k, v)) for k, v in vars(args).items() if k in RUN_SCHEMA)
    cfg = config_from_dict(raw)
    for w in cfg.warnings():
        print(f"warning: {w}", file=sys.stderr)
    result = gridrun.run_cell(cfg)
    if result.verdict is None:
        print(f"run failed: {result.error}", file=sys.stderr)
        return 1
    v = result.verdict

    def num(key, spec=".6g"):
        return "n/a" if v.get(key) is None else f"{v[key]:{spec}}"

    print(f"objective    {v['objective']}")
    print(f"branch       {v['branch']}")
    print(f"theoretical  {num('theoretical')}")
    print(f"fitted       {num('fitted')} +- {num('fitted_err', '.2g')}")
    print(f"z tail ratio {num('z_tail_ratio', '.4g')}")
    print(f"boundedness  {'pass' if v['boundedness'] else 'FAIL'}")
    print(f"nonvanishing {'pass' if v['nonvanishing'] else 'FAIL'}")
    print(f"upper bound  {v['upper_bound']}, lower bound {v['lower_bound']}")
    if v.get("verdict_error"):
        print(f"verdict      not assessed: {v['verdict_error']}", file=sys.stderr)
    print(f"outputs in   {cfg.outdir}")
    return 0 if v["passed"] else 1


def _cmd_grid(args) -> int:
    cfg = load_config(args.config)
    if isinstance(cfg, ExperimentConfig):
        raise ConfigError("got a run config; use the 'run' subcommand")
    outdir = args.outdir if args.outdir else dict(cfg.base).get("outdir", "out")
    results = gridrun.run_grid(cfg, outdir)
    ok = True
    for r in results:
        if r.verdict is None:
            print(f"{r.label}: FAILED ({r.error})")
            ok = False
        else:
            status = "pass" if r.verdict["passed"] else "FAIL"
            ok = ok and r.verdict["passed"]
            th, fi = r.verdict["theoretical"], r.verdict["fitted"]
            print(
                f"{r.label}: {status} "
                f"theoretical={'n/a' if th is None else format(th, '.4g')} "
                f"fitted={'n/a' if fi is None else format(fi, '.4g')}"
            )
    print(f"summary in {outdir}")
    return 0 if ok else 1


def _cmd_probe(args) -> int:
    obj = parse_objective(args.objective)
    if not args.h1 and not args.h2:
        raise ConfigError("probe needs at least one --h1 or --h2")
    x_star = _point_arg(args.x_star)
    if x_star is None:
        hint = obj.minimizer_hint
        x_star = [hint[1]] if isinstance(hint, tuple) else (
            [hint] if obj.dim == 1 else list(hint)
        )
    center = x_star[0] if obj.dim == 1 else x_star
    ok = True
    for g in args.h1:
        rep = probe_h1(obj, g, center, args.radius, args.samples, args.seed)
        ok = ok and rep.holds
        print(_probe_line(rep))
    for r in args.h2:
        rep = probe_h2(obj, r, args.K, center, args.radius, args.samples, args.seed)
        ok = ok and rep.holds
        print(_probe_line(rep))
    return 0 if ok else 1


def _probe_line(rep) -> str:
    line = (
        f"{rep.hypothesis}({rep.exponent:g}) {rep.verdict}: worst margin "
        f"{rep.worst_margin:.3e} over {rep.n_samples} samples in radius {rep.radius:g}"
    )
    if rep.constant is not None:
        line += f", K={rep.constant:g}"
    if rep.witness is not None:
        line += f", witness={rep.witness}"
    return line


def _cmd_rate(args) -> int:
    reg = rates.theoretical_rate(args.alpha, args.gamma)
    print(f"branch   {reg.branch}")
    print(f"exponent {reg.exponent:.12g}")
    print(f"upper bound {'proven' if reg.upper_bound_proven else 'unproven'}")
    print(f"lower bound {'proven' if reg.lower_bound_proven else 'unproven'}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "probe":
            return _cmd_probe(args)
        return _cmd_rate(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=None))
