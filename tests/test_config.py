import json
import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertial_rates import config, gridrun
from inertial_rates.cli import build_parser, main
from inertial_rates.config import (
    MAX_PROX_STEP,
    MAX_RECORDS,
    RUN_SCHEMA,
    ConfigError,
    ExperimentConfig,
    GridSpec,
    config_from_dict,
    parse_config,
    render_config,
)


def test_minimal_config_fills_defaults():
    cfg = parse_config('{"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 1e6}')
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.mode == "nesterov"       # gamma >= 2 -> gradient steps
    assert cfg.h == 1e-5
    assert cfg.stride == 100
    assert cfg.steps == 1_000_000
    assert cfg.x0 == (0.5,)


def test_auto_mode_picks_prox_for_sharp_gamma():
    cfg = parse_config('{"objective": "power:gamma=1.5,dim=1", "alpha": 1, "steps": 100}')
    assert cfg.mode == "prox-nesterov"


def test_forced_gradient_mode_warns_for_sharp_gamma():
    cfg = parse_config(
        '{"objective": "power:gamma=1.5,dim=1", "alpha": 1, "steps": 100,'
        ' "mode": "nesterov"}'
    )
    assert cfg.mode == "nesterov"
    assert any("not Lipschitz" in w for w in cfg.warnings())


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config('{"objective": "power:gamma=2", "alpha": 6, "steps": 10, "alhpa": 2}')


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config('{"objective": "power:gamma=2", "steps": 10}')


def test_bad_objective_is_config_error():
    with pytest.raises(ConfigError, match="bad objective"):
        parse_config('{"objective": "powr:gamma=2", "alpha": 6, "steps": 10}')


def test_invalid_combinations_report_violation():
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict({"objective": "power:gamma=2,dim=1", "alpha": -1, "steps": 10})
    with pytest.raises(ConfigError, match="x0"):
        config_from_dict({
            "objective": "power:gamma=2,dim=2", "alpha": 6, "steps": 10, "x0": [1.0],
        })
    with pytest.raises(ConfigError, match="horizon"):
        config_from_dict({
            "objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10,
            "mode": "ode-rk4", "dt": 1e-3, "t0": 1.0,
        })


def test_rk4_horizon_is_checked_from_the_clamped_start(tmp_path):
    """run_ode starts at max(t0, dt): with t0 = 1e-9 and dt = 1e-3, five steps
    end at 6e-3, short of 10*dt, whatever the raw t0."""
    doc = {"objective": "power:gamma=2,dim=1", "alpha": 6, "mode": "ode-rk4",
           "t0": 1e-9, "dt": 1e-3, "steps": 5, "outdir": str(tmp_path / "out")}
    with pytest.raises(ConfigError, match="horizon"):
        config_from_dict(doc)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    config_from_dict({**doc, "steps": 9})  # ends at 1e-2 = 10*dt


def test_seed_key_rejected():
    # nothing in a run is random; the former seed key is now an unknown key
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10,
                          "seed": 3})


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("key, value", [
    ("h", NAN),
    ("dt", INF),
    ("t0", NAN),
    ("x0", [INF]),
    ("v0", [NAN]),
    ("lyapunov_lambda", NAN),  # removed keys: unknown, whatever the value
    ("lyapunov_p", -INF),
    ("rate_override", NAN),
    ("objective", "power:gamma=NaN,dim=1"),
    ("objective", "power:gamma=inf,dim=1"),
    ("objective", "plateau:gamma=2,a=NaN"),
])
def test_non_finite_numbers_rejected(tmp_path, key, value):
    # json.loads accepts NaN and Infinity; the config boundary must not
    doc = json.dumps({"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10,
                      "outdir": str(tmp_path / "out"), key: value})
    with pytest.raises(ConfigError):
        parse_config(doc)
    path = tmp_path / "run.json"
    path.write_text(doc)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["alpha", "h", "dt", "t0", "steps", "stride", "x0"])
def test_null_numbers_rejected(tmp_path, key):
    doc = json.dumps({"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10,
                      "outdir": str(tmp_path / "out"), key: None})
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)
    path = tmp_path / "run.json"
    path.write_text(doc)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_null_optional_numbers_mean_unset():
    # mode is the one key whose null means unset: chosen from the objective
    cfg = config_from_dict({"objective": "power:gamma=1.5,dim=1", "alpha": 6, "steps": 10,
                            "mode": None})
    assert cfg.mode == "prox-nesterov"


def test_record_count_is_capped(tmp_path):
    doc = json.dumps({"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10**9,
                      "stride": 1, "outdir": str(tmp_path / "out")})
    with pytest.raises(ConfigError, match=r"steps // stride") as info:
        parse_config(doc)
    assert str(MAX_RECORDS) in str(info.value)
    path = tmp_path / "run.json"
    path.write_text(doc)
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    # the cap sits exactly at steps // stride + 2 == MAX_RECORDS
    base = {"objective": "power:gamma=2,dim=1", "alpha": 6, "stride": 1}
    config_from_dict({**base, "steps": MAX_RECORDS - 2})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "steps": MAX_RECORDS - 1})


def test_prox_step_is_capped(tmp_path):
    doc = {"objective": "power:gamma=4,dim=1", "alpha": 6, "steps": 10,
           "mode": "prox-nesterov", "outdir": str(tmp_path / "out")}
    config_from_dict({**doc, "h": MAX_PROX_STEP})
    config_from_dict({**doc, "h": 1e300, "mode": "nesterov"})  # no prox, no cap
    with pytest.raises(ConfigError, match="prox-nesterov needs h <="):
        config_from_dict({**doc, "h": 1e151})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**doc, "h": 1e290}))
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_subnormal_prox_step_is_rejected(tmp_path):
    # prox_power's Newton iteration can fail for subnormal h; normal h is safe
    doc = {"objective": "power:gamma=4,dim=1", "alpha": 6, "steps": 10,
           "mode": "prox-nesterov", "outdir": str(tmp_path / "out")}
    config_from_dict({**doc, "h": sys.float_info.min})
    config_from_dict({**doc, "h": 5e-324, "mode": "nesterov"})  # no prox, no floor
    with pytest.raises(ConfigError, match="prox-nesterov needs a normal h"):
        config_from_dict({**doc, "h": sys.float_info.min / 2})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**doc, "h": 5e-324}))
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["nesterov", "prox-nesterov"])
def test_scheme_modes_reject_a_nonzero_v0(tmp_path, mode):
    # the scheme starts from rest; a v0 it would ignore is a config error
    run = {"mode": mode, "steps": 10, "x0": [0.5, 0.0], "outdir": str(tmp_path / "out")}
    doc = {"objective": "power:gamma=2,dim=2", "alpha": 6, **run}
    config_from_dict({**doc, "v0": [0.0, -0.0]})
    config_from_dict({**doc, "mode": "ode-rk4", "steps": 1000, "v0": [0.0, 0.1]})
    with pytest.raises(ConfigError, match="v0 must be zero"):
        parse_config(json.dumps({**doc, "v0": [0.0, 0.1]}))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--v0", "0.1,0"]) == 2
    grid = {"grid": {"pairs": [[6, 2]], "objective": "power:gamma={gamma},dim=2"},
            "run": {**run, "v0": [0.1, 0.0]}}
    with pytest.raises(ConfigError, match="v0 must be zero"):
        parse_config(json.dumps(grid))
    path.write_text(json.dumps(grid))
    assert main(["grid", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


# a sharp scheme run whose records reach scheme_fit_cap(1e-4) = 5; stride 100
# puts records 1 apart, 5 of them in the fitted decade [0.5, 5]
STARVED = {"objective": "power:gamma=2,dim=1", "alpha": 3, "h": 1e-4, "steps": 100_000,
           "stride": 100, "x0": [0.5]}


def test_a_stride_that_starves_the_fit_window_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"stride 100 leaves 5 record\(s\) in \[0.5, 5\]"):
        parse_config(json.dumps(STARVED))
    for objective in ("plateau:gamma=2,a=1", "power:gamma=1.5,dim=1"):
        with pytest.raises(ConfigError, match="lower stride"):
            parse_config(json.dumps({**STARVED, "objective": objective}))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**STARVED, "outdir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(path)]) == 2
    grid = {"grid": {"pairs": [[3, 2]]}, "run": {k: STARVED[k] for k in ("h", "steps", "stride")}}
    path.write_text(json.dumps(grid))
    assert main(["grid", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    parse_config(json.dumps({**STARVED, "stride": 50}))  # 10 records: 0.5, 1, ..., 5


@pytest.mark.parametrize("change", [
    {"objective": "power:gamma=3,dim=1"},       # flat: verify_rate fits the relative window
    {"mode": "ode-rk4", "dt": 1e-2, "t0": 1.0},  # RK4: no cap
    {"steps": 400},                              # ends before the cap
    {"steps": 4_000},                            # past the cap, but its z tail spans < 1 decade
    {"h": 0.05, "steps": 3_000, "stride": 7},    # no stride puts 10 step times below the cap
])
def test_the_fit_window_rule_leaves_other_runs_alone(change):
    """Only a stride that starves the window verify_rate fits is rejected:
    runs it fits elsewhere, or cannot assess for other reasons, pass."""
    parse_config(json.dumps({**STARVED, **change}))


def test_a_starved_run_is_what_verify_rate_cannot_fit(tmp_path):
    """The rejected run, built past the config, gets the fit_series
    verdict_error; stride 50 gets assessed."""
    starved = ExperimentConfig(**{**STARVED, "mode": "nesterov", "x0": (0.5,)})
    res = gridrun.run_cell(starved, str(tmp_path / "starved"))
    assert res.verdict["verdict_error"].startswith("fit_series needs >= 10")
    res = gridrun.run_cell(config_from_dict({**STARVED, "stride": 50}), str(tmp_path / "ok"))
    assert "verdict_error" not in res.verdict and res.verdict["fitted"] is not None


def _starved_by_stride(h, steps, stride):
    """The rule, recomputed from every record time of the run."""
    sqrt_h, cap = math.sqrt(h), 0.05 / math.sqrt(h)

    def times(stride):
        return np.unique(np.append(np.arange(0, steps + 1, stride), steps)) * sqrt_h

    def in_window(t):
        return int(np.sum((t >= cap / 10.0) & (t <= cap)))

    t = times(stride)[1:]
    l0, l1 = math.log10(t[0]), math.log10(t[-1])
    return (cap < t[-1] and l1 - 0.5 * (l0 + l1) >= 1.0
            and in_window(t) < 10 <= in_window(times(1)))


@settings(max_examples=300, deadline=None)
@given(log_h=st.floats(-9.0, -1.0), steps=st.integers(1, 300_000), stride=st.integers(1, 3_000))
def test_the_fit_window_rule_counts_every_record_time(log_h, steps, stride):
    h = 10.0 ** log_h
    raw = {"objective": "power:gamma=2,dim=1", "alpha": 3, "h": h, "steps": steps,
           "stride": stride}
    try:
        config_from_dict(raw)
        rejected = False
    except ConfigError as exc:
        assert "lower stride" in str(exc)
        rejected = True
    assert rejected == _starved_by_stride(h, steps, stride)


def test_steps_must_be_integral():
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict({"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10.5})


def test_run_config_round_trip():
    cfg = config_from_dict({
        "objective": "power:gamma=1.5,dim=1", "alpha": 1.0, "steps": 1000,
        "h": 1e-5, "stride": 10, "outdir": "results", "x0": [0.25],
    })
    again = parse_config(render_config(cfg))
    assert again == cfg


def test_grid_round_trip_and_expansion():
    doc = json.dumps({
        "grid": {"pairs": [[1, 1.5], [6, 1.5]], "parallelism": 2},
        "run": {"steps": 100, "h": 1e-4, "stride": 10},
    })
    grid = parse_config(doc)
    assert isinstance(grid, GridSpec)
    assert parse_config(render_config(grid)) == grid
    cells = grid.cells()
    assert len(cells) == 2
    label, cfg = cells[0]
    assert label == "alpha=1_gamma=1.5"
    assert cfg.objective == "power:gamma=1.5,dim=1"
    assert cfg.mode == "prox-nesterov"
    assert cfg.alpha == 1.0


def test_grid_parses_each_cell_objective_once(monkeypatch):
    """parse_config validates every cell and run_grid expands them again with
    cells(); each pass parses a cell's objective once (16 cells, 16 calls)."""
    calls = []
    parse = config.parse_objective

    def counting(spec):
        calls.append(spec)
        return parse(spec)

    monkeypatch.setattr(config, "parse_objective", counting)
    pairs = [[1.0 + 2.0 / g + 0.1 * (k + 1), g] for g in (3.0, 4.0) for k in range(8)]
    grid = parse_config(json.dumps({
        "grid": {"pairs": pairs, "parallelism": 2},
        "run": {"mode": "nesterov", "h": 1e-5, "steps": 1_000_000, "stride": 1000},
    }))
    assert len(calls) == 16
    calls.clear()
    assert len(grid.cells()) == 16
    assert len(calls) == 16


def test_grid_cartesian_ranges():
    grid = parse_config(json.dumps({
        "grid": {"alphas": [1, 6], "gammas": [1.5, 3]},
        "run": {"steps": 50},
    }))
    assert len(grid.pairs) == 4


def test_grid_rejects_empty_and_misplaced_keys():
    with pytest.raises(ConfigError, match="empty"):
        parse_config('{"grid": {"pairs": []}, "run": {"steps": 10}}')
    with pytest.raises(ConfigError, match="cannot contain"):
        parse_config(json.dumps({
            "grid": {"pairs": [[1, 2]]},
            "run": {"steps": 10, "alpha": 3},
        }))
    with pytest.raises(ConfigError, match="unknown grid keys"):
        parse_config('{"grid": {"pairs": [[1,2]], "foo": 1}, "run": {"steps": 10}}')


def test_grid_cell_gamma_must_match_objective():
    with pytest.raises(ConfigError, match="does not match"):
        parse_config(json.dumps({
            "grid": {"pairs": [[1, 3.0]], "objective": "power:gamma=2,dim=1"},
            "run": {"steps": 10},
        }))


_COLLIDING_PAIRS = [
    ([[3.0000001, 2], [3.0000002, 2], [3, 2]], "[3.0000001, 2.0] and [3.0000002, 2.0]"),
    ([[6, 2], [1, 1.5], [6, 2]], "[6.0, 2.0] and [6.0, 2.0]"),
]


@pytest.mark.parametrize("pairs, named", _COLLIDING_PAIRS, ids=["near-equal", "repeated"])
def test_grid_cells_with_one_label_rejected(pairs, named):
    """A label names its cell's output directory: two cells with one label
    would write the same files and show as duplicate summary rows."""
    doc = json.dumps({"grid": {"pairs": pairs}, "run": {"steps": 10}})
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    label = "alpha=3_gamma=2" if "3.0000001" in named else "alpha=6_gamma=2"
    assert named in str(info.value) and repr(label) in str(info.value)


@pytest.mark.parametrize("pairs, named", _COLLIDING_PAIRS, ids=["near-equal", "repeated"])
def test_cli_grid_with_colliding_labels_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, capsys, pairs, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.json").write_text(json.dumps(
        {"grid": {"pairs": pairs, "parallelism": 2}, "run": {"steps": 10, "h": 1e-4}}))
    assert main(["grid", "--config", "grid.json", "--outdir", "g"]) == 2
    assert named in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]


def test_grid_labels_keep_their_six_digit_form():
    grid = parse_config(json.dumps({"grid": {"pairs": [[3.0000001, 2], [2.5, 1.5]]},
                                    "run": {"steps": 10}}))
    assert [label for label, _ in grid.cells()] == ["alpha=3_gamma=2", "alpha=2.5_gamma=1.5"]


def test_config_not_json_or_not_object():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("steps: 10")
    with pytest.raises(ConfigError, match="object"):
        parse_config("[1, 2]")


# ---------------------------------------------------------------------------
# one run-key table: typed coercion at the boundary, flags over a file
# ---------------------------------------------------------------------------

_BASE = {"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10}
_NULL_MEANS_UNSET = {"mode"}
_STRING_KEYS = {"objective", "mode", "outdir"}
# Keys the run schema no longer has, each with a value it once took: the rate
# regime picks the z exponent and the Lyapunov family
_REMOVED_KEYS = {"rate_override": 0.5, "lyapunov": "manual", "lyapunov_lambda": 3.0,
                 "lyapunov_p": 1.0}


def test_run_schema_config_fields_and_run_flags_agree():
    assert list(RUN_SCHEMA) == [f.name for f in fields(ExperimentConfig)]
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    options = [opt for action in run._actions for opt in action.option_strings
               if opt not in ("-h", "--help")]
    assert options == ["--config"] + ["--" + key.replace("_", "-") for key in RUN_SCHEMA]


@pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
def test_removed_run_keys_rejected(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)  # the default outdir must not appear either
    value = _REMOVED_KEYS[key]
    (tmp_path / "run.json").write_text(json.dumps({**_BASE, key: value}))
    assert main(["run", "--config", "run.json"]) == 2
    (tmp_path / "grid.json").write_text(json.dumps(
        {"grid": {"pairs": [[6, 2]]}, "run": {"steps": 10, key: value}}))
    assert main(["grid", "--config", "grid.json"]) == 2
    assert key in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["run", "--objective", "power:gamma=2,dim=1", "--alpha", "6", "--steps", "10",
              "--" + key.replace("_", "-"), str(value)])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json", "run.json"]


def _wrong_typed_values():
    cases = []
    for key in RUN_SCHEMA:
        for value in (True, "1", {"a": 1}, None):
            if value == "1" and key in _STRING_KEYS:
                continue  # a numeric string is a string
            if value is None and key in _NULL_MEANS_UNSET:
                continue
            cases.append((key, value))
    # reproduced one by one: each was accepted or raised a bare Python error
    cases += [("h", "0.001"), ("x0", [True]), ("objective", 5), ("outdir", 5),
              ("alpha", 10**400), ("steps", 10**400)]
    # a removed key is an unknown key, whatever its value
    cases += [(key, value) for key in _REMOVED_KEYS for value in (True, "1", {"a": 1}, None)]
    return [pytest.param(k, v, id=f"{k}={json.dumps(v)[:12]}") for k, v in cases]


@pytest.mark.parametrize("key, value", _wrong_typed_values())
def test_wrong_typed_values_rejected(tmp_path, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)  # a bad outdir must not appear here either
    doc = json.dumps({**_BASE, "outdir": "out", key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)
    (tmp_path / "run.json").write_text(doc)
    assert main(["run", "--config", "run.json"]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("grid", [
    {"pairs": [[3, None]]},
    {"pairs": 5},
    {"pairs": [["3", "2"]]},
    {"pairs": [[3, 2, 1]]},
    {"alphas": "34", "gammas": [2]},
    {"alphas": [3], "gammas": [True]},
    {"pairs": [[3, 2]], "parallelism": True},
    {"pairs": [[3, 2]], "parallelism": "2"},
    {"pairs": [[3, 2]], "objective": 5},
])
def test_grid_section_values_rejected(tmp_path, grid):
    doc = json.dumps({"grid": grid, "run": {"steps": 10}})
    with pytest.raises(ConfigError):
        parse_config(doc)
    path = tmp_path / "grid.json"
    path.write_text(doc)
    assert main(["grid", "--config", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_run_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"objective": "power:gamma=2,dim=1", "alpha": 6,
                                "steps": 60_000, "h": 1e-4, "stride": 10,
                                "outdir": str(tmp_path / "file")}))
    main(["run", "--config", str(path), "--alpha", "2", "--outdir", str(tmp_path / "flag")])
    assert not (tmp_path / "file").exists()
    verdict = json.loads((tmp_path / "flag" / "verdict.json").read_text())
    assert verdict["alpha"] == 2.0
    # flag text that spells no number is handed on and rejected by its key
    assert main(["run", "--config", str(path), "--alpha", "abc"]) == 2
    assert main(["run", "--config", str(path), "--x0", "0.5,x"]) == 2
    assert not (tmp_path / "file").exists()


def test_run_as_file_and_as_flags_is_one_config(tmp_path, monkeypatch):
    doc = {
        "objective": "power:gamma=2,dim=3", "alpha": 4.5, "steps": 2000,
        "mode": "ode-rk4", "h": 1e-4, "dt": 1e-3, "t0": 0.05,
        "x0": [1.0, -0.5, 0.25], "v0": [0.0, 0.0, 0.1], "stride": 10,
        "outdir": str(tmp_path / "out"),
    }
    assert set(doc) == set(RUN_SCHEMA)  # every run key, so every run flag
    seen = []
    monkeypatch.setattr(gridrun, "run_cell",
                        lambda cfg: seen.append(cfg) or gridrun.CellResult("", cfg, None, None))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    main(["run", "--config", str(path)])
    flags = []
    for key, value in doc.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        flags += ["--" + key.replace("_", "-"), text]
    main(["run", *flags])
    from_file, from_flags = seen
    assert from_file == from_flags == config_from_dict(doc)
    assert render_config(from_file) == render_config(from_flags)
