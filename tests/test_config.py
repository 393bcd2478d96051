import json
import math
import sys
from dataclasses import fields

import pytest

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
