import json
import math

import pytest

from inertial_rates.cli import main
from inertial_rates.config import (
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
    assert cfg.lyapunov == "auto-sharp"


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
    with pytest.raises(ConfigError, match="auto-flat"):
        config_from_dict({
            "objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10,
            "lyapunov": "auto-flat",
        })
    with pytest.raises(ConfigError, match="manual"):
        config_from_dict({
            "objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10,
            "lyapunov": "manual",
        })
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
    ("lyapunov_lambda", NAN),
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


def test_steps_must_be_integral():
    with pytest.raises(ConfigError, match="integer"):
        config_from_dict({"objective": "power:gamma=2,dim=1", "alpha": 6, "steps": 10.5})


def test_run_config_round_trip():
    cfg = config_from_dict({
        "objective": "power:gamma=1.5,dim=1", "alpha": 1.0, "steps": 1000,
        "h": 1e-5, "stride": 10, "outdir": "results",
        "rate_override": 0.857, "x0": [0.25],
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
