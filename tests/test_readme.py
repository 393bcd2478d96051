"""The README's library sketch runs and prints what its comments claim, its
output column lists and records.npz member list match the files, and its
lists of inlined gradients and proxes match the catalog."""
import contextlib
import fnmatch
import io
import re
from pathlib import Path

import numpy as np

from inertial_rates.config import config_from_dict
from inertial_rates.dynamics import MODES
from inertial_rates.gridrun import export, run_cell
from inertial_rates.objectives import _PROX_EXPRS, inlined, make_power, parse_objective

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_prints_its_claims():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_sketch(), str(README), "exec"), {})
    fitted, same_and_passed, monotone, residual = out.getvalue().splitlines()
    assert abs(float(fitted) - 6.0 / 7.0) <= 0.1
    assert round(float(fitted), 2) == 0.92
    assert same_and_passed == "True True"
    assert monotone == "True"
    assert float(residual) < 1e-5


RUN = {"objective": "power:gamma=2,dim=1", "alpha": 6.0, "steps": 2000, "h": 1e-4,
       "stride": 10}
# extinguished near step 2,000: at rest
RESTING_RUN = {"objective": "power:gamma=1.5,dim=1", "alpha": 3.0, "mode": "prox-nesterov",
               "steps": 4000, "h": 1e-4, "stride": 10}


def test_readme_output_columns_match_the_files_run_cell_writes(tmp_path):
    """The column lists under "Outputs per run" are the headers of energy.csv
    and z.csv as export writes them from run_cell's records."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Outputs per run"):text.index("### Exponent fits")]
    documented = dict(re.findall(r"^- `(\w+\.csv)` — `([^`]*)`", section, re.M))
    assert run_cell(config_from_dict(RUN), str(tmp_path)).error is None
    export(str(tmp_path))
    for name in ("energy.csv", "z.csv"):
        header = (tmp_path / name).read_text().splitlines()[0]
        assert documented[name] == header, name


def test_readme_mode_lists_are_the_modes_table():
    """The modes that records.npz's `mode` member lists, and the rows of the
    "Modes" table, are dynamics.MODES in its order, with each entry's step
    key and prox flag."""
    text = README.read_text(encoding="utf-8")
    line = re.search(r"^  - `mode` — text: (.*)$", text, re.M).group(1)
    assert tuple(re.findall(r"`([^`]+)`", line)) == tuple(MODES)
    section = text[text.index("### Modes"):text.index("### Outputs per run")]
    rows = re.findall(r"^\| `([^`]+)` \| `(\w+)` \|.* \| (yes|no) \|$", section, re.M)
    assert rows == [(m, e.step_key, "yes" if e.prox else "no") for m, e in MODES.items()]


def test_readme_records_members_are_the_ones_run_cell_writes(tmp_path):
    """The member list of records.npz under "Outputs per run" is the file's
    of a run at rest, in the file's order, and without its last, tail, that
    of a run that never rests."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Outputs per run"):text.index("### Exponent fits")]
    documented = re.findall(r"^  - `(\w+)` — ", section, re.M)
    assert documented[-1] == "tail"
    for run, members in ((RUN, documented[:-1]), (RESTING_RUN, documented)):
        assert run_cell(config_from_dict(run), str(tmp_path)).error is None
        with np.load(tmp_path / "records.npz", allow_pickle=False) as npz:
            assert members == npz.files


def test_readme_inlined_objectives_are_the_ones_with_an_expression(tmp_path):
    """The objective patterns listed under "Kernels" match exactly the
    catalog objectives whose gradient is inlined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Kernels"):text.index("## Numerical notes")]
    patterns = re.findall(r"^- `([^`]+)`", section, re.M)
    assert patterns
    specs = [f"power:gamma={g},dim={d}" for g in (1, 1.5, 2, 2.5, 3, 4) for d in (1, 2, 3)]
    specs += [f"plateau:gamma={g},a={a}" for g in (1, 2, 3) for a in (0.5, 1)]
    for unknowns, rows in ((1, "2.0,4.0\n1.0,1.5\n"), (2, "2.0,1.0,1.0\n0.5,3.0,2.0\n")):
        path = tmp_path / f"lsq{unknowns}.csv"
        path.write_text(rows)
        specs.append(f"lsq:file={path}")
    for spec in specs:
        obj = parse_objective(spec)
        listed = any(fnmatch.fnmatchcase(obj.name, p) for p in patterns)
        assert listed == (inlined(obj.gradient) is not None), obj.name


def test_readme_inlined_prox_gammas_are_the_closed_forms():
    """The gammas whose 1-D power prox "Kernels" says is inlined are the
    keys of objectives._PROX_EXPRS, and each of those proxes is inlined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Kernels"):text.index("## Numerical notes")]
    listed = re.search(r"`power:gamma=G,dim=1` with G ([\d., or]+):", section).group(1)
    gammas = tuple(float(g) for g in re.split(r", | or ", listed))
    assert gammas == tuple(_PROX_EXPRS)
    assert all(inlined(make_power(g).prox) is _PROX_EXPRS[g] for g in gammas)
