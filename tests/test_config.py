"""The config field tables: defaults, and refusals that name their field."""

import json

import pytest

from toruskit import config
from toruskit.cli import main
from toruskit.config import FREQUENCY, PARAMS, REQUIRED, normalize, serialize
from toruskit.errors import ParseError, ValidationError

FREQ = {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1}


def base(kind):
    """The least config of ``kind`` that normalizes, on the unit lattice."""
    raw = {"kind": kind, "lattice": {"matrix": [["1"]]}, "params": {}}
    if kind in ("singular", "measure"):
        raw["frequency"] = dict(FREQ)
    if kind == "measure":
        raw["params"]["gamma_grid"] = ["1/100"]
    return raw


# values of the wrong type for each cast; a bool is no number
WRONG_TYPE = {
    config._int: ["x", True, 2.5, [3]],
    config._float: ["wide", True],
    config._bool: ["no", 1],
    config._str: [3],
    config._rat: [[1], True, "1/0"],
    config._int_list: [4, [True], [2, "x"]],
    config._rat_list: ["1", [None]],
}
LISTS = (config._int_list, config._rat_list)
# a field no kind reads any more, after the field it followed in the table:
# a config that sets it is refused as unknown, naming it
RETIRED = {("chains", "gammas"): ("length_cap", (None, config._int, 1)),
           ("singular", "gamma"): ("length_cap", (None, config._int, 1))}


def _fields(kind, fields):
    for field, spec in fields.items():
        yield field, spec
        if (kind, field) in RETIRED:
            yield RETIRED[kind, field]


def _cases():
    sections = [(kind, "params", fields) for kind, fields in PARAMS.items()]
    sections.append(("singular", "frequency", FREQUENCY))
    for kind, section, fields in sections:
        for field, (_, cast, least) in _fields(kind, fields):
            path = f"{section}.{field}"
            values = list(WRONG_TYPE[cast])
            if least is not None:
                values.append([least - 1] if cast in LISTS else least - 1)
            if cast in LISTS:
                values.append([])
            for value in values:
                yield kind, path, value


CASES = list(_cases())


def _with(kind, path, value):
    raw = base(kind)
    section, field = path.split(".")
    raw[section][field] = value
    return raw


@pytest.mark.parametrize("kind, path, value", CASES,
                         ids=[f"{k}-{p}-{v!r}" for k, p, v in CASES])
def test_table_refusal_names_its_field(kind, path, value):
    with pytest.raises((ParseError, ValidationError)) as err:
        normalize(_with(kind, path, value))
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("kind, path", [
    ("measure", "params.gamma_grid"),
    *(("singular", f"frequency.{field}") for field, (default, _, _)
      in FREQUENCY.items() if default is REQUIRED),
])
def test_missing_required_field_names_it(kind, path):
    raw = base(kind)
    section, field = path.split(".")
    del raw[section][field]
    with pytest.raises(ParseError, match=f"^{path}: missing$"):
        normalize(raw)


@pytest.mark.parametrize("kind, path, value", CASES[::12],
                         ids=[f"{k}-{p}-{v!r}" for k, p, v in CASES[::12]])
def test_table_refusal_exits_two(tmp_path, capsys, kind, path, value):
    raw = dict(_with(kind, path, value), out_dir=str(tmp_path / "out"))
    file = tmp_path / "config.json"
    file.write_text(json.dumps(raw))
    assert main([kind, "--config", str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


FREQ_DEFAULTS = {"omega_bar": ["1"], "gamma0": "1/2", "tau0": "1",
                 "lambda": "1", "theta": "0", "mass": "1", "dio_ell_max": 0}
DEFAULTS = {
    "cluster": {"box_radius": 16, "delta": "1/100",
                "allow_delta_above_theorem": False, "edges_csv": False},
    "chains": {"box_radius": 50, "gammas": [2, 4, 8], "node_budget": 2000000},
    "singular": {"symbol": "nlw", "ell_radius": 20, "j_radius": 20,
                 "gamma": 2, "node_budget": 2000000, "exponent_bound": None},
    "measure": {"g": 2, "tau": 6, "p_max": 2, "m_max": 2,
                "gamma_grid": ["1/100"], "doublings": 0},
    "homological": {"box_radius": 16, "delta": "1/100",
                    "allow_delta_above_theorem": False, "entries": 200,
                    "matrix_file": None, "partition_file": None,
                    "sigma": 0.0, "decay_orders": [1, 2, 4]},
    "verify": {"trials_compound": 40, "trials_cauchy_binet": 100,
               "trials_gram": 100, "trials_chain_det": 40, "d_min": 2,
               "d_max": 4, "n_max": 3},
}


@pytest.mark.parametrize("kind", list(PARAMS))
def test_defaults_serialize_pinned(kind):
    # the key order is pinned too: the report body echoes the config
    want = {"kind": kind, "seed": 0, "out_dir": ".", "cache": True,
            "lattice": {"matrix": [["1"]]},
            "frequency": FREQ_DEFAULTS if kind in ("singular", "measure")
            else None,
            "params": DEFAULTS[kind]}
    assert json.dumps(serialize(normalize(base(kind)))) == json.dumps(want)
