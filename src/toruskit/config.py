"""Experiment configuration: JSON schema, parsing, validation, round-trip.

A config is one JSON object; rationals are written as ``"num/den"`` strings
or decimal literals and are normalized to canonical strings, so that
``load_config(serialize(config))`` is the identity.  The fields of each
kind's ``params`` and of ``frequency`` are the tables :data:`PARAMS` and
:data:`FREQUENCY`; the schema is documented in the README.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import exact
from .clusters import check_delta
from .errors import DeltaOutOfRange, ParseError, SingularGenerators, ValidationError
from .lattice import LatticeBasis, new_lattice
from .spacetime import NLS, NLW, FrequencyParams, compound_floor


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _int(value) -> int:
    # int() would read true as 1 and truncate 2.5; both are refused
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise TypeError(value)
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _exactly(cls):
    # bool() would read any nonempty string, "false" too, as true
    def read(value):
        if not isinstance(value, cls):
            raise TypeError(value)
        return value
    return read


def _rat(value) -> str:
    return exact.format_rational(exact.parse_rational(value))


def _list_of(cast):
    def read(values) -> list:
        if not isinstance(values, list):
            raise TypeError(values)
        return [cast(v) for v in values]
    return read


_bool, _str = _exactly(bool), _exactly(str)
_int_list, _rat_list = _list_of(_int), _list_of(_rat)

_EXPECTED = {_int: "an integer", _float: "a number", _bool: "true or false",
             _str: "a string", _rat: "a rational",
             _int_list: "a list of integers", _rat_list: "a list of rationals"}


def _cast(value, cast, field: str):
    """``cast(value)``; a value that ``cast`` refuses raises ParseError naming ``field``.

    A float must be finite: ``float`` reads ``NaN`` and ``Infinity``, which
    no float field means and every comparison would then pass or fail blindly.
    """
    try:
        result = cast(value)
    except ParseError as exc:
        # exact.parse_rational's reason, under the field's name
        raise ParseError(f"{field}:{str(exc).partition(':')[2]}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{field}: expected {_EXPECTED[cast]}, "
                         f"got {value!r}") from exc
    if isinstance(result, float) and not math.isfinite(result):
        raise ParseError(f"{field}: not a finite number")
    return result


# The field tables, field -> (default, cast, least).  A None default makes
# the field optional and nullable, REQUIRED makes it required, and least
# bounds an integer, or each entry of a list, from below.
REQUIRED = object()

PARAMS = {
    "cluster": {
        "box_radius": (16, _int, 1),
        "delta": ("1/100", _rat, None),
        "allow_delta_above_theorem": (False, _bool, None),
        "edges_csv": (False, _bool, None),
    },
    "chains": {
        "box_radius": (50, _int, 1),
        "gammas": ([2, 4, 8], _int_list, 2),
        "node_budget": (2_000_000, _int, 1),
    },
    "singular": {
        "symbol": (NLW, _str, None),
        "ell_radius": (20, _int, 1),
        "j_radius": (20, _int, 1),
        "gamma": (2, _int, 2),
        "node_budget": (2_000_000, _int, 1),
        "exponent_bound": (None, _float, None),
    },
    "measure": {
        "g": (2, _int, 1),
        "tau": (6, _int, 0),
        "p_max": (2, _int, 0),
        "m_max": (2, _int, 0),
        "gamma_grid": (REQUIRED, _rat_list, None),
        "doublings": (0, _int, 0),
    },
    "homological": {
        "box_radius": (16, _int, 1),
        "delta": ("1/100", _rat, None),
        "allow_delta_above_theorem": (False, _bool, None),
        "entries": (200, _int, 0),
        "matrix_file": (None, _str, None),
        "partition_file": (None, _str, None),
        "sigma": (0.0, _float, None),
        "decay_orders": ([1, 2, 4], _int_list, 0),
    },
    "verify": {
        "trials_compound": (40, _int, 0),
        "trials_cauchy_binet": (100, _int, 0),
        "trials_gram": (100, _int, 0),
        "trials_chain_det": (40, _int, 0),
        "d_min": (2, _int, 1),
        "d_max": (4, _int, 1),
        "n_max": (3, _int, 1),
    },
}

FREQUENCY = {
    "omega_bar": (REQUIRED, _rat_list, None),
    "gamma0": (REQUIRED, _rat, None),
    "tau0": (REQUIRED, _rat, None),
    "lambda": (1, _rat, None),
    "theta": (0, _rat, None),
    "mass": (1, _rat, None),
    "dio_ell_max": (0, _int, 0),
}

KINDS = tuple(PARAMS)


def _known(raw: dict, fields, where: str) -> None:
    # a key the section does not read would be dropped without a word
    for key in raw:
        if key not in fields:
            raise ValidationError(f"{where}{key}: unknown field")


def _section(raw, fields: dict, where: str) -> dict:
    """The section ``where`` read by its field table; each refusal names
    ``<where>.<field>``, and a list must be nonempty."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object, got {raw!r}")
    _known(raw, fields, f"{where}.")
    out = {}
    for key, (default, cast, least) in fields.items():
        path = f"{where}.{key}"
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ParseError(f"{path}: missing")
        if value is None and default is None:
            out[key] = None
            continue
        out[key] = value = _cast(value, cast, path)
        entries = value if isinstance(value, list) else [value]
        _require(entries, f"{path}: must be nonempty")
        if least is not None:
            for x in entries:
                _require(x >= least, f"{path}: must be >= {least}, got {x}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    out_dir: str
    cache: bool
    lattice: dict
    frequency: dict | None
    params: dict

    def basis(self) -> LatticeBasis:
        return new_lattice(self.lattice["matrix"])

    def freq(self) -> FrequencyParams:
        if self.frequency is None:
            raise ValidationError(f"kind {self.kind!r} needs a frequency block")
        f = self.frequency
        return FrequencyParams.create(
            f["omega_bar"], f["gamma0"], f["tau0"], f["lambda"], f["theta"],
            f["mass"], dio_ell_max=f["dio_ell_max"])


def _normalize_lattice(raw) -> dict:
    if not isinstance(raw, dict) or "matrix" not in raw:
        raise ParseError("lattice: expected an object with a 'matrix' field")
    _known(raw, ("matrix", "mode"), "lattice.")
    matrix = raw["matrix"]
    if (not isinstance(matrix, list) or not matrix
            or any(not isinstance(r, list) or len(r) != len(matrix) for r in matrix)):
        raise ValidationError("lattice.matrix: must be a square row-major list")
    # "exact" is the one mode, still accepted so older lattice files run
    mode = raw.get("mode", "exact")
    _require(mode == "exact", f"lattice.mode: unknown mode {mode!r}; every "
             "lattice is exact, a float entry read as its decimal")
    return {"matrix": [[_cast(x, _rat, f"lattice.matrix[{i}][{j}]")
                        for j, x in enumerate(r)] for i, r in enumerate(matrix)]}


def _normalize_params(kind: str, raw, basis: LatticeBasis) -> dict:
    out = _section({} if raw is None else raw, PARAMS[kind], "params")
    # the rules between fields, and against the lattice
    d = basis.d
    if "delta" in out:
        # clusters.check_delta is the one delta rule
        try:
            check_delta(d, out["delta"], not out["allow_delta_above_theorem"])
        except DeltaOutOfRange as exc:
            raise ValidationError(f"params.delta: {exc}") from exc
    if kind == "singular":
        _require(out["symbol"] in (NLW, NLS),
                 f"params.symbol: must be '{NLW}' or '{NLS}'")
    elif kind == "measure":
        _require(out["g"] <= d + 1, f"params.g: must be <= d + 1 = {d + 1}")
        # the range of spacetime.excluded_lambda_measure
        top = compound_floor(basis) / 4
        for x in out["gamma_grid"]:
            _require(0 < exact.parse_rational(x) <= top,
                     f"params.gamma_grid: gamma {x} outside (0, {top}], "
                     "a quarter of the compound floor")
    elif kind == "verify":
        _require(out["d_min"] <= out["d_max"],
                 f"params.d_min: must be <= d_max = {out['d_max']}")
        _require(out["d_max"] <= 7, "params.d_max: must be <= 7")
    return out


def normalize(raw: dict) -> ExperimentConfig:
    """Validate a raw dict and fill defaults; raises ParseError/ValidationError."""
    if not isinstance(raw, dict):
        raise ParseError("config root must be a JSON object")
    _known(raw, ("kind", "seed", "out_dir", "cache", "lattice", "frequency",
                 "params"), "")
    kind = raw.get("kind")
    _require(kind in KINDS, f"kind: must be one of {', '.join(KINDS)}")
    lattice = _normalize_lattice(raw.get("lattice", {"matrix": [["1"]]}))
    try:
        basis = new_lattice(lattice["matrix"])
    except SingularGenerators as exc:
        raise ValidationError(f"lattice.matrix: {exc}") from exc
    frequency = raw.get("frequency")
    if frequency is not None:
        frequency = _section(frequency, FREQUENCY, "frequency")
    elif kind in ("singular", "measure"):
        raise ValidationError(f"frequency: required for kind {kind!r}")
    config = ExperimentConfig(
        kind=kind,
        seed=_cast(raw.get("seed", 0), _int, "seed"),
        out_dir=_cast(raw.get("out_dir", "."), _str, "out_dir"),
        cache=_cast(raw.get("cache", True), _bool, "cache"),
        lattice=lattice,
        frequency=frequency,
        params=_normalize_params(kind, raw.get("params"), basis),
    )
    if frequency is not None:
        # the range rules of FrequencyParams; each message leads with its field
        try:
            config.freq()
        except ValidationError as exc:
            raise ValidationError(f"frequency.{exc}") from exc
    return config


def read_json(path, what):
    """Load a JSON data file.

    A missing, unreadable or non-UTF-8 file, a directory, or malformed JSON
    raises ParseError naming ``what`` and the path.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{what}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: {path}: {exc.msg} at line {exc.lineno}, "
                         f"column {exc.colno}") from exc


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file."""
    config = normalize(read_json(path, "config"))
    # referenced files must exist; config-relative references are stored resolved
    base = Path(path).parent
    for name in ("matrix_file", "partition_file"):
        ref = config.params.get(name)
        if ref is not None and (base / ref).exists():
            config.params[name] = str(base / ref)
        elif ref is not None and not Path(ref).exists():
            raise ValidationError(f"params.{name}: file {ref!r} does not exist")
    return config


def serialize(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "seed": config.seed,
        "out_dir": config.out_dir,
        "cache": config.cache,
        "lattice": config.lattice,
        "frequency": config.frequency,
        "params": config.params,
    }
