"""Experiment configuration: JSON schema, parsing, validation, round-trip.

A config is one JSON object; rationals are written as ``"num/den"`` strings
or decimal literals and are normalized to canonical strings, so that
``load_config(serialize(config))`` is the identity.  The schema is documented
in the README.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import exact
from .clusters import check_delta
from .errors import DeltaOutOfRange, ParseError, SingularGenerators, ValidationError
from .lattice import LatticeBasis, new_lattice
from .spacetime import NLS, NLW, FrequencyParams

KINDS = ("cluster", "chains", "singular", "measure", "homological", "verify")

Fr = Fraction


def _rat_str(value, fieldname) -> str:
    return exact.format_rational(exact.parse_rational(value, fieldname))


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _int(value) -> int:
    # int() would truncate 2.5; a fractional count is refused
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _int_list(values) -> list:
    if not isinstance(values, list):
        raise TypeError(values)
    return [_int(v) for v in values]


def _bool(value) -> bool:
    # bool() would read any nonempty string, "false" too, as true
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


_EXPECTED = {_int: "an integer", float: "a number",
             _int_list: "a list of integers", _bool: "true or false",
             _str: "a string"}


def _cast(value, cast, field: str):
    """``cast(value)``; a value that ``cast`` refuses raises ParseError naming ``field``.

    A float must be finite: ``float`` reads ``NaN`` and ``Infinity``, which
    no float field means and every comparison would then pass or fail blindly.
    """
    try:
        result = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{field}: expected {_EXPECTED[cast]}, "
                         f"got {value!r}") from exc
    if isinstance(result, float) and not math.isfinite(result):
        raise ParseError(f"{field}: not a finite number")
    return result


def _known(raw: dict, fields, where: str) -> None:
    # a key the section does not read would be dropped without a word
    for key in raw:
        if key not in fields:
            raise ValidationError(f"{where}{key}: unknown field")


def _param(raw: dict, key: str, default, cast=_int, where="params."):
    """``cast`` of the field ``<where><key>``, or of ``default`` when absent.

    A key whose default is None is optional and may be null.
    """
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    return _cast(value, cast, f"{where}{key}")


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
            f["mass"], dio_ell_max=f.get("dio_ell_max", 0))


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
    return {"matrix": [[_rat_str(x, f"lattice.matrix[{i}][{j}]")
                        for j, x in enumerate(r)] for i, r in enumerate(matrix)]}


def _normalize_frequency(raw) -> dict:
    if not isinstance(raw, dict):
        raise ParseError("frequency: expected an object")
    for key in ("omega_bar", "gamma0", "tau0"):
        if key not in raw:
            raise ParseError(f"frequency.{key}: missing")
    if not isinstance(raw["omega_bar"], list):
        raise ParseError("frequency.omega_bar: expected a list of rationals, "
                         f"got {raw['omega_bar']!r}")
    out = {
        "omega_bar": [_rat_str(w, "frequency.omega_bar") for w in raw["omega_bar"]],
        "gamma0": _rat_str(raw["gamma0"], "frequency.gamma0"),
        "tau0": _rat_str(raw["tau0"], "frequency.tau0"),
        "lambda": _rat_str(raw.get("lambda", 1), "frequency.lambda"),
        "theta": _rat_str(raw.get("theta", 0), "frequency.theta"),
        "mass": _rat_str(raw.get("mass", 1), "frequency.mass"),
        "dio_ell_max": _param(raw, "dio_ell_max", 0, where="frequency."),
    }
    _known(raw, out, "frequency.")
    # surface range errors now, field by field
    try:
        FrequencyParams.create(out["omega_bar"], out["gamma0"], out["tau0"],
                               out["lambda"], out["theta"], out["mass"],
                               dio_ell_max=out["dio_ell_max"])
    except ValidationError as exc:
        raise ValidationError(f"frequency: {exc}") from exc
    return out


def _check_delta(out: dict, d: int) -> None:
    # clusters.check_delta is the one delta rule
    try:
        check_delta(d, out["delta"], not out["allow_delta_above_theorem"])
    except DeltaOutOfRange as exc:
        raise ValidationError(f"params.delta: {exc}") from exc


def _check_search(out: dict) -> None:
    _require(out["node_budget"] >= 1, "params.node_budget: must be >= 1")
    _require(out["length_cap"] is None or out["length_cap"] >= 1,
             "params.length_cap: must be >= 1 when given")


def _normalize_params(kind: str, raw: dict, d: int) -> dict:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ParseError(f"params: expected an object, got {raw!r}")
    if kind == "cluster":
        out = {
            "box_radius": _param(raw, "box_radius", 16),
            "delta": _rat_str(raw.get("delta", "1/100"), "params.delta"),
            "allow_delta_above_theorem": _param(
                raw, "allow_delta_above_theorem", False, _bool),
            "edges_csv": _param(raw, "edges_csv", False, _bool),
        }
        _require(out["box_radius"] >= 1, "params.box_radius: must be >= 1")
        _check_delta(out, d)
        return out
    if kind == "chains":
        out = {
            "box_radius": _param(raw, "box_radius", 50),
            "gammas": _param(raw, "gammas", [2, 4, 8], _int_list),
            "length_cap": _param(raw, "length_cap", None),
            "node_budget": _param(raw, "node_budget", 2_000_000),
        }
        _require(out["box_radius"] >= 1, "params.box_radius: must be >= 1")
        _require(out["gammas"], "params.gammas: must be nonempty")
        for g in out["gammas"]:
            _require(g >= 2, f"params.gammas: gamma {g} below 2")
        _check_search(out)
        return out
    if kind == "singular":
        out = {
            "symbol": raw.get("symbol", NLW),
            "ell_radius": _param(raw, "ell_radius", 20),
            "j_radius": _param(raw, "j_radius", 20),
            "gamma": _param(raw, "gamma", 2),
            "length_cap": _param(raw, "length_cap", None),
            "node_budget": _param(raw, "node_budget", 2_000_000),
            "exponent_bound": _param(raw, "exponent_bound", None, float),
        }
        _require(out["symbol"] in (NLW, NLS),
                 f"params.symbol: must be '{NLW}' or '{NLS}'")
        _require(out["gamma"] >= 2, "params.gamma: must be >= 2")
        _require(out["ell_radius"] >= 1 and out["j_radius"] >= 1,
                 "params.*_radius: must be >= 1")
        _check_search(out)
        return out
    if kind == "measure":
        grid = raw.get("gamma_grid")
        _require(isinstance(grid, list) and grid,
                 "params.gamma_grid: must be a nonempty list of rationals")
        out = {
            "g": _param(raw, "g", 2),
            "tau": _param(raw, "tau", 6),
            "p_max": _param(raw, "p_max", 2),
            "m_max": _param(raw, "m_max", 2),
            "gamma_grid": [_rat_str(x, "params.gamma_grid") for x in grid],
            "doublings": _param(raw, "doublings", 0),
        }
        for x in out["gamma_grid"]:
            _require(exact.parse_rational(x, "params.gamma_grid") > 0,
                     "params.gamma_grid: gammas must be positive")
        _require(out["g"] >= 1, "params.g: must be >= 1")
        _require(out["tau"] >= 0, "params.tau: must be >= 0")
        _require(out["p_max"] >= 0 and out["m_max"] >= 0,
                 "params.p_max/m_max: must be >= 0")
        return out
    if kind == "homological":
        out = {
            "box_radius": _param(raw, "box_radius", 16),
            "delta": _rat_str(raw.get("delta", "1/100"), "params.delta"),
            "allow_delta_above_theorem": _param(
                raw, "allow_delta_above_theorem", False, _bool),
            "entries": _param(raw, "entries", 200),
            "matrix_file": _param(raw, "matrix_file", None, _str),
            "partition_file": _param(raw, "partition_file", None, _str),
            "sigma": _param(raw, "sigma", 0.0, float),
            "decay_orders": _param(raw, "decay_orders", [1, 2, 4], _int_list),
        }
        _require(out["box_radius"] >= 1, "params.box_radius: must be >= 1")
        _require(out["entries"] >= 0, "params.entries: must be >= 0")
        _check_delta(out, d)
        return out
    if kind == "verify":
        out = {
            "trials_compound": _param(raw, "trials_compound", 40),
            "trials_cauchy_binet": _param(raw, "trials_cauchy_binet", 100),
            "trials_gram": _param(raw, "trials_gram", 100),
            "trials_chain_det": _param(raw, "trials_chain_det", 40),
            "d_min": _param(raw, "d_min", 2),
            "d_max": _param(raw, "d_max", 4),
            "n_max": _param(raw, "n_max", 3),
        }
        for key in ("trials_compound", "trials_cauchy_binet", "trials_gram",
                    "trials_chain_det"):
            _require(out[key] >= 0, f"params.{key}: must be >= 0")
        _require(1 <= out["d_min"] <= out["d_max"] <= 7,
                 "params.d_min/d_max: need 1 <= d_min <= d_max <= 7")
        _require(out["n_max"] >= 1, "params.n_max: must be >= 1")
        return out
    raise ValidationError(f"kind: unknown experiment kind {kind!r}")


def normalize(raw: dict) -> ExperimentConfig:
    """Validate a raw dict and fill defaults; raises ParseError/ValidationError."""
    if not isinstance(raw, dict):
        raise ParseError("config root must be a JSON object")
    _known(raw, ("kind", "seed", "out_dir", "cache", "lattice", "frequency",
                 "params"), "")
    kind = raw.get("kind")
    _require(kind in KINDS, f"kind: must be one of {', '.join(KINDS)}")
    lattice = _normalize_lattice(raw.get("lattice", {"matrix": [["1"]]}))
    d = len(lattice["matrix"])
    frequency = None
    if raw.get("frequency") is not None:
        frequency = _normalize_frequency(raw["frequency"])
    if kind in ("singular", "measure"):
        _require(frequency is not None, f"frequency: required for kind {kind!r}")
    params = _normalize_params(kind, raw.get("params", {}), d)
    _known(raw.get("params") or {}, params, "params.")
    config = ExperimentConfig(
        kind=kind,
        seed=_param(raw, "seed", 0, where=""),
        out_dir=str(raw.get("out_dir", ".")),
        cache=_param(raw, "cache", True, _bool, where=""),
        lattice=lattice,
        frequency=frequency,
        params=params,
    )
    try:
        config.basis()
    except SingularGenerators as exc:
        raise ValidationError(f"lattice.matrix: {exc}") from exc
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
