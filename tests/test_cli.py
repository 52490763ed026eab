"""Command line interface: flags, exit codes, outputs."""

import json
import math
import subprocess
import sys

import pytest

from toruskit.cli import build_parser, main
from toruskit.config import normalize
from toruskit.errors import ValidationError
from toruskit.exact import parse_rational


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSKIT_CACHE", str(tmp_path / "cache"))
    yield


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"matrix": [["1", "0"], ["1/2", "1"]],
                                "mode": "exact"}))
    return path


@pytest.fixture
def freq_file(tmp_path):
    path = tmp_path / "freq.json"
    path.write_text(json.dumps({"omega_bar": ["1"], "gamma0": "1/2",
                                "tau0": 1, "lambda": "1", "theta": "0",
                                "mass": "1/2"}))
    return path


def test_cluster_subcommand_success(tmp_path, lattice_file, capsys):
    code = main(["cluster", "--lattice", str(lattice_file), "--radius", "6",
                 "--delta", "1/10", "--allow-delta-above-theorem",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] cross_cluster_separation" in out
    assert (tmp_path / "out" / "report-cluster.json").exists()


def test_bad_delta_is_usage_error(tmp_path, lattice_file, capsys):
    code = main(["cluster", "--lattice", str(lattice_file), "--radius", "4",
                 "--delta", "0.9", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "delta" in capsys.readouterr().err


def test_malformed_lattice_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [["3/", "0"], ["0", "1"]]}))
    code = main(["cluster", "--lattice", str(bad), "--radius", "4",
                 "--delta", "1/50", "--out-dir", str(tmp_path / "out")])
    assert code == 2


def test_failed_assertion_exits_one(tmp_path, lattice_file, freq_file, capsys):
    # an absurd exponent bound makes the chain-length check fail
    code = main(["singular", "--kind", "nlw", "--lattice", str(lattice_file),
                 "--freq", str(freq_file), "--box", "10,10", "--gamma", "2",
                 "--config", str(_singular_config(tmp_path, lattice_file,
                                                  freq_file)),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "[FAIL] chain_length_polynomial_bound" in capsys.readouterr().out


def _singular_config(tmp_path, lattice_file, freq_file):
    cfg = {
        "kind": "singular",
        "lattice": json.loads(lattice_file.read_text()),
        "frequency": json.loads(freq_file.read_text()),
        "params": {"symbol": "nlw", "ell_radius": 10, "j_radius": 10,
                   "gamma": 2, "exponent_bound": 0.1},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    return path


def test_report_out_flag_and_plot(tmp_path, lattice_file, capsys):
    out_report = tmp_path / "my-report.json"
    code = main(["chains", "--lattice", str(lattice_file), "--radius", "5",
                 "--gammas", "2,4", "--out-dir", str(tmp_path / "out"),
                 "--out", str(out_report), "--plot", "chain_scaling"])
    assert code == 0
    assert out_report.exists()
    payload = json.loads(out_report.read_text())
    assert payload["body"]["kind"] == "chains"
    assert (tmp_path / "out" / "chain_scaling.csv").exists()


def test_unknown_plot_series(tmp_path, lattice_file):
    code = main(["chains", "--lattice", str(lattice_file), "--radius", "4",
                 "--gammas", "2", "--out-dir", str(tmp_path / "out"),
                 "--plot", "nonsense"])
    assert code == 2


def test_verify_subcommand(tmp_path, capsys):
    code = main(["verify", "--trials", "4", "--dmin", "2", "--dmax", "3",
                 "--seed", "11", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] compound_inverse_identity" in out


def test_zero_trials_are_allowed(tmp_path, capsys):
    # a trial count of 0 runs no trial of that identity; below 0 exits 2
    code = main(["verify", "--trials", "0", "--dmax", "2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "[PASS] gram_determinant_minor_identity - 0 random" in (
        capsys.readouterr().out)


def test_measure_subcommand_grid(tmp_path, lattice_file, freq_file):
    code = main(["measure", "--lattice", str(lattice_file), "--freq",
                 str(freq_file), "--gamma-grid", "1/3000:1/30:4",
                 "--pmax", "1", "--mmax", "1", "--order", "2", "--tau", "6",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    csv = (tmp_path / "out" / "measure_curve.csv").read_text().splitlines()
    assert csv[0] == "gamma,excluded_measure"
    assert len(csv) == 5


def test_homological_subcommand(tmp_path, lattice_file):
    code = main(["homological", "--lattice", str(lattice_file), "--radius",
                 "6", "--delta", "1/10", "--allow-delta-above-theorem",
                 "--entries", "30", "--seed", "2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "matrix.json").exists()


def test_config_relative_partition_file(tmp_path, lattice_file,
                                        monkeypatch):
    cfg_dir = tmp_path / "cfg"
    assert main(["cluster", "--lattice", str(lattice_file), "--radius", "6",
                 "--delta", "1/10", "--allow-delta-above-theorem",
                 "--out-dir", str(cfg_dir)]) == 0
    config = cfg_dir / "config.json"
    config.write_text(json.dumps({
        "kind": "homological", "out_dir": str(tmp_path / "out"),
        "lattice": json.loads(lattice_file.read_text()),
        "params": {"box_radius": 6, "delta": "1/10",
                   "allow_delta_above_theorem": True, "entries": 30,
                   "partition_file": "partition.json"}}))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["homological", "--config", str(config)]) == 0


@pytest.mark.parametrize("flag, field, content", [
    ("--partition", "params.partition_file", {"clusters": []}),
    ("--matrix", "params.matrix_file", {"box_radius": 6, "d": 2}),
])
def test_malformed_homological_input_is_usage_error(tmp_path, lattice_file,
                                                    capsys, flag, field,
                                                    content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    code = main(["homological", "--lattice", str(lattice_file), "--radius",
                 "6", "--delta", "1/10", "--allow-delta-above-theorem",
                 "--entries", "30", flag, str(bad),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_partition_file_with_nan_delta_is_usage_error(tmp_path, lattice_file,
                                                      capsys):
    assert main(["cluster", "--lattice", str(lattice_file), "--radius", "6",
                 "--delta", "1/10", "--allow-delta-above-theorem",
                 "--out-dir", str(tmp_path / "cl")]) == 0
    part = json.loads((tmp_path / "cl" / "partition.json").read_text())
    part["delta"] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(part))
    code = main(["homological", "--lattice", str(lattice_file), "--radius",
                 "6", "--delta", "1/10", "--allow-delta-above-theorem",
                 "--entries", "30", "--partition", str(bad),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "params.partition_file" in err and "Traceback" not in err


def _partition_file(tmp_path, lattice_file, edit):
    # a radius-2 partition.json from `cluster`, edited by ``edit``
    assert main(["cluster", "--lattice", str(lattice_file), "--radius", "2",
                 "--delta", "1/10", "--allow-delta-above-theorem",
                 "--no-cache", "--out-dir", str(tmp_path / "cl")]) == 0
    part = json.loads((tmp_path / "cl" / "partition.json").read_text())
    edit(part)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(part))
    return path


def _homological_on(tmp_path, lattice_file, radius, *flags):
    return main(["homological", "--lattice", str(lattice_file), "--radius",
                 str(radius), "--delta", "1/10", "--allow-delta-above-theorem",
                 "--entries", "10", "--no-cache", *flags,
                 "--out-dir", str(tmp_path / "out")])


def test_partition_file_listing_a_site_twice_is_usage_error(
        tmp_path, lattice_file, capsys):
    def duplicate(part):
        # the member count stays that of the box
        part["clusters"][1]["members"][0] = part["clusters"][0]["members"][0]

    path = _partition_file(tmp_path, lattice_file, duplicate)
    code = _homological_on(tmp_path, lattice_file, 2, "--partition", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.partition_file: {path}" in err and "Traceback" not in err
    assert "is listed twice" in err


def test_partition_file_with_a_fractional_member_is_usage_error(
        tmp_path, lattice_file, capsys):
    def halve(part):
        part["clusters"][0]["members"][0][0] = 0.5

    path = _partition_file(tmp_path, lattice_file, halve)
    code = _homological_on(tmp_path, lattice_file, 2, "--partition", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.partition_file: {path}" in err and "Traceback" not in err
    assert "clusters[0].members[0]: [0.5, -2] has a non-integer coordinate" in err


def test_partition_file_leaving_a_matrix_site_out_is_usage_error(
        tmp_path, lattice_file, capsys):
    def uncover(part):
        for rec in part["clusters"]:
            if [0, 0] in rec["members"]:
                rec["members"].remove([0, 0])

    path = _partition_file(tmp_path, lattice_file, uncover)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"box_radius": 2, "d": 2, "entries": [
        {"j": [0, 0], "j_prime": [2, 1], "re": "1", "im": "0"}]}))
    code = _homological_on(tmp_path, lattice_file, 2, "--partition", str(path),
                           "--matrix", str(matrix))
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.partition_file: {path}" in err and "Traceback" not in err
    assert "clusters: 24 sites, not one per site of [-2, 2]^2" in err


def test_partition_file_with_a_huge_box_radius_is_usage_error(
        tmp_path, lattice_file, capsys):
    # the member count is compared with the box before a box is allocated
    def widen(part):
        part["box_radius"] = 10**9

    path = _partition_file(tmp_path, lattice_file, widen)
    code = _homological_on(tmp_path, lattice_file, 2, "--partition", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.partition_file: {path}" in err and "Traceback" not in err
    assert "25 sites, not one per site of [-1000000000, 1000000000]^2" in err


def test_partition_file_of_another_dimension_is_usage_error(
        tmp_path, lattice_file, capsys):
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"matrix": [["1"]]}))
    path = _partition_file(tmp_path, line, lambda part: None)
    code = _homological_on(tmp_path, lattice_file, 2, "--partition", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.partition_file: {path}: d 1 is not the lattice's 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("radius, edit, message", [
    (3, lambda part: None, "box_radius 2 is not the config's 3"),
    (2, lambda part: part.update(delta="1/20"),
     "delta 1/20 is not the config's 1/10"),
], ids=["radius", "delta"])
def test_partition_file_of_another_box_is_usage_error(
        tmp_path, lattice_file, capsys, radius, edit, message):
    # the report would echo the config's radius and delta while the
    # clusters and matrix.json came from the file's
    path = _partition_file(tmp_path, lattice_file, edit)
    code = _homological_on(tmp_path, lattice_file, radius, "--partition",
                           str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.partition_file: {path}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change, field", [
    ({"box_radius": 7}, "box_radius"),
    ({"d": 3}, "d"),
    ({"entries": [{"j": [0, 0], "j_prime": [9, 3], "re": "1", "im": "0"}]},
     "entries[0].j_prime"),
    ({"entries": [{"j": [1, 0, 0], "j_prime": [0, 1], "re": "1", "im": "0"}]},
     "entries[0].j"),
], ids=["box_radius", "d", "j_prime_outside_box", "j_wrong_length"])
def test_matrix_file_off_the_partition_box_names_its_field(
        tmp_path, lattice_file, capsys, change, field):
    matrix = {"box_radius": 6, "d": 2,
              "entries": [{"j": [0, 0], "j_prime": [1, 0], "re": "1",
                           "im": "0"}], **change}
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    code = main(["homological", "--lattice", str(lattice_file), "--radius",
                 "6", "--delta", "1/10", "--allow-delta-above-theorem",
                 "--no-cache", "--matrix", str(path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.matrix_file: {path}" in err
    assert f"ParseError: {field}:" in err


@pytest.mark.parametrize("field, value", [
    ("box_radius", True), ("box_radius", 1.0), ("d", True), ("d", 1.0),
], ids=["box_radius_true", "box_radius_float", "d_true", "d_float"])
def test_matrix_file_box_that_is_no_int_is_usage_error(tmp_path, capsys,
                                                       field, value):
    # true == 1 and 1.0 == 1, so the radius-1 box of the unit lattice is the
    # one where such a value would pass for the partition's
    matrix = {"box_radius": 1, "d": 1,
              "entries": [{"j": [-1], "j_prime": [1], "re": "1", "im": "0"}],
              field: value}
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    code = main(["homological", "--radius", "1", "--delta", "1/10",
                 "--allow-delta-above-theorem", "--no-cache",
                 "--matrix", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"params.matrix_file: {path}" in err
    assert f"ParseError: {field}: {value!r} does not match" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, case):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b'{"kind": "cluster\xff"}')
    code = main(["cluster", "--config", str(path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--threads", "2", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "toruskit.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cluster" in proc.stdout and "measure" in proc.stdout


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_floating_homological_is_usage_error(tmp_path, capsys):
    lattice = tmp_path / "floating.json"
    lattice.write_text(json.dumps({"matrix": [[1.0, 0.37], [0.0, 1.21]],
                                   "mode": "floating"}))
    code = main(["homological", "--lattice", str(lattice), "--radius", "4",
                 "--delta", "1/10", "--allow-delta-above-theorem",
                 "--entries", "10", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "lattice.mode" in err and "Traceback" not in err


# "floating": the entries typed as floats, whose decimals are singular too
@pytest.mark.parametrize("entries, matrix", [
    ("exact", [["1", "2"], ["1/2", "1"]]),
    ("floating", [[1.0, 2.0], [0.5, 1.0]]),
])
def test_singular_lattice_is_usage_error(tmp_path, capsys, entries, matrix):
    lattice = tmp_path / "singular.json"
    lattice.write_text(json.dumps({"matrix": matrix}))
    code = main(["cluster", "--lattice", str(lattice), "--radius", "3",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "lattice.matrix: generator matrix" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["cluster", "homological"])
def test_long_decimal_delta_is_refused(kind):
    # 0.012345678 = 6172839/500000000 is inside the theorem range for d = 2,
    # but its threshold tables would take q-th roots with q = 5 * 10**8
    with pytest.raises(ValidationError,
                       match=r"params\.delta: .*denominator above 10000"):
        normalize({"kind": kind,
                   "lattice": {"matrix": [["1", "0"], ["1/2", "1"]]},
                   "params": {"delta": "0.012345678"}})


@pytest.mark.parametrize("kind, key, value, error", [
    ("singular", "node_budget", "abc", "expected an integer"),
    ("singular", "node_budget", None, "expected an integer"),
    ("singular", "node_budget", 0, "must be >= 1"),
    # the field is gone, so the search is cut by node_budget only; the null
    # that reports used to echo is refused too
    ("singular", "length_cap", 5, "unknown field"),
    ("singular", "length_cap", None, "unknown field"),
    ("singular", "exponent_bound", "big", "expected a number"),
    ("chains", "node_budget", 2.5, "expected an integer"),
    ("chains", "length_cap", 5, "unknown field"),
    ("chains", "gammas", 4, "expected a list of integers"),
    ("chains", "gammas", [2, "x"], "expected a list of integers"),
    ("cluster", "box_radius", [3], "expected an integer"),
    ("homological", "sigma", "wide", "expected a number"),
    ("verify", "d_max", float("inf"), "expected an integer"),
    ("cluster", "cache", "false", "expected true or false"),
    ("cluster", "edges_csv", "no", "expected true or false"),
    ("cluster", "allow_delta_above_theorem", "no", "expected true or false"),
    ("homological", "matrix_file", 3, "expected a string"),
    ("homological", "partition_file", ["p.json"], "expected a string"),
    ("singular", "frequency.omega_bar", 1, "expected a list of rationals"),
    ("verify", "n_max", 0, "must be >= 1"),
    ("verify", "n_max", -2, "must be >= 1"),
    ("verify", "trials_compound", -1, "must be >= 0"),
    ("verify", "trials_cauchy_binet", -1, "must be >= 0"),
    ("verify", "trials_gram", -5, "must be >= 0"),
    ("verify", "trials_chain_det", -1, "must be >= 0"),
    # each ran at exit 0 or 1, or named no field path
    ("homological", "decay_orders", [], "must be nonempty"),
    ("measure", "doublings", -1, "must be >= 0"),
    ("singular", "ell_radius", 0, "must be >= 1"),
    ("singular", "j_radius", 0, "must be >= 1"),
    ("measure", "p_max", -1, "must be >= 0"),
    ("measure", "m_max", -1, "must be >= 0"),
    ("verify", "d_min", 0, "must be >= 1"),
    ("verify", "d_min", 5, "must be <= d_max = 4"),
    ("verify", "d_max", 8, "must be <= 7"),
    ("singular", "frequency.omega_bar", [], "must be nonempty"),
    ("singular", "frequency.dio_ell_max", -3, "must be >= 0"),
    ("cluster", "box_radius", True, "expected an integer"),
    ("chains", "gammas", [True, 4], "expected a list of integers"),
    ("measure", "g", 3, "must be <= d + 1 = 2"),
    ("measure", "gamma_grid", ["1/100", "1/2"], "gamma 1/2 outside (0, 1/4]"),
    ("singular", "frequency.lambda", "1.50000000000000000001",
     "must lie in [1/2, 3/2]"),
])
def test_bad_numeric_param_is_usage_error(tmp_path, capsys, kind, key, value,
                                          error):
    # ``key`` is a params field unless it is the top-level cache or dotted
    field = key if key == "cache" or "." in key else f"params.{key}"
    raw = {"kind": kind, "out_dir": str(tmp_path / "out"),
           "lattice": {"matrix": [["1"]]}, "params": {}}
    if kind in ("singular", "measure"):
        raw["frequency"] = {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1}
    if kind == "measure":
        raw["params"]["gamma_grid"] = ["1/100"]
    if kind in ("cluster", "homological"):
        # delta 1/10 is above delta_max(1), so it needs the override
        raw["params"].update(delta="1/10", allow_delta_above_theorem=True)
    section, _, name = field.rpartition(".")
    (raw[section] if section else raw)[name] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = main([kind, "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {field}: {error}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_params_not_an_object_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "cluster", "params": [1, 2]}))
    code = main(["cluster", "--config", str(config),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "params: expected an object" in err and "Traceback" not in err


@pytest.mark.parametrize("lattice, field", [
    ({"matrix": [[1.0, "a"], [0, 1]]}, "lattice.matrix[0][1]"),
    ({"matrix": [[1.0, 0], [None, 1]]}, "lattice.matrix[1][0]"),
    # tolerance was a field of the floating mode, which is gone
    ({"matrix": [[1.0, 0], [0, 1]], "mode": "floating", "tolerance": "tight"},
     "lattice.tolerance"),
    ({"matrix": [["1", "0"], ["0", "1"]], "tolerance": None},
     "lattice.tolerance"),
    ({"matrix": [[1.0, 0], [0, 1]], "mode": "floating"}, "lattice.mode"),
])
def test_bad_lattice_number_is_usage_error(tmp_path, capsys, lattice, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "cluster", "lattice": lattice,
                                  "params": {"box_radius": 3}}))
    code = main(["cluster", "--config", str(config),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {field}: " in err and "Traceback" not in err


@pytest.mark.parametrize("raw, field", [
    ({"kind": "singular",
      "frequency": {"omega_bar": ["1"], "gamma0": math.nan, "tau0": 1},
      "params": {"ell_radius": 2, "j_radius": 2}}, "frequency.gamma0"),
    ({"kind": "cluster", "lattice": {"matrix": [[1, 0], [0, math.inf]]},
      "params": {"box_radius": 3}}, "lattice.matrix[1][1]"),
])
def test_non_finite_rational_is_usage_error(tmp_path, capsys, raw, field):
    # Python's json writes and reads NaN and Infinity
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = main([raw["kind"], "--config", str(config),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{field}: not a finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("raw, field", [
    ({"kind": "cluster",
      "lattice": {"matrix": [[1.0, 0.0], [0.0, math.nan]]},
      "params": {"box_radius": 3}}, "lattice.matrix[1][1]"),
    ({"kind": "cluster",
      "lattice": {"matrix": [[-math.inf, 0.0], [0.0, 1.0]]},
      "params": {"box_radius": 3}}, "lattice.matrix[0][0]"),
    ({"kind": "homological", "lattice": {"matrix": [["1"]]},
      "params": {"box_radius": 3, "entries": 5, "sigma": math.nan}},
     "params.sigma"),
    ({"kind": "singular",
      "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1},
      "params": {"ell_radius": 2, "j_radius": 2,
                 "exponent_bound": math.inf}}, "params.exponent_bound"),
])
def test_non_finite_float_is_usage_error(tmp_path, capsys, raw, field):
    # float() reads NaN and Infinity; a float field refuses both
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = main([raw["kind"], "--config", str(config),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{field}: not a finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["chains", "--gammas", "2,x"], "--gammas"),
    (["singular", "--box", "40"], "--box"),
    (["singular", "--box", "4,x"], "--box"),
    (["measure", "--gamma-grid", "1/0:1:3"], "--gamma-grid"),
    (["measure", "--gamma-grid", "a:b:3"], "--gamma-grid"),
    (["measure", "--gamma-grid", "1:2:x"], "--gamma-grid"),
    (["measure", "--gamma-grid", "1.5/2:1:3"], "--gamma-grid"),
    (["measure", "--gamma-grid", "2:1:3"], "--gamma-grid"),
    (["measure", "--gamma-grid", "1:2:1"], "--gamma-grid"),
    (["verify", "--trials", "x"], "--trials"),
    (["cluster", "--radius", "x"], "--radius"),
])
def test_malformed_flag_value_is_usage_error(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("end", ["1/3000", "1/30", "0.03", "1/7", "2.5",
                                 "3", "22/7", "1e-3"])
def test_gamma_grid_ends_give_the_same_floats(end):
    # the ends were once read as float(num) / float(den) or float(text);
    # an exact rational rounded once gives the same float, so the points
    # between the ends, the only floats of the grid, are those of then
    def old(text):
        if "/" in text:
            num, den = text.split("/")
            return float(num) / float(den)
        return float(text)

    lo = old("1/10000")
    assert float(parse_rational(end, "end")) == old(end)
    ratio = (old(end) / lo) ** (1.0 / 3)
    args = build_parser().parse_args(["measure", "--gamma-grid",
                                      f"1/10000:{end}:4"])
    assert vars(args)["params.gamma_grid"] == [
        "1/10000", repr(lo * ratio), repr(lo * ratio**2), end]


@pytest.mark.parametrize("spec, first, last", [
    ("1/1000:1/10:9", "1/1000", "1/10"),
    ("1/3000:1/30:4", "1/3000", "1/30"),
    ("0.001:0.1:2", "1/1000", "1/10"),
])
def test_gamma_grid_ends_are_exact_as_typed(tmp_path, lattice_file, freq_file,
                                            spec, first, last):
    out = tmp_path / "out"
    assert main(["measure", "--lattice", str(lattice_file), "--freq",
                 str(freq_file), "--gamma-grid", spec, "--pmax", "1",
                 "--mmax", "1", "--order", "2", "--tau", "6",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "report-measure.json").read_text())
    exact = [row["gamma_exact"] for row in report["body"]["data"]["curve"]]
    assert (exact[0], exact[-1]) == (first, last)
    assert len(exact) == int(spec.rsplit(":", 1)[1])


def test_config_plus_flags_match_the_equivalent_config(tmp_path, lattice_file,
                                                       freq_file):
    base = json.loads(_singular_config(tmp_path, lattice_file,
                                       freq_file).read_text())
    base["params"].pop("exponent_bound")
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base))
    equivalent = dict(base, seed=3, cache=False,
                      out_dir=str(tmp_path / "by-config"),
                      params=dict(base["params"], ell_radius=8, j_radius=7))
    equivalent_path = tmp_path / "equivalent.json"
    equivalent_path.write_text(json.dumps(equivalent))

    assert main(["--seed", "3", "singular", "--config", str(base_path),
                 "--box", "8,7", "--no-cache",
                 "--out-dir", str(tmp_path / "by-flags")]) == 0
    assert main(["singular", "--config", str(equivalent_path)]) == 0

    def body(name):
        out = tmp_path / name
        report = json.loads((out / "report-singular.json").read_text())
        report["body"]["config"].pop("out_dir")
        return report["body"], (out / "singular_chains.csv").read_bytes()

    flags, config = body("by-flags"), body("by-config")
    assert flags == config
    assert flags[0]["config"]["cache"] is False
    assert flags[0]["config"]["params"]["ell_radius"] == 8
    assert not (tmp_path / "cache").exists()


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    code = main(["verify", "--trials", "1", "--dmax", "2",
                 "--out", str(target), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--out: cannot write {target}" in err and "Traceback" not in err
    assert list(target.iterdir()) == []
    assert not list(tmp_path.glob(".tmp-*"))


def test_out_dir_naming_a_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("kept")
    code = main(["verify", "--trials", "1", "--dmax", "2",
                 "--out-dir", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"out_dir: cannot create {target}" in err and "Traceback" not in err
    assert target.read_text() == "kept"


@pytest.mark.parametrize("value", [None, 3])
def test_out_dir_that_is_not_a_string_is_usage_error(tmp_path, capsys,
                                                     monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "verify", "out_dir": value}))
    code = main(["verify", "--config", str(config), "--trials", "1",
                 "--dmax", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: out_dir: expected a string, got {value!r}" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_theta_on_a_frequency_file_that_is_not_an_object(tmp_path,
                                                          lattice_file,
                                                          capsys):
    freq = tmp_path / "freq.json"
    freq.write_text("[1, 2]")
    code = main(["singular", "--lattice", str(lattice_file), "--freq",
                 str(freq), "--theta", "1/3", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "frequency: expected an object" in err and "Traceback" not in err


@pytest.mark.parametrize("field, section", [
    ("paramz", {"paramz": {"box_radius": 4}}),
    ("lattice.mod", {"lattice": {"matrix": [["1"]], "mod": "floating"}}),
    ("frequency.mas", {"frequency": {"omega_bar": ["1"], "gamma0": "1/2",
                                     "tau0": 1, "mas": "1/3"}}),
    ("params.box_radus", {"params": {"box_radus": 4}}),
    ("lattice.tolerance", {"lattice": {"matrix": [["1"]], "tolerance": 1e-9}}),
], ids=["top", "lattice", "frequency", "params", "lattice-tolerance"])
def test_unknown_config_field_is_usage_error(tmp_path, capsys, field, section):
    # each misspelling ran with the section's default at exit 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "cluster",
                                  "out_dir": str(tmp_path / "out"), **section}))
    assert main(["cluster", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: unknown field" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_of_another_kind_is_usage_error(tmp_path, capsys):
    # a cluster config's params are not the fields a homological run reads
    config = tmp_path / "cluster.json"
    config.write_text(json.dumps({"kind": "cluster",
                                  "params": {"box_radius": 4, "delta": "1/10",
                                             "allow_delta_above_theorem": True}}))
    assert main(["homological", "--config", str(config),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "params.edges_csv: unknown field" in capsys.readouterr().err


def test_floating_singular_run_replays_its_sites(tmp_path, capsys):
    # a float scan once kept site ell=(-5,), j=(0,0), a=1 on the edge
    # rho = 2/3, which a float replay of the symbol rounded onto
    # |symbol| = 1; the float entries are now read as their decimals
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"matrix": [
        [0.6301449849816195, -0.2964506960608932],
        [0.0, 1.0870110707497045]]}))
    freq = tmp_path / "freq.json"
    freq.write_text(json.dumps({"omega_bar": ["1/9"], "gamma0": "1/100",
                                "tau0": 1, "lambda": "3/2", "theta": "1/2",
                                "mass": "2/3"}))
    code = main(["singular", "--kind", "nls", "--box", "6,6", "--gamma", "2",
                 "--no-cache", "--lattice", str(lattice), "--freq", str(freq),
                 "--out-dir", str(tmp_path / "out")])
    assert "[PASS] singular_chains_replay" in capsys.readouterr().out
    assert code == 0
