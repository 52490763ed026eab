"""Config loading/validation, experiment runs, caching, reports, plot data."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toruskit import search
from toruskit.cli import _assemble, build_parser
from toruskit.config import load_config, normalize, serialize
from toruskit.errors import ParseError, UnknownSeries, ValidationError
from toruskit.runner import (
    atomic_write_json,
    atomic_write_text,
    cache_dir,
    emit_plot_data,
    run_experiment,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSKIT_CACHE", str(tmp_path / "cache"))
    yield


def minimal_cluster(tmp_path, **overrides):
    raw = {
        "kind": "cluster",
        "out_dir": str(tmp_path / "out"),
        "lattice": {"matrix": [["1"]]},
        "params": {"box_radius": 10, "delta": "1/20"},
    }
    raw.update(overrides)
    return raw


def minimal_homological(tmp_path):
    # the one kind that consults the partition cache
    return minimal_cluster(tmp_path, kind="homological",
                           params={"box_radius": 10, "delta": "1/20",
                                   "entries": 20})


def test_minimal_config_fills_defaults(tmp_path):
    cfg = normalize(minimal_cluster(tmp_path))
    assert cfg.seed == 0
    assert cfg.cache is True
    assert cfg.params["allow_delta_above_theorem"] is False


def test_delta_validation_rejects_above_bound(tmp_path):
    raw = minimal_cluster(tmp_path)
    raw["lattice"] = {"matrix": [["1", "0"], ["0", "1"]]}
    raw["params"] = {"box_radius": 4, "delta": "9/10"}
    with pytest.raises(ValidationError) as err:
        normalize(raw)
    assert "1/42" in str(err.value)


def test_malformed_rational_is_parse_error(tmp_path):
    raw = minimal_cluster(tmp_path)
    raw["params"]["delta"] = "3/"
    with pytest.raises(ParseError):
        normalize(raw)


def test_config_file_round_trip(tmp_path):
    cfg = normalize(minimal_cluster(tmp_path, seed=7))
    path = tmp_path / "config.json"
    atomic_write_json(path, serialize(cfg))
    again = load_config(path)
    assert serialize(again) == serialize(cfg)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ nope }")
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert "line" in str(err.value)


def test_missing_referenced_file(tmp_path):
    raw = {
        "kind": "homological",
        "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
        "params": {"box_radius": 4, "delta": "1/50",
                   "matrix_file": "nowhere.json"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError):
        load_config(path)


def test_frequency_required_for_singular(tmp_path):
    raw = {"kind": "singular", "lattice": {"matrix": [["1"]]},
           "params": {"ell_radius": 2, "j_radius": 2, "gamma": 2}}
    with pytest.raises(ValidationError):
        normalize(raw)


def test_cluster_experiment_clean_run(tmp_path):
    raw = minimal_cluster(tmp_path)
    raw["params"] = {"box_radius": 64, "delta": "1/10",
                     "allow_delta_above_theorem": True}
    report = run_experiment(normalize(raw))
    assert report.passed
    names = {c["name"] for c in report.body["checks"]}
    assert "cross_cluster_separation" in names
    assert (tmp_path / "out" / "partition.json").exists()
    assert (tmp_path / "out" / "report-cluster.json").exists()


def test_reports_are_deterministic(tmp_path):
    configs = [
        minimal_cluster(tmp_path),
        {"kind": "verify", "seed": 5, "out_dir": str(tmp_path / "v"),
         "lattice": {"matrix": [["1"]]},
         "params": {"trials_compound": 4, "trials_cauchy_binet": 8,
                    "trials_gram": 8, "trials_chain_det": 8,
                    "d_min": 2, "d_max": 3}},
        {"kind": "measure", "out_dir": str(tmp_path / "m"),
         "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
         "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1},
         "params": {"g": 2, "tau": 6, "p_max": 1, "m_max": 1,
                    "gamma_grid": ["1/100", "1/50"]}},
    ]
    for raw in configs:
        cfg = normalize(raw)
        first = run_experiment(cfg).body_bytes()
        second = run_experiment(cfg).body_bytes()
        assert first == second


def test_cluster_run_leaves_the_cache_empty(tmp_path):
    # the cluster kind scans the links for its separation check anyway, so
    # it groups them itself and never reads or fills the cache
    cache = Path(os.environ["TORUSKIT_CACHE"])
    bodies, partitions = [], []
    for flag in (True, False):
        report = run_experiment(normalize(minimal_cluster(tmp_path,
                                                          cache=flag)))
        assert not any(cache.glob("*"))
        body = json.loads(report.body_bytes())
        assert body["config"].pop("cache") is flag
        bodies.append(body)
        partitions.append((tmp_path / "out" / "partition.json").read_bytes())
    assert bodies[0] == bodies[1]
    assert partitions[0] == partitions[1]


def test_homological_miss_returns_the_partition_it_built(tmp_path,
                                                         monkeypatch):
    import toruskit.runner as runner_mod
    from toruskit.clusters import ClusterPartition, group_links

    calls, built = [], []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    def build(*args):
        built.append(group_links(*args))
        return built[-1]

    monkeypatch.setattr(ClusterPartition, "from_dict", classmethod(
        counted("from_dict", ClusterPartition.from_dict.__func__)))
    monkeypatch.setattr(ClusterPartition, "to_dict",
                        counted("to_dict", ClusterPartition.to_dict))
    monkeypatch.setattr(runner_mod, "group_links", build)
    report = run_experiment(normalize(minimal_homological(tmp_path)))
    assert report.meta["counters"]["partition_cache"] == "miss"
    assert calls == []
    entry, = Path(os.environ["TORUSKIT_CACHE"]).glob("*.json")
    partition, = built
    assert entry.read_bytes() == (json.dumps(
        partition.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def test_cache_is_used_and_correct(tmp_path):
    raw = minimal_homological(tmp_path)
    cfg = normalize(raw)
    first = run_experiment(cfg)
    cache_files = list(Path(os.environ["TORUSKIT_CACHE"]).glob("*.json"))
    assert cache_files, "partition should have been cached"
    second = run_experiment(cfg)
    assert first.body_bytes() == second.body_bytes()


@pytest.mark.parametrize("planted", [
    {"clusters": []},
    [],
    {"box_radius": 10, "d": 1, "delta": "1/", "margin": 2, "clusters": []},
    # a member of the wrong length: partition.json formats d coordinates
    {"box_radius": 10, "d": 1, "delta": "1/20", "margin": 2,
     "clusters": [{"id": 0, "members": [[0, 0]], "m_alpha": 0,
                   "M_alpha": 0, "boundary": False}]},
    # a box too large to allocate: the member count is compared first
    {"box_radius": 10**9, "d": 2, "delta": "1/20",
     "clusters": [{"members": [[0, 0]]}]},
])
def test_wrong_shape_cache_entry_is_a_miss(tmp_path, planted):
    cfg = normalize(minimal_homological(tmp_path))
    first = run_experiment(cfg)
    cache_files = list(Path(os.environ["TORUSKIT_CACHE"]).glob("*.json"))
    good = [path.read_text() for path in cache_files]
    for path in cache_files:
        path.write_text(json.dumps(planted))
    second = run_experiment(cfg)
    assert second.passed
    assert second.body_bytes() == first.body_bytes()
    assert [path.read_text() for path in cache_files] == good


def test_cache_schema_is_part_of_the_key(tmp_path, monkeypatch):
    import toruskit.runner as runner_mod

    cfg = normalize(minimal_homological(tmp_path))
    run_experiment(cfg)
    cache = Path(os.environ["TORUSKIT_CACHE"])
    before = sorted(path.name for path in cache.glob("*.json"))
    calls = []
    real_build = runner_mod.group_links

    def counting_build(*args, **kwargs):
        calls.append(args)
        return real_build(*args, **kwargs)

    # the builder that the homological kind calls on a miss
    monkeypatch.setattr(runner_mod, "group_links", counting_build)
    run_experiment(cfg)
    assert calls == []                      # same schema: a hit
    monkeypatch.setattr(runner_mod, "CACHE_SCHEMA", runner_mod.CACHE_SCHEMA + 1)
    run_experiment(cfg)
    assert len(calls) == 1                  # bumped schema: a miss
    after = sorted(path.name for path in cache.glob("*.json"))
    assert len(after) == len(before) + 1


def _body_keys(body):
    keys, stack = set(), [body]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            keys.update(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return keys


def _output_bytes(report, out_dir):
    return sum((Path(out_dir) / name).stat().st_size
               for name in report.body["outputs"])


@pytest.mark.parametrize("raw", [
    {"kind": "singular", "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
     "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1,
                   "mass": "1"},
     "params": {"symbol": "nls", "ell_radius": 4, "j_radius": 6, "gamma": 2,
                "node_budget": 50}},
    {"kind": "chains", "lattice": {"matrix": [["1"]]},
     "params": {"box_radius": 20, "gammas": [2, 4]}},
])
def test_search_counters_in_meta_only(tmp_path, raw):
    report = run_experiment(normalize(dict(raw, out_dir=str(tmp_path))))
    counters = report.meta["counters"]
    assert set(counters) == {"sites", "search_expanded", "search_floods",
                             "search_truncated", "bytes_written"}
    assert counters["bytes_written"] == _output_bytes(report, tmp_path)
    assert counters["sites"] > 0 and counters["search_expanded"] > 0
    if raw["kind"] == "singular":
        assert counters["sites"] == report.body["data"]["site_count"]
        assert counters["search_truncated"] == report.body["data"]["truncated"]
    else:
        assert counters["sites"] == 41
    assert not _body_keys(report.body) & {"counters", "search_expanded",
                                          "search_floods", "search_truncated",
                                          "bytes_written"}


def test_singular_dense_component_within_node_budget(tmp_path, monkeypatch):
    # one 22-node component whose mask DP needs far more states than the
    # budget: the DFS probe finds a Hamiltonian path, so the DP never runs
    # and nothing is cut
    dp_calls = []
    monkeypatch.setattr(search, "_dp_longest",
                        lambda *args: dp_calls.append(args))
    raw = {"kind": "singular",
           "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
           "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1,
                         "mass": "1"},
           "params": {"symbol": "nls", "ell_radius": 3, "j_radius": 4,
                      "gamma": 2, "node_budget": 50}}
    report = run_experiment(normalize(dict(raw, out_dir=str(tmp_path))))
    counters = report.meta["counters"]
    assert counters["search_expanded"] <= 50
    assert not counters["search_truncated"]
    assert not report.body["data"]["truncated"]
    assert [c["length"] for c in report.body["data"]["chains"]] == [21]
    assert dp_calls == []


def test_homological_counters_in_meta_only(tmp_path):
    raw = {"kind": "homological", "out_dir": str(tmp_path), "seed": 2,
           "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
           "params": {"box_radius": 6, "delta": "1/10",
                      "allow_delta_above_theorem": True, "entries": 80}}
    report = run_experiment(normalize(raw))
    counters = report.meta["counters"]
    assert set(counters) == {"entries", "cross_entries", "x_entries",
                             "r_entries", "gap_sites", "partition_cache",
                             "bytes_written"}
    assert counters["partition_cache"] == "miss"
    assert counters["bytes_written"] == (tmp_path / "matrix.json").stat().st_size
    data = report.body["data"]
    assert counters["entries"] == data["entry_count"] == 80
    for key in ("cross_entries", "x_entries", "r_entries"):
        assert counters[key] == data[key]
    assert counters["x_entries"] + counters["r_entries"] == 80
    matrix = json.loads((tmp_path / "matrix.json").read_text())
    sites = {tuple(e[k]) for e in matrix["entries"] for k in ("j", "j_prime")}
    assert counters["gap_sites"] == len(sites)
    # the body echoes the entry counts as results, but never the counter
    # block, the gap-table size or the cache state
    assert not _body_keys(report.body) & {"counters", "gap_sites",
                                          "partition_cache", "bytes_written"}
    # the body stays a pure function of the config
    again = run_experiment(normalize(raw))
    assert again.body_bytes() == report.body_bytes()
    assert again.meta["counters"]["partition_cache"] == "hit"


@pytest.mark.parametrize("edges_csv,cache", [(True, False), (False, True)])
def test_cluster_counters_in_meta_only(tmp_path, edges_csv, cache):
    raw = {"kind": "cluster", "out_dir": str(tmp_path / "out"), "cache": cache,
           "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
           "params": {"box_radius": 6, "delta": "1/10",
                      "allow_delta_above_theorem": True,
                      "edges_csv": edges_csv}}
    report = run_experiment(normalize(raw))
    counters = report.meta["counters"]
    data = report.body["data"]
    expected = {"sites", "clusters", "cross_pairs", "bytes_written"}
    assert set(counters) == expected | ({"links"} if edges_csv else set())
    assert counters["sites"] == 13 ** 2
    assert counters["clusters"] == (data["interior_clusters"]
                                    + data["boundary_clusters"])
    assert counters["cross_pairs"] == data["pairs_checked"]
    assert counters["bytes_written"] == _output_bytes(report, tmp_path / "out")
    if edges_csv:
        edges = (tmp_path / "out" / "edges.csv").read_text().splitlines()
        assert counters["links"] == len(edges) - 1
    assert not _body_keys(report.body) & {
        "counters", "links", "clusters", "cross_pairs", "partition_cache",
        "bytes_written"}
    again = run_experiment(normalize(raw))
    assert again.body_bytes() == report.body_bytes()
    assert again.meta["counters"] == dict(report.meta["counters"])


def test_exact_cluster_run_leaves_numpy_unimported(tmp_path):
    # importing numpy adds about 13 MB of resident memory to a process, and
    # no kind needs any of it: the cluster run and one run of every other
    # kind, on a lattice typed in floats, in one process
    script = (
        "import json, sys\n"
        "from toruskit.config import normalize\n"
        "from toruskit.runner import run_experiment\n"
        "for raw in json.loads(sys.argv[1]):\n"
        "    assert run_experiment(normalize(raw)).passed, raw['kind']\n"
        "print('numpy' in sys.modules)\n")
    lattice = {"matrix": [[1.0, 0.5], [0.0, 1.0]]}
    freq = {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1, "mass": "1/2"}
    runs = [
        {"kind": "cluster", "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
         "params": {"box_radius": 6, "delta": "1/10",
                    "allow_delta_above_theorem": True, "edges_csv": True}},
        {"kind": "chains", "lattice": lattice,
         "params": {"box_radius": 3, "gammas": [2], "node_budget": 500}},
        {"kind": "singular", "lattice": lattice, "frequency": freq,
         "params": {"symbol": "nls", "ell_radius": 4, "j_radius": 4}},
        {"kind": "measure", "lattice": lattice, "frequency": freq,
         "params": {"p_max": 1, "m_max": 1, "gamma_grid": ["1/200", "1/50"]}},
        {"kind": "homological", "lattice": lattice,
         "params": {"box_radius": 4, "delta": "1/10",
                    "allow_delta_above_theorem": True, "entries": 20}},
        {"kind": "verify", "params": {"trials_compound": 2,
                                      "trials_cauchy_binet": 2, "trials_gram": 2,
                                      "trials_chain_det": 2, "d_max": 3}},
    ]
    raws = [dict(raw, out_dir=str(tmp_path / raw["kind"]), cache=False)
            for raw in runs]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(raws)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # a small run of each kind in two processes, under PYTHONHASHSEED 0 and
    # 1, digested as the bench digests a run: body without its config echo,
    # and every output file
    script = (
        "import importlib.util, json, sys\n"
        "from pathlib import Path\n"
        "from toruskit.config import normalize\n"
        "from toruskit.runner import run_experiment\n"
        "spec = importlib.util.spec_from_file_location('workload', sys.argv[1])\n"
        "workload = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(workload)\n"
        "digests = []\n"
        "for raw in json.loads(sys.argv[2]):\n"
        "    report = run_experiment(normalize(raw))\n"
        "    digests.append(workload.digest(report, Path(raw['out_dir'])))\n"
        "print(json.dumps(digests))\n")
    shear = {"matrix": [["1", "1/2"], ["0", "1"]]}
    freq = {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1, "mass": "1/2"}
    runs = [
        {"kind": "cluster", "lattice": shear,
         "params": {"box_radius": 6, "delta": "1/10",
                    "allow_delta_above_theorem": True, "edges_csv": True}},
        {"kind": "chains", "lattice": shear,
         "params": {"box_radius": 3, "gammas": [2, 3], "node_budget": 500}},
        {"kind": "singular", "lattice": shear, "frequency": freq,
         "params": {"symbol": "nlw", "ell_radius": 4, "j_radius": 4}},
        {"kind": "measure", "lattice": shear, "frequency": freq,
         "params": {"p_max": 1, "m_max": 1, "gamma_grid": ["1/200", "1/50"]}},
        {"kind": "homological", "lattice": shear,
         "params": {"box_radius": 4, "delta": "1/10",
                    "allow_delta_above_theorem": True, "entries": 20}},
        {"kind": "verify", "params": {"trials_compound": 2,
                                      "trials_cauchy_binet": 2, "trials_gram": 2,
                                      "trials_chain_det": 2, "d_max": 3}},
    ]
    root = Path(__file__).resolve().parent.parent
    procs = []
    for seed in ("0", "1"):
        raws = [dict(raw, out_dir=str(tmp_path / seed / raw["kind"]))
                for raw in runs]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONHASHSEED=seed,
                   TORUSKIT_CACHE=str(tmp_path / seed / "cache"))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", script,
             str(root / "perfbench" / "workload.py"), json.dumps(raws)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env))
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outs.append(json.loads(out))
    assert len(outs[0]) == len(runs)
    assert outs[0] == outs[1]


# a 2-d lattice typed with 16-digit decimals: its Gram denominator has 203 bits
DECIMALS = [["0.6301449849816195", "-0.2964506960608932"],
            ["0.0", "1.0870110707497045"]]
DECIMAL_FREQ = {"omega_bar": ["1/9"], "gamma0": "1/100", "tau0": 1,
                "lambda": "3/2", "theta": "1/2", "mass": "2/3"}


@pytest.mark.parametrize("raw", [
    {"kind": "cluster", "params": {"box_radius": 8, "delta": "1/10",
                                   "allow_delta_above_theorem": True}},
    {"kind": "chains", "params": {"box_radius": 4, "gammas": [2],
                                  "node_budget": 2000}},
    {"kind": "singular", "frequency": DECIMAL_FREQ,
     "params": {"symbol": "nls", "ell_radius": 6, "j_radius": 6}},
    {"kind": "singular", "frequency": DECIMAL_FREQ,
     "params": {"symbol": "nlw", "ell_radius": 6, "j_radius": 6}},
    {"kind": "measure", "frequency": DECIMAL_FREQ,
     "params": {"p_max": 1, "m_max": 1, "gamma_grid": ["1/3000", "1/300"]}},
    {"kind": "homological", "params": {"box_radius": 6, "delta": "1/10",
                                       "allow_delta_above_theorem": True,
                                       "entries": 40}},
], ids=["cluster", "chains", "singular-nls", "singular-nlw", "measure",
        "homological"])
def test_float_lattice_entries_give_the_decimal_report(tmp_path, raw):
    # JSON floats are read as their decimals: the same torus, the same body
    floats = [[float(x) for x in row] for row in DECIMALS]
    bodies = []
    for matrix in (DECIMALS, floats):
        report = run_experiment(normalize(dict(
            raw, lattice={"matrix": matrix}, out_dir=str(tmp_path / "out"),
            cache=False)))
        assert report.passed
        bodies.append(report.body_bytes())
    assert bodies[0] == bodies[1]


def test_atomic_write_keeps_target_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "file.json"
    atomic_write_text(target, "original")
    import toruskit.runner as runner_mod

    def boom(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(runner_mod.os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_text(target, "new content")
    assert target.read_text() == "original"
    assert not list(tmp_path.glob(".tmp-*"))


def test_emit_plot_data_series(tmp_path):
    raw = {"kind": "chains", "out_dir": str(tmp_path / "c"),
           "lattice": {"matrix": [["1"]]},
           "params": {"box_radius": 20, "gammas": [2, 4]}}
    report = run_experiment(normalize(raw))
    path = emit_plot_data(report, "chain_scaling", tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "gamma,max_length"
    assert len(lines) == 3
    with pytest.raises(UnknownSeries):
        emit_plot_data(report, "no_such_series", tmp_path)
    with pytest.raises(UnknownSeries):
        emit_plot_data(report, "measure_curve", tmp_path)


def test_emit_plot_data_empty_series(tmp_path):
    raw = {"kind": "singular", "out_dir": str(tmp_path / "s"),
           "lattice": {"matrix": [["1"]]},
           "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1,
                         "mass": "100"},
           "params": {"symbol": "nlw", "ell_radius": 2, "j_radius": 2,
                      "gamma": 2}}
    report = run_experiment(normalize(raw))
    path = emit_plot_data(report, "singular_chains", tmp_path)
    assert path.read_text() == "length,section_count,min_exponent\n"


def test_homological_experiment_with_files(tmp_path):
    # export a partition, feed it back through the file interface
    part_cfg = normalize({
        "kind": "cluster", "out_dir": str(tmp_path / "p"),
        "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
        "params": {"box_radius": 8, "delta": "1/10",
                   "allow_delta_above_theorem": True}})
    run_experiment(part_cfg)
    raw = {
        "kind": "homological", "seed": 3, "out_dir": str(tmp_path / "h"),
        "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
        "params": {"box_radius": 8, "delta": "1/10",
                   "allow_delta_above_theorem": True, "entries": 50,
                   "partition_file": str(tmp_path / "p" / "partition.json")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    report = run_experiment(load_config(path))
    assert report.passed
    # the emitted matrix file round-trips through the same experiment
    matrix_file = tmp_path / "h" / "matrix.json"
    assert matrix_file.exists()
    raw["params"]["matrix_file"] = str(matrix_file)
    path.write_text(json.dumps(raw))
    second = run_experiment(load_config(path))
    assert second.passed
    assert (second.body["data"]["entry_count"]
            == report.body["data"]["entry_count"])


def test_wall_time_not_in_body(tmp_path):
    report = run_experiment(normalize(minimal_cluster(tmp_path)))
    assert "wall_time_s" in report.meta
    assert "wall_time_s" not in json.dumps(report.body)


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSKIT_CACHE", str(tmp_path / "elsewhere"))
    assert cache_dir() == tmp_path / "elsewhere"


@pytest.mark.parametrize("raw, series, header, fields", [
    ({"kind": "chains", "lattice": {"matrix": [["1"]]},
      "params": {"box_radius": 20, "gammas": [2, 4]}},
     "chain_scaling", "gamma,max_length", ("scaling", "gamma", "max_length")),
    ({"kind": "singular", "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
      "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1,
                    "mass": "1"},
      "params": {"symbol": "nls", "ell_radius": 2, "j_radius": 3,
                 "gamma": 2, "node_budget": 50}},
     "singular_chains", "length,section_count,min_exponent",
     ("chains", "length", "section_count", "min_exponent")),
    ({"kind": "measure", "lattice": {"matrix": [["1"]]},
      "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1},
      "params": {"gamma_grid": ["1/3000", "1/300", "1/30"], "p_max": 1,
                 "m_max": 1}},
     "measure_curve", "gamma,excluded_measure",
     ("curve", "gamma", "excluded_measure")),
])
def test_run_csv_is_the_plot_series(tmp_path, raw, series, header, fields):
    # the CSV a run writes and the one emit_plot_data writes share one format
    report = run_experiment(normalize(dict(raw, out_dir=str(tmp_path / "run"))))
    written = (tmp_path / "run" / f"{series}.csv").read_bytes()
    key, *columns = fields
    rows = report.body["data"][key]
    assert rows
    expected = [header] + [",".join(str(row[c]) for c in columns)
                           for row in rows]
    assert written == ("\n".join(expected) + "\n").encode()
    assert emit_plot_data(report, series, tmp_path).read_bytes() == written


def _singular(matrix, symbol, ell_radius, j_radius, omega=("1",), tau0=1,
              mass="1/2", lam="1", theta="0", gamma=2, node_budget=20000):
    return {"kind": "singular", "lattice": {"matrix": matrix},
            "frequency": {"omega_bar": list(omega), "gamma0": "1/100",
                          "tau0": tau0, "mass": mass, "lambda": lam,
                          "theta": theta},
            "params": {"symbol": symbol, "ell_radius": ell_radius,
                       "j_radius": j_radius, "gamma": gamma,
                       "node_budget": node_budget}}


def _pinned_digest(report, out_dir) -> str:
    # sha256 of the report body and of each output file, name by name
    h = hashlib.sha256(report.body_bytes())
    for name in report.body["outputs"]:
        h.update(name.encode() + b"\0" + (Path(out_dir) / name).read_bytes())
    return h.hexdigest()


# sha256 of the report body and the output files of small singular runs,
# recorded with the Fraction symbols that the integer kernel replaced; nls-d1
# is cut by its node budget, and its witness was re-recorded when the DP
# states began to count toward that budget.  All six were re-recorded when
# the config echo lost its "lattice.mode" key, the one byte change: with
# "mode": "exact" put back after the matrix, each body hashed to its old value.
# They were re-recorded again when the echo lost "params.length_cap": with
# "length_cap": null put back, each body hashed to its old value
@pytest.mark.parametrize("raw, digest", [
    (_singular([["1"]], "nls", 8, 4, mass="3/2", node_budget=3000),
     "ca4eb650a12e2c66a243b0bc7d4c8b5378ac08e42164331967798ddf868b499d"),
    (_singular([["1"]], "nlw", 20, 20),
     "13cc33e8a05de546c483d69bce7d9f72bb5245cf9018b227e671df3e3e2f1dd0"),
    (_singular([["1", "2/3"], ["0", "1"]], "nls", 6, 8),
     "3f66bb0fd4819e257ed3f8ca64b7cdc3c23fd3e91289bfe1090d2df5b8fc6bcd"),
    (_singular([["1", "0"], ["0", "2"]], "nlw", 6, 6, node_budget=2000),
     "0b0466c52381c1d2b136a9488fd378decb3948578138322748415b123dcaa83a"),
    (_singular([["1", "-1/3"], ["0", "3/2"]], "nls", 2, 3,
               omega=("1/3", "-1/2"), tau0=2, mass="3/4", lam="5/4",
               theta="2/7", node_budget=3000),
     "62cea53f88d681503a688246d788d556d48d9aa8949e3184e59e975b4686b6db"),
    (_singular([["1", "1/2"], ["0", "1"]], "nlw", 8, 8, mass="2/3",
               lam="3/4", theta="-1/3", gamma=3),
     "f2330c0ce0cd89b54b66227c5ee6aae613f9c2a47720d46977578cffe79361a7"),
], ids=["nls-d1", "nlw-d1", "nls-d2", "nlw-d2", "nls-d2-theta-lambda",
        "nlw-d2-theta-lambda"])
def test_singular_body_bytes_pinned(tmp_path, raw, digest):
    report = run_experiment(normalize(raw), out_dir=tmp_path)
    assert _pinned_digest(report, tmp_path) == digest


# the README measure command on the shear [[1,1/2],[0,1]] at --pmax 1
# --mmax 1, once as printed and once with one range doubling; no bench
# workload runs measure, so these digests pin its body and measure_curve.csv
@pytest.mark.parametrize("extra, digest", [
    ([], "13f1fe550d36c5648ef87915dd4ece5706f13d00d5a98c8e02075473bdc6c44e"),
    (["--doublings", "1"],
     "7618a1ec11fa5457b123ae5639364466ac1bd0748e83312111df9aa91615b26b"),
], ids=["readme", "doublings-1"])
def test_measure_body_bytes_pinned(tmp_path, monkeypatch, extra, digest):
    monkeypatch.chdir(tmp_path)
    Path("lattice.json").write_text('{"matrix": [["1", "1/2"], ["0", "1"]]}')
    Path("freq.json").write_text(
        '{"omega_bar": ["1/2", "1/3"], "gamma0": "1/100", "tau0": 2}')
    args = build_parser().parse_args(
        ["measure", "--lattice", "lattice.json", "--freq", "freq.json",
         "--gamma-grid", "1/1000:1/10:9", "--pmax", "1", "--mmax", "1",
         "--order", "2", "--tau", "6", "--out-dir", "out", *extra])
    report = run_experiment(normalize(_assemble(args)))
    assert report.passed
    assert _pinned_digest(report, "out") == digest


# homological runs at box 5 on the shear [[1,1/2],[0,1]] with 50 random
# entries: one groups its own partition, one reads a cluster run's
# partition.json; each digest covers the body and matrix.json
@pytest.mark.parametrize("partition_file, digest", [
    (False, "4e3e88fe646eaa69f9529426136a58630c4816e649a2b1a28a4abe8f3a22fcce"),
    (True, "17b9845c33fb0b5641485c363f20702cc578fb8197580bfde6f7ef221a12eaac"),
], ids=["built", "partition-file"])
def test_homological_body_bytes_pinned(tmp_path, monkeypatch, partition_file,
                                       digest):
    monkeypatch.chdir(tmp_path)
    lattice = {"matrix": [["1", "1/2"], ["0", "1"]]}
    params = {"box_radius": 5, "delta": "1/10",
              "allow_delta_above_theorem": True}
    if partition_file:
        run_experiment(normalize({"kind": "cluster", "out_dir": "part",
                                  "lattice": lattice, "params": params}))
        params = dict(params, partition_file="part/partition.json")
    report = run_experiment(normalize(
        {"kind": "homological", "seed": 11, "out_dir": "out",
         "lattice": lattice, "params": dict(params, entries=50)}))
    assert report.passed
    assert report.body["data"]["entry_count"] == 50
    assert _pinned_digest(report, "out") == digest
