"""The streaming JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import enum
import json
import random
from fractions import Fraction

import pytest

import toruskit.runner as runner
from toruskit.clusters import (
    ClusterPartition,
    box_sites,
    box_table,
    group_links,
)
from toruskit.config import normalize, serialize
from toruskit.exact import QQi
from toruskit.homological import BlockMatrix, dn_split
from toruskit.lattice import new_lattice
from toruskit.runner import (
    atomic_write_json,
    run_experiment,
    verify_cluster_properties,
)


def dumps(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def matrix_dumps(Q) -> bytes:
    """The bytes matrix.json held when it went through atomic_write_json."""
    return dumps({"box_radius": Q.box_radius, "d": Q.d,
                  "entries": Q.to_triplets()})


SHEAR = {"matrix": [["1", "1/2"], ["0", "1"]]}

# one small config per experiment kind
KINDS = [
    {"kind": "cluster", "lattice": SHEAR,
     "params": {"box_radius": 6, "delta": "1/10",
                "allow_delta_above_theorem": True, "edges_csv": True}},
    {"kind": "chains", "lattice": {"matrix": [["1"]]},
     "params": {"box_radius": 12, "gammas": [2, 4]}},
    {"kind": "singular", "lattice": {"matrix": [["1"]]},
     "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1,
                   "mass": "1/2"},
     "params": {"symbol": "nlw", "ell_radius": 3, "j_radius": 3, "gamma": 2}},
    {"kind": "measure", "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
     "frequency": {"omega_bar": ["1"], "gamma0": "1/2", "tau0": 1},
     "params": {"g": 2, "tau": 6, "p_max": 1, "m_max": 1,
                "gamma_grid": ["1/200", "1/50"]}},
    {"kind": "homological", "lattice": SHEAR,
     "params": {"box_radius": 6, "delta": "1/10",
                "allow_delta_above_theorem": True, "entries": 40}},
    {"kind": "verify",
     "params": {"trials_compound": 2, "trials_cauchy_binet": 2,
                "trials_gram": 2, "trials_chain_det": 2,
                "d_min": 2, "d_max": 3}},
]


@pytest.mark.parametrize("raw", KINDS, ids=[r["kind"] for r in KINDS])
def test_every_written_payload_matches_dumps(tmp_path, monkeypatch, raw):
    monkeypatch.setenv("TORUSKIT_CACHE", str(tmp_path / "cache"))
    written = []

    def record(path, payload):
        written.append((path, payload))
        atomic_write_json(path, payload)

    monkeypatch.setattr(runner, "atomic_write_json", record)
    partition_writes, write_partition = [], runner._write_partition

    def record_partition(path, partition):
        partition_writes.append((path, partition))
        write_partition(path, partition)

    monkeypatch.setattr(runner, "_write_partition", record_partition)
    matrices, partitions = [], []

    def split(Q, partition):
        matrices.append(Q)
        partitions.append(partition)
        return dn_split(Q, partition)

    monkeypatch.setattr(runner, "dn_split", split)

    def verify(table, partition, links):
        partitions.append(partition)
        return verify_cluster_properties(table, partition, links)

    monkeypatch.setattr(runner, "verify_cluster_properties", verify)
    config = normalize(dict(raw, out_dir=str(tmp_path / "out")))
    report = run_experiment(config)
    assert report.passed
    names = {path.name for path, _ in written}
    # the report and every JSON output; matrix.json is streamed row by row,
    # and partition.json and the homological cache fill cluster by cluster,
    # so their bytes are checked against dumps of the triplet payload of the
    # matrix the run split and of the partition it split or verified
    assert f"report-{raw['kind']}.json" in names
    outputs = {n for n in report.body["outputs"] if n.endswith(".json")}
    if raw["kind"] == "homological":
        outputs.remove("matrix.json")
        Q, = matrices
        assert len(Q.entries) == raw["params"]["entries"]
        matrix_file = tmp_path / "out" / "matrix.json"
        assert matrix_file.read_bytes() == matrix_dumps(Q)
    if raw["kind"] == "cluster":
        outputs.remove("partition.json")
    assert outputs <= names
    # only the homological kind fills the cache, and only with a partition
    assert all(path.parent.name != "cache" for path, _ in written)
    where = {"cluster": "out", "homological": "cache"}.get(raw["kind"])
    assert [path.parent.name for path, _ in partition_writes] == (
        [where] if where else [])
    for path, partition in partition_writes:
        assert partition is partitions[0]
        assert path.read_bytes() == dumps(partition.to_dict())
    for path, payload in written:
        assert path.read_bytes() == dumps(payload), path.name
    report_file = tmp_path / "out" / f"report-{raw['kind']}.json"
    assert report_file.read_bytes() == dumps(report.to_dict())
    # a config file goes through the same writer
    atomic_write_json(tmp_path / "config.json", serialize(config))
    assert (tmp_path / "config.json").read_bytes() == dumps(serialize(config))


class Colour(enum.IntEnum):
    RED = 3


class Real(float):
    pass


ODD_STRINGS = ["", "plain", 'quote " and \\ backslash', "tab\tnew\nline\r",
               "\x00\x1f\x7f", "é", "€ sign", "\U0001F600", "\ud800",
               "</script>", "slash/"]
ODD_FLOATS = [0.0, -0.0, 1.5, -2.25e-300, 1e300, 5e-324, 0.1,
              float("nan"), float("inf"), float("-inf"), Real(2.5)]
ODD_INTS = [0, -1, 7, 2**63, -(2**64) - 1, 10**40, Colour.RED]


def random_payload(rng, depth=0):
    kind = rng.choice(["scalar"] * 3 + ["list", "tuple", "dict", "ints"]
                      if depth < 5 else ["scalar"])
    if kind == "scalar":
        pool = rng.choice([ODD_STRINGS, ODD_FLOATS, ODD_INTS,
                           [None, True, False]])
        return rng.choice(pool)
    if kind == "ints":
        # all-int lists take the writer's one-join path; a bool or an int
        # subclass among them must not
        items = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 6))]
        if items and rng.random() < 0.3:
            items[rng.randrange(len(items))] = rng.choice([True, Colour.RED])
        return items
    size = rng.randint(0, 4)
    if kind == "dict":
        if rng.random() < 0.2:
            # dumps' key coercion: numbers, bools and None become strings
            keys = rng.sample([1, -3, 2.5, float("inf"), True, 10**20], size)
        else:
            keys = [rng.choice(ODD_STRINGS) + str(i) for i in range(size)]
        return {k: random_payload(rng, depth + 1) for k in keys}
    items = [random_payload(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == "tuple" else items


def test_random_payloads_match_dumps(tmp_path):
    rng = random.Random(29)
    path = tmp_path / "payload.json"
    for _ in range(300):
        payload = random_payload(rng)
        atomic_write_json(path, payload)
        assert path.read_bytes() == dumps(payload)
    for payload in ({"k": None}, [[[]]], {"": {}}, [()], (), {}):
        atomic_write_json(path, payload)
        assert path.read_bytes() == dumps(payload)


def test_deep_nesting_matches_dumps(tmp_path):
    payload = []
    for level in range(150):
        payload = {"level": level, "next": payload} if level % 2 else [payload]
    path = tmp_path / "deep.json"
    atomic_write_json(path, payload)
    assert path.read_bytes() == dumps(payload)


INT_RECORDS = [
    [{"id": 0, "size": 3}],
    [{"M_alpha": 5, "diameter": 2, "id": 7, "m_alpha": 4, "size": 3},
     {"id": -1, "size": 10**30, "m_alpha": 0, "M_alpha": -2**70,
      "diameter": 0}],
    # a "%" in a key is no template field; quotes, escapes and non-ASCII
    # keys keep dumps' quoting
    [{"100%": 1, "%d": 2, '"q"\\': 3, "é\n": 4}] * 3,
    [{"b": 2, "a": 1}, {"a": 3, "b": 4}],
]


@pytest.mark.parametrize("records", INT_RECORDS)
def test_int_records_take_the_template_path(tmp_path, records):
    assert runner._int_record_keys(records) == sorted(records[0])
    path = tmp_path / "records.json"
    for payload in (records, {"data": {"cluster_stats": records}},
                    [records, records]):
        atomic_write_json(path, payload)
        assert path.read_bytes() == dumps(payload)


@pytest.mark.parametrize("records", [
    [{"a": 1, "b": True}],                     # a bool is no int
    [{"a": 1, "b": 2}, {"a": False, "b": 2}],
    [{"a": 1, "b": 2.0}],
    [{"a": 1, "b": "2"}],
    [{"a": 1, "b": [2]}],
    [{"a": 1, "b": {"c": 2}}],
    [{"a": 1, "b": None}],
    [{"a": 1, "b": 2}, {"a": 1, "c": 2}],      # another key set
    [{"a": 1, "b": 2}, {"a": 1, "b": 2, "c": 3}],
    [{"a": 1, "b": 2}, {"a": 1}],
    [{"a": 1, "b": 2}, [1, 2]],
    [{"a": 1, "b": 2}, 3],
    [{1: 1, 2: 2}],                            # keys that are no str
    [{2.5: 1, 3: 2}],
    [{True: 1, 2: 2}],
    [{"a": 1}],                                # one key
    [{"a": 1}, {"a": 2}],
    [{}],                                      # an empty dict
    [{}, {}],
    ({"a": 1, "b": True},),
])
def test_other_records_take_the_general_path(tmp_path, records):
    assert runner._int_record_keys(records) is None
    path = tmp_path / "records.json"
    for payload in (records, {"records": records}):
        atomic_write_json(path, payload)
        assert path.read_bytes() == dumps(payload)


def test_empty_record_list_matches_dumps(tmp_path):
    path = tmp_path / "records.json"
    for payload in ([], {"cluster_stats": []}, [[], {}]):
        atomic_write_json(path, payload)
        assert path.read_bytes() == dumps(payload)


@pytest.mark.parametrize("payload", [{"a": {1, 2}}, [object()], {(1, 2): 3}])
def test_unserializable_payload_raises_and_keeps_target(tmp_path, payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True)
    target = tmp_path / "out.json"
    target.write_text("original")
    with pytest.raises(TypeError):
        atomic_write_json(target, payload)
    assert target.read_text() == "original"
    assert not list(tmp_path.glob(".tmp-*"))


def random_value(rng):
    huge = rng.choice([1, 10**40, 2**200])
    part = Fraction(rng.randint(-9, 9) * huge,
                    rng.randint(1, 9) * rng.choice([1, huge]))
    return rng.choice([
        QQi(part, Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
        QQi(0, -part),
        part,
        rng.randint(-10**30, 10**30),
        complex(rng.uniform(-5, 5), rng.uniform(-1e300, 1e300)),
        complex(float(part) if abs(part) < 1e300 else 1.0, 0.0),
        rng.choice([-0.1, 2.5e-300, -1e300, 5e-324, -7.0]),
    ])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 60])
def test_streamed_matrix_matches_dumps_of_triplets(tmp_path, d, count):
    rng = random.Random(f"{d} {count}")
    radius = {1: 40, 2: 6, 3: 2}[d]
    coords = range(-radius, radius + 1)
    items = {}
    while len(items) < count:
        key = (tuple(rng.choice(coords) for _ in range(d)),
               tuple(rng.choice(coords) for _ in range(d)))
        value = random_value(rng)
        if value:
            items[key] = value
    Q = BlockMatrix.from_entries(radius, d, items)
    assert len(Q.entries) == count
    # ints, Fractions, floats and complex values are all held as QQi
    assert all(type(v) is QQi for v in Q.entries.values())
    if count == 60:
        assert any(not v.im for v in Q.entries.values())
    path = tmp_path / "matrix.json"
    runner._write_matrix(path, Q, box_sites(radius, d))
    assert path.read_bytes() == matrix_dumps(Q)
    assert not list(tmp_path.glob(".tmp-*"))



def random_partition(rng, d, radius):
    """Random links over the box indices, grouped by ``group_links``, at a
    random delta; the margin and boundary flags are derived."""
    basis = new_lattice([[int(r == c) for c in range(d)] for r in range(d)])
    table = box_table(basis, radius,
                      Fraction(rng.randint(1, 99), rng.randint(100, 10**4)))
    n = len(table.sites)
    links = sorted({tuple(sorted(rng.sample(range(n), 2)))
                    for _ in range(rng.randint(0, n // 4))})
    return group_links(table, links)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", [0, 1, 4])
def test_streamed_partition_matches_dumps_of_dict(tmp_path, d, radius):
    rng = random.Random(f"partition {d} {radius}")
    path = tmp_path / "partition.json"
    boundaries, reordered = set(), 0
    for _ in range(20):
        built = random_partition(rng, d, radius)
        # read back from records in another order, the ids are not those of
        # group_links: record k of the file is id k
        data = built.to_dict()
        rng.shuffle(data["clusters"])
        again = ClusterPartition.from_dict(data)
        reordered += again.cluster != built.cluster
        for partition in (built, again):
            boundaries |= set(partition.boundary)
            runner._write_partition(path, partition)
            assert path.read_bytes() == dumps(partition.to_dict())
    # a radius-0 box has one cluster
    assert reordered if radius else not reordered
    # an interior cluster needs N > margin = ceil((2N)**delta) + 1, which
    # is 1 at radius 0 and at least 3 above it
    assert boundaries == ({True, False} if radius >= 4 else {True})
    assert not list(tmp_path.glob(".tmp-*"))
