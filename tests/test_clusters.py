"""Chains, cluster partitions and their verification."""

import dataclasses
import itertools
import json
import math
import operator
import random
from fractions import Fraction as Fr

import pytest

from toruskit.clusters import (
    ClusterPartition,
    GammaChain,
    _box_numerators,
    _slab_runs,
    box_sites,
    box_table,
    build_partition,
    chain_exponent,
    chain_scaling_experiment,
    check_delta,
    delta_max,
    group_links,
    is_gamma_link,
    max_chain_length,
    phi_distance,
    positive_offsets,
    relation_link,
    relation_links,
    verify_cluster_properties,
)
from toruskit.config import normalize
from toruskit.errors import BoxMismatch, DeltaOutOfRange, SingularGenerators
from toruskit.exact import floor_pow, format_rational, le_pow, sup_norm
from toruskit.homological import BlockMatrix
from toruskit.lattice import mu, mu_numerator, new_lattice
from toruskit.runner import run_experiment

B1 = new_lattice([[1]])
B2 = new_lattice([[1, 0], [0, 1]])


def test_dimensional_constants():
    assert chain_exponent(1) == 6
    assert chain_exponent(2) == 20
    assert delta_max(1) == Fr(1, 14)
    assert delta_max(2) == Fr(1, 42)


def test_gamma_links():
    assert is_gamma_link(B1, (0,), (1,), 2)        # gaps (1, 1)
    assert not is_gamma_link(B1, (1,), (2,), 2)    # eigenvalue gap 3
    assert is_gamma_link(B1, (-1,), (1,), 2)       # gaps (2, 0)
    with pytest.raises(ValueError):
        is_gamma_link(B1, (1,), (1,), 2)


def brute_force_longest(basis, radius, gamma):
    """Independent oracle: exact bitmask DP per connected component."""
    sites = box_sites(radius, basis.d)
    n = len(sites)
    adj = [[t for t in range(n) if t != s
            and phi_distance(basis, sites[s], sites[t]) <= gamma]
           for s in range(n)]
    seen = [False] * n
    best = 0
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        local = {v: i for i, v in enumerate(comp)}
        nbrs = [[local[w] for w in adj[v] if w in local] for v in comp]
        k = len(comp)
        assert k <= 20, "oracle limited to small components"
        # longest[mask][v]: longest path using exactly `mask`, ending at v
        longest = [dict() for _ in range(1 << k)]
        for v in range(k):
            longest[1 << v][v] = 0
        for mask in range(1 << k):
            for v, length in longest[mask].items():
                best = max(best, length)
                for w in nbrs[v]:
                    bit = 1 << w
                    if mask & bit:
                        continue
                    nxt = longest[mask | bit]
                    if nxt.get(w, -1) < length + 1:
                        nxt[w] = length + 1
    return best


@pytest.mark.parametrize("gamma,expected", [(1, 2), (2, 2), (4, 4)])
def test_max_chain_length_small_box(gamma, expected):
    res = max_chain_length(B1, 10, gamma)
    assert res.length == brute_force_longest(B1, 10, gamma) == expected
    assert not res.truncated
    assert res.witness.is_valid(B1)


def test_max_chain_length_matches_oracle_d2():
    for gamma in (2, 3):
        res = max_chain_length(B2, 1, gamma)
        assert res.length == brute_force_longest(B2, 1, gamma)
        assert res.witness.is_valid(B2)


def test_complete_graph_box():
    # gamma exceeding every pair gap makes the whole box one chain
    sites = box_sites(2, 1)
    gamma = max(phi_distance(B1, a, b) for a in sites for b in sites if a != b)
    res = max_chain_length(B1, 2, gamma)
    assert res.length == len(sites) - 1


def test_truncation_flags_lower_bound():
    res = max_chain_length(B1, 10, 4, node_budget=2)
    assert res.truncated
    assert res.length >= 2


def test_build_partition_d1():
    part = build_partition(B1, 10, Fr(1, 10), enforce_delta_bound=False)
    sites = box_sites(10, 1)
    central = part.cluster_of((0,))
    assert [sites[i] for i in part.members(central)] == [(-1,), (0,), (1,)]
    for c in range(len(part.M_alpha)):
        if c != central:
            assert len(part.members(c)) == 1
    assert len(part.cluster) == 21


def test_partition_delta_range():
    with pytest.raises(DeltaOutOfRange):
        build_partition(B1, 5, Fr(1, 10))          # above 1/14, no override
    with pytest.raises(DeltaOutOfRange):
        build_partition(B1, 5, Fr(3, 2), enforce_delta_bound=False)
    part = build_partition(B1, 5, Fr(1, 20))       # inside the theorem range
    assert len(part.cluster) == 11


def test_check_delta_is_exact_and_bounds_the_denominator():
    # a float reads as its decimal; the range test is exact, not in floats
    assert check_delta(2, 0.02) == Fr(1, 50)
    assert check_delta(1, "1/10000", enforce_delta_bound=False) == Fr(1, 10**4)
    for delta in (Fr(10**4 - 1, 10**4 + 1), "0.012345678", 0.000123456):
        with pytest.raises(DeltaOutOfRange, match="denominator above 10000"):
            check_delta(2, delta, enforce_delta_bound=False)
    with pytest.raises(DeltaOutOfRange, match="outside"):
        check_delta(2, Fr(10**20, 10**20 - 1), enforce_delta_bound=False)
    with pytest.raises(DeltaOutOfRange, match="delta_max"):
        check_delta(2, Fr(1, 42))
    # the library entries that take delta apply the rule without the bound
    with pytest.raises(DeltaOutOfRange, match="denominator above 10000"):
        box_table(B2, 4, 0.012345678)


def test_build_partition_reads_a_float_delta_as_its_decimal():
    basis = new_lattice([["1", "0"], ["1/2", "1"]])
    part = build_partition(basis, 6, Fr(1, 20), enforce_delta_bound=False)
    assert build_partition(basis, 6, 0.05, enforce_delta_bound=False) == part
    table = box_table(basis, 6, 0.05)
    assert group_links(table, relation_links(table)) == part


def test_opposite_modes_not_directly_linked():
    for d, basis in ((1, B1), (2, B2)):
        for j in box_sites(3, d):
            if any(j):
                minus = tuple(-x for x in j)
                assert not relation_link(basis, j, minus, Fr(1, 10))


def test_partition_is_deterministic():
    a = build_partition(B2, 6, Fr(1, 10), enforce_delta_bound=False)
    b = build_partition(B2, 6, Fr(1, 10), enforce_delta_bound=False)
    assert a.to_dict() == b.to_dict()


def test_partition_round_trip():
    from toruskit.clusters import ClusterPartition

    part = build_partition(B2, 5, Fr(1, 10), enforce_delta_bound=False)
    again = ClusterPartition.from_dict(part.to_dict())
    assert again.to_dict() == part.to_dict()
    assert again.cluster_of((0, 0)) == part.cluster_of((0, 0))


def _radius_2_partition():
    return build_partition(B2, 2, Fr(1, 10), enforce_delta_bound=False)


def _duplicate(data):
    # the member count stays that of the box
    data["clusters"][1]["members"][-1] = [-2, -2]


def _outside(data):
    data["clusters"][0]["members"] = [[-3, -2]]


def _wrong_length(data):
    data["clusters"][0]["members"][0].append(0)


def _empty(data):
    # the member count stays that of the box
    data["clusters"][1]["members"] += data["clusters"][0]["members"]
    data["clusters"][0]["members"] = []


def _uncovered(data):
    data["clusters"][3]["members"].remove([0, 0])


def _fractional_radius(data):
    data["box_radius"] = 1.9


def _boolean_d(data):
    data["d"] = True


def _fractional_member(data):
    data["clusters"][0]["members"][0] = [-1.5, -2]


def _huge_radius(data):
    data["box_radius"] = 10**9


def _huge_d(data):
    data["d"] = 10**9


@pytest.mark.parametrize("edit, message", [
    (_duplicate, "clusters[1].members[11]: [-2, -2] is listed twice"),
    (_outside, "clusters[0].members[0]: [-3, -2] lies outside [-2, 2]^2"),
    (_wrong_length, "clusters[0].members[0]: [-2, -2, 0] has length 3, d is 2"),
    (_empty, "clusters[0].members: empty"),
    (_uncovered, "clusters: 24 sites, not one per site of [-2, 2]^2"),
    (_fractional_radius, "box_radius: 1.9 is not a nonnegative integer"),
    (_boolean_d, "d: True is not a nonnegative integer"),
    (_fractional_member,
     "clusters[0].members[0]: [-1.5, -2] has a non-integer coordinate"),
    # the member count is compared before a box is allocated
    (_huge_radius,
     "clusters: 25 sites, not one per site of [-1000000000, 1000000000]^2"),
    (_huge_d, "clusters: 25 sites, not one per site of [-2, 2]^1000000000"),
], ids=["duplicate", "outside", "wrong_length", "empty", "uncovered",
        "fractional_radius", "boolean_d", "fractional_member", "huge_radius",
        "huge_d"])
def test_from_dict_refuses_a_partition_that_is_not_of_the_box(edit, message):
    data = _radius_2_partition().to_dict()
    assert ClusterPartition.from_dict(data) == _radius_2_partition()
    edit(data)
    with pytest.raises(ValueError) as caught:
        ClusterPartition.from_dict(data)
    assert str(caught.value) == message


@pytest.mark.parametrize("field, value", [
    ("id", 7), ("m_alpha", 5), ("M_alpha", 0), ("boundary", False),
    ("margin", 0),
])
def test_from_dict_derives_the_cluster_fields(field, value):
    # only box_radius, d, delta and the members are read back
    part = _radius_2_partition()
    data = part.to_dict()
    for rec in [data] if field == "margin" else data["clusters"]:
        rec[field] = value
    assert ClusterPartition.from_dict(data) == part


@pytest.mark.parametrize("cluster, message", [
    ([0] * 8, "cluster: 8 sites, not one per site of [-1, 1]^2"),
    ([0] * 8 + [-1], "cluster: an id is not a nonnegative int"),
    ([0] * 8 + [True], "cluster: an id is not a nonnegative int"),
    ([0] * 8 + [1.0], "cluster: an id is not a nonnegative int"),
    ([0] * 8 + ["1"], "cluster: an id is not a nonnegative int"),
    ([0] * 8 + [2], "cluster: id 1 is unused"),
], ids=["length", "negative", "bool", "float", "str", "unused"])
def test_constructor_refuses_ids_that_are_no_partition(cluster, message):
    part = ClusterPartition(1, 2, Fr(1, 10), [0] * 8 + [1])
    assert [part.members(0), part.members(1)] == [list(range(8)), [8]]
    with pytest.raises(ValueError) as caught:
        ClusterPartition(1, 2, Fr(1, 10), cluster)
    assert str(caught.value) == message


# members(c) reads the layout fields _first and _groups
@pytest.mark.parametrize("names", [
    ("margin",), ("_first", "_groups"), ("m_alpha",), ("M_alpha",),
    ("boundary",)], ids=["margin", "members", "m_alpha", "M_alpha", "boundary"])
def test_derived_fields_cannot_be_set(names):
    part = _radius_2_partition()
    for name in names:
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(part, **{name: getattr(part, name)})
        with pytest.raises(TypeError):
            ClusterPartition(2, 2, Fr(1, 10), part.cluster,
                             **{name: getattr(part, name)})
    # a defining field may be replaced: the rest is derived again
    assert type(part.cluster) is tuple
    assert dataclasses.replace(part, cluster=list(part.cluster)) == part
    wide = dataclasses.replace(part, delta="9/10")
    assert (wide.delta, wide.margin) == (Fr(9, 10), 5)


def oracle_partition(radius, d, delta, cluster):
    """Per id its member list, least and largest sup norm and boundary flag,
    and the margin: one member list per id, then min and max of the sup
    norms of its sites."""
    sites = box_sites(radius, d)
    members = [[] for _ in range(max(cluster) + 1)]
    for i, c in enumerate(cluster):
        members[c].append(i)
    sups = [[sup_norm(sites[i]) for i in group] for group in members]
    # the least m with m**q >= (2N)**p: ceil((2N)**delta) for delta p/q
    reach = 0
    while reach ** delta.denominator < (2 * radius) ** delta.numerator:
        reach += 1
    margin = reach + 1
    M_alpha = list(map(max, sups))
    return (members, list(map(min, sups)), M_alpha,
            [radius - M <= margin for M in M_alpha], margin)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", range(5))
def test_constructor_matches_member_list_oracle(d, radius):
    rng = random.Random(f"ids {d} {radius}")
    n = (2 * radius + 1) ** d
    # one cluster, all singletons in a random id order, and random
    # surjections onto k ids in random order and relabelled canonically
    arrays = [[0] * n, rng.sample(range(n), n)]
    for _ in range(8):
        k = rng.randint(1, n)
        ids = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(ids)
        canonical = {}
        arrays += [ids, [canonical.setdefault(c, len(canonical))
                         for c in ids]]
    for ids in arrays:
        part = ClusterPartition(radius, d, Fr(rng.randint(1, 99),
                                              rng.randint(100, 10**4)), ids)
        # from_dict takes the ids from the order of the records
        data = part.to_dict()
        rng.shuffle(data["clusters"])
        for p in (part, ClusterPartition.from_dict(data)):
            members, m_alpha, M_alpha, boundary, margin = \
                oracle_partition(radius, d, p.delta, p.cluster)
            assert list(map(p.members, range(len(members)))) == members
            assert (p.m_alpha, p.M_alpha, p.boundary, p.margin) == \
                (m_alpha, M_alpha, boundary, margin)


def test_cluster_of_reads_box_sites_and_refuses_others():
    part = build_partition(B2, 4, Fr(1, 10), enforce_delta_bound=False)
    # the id of the record that lists the site, as the partition file says
    listed = {tuple(j): rec["id"] for rec in part.to_dict()["clusters"]
              for j in rec["members"]}
    assert [part.cluster_of(j) for j in box_sites(4, 2)] == \
        [listed[j] for j in box_sites(4, 2)]
    with pytest.raises(ValueError, match=r"^\[0, 0, 0\] has length 3, d is 2$"):
        part.cluster_of((0, 0, 0))
    with pytest.raises(ValueError, match=r"^\[5, 0\] lies outside \[-4, 4\]\^2$"):
        part.cluster_of((5, 0))
    # a block matrix takes its sites where it is built, by the same rule
    with pytest.raises(BoxMismatch, match=r"\[5, 0\] lies outside"):
        BlockMatrix.from_entries(4, 2, {((5, 0), (0, 0)): 1})


def test_verify_properties_no_violations():
    part = build_partition(B1, 64, Fr(1, 10), enforce_delta_bound=False)
    table = box_table(B1, 64, Fr(1, 10))
    rep = verify_cluster_properties(table, part, relation_links(table))
    assert rep.separation_violations == []
    assert rep.dyadic_violations == []
    assert rep.pairs_checked > 0


def test_verify_exhaustive_cross_pairs_d1():
    # direct all-pairs scan as the oracle for the locality-restricted check
    part = build_partition(B1, 20, Fr(1, 10), enforce_delta_bound=False)
    interior = {c for c, boundary in enumerate(part.boundary) if not boundary}
    from toruskit.lattice import mu

    sites = box_sites(20, 1)
    for a in sites:
        for b in sites:
            if b <= a:
                continue
            ca, cb = part.cluster_of(a), part.cluster_of(b)
            if ca == cb or ca not in interior or cb not in interior:
                continue
            spread = max(abs(x - y) for x, y in zip(a, b)) + abs(mu(B1, a) - mu(B1, b))
            s = max(abs(x) for x in a) + max(abs(x) for x in b)
            assert float(spread) > float(s) ** 0.1


def test_chain_witness_replay_and_symmetry():
    rng = random.Random(5)
    for _ in range(50):
        a = (rng.randint(-8, 8),)
        b = (rng.randint(-8, 8),)
        if a == b:
            continue
        assert is_gamma_link(B1, a, b, 5) == is_gamma_link(B1, b, a, 5)


def test_chain_scaling_monotone_and_bounded():
    res = chain_scaling_experiment(B1, [2, 4, 8, 16], 50)
    lengths = [r.length for r in res.rows]
    assert lengths == sorted(lengths)
    assert res.slope <= res.slope_bound
    assert [r.witness.gamma for r in res.rows] == [2, 4, 8, 16]
    assert all(r.witness.is_valid(B1) for r in res.rows)
    with pytest.raises(ValueError):
        chain_scaling_experiment(B1, [1], 10)


def test_chain_scaling_propagates_truncation():
    cut = chain_scaling_experiment(B1, [8], 50, node_budget=3)
    assert cut.rows[0].truncated


def test_chain_scaling_d2_small():
    res = chain_scaling_experiment(B2, [2, 4], 6)
    assert res.slope <= chain_exponent(2)
    assert all(r.witness.is_valid(B2) for r in res.rows)


def test_invalid_chain_detected():
    chain = GammaChain(((0,), (5,)), 2)
    assert not chain.is_valid(B1)
    dup = GammaChain(((0,), (1,), (0,)), 5)
    assert not dup.is_valid(B1)


def offset_runs(box_radius, d, link_radius):
    """Per positive offset ``o``, in order: ``(|o|, step, starts)``.

    ``starts`` lists, ascending, the indices i into ``box_sites(box_radius,
    d)`` whose site plus ``o`` is still in the box; that site has index
    ``i + step``, because the box is row-major.  Every box pair joined by an
    offset of sup-norm at most ``link_radius`` lies in exactly one run: the
    whole-box scan that the slab runs of ``_slab_runs`` are checked against.
    """
    L = 2 * box_radius + 1
    strides = [L ** (d - 1 - t) for t in range(d)]
    for o in positive_offsets(d, link_radius):
        # zero-based coordinates c with 0 <= c + a < L, axis by axis
        starts = [0]
        for a, stride in zip(o, strides):
            starts = [i + c * stride for i in starts
                      for c in range(max(0, -a), min(L, L - a))]
        yield sup_norm(o), sum(map(operator.mul, o, strides)), starts


def box_pairs(box_radius, d, link_radius):
    """Index pairs (i, k) into ``box_sites(box_radius, d)`` from the offset
    runs, site first: ``sites[k] - sites[i]`` is a positive offset of
    sup-norm at most ``link_radius``, a site's offsets in lexicographic
    order, which is the order of k."""
    return sorted((i, i + step) for _, step, starts
                  in offset_runs(box_radius, d, link_radius) for i in starts)


# (dimension, box radius) of the differential cases; the box stays small
# because the oracle tests every pair of sites.
@pytest.mark.parametrize("radius,d,link", [(0, 1, 1), (0, 2, 1), (3, 1, 1),
                                            (3, 1, 6), (2, 2, 1), (2, 2, 3),
                                            (2, 2, 4), (1, 3, 2), (2, 3, 1)])
def test_box_pairs_match_site_then_offset_oracle(radius, d, link):
    # the box scan as a dict lookup per site and offset, in that order
    sites = box_sites(radius, d)
    index = {j: i for i, j in enumerate(sites)}
    expected = [(i, index[k]) for i, j in enumerate(sites)
                for k in (tuple(a + b for a, b in zip(j, o))
                          for o in positive_offsets(d, link))
                if k in index]
    assert box_pairs(radius, d, link) == expected


DIFF_CASES = [(1, 12), (2, 4), (3, 2)]


def random_sheared_rows(rng, d):
    """Unit-ish diagonal with random rational shears above it."""
    rows = [[Fr(0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = Fr(rng.randint(2, 6), rng.randint(2, 5))
        for k in range(i + 1, d):
            rows[i][k] = Fr(rng.randint(-4, 4), rng.randint(1, 5))
    return rows


def oracle_links(basis, radius, delta):
    """Every pair of box sites, each tested by relation_link."""
    sites = box_sites(radius, basis.d)
    return [(i, k) for i in range(len(sites)) for k in range(i + 1, len(sites))
            if relation_link(basis, sites[i], sites[k], delta)]


def oracle_components(sites, links):
    nbrs = {j: set() for j in sites}
    for i, k in links:
        nbrs[sites[i]].add(sites[k])
        nbrs[sites[k]].add(sites[i])
    seen, groups = set(), []
    for j in sites:
        if j in seen:
            continue
        stack, group = [j], []
        seen.add(j)
        while stack:
            x = stack.pop()
            group.append(x)
            for y in nbrs[x] - seen:
                seen.add(y)
                stack.append(y)
        groups.append(tuple(sorted(group)))
    return sorted(groups)


# "floating" runs each case on the generators typed as floats, which are
# read as their decimals: another exact torus
@pytest.mark.parametrize("entries", ["exact", "floating"])
@pytest.mark.parametrize("d,radius", DIFF_CASES)
def test_relation_links_match_all_pairs_oracle(d, radius, entries, tmp_path):
    rng = random.Random(1000 * d + radius)
    delta = Fr(1, 2)
    for trial in range(2):
        rows = random_sheared_rows(rng, d)
        if entries == "floating":
            rows = [[float(x) for x in row] for row in rows]
        basis = new_lattice(rows)
        expected = oracle_links(basis, radius, delta)
        assert relation_links(box_table(basis, radius, delta)) == expected
        sites = box_sites(radius, d)
        part = build_partition(basis, radius, delta, enforce_delta_bound=False)
        assert [tuple(sites[i] for i in part.members(c))
                for c in range(len(part.M_alpha))] == \
            oracle_components(sites, expected)

        lattice = {"matrix": [[format_rational(x) if entries == "exact" else x
                               for x in row] for row in rows]}
        out = tmp_path / f"{trial}"
        run_experiment(normalize({
            "kind": "cluster", "cache": False, "out_dir": str(out),
            "lattice": lattice,
            "params": {"box_radius": radius, "delta": "1/2",
                       "allow_delta_above_theorem": True,
                       "edges_csv": True}}))
        lines = (out / "edges.csv").read_text().splitlines()
        assert lines == ["j1,j2"] + [
            f"\"{list(sites[i])}\",\"{list(sites[k])}\"" for i, k in expected]
        # the run groups its links with the box table it scanned them from
        written = ClusterPartition.from_dict(
            json.loads((out / "partition.json").read_text()))
        assert written == part


@pytest.mark.parametrize("entries", ["exact", "floating"])
def test_relation_links_float_delta_match_oracle(entries):
    # a float delta reads as its decimal, as float generators do
    rows = random_sheared_rows(random.Random(5), 2)
    if entries == "floating":
        rows = [[float(x) for x in row] for row in rows]
    basis = new_lattice(rows)
    assert relation_links(box_table(basis, 4, 0.5)) == oracle_links(
        basis, 4, Fr(1, 2))


def oracle_verify(basis, part):
    """verify_cluster_properties' separation scan and growth fit, per pair.

    Every pair of box sites in interior clusters with spatial gap at most
    the link radius, in site order (the order of box_pairs), on Fraction
    eigenvalues compared by le_pow.
    """
    N, d, delta = part.box_radius, part.d, part.delta
    interior = {c for c, boundary in enumerate(part.boundary) if not boundary}
    sites = box_sites(N, d)
    mus = {j: mu(basis, j) for j in sites}
    link = 1
    while le_pow(link + 1, 2 * N, delta):
        link += 1
    violations, pairs = [], 0
    # a pair with a site outside the interior clusters is no cross pair
    inner = [j for j in sites if part.cluster_of(j) in interior]
    for i, j in enumerate(inner):
        for j2 in inner[i + 1:]:
            spatial = max(abs(a - b) for a, b in zip(j, j2))
            if spatial > link or part.cluster_of(j) == part.cluster_of(j2):
                continue
            pairs += 1
            spread = spatial + abs(mus[j] - mus[j2])
            if le_pow(spread, sup_norm(j) + sup_norm(j2), delta):
                violations.append((j, j2))
    exponent = (chain_exponent(d) + 1) * float(delta)
    fitted_c = fitted_e = 0.0
    for c in interior:
        members = [sites[i] for i in part.members(c)]
        for a, j in enumerate(members):
            for j2 in members[a + 1:]:
                spread = float(max(abs(x - y) for x, y in zip(j, j2))
                               + abs(mus[j] - mus[j2]))
                s = sup_norm(j) + sup_norm(j2)
                fitted_c = max(fitted_c, spread / float(s) ** exponent)
                if s >= 2 and spread > 0:
                    fitted_e = max(fitted_e, math.log(spread) / math.log(s))
    return violations, pairs, fitted_c, fitted_e


def verify_on_links(basis, part):
    """verify_cluster_properties on the part's box table and its links."""
    table = box_table(basis, part.box_radius, part.delta)
    return verify_cluster_properties(table, part, relation_links(table))


def singleton_partition(radius, d, delta):
    """Every box site its own cluster: every scanned pair of interior sites
    is cross."""
    return ClusterPartition(radius, d, delta, range((2 * radius + 1) ** d))


def interior_sups(part):
    return {M for M, boundary in zip(part.M_alpha, part.boundary)
            if not boundary}


# (d, box radius, delta): each box has interior sites at sup norm
# N - margin - 1, where an offset of the link radius reaches furthest; at
# d = 2, 16**(1/4) = 2 makes the link radius margin - 1, its largest
VERIFY_CASES = [(1, 40, Fr(1, 3)), (2, 8, Fr(1, 4)), (3, 6, Fr(1, 3))]


@pytest.mark.parametrize("entries", ["exact", "floating"])
@pytest.mark.parametrize("d,radius,delta", VERIFY_CASES)
def test_verify_matches_per_pair_oracle(d, radius, delta, entries):
    rng = random.Random(77 * d + radius)
    rows = random_sheared_rows(rng, d)
    # long generators: small eigenvalue gaps, so the singletons collide
    long_rows = [[8 * x for x in row] for row in rows]
    if entries == "floating":
        rows, long_rows = ([[float(x) for x in row] for row in r]
                           for r in (rows, long_rows))
    basis = new_lattice(long_rows)
    adversarial = singleton_partition(radius, d, delta)
    assert radius - adversarial.margin - 1 in interior_sups(adversarial)
    rep = verify_on_links(basis, adversarial)
    violations, pairs, _, _ = oracle_verify(basis, adversarial)
    assert violations, "the adversarial partition should show violations"
    assert rep.separation_violations == violations
    assert rep.pairs_checked == pairs
    # built partitions at delta and at a smaller delta, with boundary and
    # interior clusters: the growth fit runs over each interior cluster's
    # pairs as well
    basis = new_lattice(rows)
    fitted = 0
    for dl in (delta, delta / 2):
        built = build_partition(basis, radius, dl, enforce_delta_bound=False)
        assert set(built.boundary) == {True, False}
        rep = verify_on_links(basis, built)
        fitted = max(fitted, rep.fitted_constant)
        assert (rep.separation_violations, rep.pairs_checked,
                rep.fitted_constant, rep.fitted_exponent) == \
            oracle_verify(basis, built)
    assert fitted > 0


@pytest.mark.parametrize("d,radius,delta", VERIFY_CASES)
def test_pair_count_matches_per_pair_oracle(d, radius, delta):
    # cluster ids of random runs of row-major indices: interior clusters of
    # one to four sites next to boundary ones; singletons first, so that
    # interior sites at sup N - margin - 1 occur
    rng = random.Random(f"pairs {d} {radius}")
    n = (2 * radius + 1) ** d
    sites = box_sites(radius, d)
    table = box_table(new_lattice([[int(r == c) for c in range(d)]
                                   for r in range(d)]), radius, delta)
    link = floor_pow(2 * radius, delta)
    for longest in (1, 2, 4, 4):
        cluster, c = [], 0
        while len(cluster) < n:
            cluster += [c] * rng.randint(1, longest)
            c += 1
        part = ClusterPartition(radius, d, delta, cluster[:n])
        assert longest > 1 or radius - part.margin - 1 in interior_sups(part)
        interior = [j for j in sites
                    if not part.boundary[part.cluster_of(j)]]
        pairs = sum(part.cluster_of(j) != part.cluster_of(j2)
                    and max(map(abs, map(operator.sub, j, j2))) <= link
                    for a, j in enumerate(interior) for j2 in interior[a + 1:])
        assert verify_cluster_properties(table, part, []).pairs_checked == \
            pairs > 0


# (rows, radius): sheared, diagonal, dense rational; each also runs on its
# entries typed as floats.
# diag(1, 5/3) has eigenvalue gaps 6/5 and 7/5, which the floats 1.2 and 1.4
# round from below, and [[5/2]] has 12/5 (2.4), so a float gamma there is
# only exact when compared as a rational.
CHAIN_BASES = [
    ([["1"]], 4),
    ([["5/2"]], 4),
    ([["1", "0"], ["1/2", "1"]], 4),
    ([["1", "0"], ["0", "5/3"]], 4),
    ([["2", "1/3"], ["-1/2", "3/2"]], 3),
    ([["1", "0", "0"], ["1/2", "1", "0"], ["0", "1/3", "1"]], 2),
    ([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1/2"]], 2),
    ([["2", "1/3", "0"], ["-1/2", "3/2", "1/4"], ["1", "0", "5/4"]], 2),
]


@pytest.mark.parametrize("entries", ["exact", "floating"])
@pytest.mark.parametrize("rows,radius", CHAIN_BASES)
def test_chain_adjacency_matches_gamma_link_oracle(monkeypatch, rows, radius,
                                                   entries):
    import toruskit.clusters as clusters

    if entries == "floating":
        rows = [[float(Fr(x)) for x in row] for row in rows]
    basis = new_lattice(rows)
    sites = box_sites(radius, basis.d)
    captured = []
    search_longest_path = clusters.longest_path

    def capture(adjacency, **kwargs):
        captured.append(adjacency)
        return search_longest_path(adjacency, **kwargs)

    monkeypatch.setattr(clusters, "longest_path", capture)
    # is_gamma_link(a, b, gamma) is phi_distance(a, b) <= gamma; one
    # distance per pair serves every gamma
    pairs = [(i, k, phi_distance(basis, sites[i], sites[k]))
             for i, k in itertools.combinations(range(len(sites)), 2)]
    for gamma in (1, 3, Fr(7, 5), Fr(12, 5), 1.2, 1.4, 2.4):
        oracle = [[] for _ in sites]
        for i, k, dist in pairs:
            if dist <= gamma:
                oracle[i].append(k)
                oracle[k].append(i)
        max_chain_length(basis, radius, gamma, node_budget=1)
        assert captured.pop() == [sorted(nbrs) for nbrs in oracle], gamma


def random_full_basis(rng, d):
    # entries of both signs everywhere, so Gram entries off the diagonal
    # come out negative as well as positive
    while True:
        rows = [[Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
                for _ in range(d)]
        try:
            return new_lattice(rows)
        except SingularGenerators:
            pass


def offset_scan_pairs(n, radius, d, link, reach):
    """``(i, k, |o|)`` of the offset runs with ``|n_k - n_i| <= reach``,
    each pair of the whole box tested."""
    return sorted((i, i + step, spatial) for spatial, step, starts
                  in offset_runs(radius, d, link) for i in starts
                  if abs(n[i + step] - n[i]) <= reach)


def slab_pairs(basis, radius, link, reach):
    return sorted((i, i + step, spatial) for spatial, step, starts
                  in _slab_runs(basis, radius, link, reach) for i in starts)


def slab_axis_negative(basis, link):
    # some offset whose (G + G^T) o is largest in size at a negative entry
    G = basis.gram[0]
    for o in positive_offsets(basis.d, link):
        v = [sum((G[a][b] + G[b][a]) * o[b] for b in range(basis.d))
             for a in range(basis.d)]
        if max(v, key=abs) < 0:
            return True
    return False


# (d, box radii); box 0 has offsets of a negative index step and no pair
SLAB_CASES = [(1, (0, 1, 4, 9)), (2, (0, 1, 2, 4)), (3, (0, 1, 2))]


@pytest.mark.parametrize("d,radii", SLAB_CASES)
def test_slab_runs_match_offset_scan(d, radii):
    rng = random.Random(300 + d)
    negative = False
    for radius in radii:
        for _ in range(3):
            basis = random_full_basis(rng, d)
            n = _box_numerators(basis, radius)[1]
            spread = max(n) - min(n)
            # link radii up to past 2N, where the scan caps them
            for link in sorted({1, max(1, radius), 2 * radius + 2}):
                negative |= slab_axis_negative(basis, link)
                for reach in (0, 1, rng.randint(0, spread), spread):
                    assert slab_pairs(basis, radius, link, reach) == \
                        offset_scan_pairs(n, radius, d, link, reach), \
                        (basis.V, radius, link, reach)
    # in 1-d, (G + G^T) o = 2*G*o > 0 for every positive offset
    assert negative or d == 1


def offset_scan_links(table):
    """relation_links as the whole-box offset scan: every pair within the
    link radius tested."""
    basis, N, delta, _, n, sup, D, T = table
    return sorted((i, i + step) for spatial, step, starts
                  in offset_runs(N, basis.d, max(1, floor_pow(2 * N, delta)))
                  for i in starts
                  if max(D * spatial, abs(n[i + step] - n[i]))
                  <= T[sup[i] + sup[i + step]])


@pytest.mark.parametrize("d,radii", SLAB_CASES)
def test_relation_links_match_offset_scan(d, radii):
    rng = random.Random(400 + d)
    for radius in radii:
        for delta in (Fr(1, 10), Fr(1, 2), Fr(9, 10)):
            basis = random_full_basis(rng, d)
            table = box_table(basis, radius, delta)
            assert relation_links(table) == offset_scan_links(table), \
                (basis.V, radius, delta)


@pytest.mark.parametrize("d,radii", SLAB_CASES)
def test_chain_adjacency_matches_offset_scan(monkeypatch, d, radii):
    import toruskit.clusters as clusters

    captured = []
    search_longest_path = clusters.longest_path

    def capture(adjacency, **kwargs):
        captured.append(adjacency)
        return search_longest_path(adjacency, **kwargs)

    monkeypatch.setattr(clusters, "longest_path", capture)
    rng = random.Random(500 + d)
    for radius in radii:
        if radius < 1:
            continue
        basis = random_full_basis(rng, d)
        sites, n, D = _box_numerators(basis, radius)
        # gamma above 2N links at every offset of the box
        for gamma in (1, Fr(7, 5), 2.4, 3, 2 * radius + 3):
            max_chain_length(basis, radius, gamma, node_budget=1)
            oracle = [[] for _ in sites]
            for i, k, _ in offset_scan_pairs(n, radius, d, math.floor(gamma),
                                             math.floor(D * Fr(gamma))):
                oracle[i].append(k)
                oracle[k].append(i)
            assert captured.pop() == [sorted(nbrs) for nbrs in oracle], \
                (basis.V, radius, gamma)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_row_wise_numerators_match_mu_numerator(d):
    rng = random.Random(40 + d)
    negative = False
    for radius in (0, 1, 2, 3):
        for _ in range(3):
            basis = random_full_basis(rng, d)
            G, D = basis.gram
            negative |= any(G[a][b] < 0 for a in range(d) for b in range(d)
                            if a != b)
            sites, n, D_table = _box_numerators(basis, radius)
            assert sites == box_sites(radius, d)
            assert n == [mu_numerator(basis, j) for j in sites]
            assert D_table == D
    assert negative or d == 1


def test_chain_rows_unchanged_by_row_wise_numerators(monkeypatch):
    import toruskit.clusters as clusters

    basis = new_lattice([["1", "0"], ["1/2", "1"]])   # the README lattice

    def rows():
        result = chain_scaling_experiment(basis, [2, 4, 8], 4,
                                          node_budget=3000)
        return [(r.length, r.truncated, r.expanded, r.floods,
                 r.witness.sites) for r in result.rows]

    row_wise = rows()
    assert [row[0] for row in row_wise] == [35, 71, 78]

    def per_site(basis, box_radius, link_radius, reach):
        # the whole-box offset scan on per-site numerators
        n = [mu_numerator(basis, j) for j in box_sites(box_radius, basis.d)]
        for spatial, step, starts in offset_runs(box_radius, basis.d,
                                                 link_radius):
            yield spatial, step, [i for i in starts
                                  if abs(n[i + step] - n[i]) <= reach]

    monkeypatch.setattr(clusters, "_slab_runs", per_site)
    assert rows() == row_wise


@pytest.mark.parametrize("edges_csv", [True, False])
def test_cluster_call_builds_one_box_table(monkeypatch, tmp_path, edges_csv):
    import toruskit.clusters as clusters
    import toruskit.runner as runner

    calls = []

    def counted(*args):
        calls.append(args)
        return box_table(*args)

    # the runner's binding and the one the clusters functions look up
    monkeypatch.setattr(clusters, "box_table", counted)
    monkeypatch.setattr(runner, "box_table", counted)
    monkeypatch.setenv("TORUSKIT_CACHE", str(tmp_path / "cache"))
    partitions = []
    for cache, state in ((False, "off"), (True, "on"), (True, "again")):
        out = tmp_path / state
        report = run_experiment(normalize({
            "kind": "cluster", "cache": cache, "out_dir": str(out),
            "lattice": {"matrix": [["1", "2/3"], ["0", "1"]]},
            "params": {"box_radius": 6, "delta": "1/10",
                       "allow_delta_above_theorem": True,
                       "edges_csv": edges_csv}}))
        assert report.passed
        assert len(calls) == 1, state
        calls.clear()
        partitions.append((out / "partition.json").read_bytes())
    assert partitions[0] == partitions[1] == partitions[2]


def test_a_box_table_of_another_box_is_refused():
    part = build_partition(B2, 5, Fr(1, 10), enforce_delta_bound=False)
    for table in (box_table(B2, 4, Fr(1, 10)), box_table(B2, 5, Fr(1, 20)),
                  box_table(new_lattice([["1"]]), 5, Fr(1, 10))):
        with pytest.raises(ValueError, match="box table of another"):
            verify_cluster_properties(table, part, relation_links(table))
