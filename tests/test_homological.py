"""Block splitting, homological solves, weight operator, decay diagnostics."""

import json
import random
import re
from fractions import Fraction as Fr
from itertools import chain

import pytest

from toruskit.exact import QQi, ge_pow
from toruskit.errors import BoxMismatch, IntraClusterEntry, SingularGenerators
from toruskit.homological import (
    BlockMatrix,
    cluster_weight_operator,
    commutator,
    decay_profile,
    dn_split,
    HomologicalSolution,
    homological_residual,
    norm_equivalence_constants,
    random_cross_cluster_matrix,
    solve_homological,
    verify_remainder_support,
)
from toruskit.clusters import box_sites, box_table, build_partition
from toruskit.lattice import mu, new_lattice

B2 = new_lattice([[1, 0], [0, 1]])
DELTA = Fr(1, 10)


def partition(radius=8):
    return build_partition(B2, radius, DELTA, enforce_delta_bound=False)


TABLE = box_table(B2, 8, DELTA)


def _site_entries(Q):
    """``Q``'s entries keyed by site pairs, in ``Q``'s key order."""
    sites = box_sites(Q.box_radius, Q.d)
    return {(sites[i], sites[k]): v for (i, k), v in Q.entries.items()}


def _identity_table(d, radius):
    # the box's sites and sup norms; the decay profile reads no eigenvalue
    return box_table(new_lattice([[int(r == c) for c in range(d)]
                                  for r in range(d)]), radius, DELTA)


def test_solve_homological_needs_an_exact_basis():
    # float generators give one: the exact basis of their decimals
    floating = new_lattice([[1.0, 0.0], [0.0, 1.0]])
    assert floating == B2
    part = partition()
    W = random_cross_cluster_matrix(part, 10, random.Random(0))
    assert solve_homological(box_table(floating, 8, DELTA), W, part) == \
        solve_homological(TABLE, W, part)


def test_exact_only_primitives_name_their_rule():
    from toruskit.homological import gap_clears

    with pytest.raises(TypeError, match=r"delta 0\.1: .*int or Fraction"):
        gap_clears(3, 0.1)(1, 4)


def test_split_diagonal_matrix():
    part = partition()
    Q = BlockMatrix.from_entries(8, 2, {((1, 1), (1, 1)): QQi(2, 0),
                                        ((0, 1), (0, 1)): QQi(0, 3)})
    q_d, q_nd = dn_split(Q, part)
    assert q_nd.entries == {}
    assert q_d == Q


def test_split_recombines():
    part = partition()
    rng = random.Random(0)
    Q = random_cross_cluster_matrix(part, 60, rng)
    extra = BlockMatrix.from_entries(8, 2, {((2, 2), (2, 2)): QQi(1, 1)})
    Q = Q + extra
    q_d, q_nd = dn_split(Q, part)
    assert q_d + q_nd == Q
    # idempotence of the split
    assert dn_split(q_d, part) == (q_d, BlockMatrix(8, 2, {}))
    assert dn_split(q_nd, part) == (BlockMatrix(8, 2, {}), q_nd)


def test_split_box_mismatch():
    part = partition()
    Q = BlockMatrix.from_entries(4, 2, {((0, 0), (1, 1)): QQi(1, 0)})
    with pytest.raises(BoxMismatch):
        dn_split(Q, part)


@pytest.mark.parametrize("key", [(-1, 0), (0, 81), (0, 1, 2)],
                         ids=["negative", "past-end", "triple"])
def test_block_matrix_keys_index_the_box(key):
    # radius 4, d 2: the box has 81 sites, indices 0..80; a key outside
    # would read another site through Python's indexing, so the
    # constructor refuses it before any reader sees it
    part = partition(4)
    message = re.escape(f"entry key {key}: not a pair of indices in [0, 81)")
    with pytest.raises(BoxMismatch, match=message):
        BlockMatrix(4, 2, {(0, 80): QQi(1, 0), key: QQi(2, 0)})
    # the corner indices themselves are in the box
    good = BlockMatrix(4, 2, {(0, 80): QQi(1, 0), (80, 0): QQi(2, 0)})
    assert [(r["j"], r["j_prime"]) for r in good.to_triplets()] == [
        ([-4, -4], [4, 4]), ([4, 4], [-4, -4])]
    assert sum(dn_split(good, part), BlockMatrix(4, 2, {})) == good


def test_block_matrix_entries_are_read_only():
    # the constructor's checks hold for the matrix's lifetime: neither a
    # constructed nor a derived matrix takes a new entry
    Q = BlockMatrix(4, 1, {(0, 1): QQi(1, 0)})
    for M in (Q, Q + Q):
        with pytest.raises(TypeError):
            M.entries[(-1, 0)] = QQi(1, 0)
    assert Q.entries == {(0, 1): QQi(1, 0)}


@pytest.mark.parametrize("value, name", [(True, "bool"), ("1/2", "str")])
def test_block_matrix_refuses_a_bool_or_str_value(value, name):
    with pytest.raises(TypeError, match=re.escape(
            f"entry key (0, 1): a block-matrix value is an int, Fraction, "
            f"QQi, float or complex, not {name}")):
        BlockMatrix(4, 2, {(0, 1): value})
    with pytest.raises(TypeError, match=name):
        BlockMatrix.from_entries(4, 2, {((0, 0), (1, 0)): value})


def _bad_key_calls():
    # each reader of a block matrix, as a call on the matrix alone
    part = partition(4)
    table = box_table(B2, 4, DELTA)
    empty = BlockMatrix(4, 2, {})
    return {
        "solve_homological": lambda Q: solve_homological(table, Q, part),
        "homological_residual": lambda Q: homological_residual(
            table, Q, HomologicalSolution(empty, empty, DELTA)),
        "commutator": lambda Q: commutator(Q, cluster_weight_operator(part)),
        "decay_profile": lambda Q: decay_profile(table, Q, 1, [1]),
        "verify_remainder_support": lambda Q: verify_remainder_support(
            table, HomologicalSolution(empty, Q, DELTA)),
    }


@pytest.mark.parametrize("reader", sorted(_bad_key_calls()))
def test_readers_cannot_be_handed_a_bad_key(reader):
    # a negative key would read the last site and a key past the end would
    # raise IndexError deep in a reader, so no matrix may hold either
    call = _bad_key_calls()[reader]
    for key in ((-1, 0), (0, 81)):
        with pytest.raises(BoxMismatch, match="not a pair of indices"):
            call(BlockMatrix(4, 2, {key: QQi(1, 0)}))
    good = BlockMatrix(4, 2, {(0, 80): QQi(1, 0)})
    call(good)


def test_solve_large_gap_entry():
    part = partition()
    W = BlockMatrix.from_entries(8, 2, {((0, 0), (3, 4)): QQi(1, 0)})
    sol = solve_homological(TABLE, W, part)
    # eigenvalue gap 25 clears the threshold (|j|+|j'|)^0.1 / 4
    assert sol.X.get((0, 0), (3, 4)) == QQi(Fr(1, 25), 0)
    assert sol.R.entries == {}


def test_solve_equal_eigenvalues_go_to_remainder():
    part = partition()
    assert mu(B2, (3, 4)) == mu(B2, (5, 0))
    assert part.cluster_of((3, 4)) != part.cluster_of((5, 0))
    W = BlockMatrix.from_entries(8, 2, {((3, 4), (5, 0)): QQi(2, -1)})
    sol = solve_homological(TABLE, W, part)
    assert sol.X.entries == {}
    assert sol.R.get((3, 4), (5, 0)) == QQi(-2, 1)


def test_solve_zero_matrix():
    part = partition()
    sol = solve_homological(TABLE, BlockMatrix(8, 2, {}), part)
    assert sol.X.entries == {} and sol.R.entries == {}


def test_solve_rejects_intra_cluster():
    part = partition()
    sites = box_sites(8, 2)
    members = next(m for m in map(part.members, range(len(part.M_alpha)))
                   if len(m) > 1)
    W = BlockMatrix.from_entries(
        8, 2, {(sites[members[0]], sites[members[1]]): QQi(1, 0)})
    with pytest.raises(IntraClusterEntry):
        solve_homological(TABLE, W, part)


def test_homological_identity_exact():
    part = partition()
    rng = random.Random(1)
    W = random_cross_cluster_matrix(part, 120, rng)
    sol = solve_homological(TABLE, W, part)
    assert homological_residual(TABLE, W, sol) is None
    assert not (set(sol.X.entries) & set(sol.R.entries))
    assert set(sol.X.entries) | set(sol.R.entries) == set(W.entries)
    # every kept entry replays the gap threshold, every dropped one fails it
    from toruskit.exact import ge_pow
    for (j, j2) in _site_entries(sol.X):
        gap = abs(mu(B2, j2) - mu(B2, j))
        s = max(abs(x) for x in j) + max(abs(x) for x in j2)
        assert ge_pow(4 * gap, s, DELTA)


def test_weight_operator_values_and_commutator():
    part = partition()
    weight = cluster_weight_operator(part)
    # singletons carry their own squared sup-norm
    sites = box_sites(8, 2)
    singleton = next(c for c in range(len(part.M_alpha))
                     if len(part.members(c)) == 1 and part.M_alpha[c] > 2)
    j = sites[part.members(singleton)[0]]
    assert weight.get(j, j) == part.M_alpha[singleton]**2
    # the origin cluster contains the unit modes, so its weight is 1
    origin = part.cluster_of((0, 0))
    assert part.M_alpha[origin] == 1
    for i in part.members(origin):
        assert weight.get(sites[i], sites[i]) == 1
    rng = random.Random(2)
    Q = random_cross_cluster_matrix(part, 80, rng)
    q_d, _ = dn_split(Q + BlockMatrix.from_entries(
        8, 2, {((1, 0), (0, 1)): QQi(1, 2)}), part)
    assert commutator(q_d, weight).entries == {}


def test_norm_equivalence_reported():
    part = partition()
    c, C = norm_equivalence_constants(TABLE, part)
    assert 0 < c <= C


@pytest.mark.parametrize("rows,radius", [([[1, 0], [0, 1]], 8),
                                         ([["1", "1/2"], ["0", "1"]], 12),
                                         ([["3/2"]], 20),
                                         ([["1", "1/2", "1/3"], ["0", "1", "2/5"],
                                           ["0", "0", "1"]], 4)])
def test_norm_equivalence_matches_site_walk(rows, radius):
    # the weight ratios over box_sites cluster by cluster, member by member
    basis = new_lattice(rows)
    part = build_partition(basis, radius, DELTA, enforce_delta_bound=False)
    sites = box_sites(radius, basis.d)
    ratios = [M**2 / (1.0 + sum(x * x for x in sites[i]))
              for c, M in enumerate(part.M_alpha) for i in part.members(c)]
    assert norm_equivalence_constants(box_table(basis, radius, DELTA),
                                      part) == \
        (min(ratios) ** (1.0 / 2.0), max(ratios) ** (1.0 / 2.0))
    with pytest.raises(BoxMismatch, match="box table of another"):
        norm_equivalence_constants(box_table(basis, radius + 1, DELTA), part)


def test_decay_profile_identity():
    entries = {((i, j), (i, j)): Fr(1)
               for i in range(-3, 4) for j in range(-3, 4)}
    Q = BlockMatrix.from_entries(3, 2, entries)
    prof = decay_profile(_identity_table(2, 3), Q, sigma=2.0, n_list=[1, 3])
    expected = max(1.0 / (1 + 2 * max(abs(i), abs(j))) ** 2
                   for i in range(-3, 4) for j in range(-3, 4))
    assert prof.seminorms[1] == pytest.approx(expected)
    assert prof.seminorms[3] == pytest.approx(expected)
    assert prof.seminorms[1] <= 1.0


def test_decay_profile_single_entry():
    Q = BlockMatrix.from_entries(6, 1, {((6,), (0,)): Fr(1)})
    prof = decay_profile(_identity_table(1, 6), Q, sigma=1.5, n_list=[2])
    assert prof.seminorms[2] == pytest.approx((1 + 6) ** 2 / (1 + 6) ** 1.5)
    assert prof.to_dict()["s_norms"] == {}


def test_decay_profile_zero():
    prof = decay_profile(_identity_table(1, 3), BlockMatrix(3, 1, {}),
                         sigma=0.0, n_list=[1, 2])
    assert all(v == 0.0 for v in prof.seminorms.values())


def test_remainder_support_clean_and_negative():
    part = partition()
    rng = random.Random(3)
    W = random_cross_cluster_matrix(part, 120, rng)
    sol = solve_homological(TABLE, W, part)
    assert verify_remainder_support(TABLE, sol) == []
    # an artificial near-diagonal remainder entry must be flagged; at
    # delta = 1/2 the support floor sqrt(10)/2 exceeds the offset 1
    bad = BlockMatrix.from_entries(8, 2, {((5, 0), (5, 1)): QQi(1, 0)})
    from toruskit.homological import HomologicalSolution
    fake = HomologicalSolution(X=BlockMatrix(8, 2, {}), R=bad, delta=Fr(1, 2))
    assert verify_remainder_support(TABLE, fake) == [((5, 0), (5, 1))]


def test_triplet_round_trip():
    part = partition()
    rng = random.Random(4)
    Q = random_cross_cluster_matrix(part, 30, rng)
    again = BlockMatrix.from_triplets(8, 2, Q.to_triplets())
    assert again == Q


# ---------------------------------------------------------------------------
# the integer gap path against the per-pair path it replaced: mu differences,
# the ge_pow threshold and the general complex quotient


def _sup(j):
    return max(abs(x) for x in j)


def _oracle_solve(basis, W, delta):
    x_entries, r_entries = {}, {}
    for (j, j2), w in _site_entries(W).items():
        gap = mu(basis, j2) - mu(basis, j)
        if ge_pow(4 * abs(gap), _sup(j) + _sup(j2), delta):
            x_entries[(j, j2)] = w / QQi(gap)
        else:
            r_entries[(j, j2)] = -w
    return x_entries, r_entries


def _oracle_residual(basis, W, sol):
    keys = (set(_site_entries(W)) | set(_site_entries(sol.X))
            | set(_site_entries(sol.R)))
    for j, j2 in sorted(keys):
        gap = mu(basis, j2) - mu(basis, j)
        x, w, r = sol.X.get(j, j2), W.get(j, j2), sol.R.get(j, j2)
        res = QQi(gap) * x - w - r
        if res:
            return (j, j2), res
    return None


def _corrupted(sol, radius, d, x=None, r=None):
    return HomologicalSolution(
        BlockMatrix(radius, d, sol.X.entries if x is None else x),
        BlockMatrix(radius, d, sol.R.entries if r is None else r), sol.delta)


def _same_first_failure(table, W, sol, key):
    key = table.sites[key[0]], table.sites[key[1]]
    got = homological_residual(table, W, sol)
    want = _oracle_residual(table.basis, W, sol)
    assert got is not None and got[0] == want[0] == key
    assert got[1] == want[1]


def _dense_rational(rng, d):
    while True:
        rows = [[Fr(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d)]
                for _ in range(d)]
        try:
            return new_lattice(rows)
        except SingularGenerators:
            continue


def _bases():
    rng = random.Random(2024)
    return [
        ("d1-scaled", new_lattice([[Fr(3, 2)]]), 12),
        ("d1-dense", _dense_rational(rng, 1), 12),
        ("d2-sheared", new_lattice([[1, Fr(1, 2)], [0, 1]]), 6),
        ("d2-diagonal", new_lattice([[1, 0], [0, Fr(3, 2)]]), 6),
        ("d2-dense", _dense_rational(rng, 2), 6),
        ("d3-sheared", new_lattice([[1, Fr(1, 3), 0], [0, 1, Fr(2, 5)],
                                    [0, 0, 1]]), 2),
        ("d3-diagonal", new_lattice([[2, 0, 0], [0, Fr(1, 2), 0],
                                     [0, 0, Fr(5, 3)]]), 2),
        ("d3-dense", _dense_rational(rng, 3), 2),
    ]


BASES = _bases()


@pytest.mark.parametrize("name, basis, radius", BASES,
                         ids=[b[0] for b in BASES])
@pytest.mark.parametrize("delta", [Fr(1, 10), Fr(1, 3), Fr(7, 9)])
def test_integer_gap_path_matches_per_pair_oracle(name, basis, radius, delta):
    table = box_table(basis, radius, delta)
    part = build_partition(basis, radius, delta, enforce_delta_bound=False)
    rng = random.Random(f"{name} {delta}")
    Q = random_cross_cluster_matrix(part, 80, rng)
    # mix the value types: QQi, Fraction and int entries
    items = {}
    for i, (key, v) in enumerate(sorted(_site_entries(Q).items())):
        items[key] = (v, v.re, v.re.numerator)[i % 3]
    W = BlockMatrix.from_entries(radius, basis.d, items)
    sol = solve_homological(table, W, part)
    x_oracle, r_oracle = _oracle_solve(basis, W, delta)
    x_sites, r_sites = _site_entries(sol.X), _site_entries(sol.R)
    assert x_sites == x_oracle and r_sites == r_oracle
    assert all(type(v) is QQi for v in chain(x_sites.values(), r_sites.values()))
    assert homological_residual(table, W, sol) is None
    assert _oracle_residual(basis, W, sol) is None
    assert verify_remainder_support(table, sol) == [
        key for key in sorted(r_sites)
        if not ge_pow(2 * max(abs(a - b) for a, b in zip(*key)),
                      _sup(key[0]) + _sup(key[1]), delta)]
    # corrupted solutions: both recomputations name the same first entry
    if sol.X.entries:
        key = sorted(sol.X.entries)[len(sol.X.entries) // 2]
        bad_x = dict(sol.X.entries)
        bad_x[key] = bad_x[key] + Fr(1, 7)
        _same_first_failure(table, W, _corrupted(sol, radius, basis.d, x=bad_x),
                            key)
    if sol.R.entries:
        key = sorted(sol.R.entries)[len(sol.R.entries) // 2]
        bad_r = dict(sol.R.entries)
        bad_r[key] = bad_r[key] - QQi(0, Fr(2, 9))
        _same_first_failure(table, W, _corrupted(sol, radius, basis.d, r=bad_r),
                            key)
    if not W.entries:
        return
    key = sorted(W.entries)[len(W.entries) // 3]
    dropped = _corrupted(
        sol, radius, basis.d,
        x={k: v for k, v in sol.X.entries.items() if k != key},
        r={k: v for k, v in sol.R.entries.items() if k != key})
    _same_first_failure(table, W, dropped, key)
    # a complex value is read at its binary value, so the integer identity
    # decides its key too
    w = W.entries[key]
    sites = (table.sites[key[0]], table.sites[key[1]])
    items[sites] = complex(w.re, w.im) + 0.1j
    W_c = BlockMatrix.from_entries(radius, basis.d, items)
    assert W_c.entries[key] == QQi(Fr(items[sites].real), Fr(items[sites].imag))
    sol_c = solve_homological(table, W_c, part)
    assert (homological_residual(table, W_c, sol_c)
            == _oracle_residual(basis, W_c, sol_c))
    dropped = _corrupted(
        sol_c, radius, basis.d,
        x={k: v for k, v in sol_c.X.entries.items() if k != key},
        r={k: v for k, v in sol_c.R.entries.items() if k != key})
    _same_first_failure(table, W_c, dropped, key)


def test_complex_values_solve_with_no_residual():
    """Complex values are read at their binary value, so a correct solve
    replays exactly; held as complex floats, key ((-8, -4), (3, 0)) read a
    residual of -5.55e-17."""
    basis = new_lattice([[1, Fr(1, 2)], [0, 1]])
    table = box_table(basis, 8, DELTA)
    part = build_partition(basis, 8, DELTA, enforce_delta_bound=False)
    Q = random_cross_cluster_matrix(part, 300, random.Random(1))
    items = {k: complex(float(v.re), float(v.im))
             for k, v in _site_entries(Q).items()}
    W = BlockMatrix.from_entries(8, 2, items)
    assert _site_entries(W) == {k: QQi(Fr(c.real), Fr(c.imag))
                                for k, c in items.items()}
    assert all(type(v) is QQi for v in W.entries.values())
    sol = solve_homological(table, W, part)
    assert ((-8, -4), (3, 0)) in _site_entries(sol.X)
    assert homological_residual(table, W, sol) is None


def test_from_entries_holds_every_value_as_qqi():
    # one reader: ints, Fractions, floats and complex values all become
    # QQi, and a zero of any type is dropped
    Q = BlockMatrix.from_entries(2, 1, {((0,), (1,)): 3,
                                        ((1,), (0,)): Fr(1, 2),
                                        ((2,), (0,)): 0.25,
                                        ((0,), (2,)): 1 + 2j,
                                        ((1,), (1,)): QQi(1, 2),
                                        ((-1,), (1,)): 0.0,
                                        ((-2,), (1,)): Fr(0)})
    assert _site_entries(Q) == {((0,), (1,)): QQi(3), ((1,), (0,)): QQi(Fr(1, 2)),
                                ((2,), (0,)): QQi(Fr(1, 4)),
                                ((0,), (2,)): QQi(1, 2), ((1,), (1,)): QQi(1, 2)}
    assert all(type(v) is QQi for v in Q.entries.values())
    assert BlockMatrix.from_entries(2, 1, {((1,), (2,)): 3}).entries == {
        (3, 4): QQi(3, 0)}
    # the constructor reads its values with the same reader
    assert BlockMatrix(2, 1, {(2, 3): 3, (3, 2): 0.25, (4, 4): 0}).entries == {
        (2, 3): QQi(3), (3, 2): QQi(Fr(1, 4))}


@pytest.mark.parametrize("value, part", [(float("nan"), "re"),
                                         (complex(1, float("inf")), "im"),
                                         (complex(float("-inf"), 0), "re")],
                         ids=["nan", "complex-inf-im", "complex-inf-re"])
def test_non_finite_entry_value_names_the_entry(value, part):
    from toruskit.errors import ParseError

    items = {((0, 0), (1, 0)): QQi(1), ((0, 1), (2, 0)): value}
    field = re.escape(f"entry ((0, 1), (2, 0)).{part}:")
    with pytest.raises(ParseError, match=field):
        BlockMatrix.from_entries(3, 2, items)
    with pytest.raises(TypeError, match="str"):
        BlockMatrix.from_entries(3, 2, {((0, 0), (1, 0)): "1/2"})


def test_homological_call_builds_one_box_table(monkeypatch, tmp_path):
    import toruskit.clusters as clusters
    import toruskit.runner as runner
    from toruskit.config import normalize
    from toruskit.runner import run_experiment

    lattice = {"matrix": [["1", "2/3"], ["0", "1"]]}
    params = {"box_radius": 6, "delta": "1/10",
              "allow_delta_above_theorem": True}
    run_experiment(normalize({"kind": "cluster", "cache": False,
                              "out_dir": str(tmp_path / "cluster"),
                              "lattice": lattice, "params": params}))
    calls = []

    def counted(*args):
        calls.append(args)
        return box_table(*args)

    # the runner's binding and the one the clusters functions look up
    monkeypatch.setattr(clusters, "box_table", counted)
    monkeypatch.setattr(runner, "box_table", counted)
    monkeypatch.setenv("TORUSKIT_CACHE", str(tmp_path / "cache"))
    from_file = {"partition_file": str(tmp_path / "cluster" / "partition.json")}
    matrices = []
    for cache, state, extra in ((False, "off", {}), (True, "miss", {}),
                                (True, "hit", {}), (True, None, from_file)):
        out = tmp_path / (state or "file")
        report = run_experiment(normalize({
            "kind": "homological", "cache": cache, "out_dir": str(out),
            "lattice": lattice,
            "params": {**params, "entries": 60, **extra}}))
        assert report.meta["counters"].get("partition_cache") == state
        assert report.passed
        assert len(calls) == 1, state
        calls.clear()
        matrices.append((out / "matrix.json").read_bytes())
    assert len(set(matrices)) == 1


def test_only_the_input_boundary_reads_sites(monkeypatch):
    import toruskit.homological as hom

    calls = []
    real = hom._box_index
    monkeypatch.setattr(hom, "_box_index",
                        lambda N, d, j: calls.append(tuple(j)) or real(N, d, j))
    part = partition()
    W = random_cross_cluster_matrix(part, 40, random.Random(5))
    W = W + BlockMatrix(8, 2, {(0, 0): QQi(1, 2)})
    q_d, q_nd = dn_split(W, part)
    sol = solve_homological(TABLE, q_nd, part)
    assert homological_residual(TABLE, q_nd, sol) is None
    assert verify_remainder_support(TABLE, sol) == []
    decay_profile(TABLE, sol.X, 1, [1])
    assert commutator(q_d, cluster_weight_operator(part)).entries == {}
    assert calls == []
    # from_entries and from_triplets read the sites of each entry
    items = _site_entries(W)
    assert BlockMatrix.from_entries(8, 2, items) == W
    assert calls == [j for key in items for j in key]
    calls.clear()
    assert BlockMatrix.from_triplets(8, 2, W.to_triplets()) == W
    assert calls == [j for key in sorted(items) for j in key]


@pytest.mark.parametrize("key, message", [
    (((0.5, 0), (1, 0)), "[0.5, 0] has a non-integer coordinate"),
    (((0, 0), (1, True)), "[1, True] has a non-integer coordinate"),
    (((1.9, 0), (0, 0)), "[1.9, 0] has a non-integer coordinate"),
    (((3, 0), (0, 0)), "[3, 0] lies outside [-2, 2]^2"),
    (((0, 0), (0, 0, 0)), "[0, 0, 0] has length 3, d is 2"),
], ids=["fractional", "boolean", "truncated", "outside", "wrong-length"])
def test_from_entries_reads_whole_box_sites_only(key, message):
    items = {((0, 0), (1, 0)): 1, key: 2}
    with pytest.raises(BoxMismatch,
                       match=re.escape(f"entry {key}: {message}")):
        BlockMatrix.from_entries(2, 2, items)


def test_solve_refuses_a_table_of_another_box():
    part = partition()
    W = random_cross_cluster_matrix(part, 10, random.Random(0))
    for table in (box_table(B2, 7, DELTA), box_table(B2, 8, Fr(1, 20)),
                  box_table(new_lattice([["1"]]), 8, DELTA)):
        with pytest.raises(BoxMismatch, match="box table of another"):
            solve_homological(table, W, part)


@pytest.mark.parametrize("index, field, message", [
    ([0.5, 0], "j", "[0.5, 0] has a non-integer coordinate"),
    ([1, True], "j_prime", "[1, True] has a non-integer coordinate"),
    ([3, 0], "j", "[3, 0] lies outside [-2, 2]^2"),
    ([0, 0, 0], "j_prime", "[0, 0, 0] has length 3, d is 2"),
], ids=["fractional", "boolean", "outside", "wrong-length"])
def test_triplet_index_reads_whole_box_sites_only(index, field, message):
    from toruskit.errors import ParseError

    rows = [{"j": [0, 0], "j_prime": [1, 0], "re": "1", "im": "0"},
            {"j": [0, 1], "j_prime": [1, 1], "re": "1", "im": "0"}]
    rows[1][field] = index
    with pytest.raises(ParseError,
                       match=re.escape(f"entries[1].{field}: {message}")):
        BlockMatrix.from_triplets(2, 2, rows)


def test_float_matrix_file_runs_every_check(tmp_path):
    """Float entries of a matrix file are read at their exact binary value.

    Read as complex floats they made the exact entrywise identity fail on a
    correct solve (seeds 5 and 6 did).
    """
    from toruskit.config import normalize
    from toruskit.runner import run_experiment

    sheared = [["1", "1/2"], ["0", "1"]]
    basis = new_lattice(sheared)
    part = build_partition(basis, 6, DELTA, enforce_delta_bound=False)
    for seed in (5, 6, 7):
        rng = random.Random(seed)
        Q = random_cross_cluster_matrix(part, 40, rng)
        rows = [{"j": list(j), "j_prime": list(j2),
                 "re": rng.uniform(-2, 2), "im": rng.uniform(-2, 2)}
                for j, j2 in sorted(_site_entries(Q))]
        W = BlockMatrix.from_triplets(6, 2, rows)
        assert all(W.get(r["j"], r["j_prime"]) == QQi(Fr(r["re"]), Fr(r["im"]))
                   for r in rows)
        x_oracle, r_oracle = _oracle_solve(basis, dn_split(W, part)[1], DELTA)
        sol = solve_homological(box_table(basis, 6, DELTA), dn_split(W, part)[1],
                                part)
        assert x_oracle and (_site_entries(sol.X), _site_entries(sol.R)) == (
            x_oracle, r_oracle)
        path = tmp_path / f"matrix{seed}.json"
        path.write_text(json.dumps({"box_radius": 6, "d": 2, "entries": rows}))
        raw = {"kind": "homological", "out_dir": str(tmp_path / f"out{seed}"),
               "cache": False, "lattice": {"matrix": sheared},
               "params": {"box_radius": 6, "delta": "1/10",
                          "allow_delta_above_theorem": True,
                          "matrix_file": str(path)}}
        report = run_experiment(normalize(raw))
        checks = {c["name"]: c["passed"] for c in report.body["checks"]}
        assert len(checks) == 6 and all(checks.values()), checks


@pytest.mark.parametrize("part,bad", [("re", float("nan")),
                                      ("im", float("inf")),
                                      ("re", float("-inf"))])
def test_non_finite_matrix_entry_names_its_field(tmp_path, capsys, part, bad):
    from toruskit.cli import main
    from toruskit.errors import ParseError

    rows = [{"j": [0, 0], "j_prime": [1, 0], "re": 1.5, "im": 0},
            {"j": [0, 0], "j_prime": [2, 0], "re": 0.5, "im": 2}]
    rows[1][part] = bad
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"box_radius": 3, "d": 2, "entries": rows}))
    with pytest.raises(ParseError, match=rf"entries\[1\]\.{part}"):
        BlockMatrix.from_triplets(3, 2, json.loads(path.read_text())["entries"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "homological", "out_dir": str(tmp_path / "out"),
        "cache": False, "lattice": {"matrix": [["1", "1/2"], ["0", "1"]]},
        "params": {"box_radius": 3, "delta": "1/10",
                   "allow_delta_above_theorem": True,
                   "matrix_file": str(path)}}))
    assert main(["homological", "--config", str(config)]) == 2
    assert f"entries[1].{part}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the table draws and the per-offset decay sweep against the per-draw and
# per-entry code they replaced


def _oracle_random_matrix(partition, count, rng):
    sites = box_sites(partition.box_radius, partition.d)
    entries = {}
    attempts = 0
    while len(entries) < count and attempts < 50 * count:
        attempts += 1
        j = sites[rng.randrange(len(sites))]
        j2 = sites[rng.randrange(len(sites))]
        if partition.cluster_of(j) == partition.cluster_of(j2):
            continue
        v = QQi(Fr(rng.randint(-9, 9), rng.randint(1, 9)),
                Fr(rng.randint(-9, 9), rng.randint(1, 9)))
        if v:
            entries[(j, j2)] = v
    return entries


@pytest.mark.parametrize("name, basis, radius",
                         [BASES[0], BASES[2], BASES[5]],
                         ids=[BASES[i][0] for i in (0, 2, 5)])
def test_table_draws_match_per_draw_fractions(name, basis, radius):
    part = build_partition(basis, min(radius, 4), DELTA,
                           enforce_delta_bound=False)
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        Q = random_cross_cluster_matrix(part, 40, rng)
        want = _oracle_random_matrix(part, 40, oracle_rng)
        assert list(_site_entries(Q).items()) == list(want.items())
        assert rng.random() == oracle_rng.random()


def _choice_random_matrix(partition, count, rng):
    """The draw as ``rng.choice`` made it: a box index, then a row of the
    parts table and a part of that row, each by ``choice``."""
    indices = range(len(partition.cluster))
    parts = [[Fr(n, d) for d in range(1, 10)] for n in range(-9, 10)]
    entries = {}
    attempts = 0
    while len(entries) < count and attempts < 50 * count:
        attempts += 1
        i = rng.choice(indices)
        k = rng.choice(indices)
        if partition.cluster[i] == partition.cluster[k]:
            continue
        re = rng.choice(rng.choice(parts))
        im = rng.choice(rng.choice(parts))
        if re or im:
            entries[(i, k)] = QQi(re, im)
    return entries


@pytest.mark.parametrize("name, basis, radius",
                         [BASES[0], BASES[2], BASES[5]],
                         ids=[BASES[i][0] for i in (0, 2, 5)])
def test_getrandbits_draws_match_choice_draws(name, basis, radius):
    for box in sorted({0, 1, radius}):
        part = build_partition(basis, box, DELTA, enforce_delta_bound=False)
        for seed in range(20):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            Q = random_cross_cluster_matrix(part, 60, rng)
            want = _choice_random_matrix(part, 60, oracle_rng)
            assert list(Q.entries.items()) == list(want.items())
            assert rng.getstate() == oracle_rng.getstate()


def _oracle_decay(Q, sigma, n_list):
    seminorms = {int(n): 0.0 for n in n_list}
    for (j, j2), v in _site_entries(Q).items():
        a = abs(v)
        if a == 0.0:
            continue
        off = max(abs(x - y) for x, y in zip(j, j2))
        size = _sup(j) + _sup(j2)
        base = a / (1.0 + size) ** float(sigma)
        for n in seminorms:
            seminorms[n] = max(seminorms[n], base * (1.0 + off) ** n)
    return seminorms


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0, Fr(3, 2), 2.7])
# two random matrices per (d, sigma): each is seeded by the text of a tuple
# of s-norm orders, which the profile took until its s-norms were dropped,
# so the draws and the test ids stay those of that version
@pytest.mark.parametrize("s_list", [(), (1, Fr(1, 2), 2.5)])
def test_decay_profile_matches_per_entry_loop(d, sigma, s_list):
    rng = random.Random(f"{d} {sigma} {s_list}")
    radius = {1: 12, 2: 5, 3: 2}[d]
    coords = range(-radius, radius + 1)
    items = {}
    for i in range(150):
        key = (tuple(rng.choice(coords) for _ in range(d)),
               tuple(rng.choice(coords) for _ in range(d)))
        re, im = Fr(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-3, 3)
        items[key] = (QQi(re, im), re, complex(float(re), im))[i % 3]
    Q = BlockMatrix.from_entries(radius, d, items)
    for n_list in ([0], [0, 1, 3], [4, 2]):
        prof = decay_profile(_identity_table(d, radius), Q, sigma, n_list)
        seminorms = _oracle_decay(Q, sigma, n_list)
        assert prof.seminorms == seminorms
        assert list(prof.seminorms) == list(seminorms)
        assert prof.sigma == float(sigma)


@pytest.mark.parametrize("D", [1, 3, 2 * 3 * 5 * 7, 10**30 + 7])
def test_integer_quotient_matches_fraction_division(D):
    import toruskit.homological as hom

    rng = random.Random(D)
    gaps = [1, -1, 2, -6, D, -D, 10**25 + 1, -(3**50)]
    values = [QQi(Fr(rng.randint(-50, 50), rng.randint(1, 60)),
                  Fr(rng.randint(-50, 50), rng.randint(1, 60)))
              for _ in range(20)]
    values += [QQi(0, Fr(-7, 3)), QQi(Fr(10**40, 3), 0),
               QQi(Fr(-1, 10**30), Fr(D, 2))]
    for g in gaps:
        for w in values:
            got = hom._divide_by_gap(w, g, D)
            want = w / Fr(g, D)
            assert type(got) is QQi and got == want
            assert (got.re.numerator, got.re.denominator,
                    got.im.numerator, got.im.denominator) == (
                        want.re.numerator, want.re.denominator,
                        want.im.numerator, want.im.denominator)
    with pytest.raises(ZeroDivisionError):
        hom._divide_by_gap(QQi(1, 2), 0, D)
