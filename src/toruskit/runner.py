"""Experiment orchestration: dispatch, reports, caching, plot-data emission.

Reports split into a ``meta`` part (wall time, timestamps, work counters)
and a ``body`` part that is a pure function of (config, seed): rerunning the
same config yields byte-identical body serializations.  Output files are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import random
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import __version__, exact
from .clusters import (
    ClusterPartition,
    box_sites,
    box_table,
    build_partition,  # noqa: F401  unused; perfbench/tracing.py patches it here
    chain_scaling_experiment,
    check_delta,
    group_links,
    relation_link,  # noqa: F401  unused; perfbench/tracing.py patches it here
    relation_links,
    verify_cluster_properties,
)
from .config import ExperimentConfig, read_json, serialize
from .errors import ParseError, ToruskitError, UnknownSeries, ValidationError
from .homological import (
    BlockMatrix,
    _value_parts,
    cluster_weight_operator,
    commutator,
    decay_profile,
    dn_split,
    gap_clears,
    homological_residual,
    norm_equivalence_constants,
    random_cross_cluster_matrix,
    solve_homological,
    verify_remainder_support,
)
from .lattice import cauchy_binet_det, gram_det_identity, new_lattice
from .spacetime import (
    ChainBilinearData,
    chain_det_identity,
    chain_pair_bounds,
    enumerate_singular_chains,
    excluded_lambda_measure,
)

Fr = Fraction


# ---------------------------------------------------------------------------
# reports


@dataclass
class RunReport:
    meta: dict
    body: dict

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.body["checks"])

    def body_bytes(self) -> bytes:
        return (json.dumps(self.body, sort_keys=True, separators=(",", ":"))
                + "\n").encode()

    def to_dict(self) -> dict:
        return {"meta": self.meta, "body": self.body}


def _check(name: str, passed: bool, detail: str = "", witness=None) -> dict:
    entry = {"name": name, "passed": bool(passed), "detail": detail}
    if witness is not None:
        entry["witness"] = witness
    return entry


@contextmanager
def _atomic_file(path: Path):
    # a temp file in the target directory, renamed over ``path`` on success
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    with _atomic_file(path) as handle:
        handle.write(text)


_encode_scalar = json.JSONEncoder().encode
_encode_str = json.encoder.encode_basestring_ascii


def _scalar_text(obj):
    # the JSON text of a non-container, None for a dict, list or tuple
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, (dict, list, tuple)):
        return None
    return _encode_scalar(obj)


def _json_key(key) -> str:
    # dumps' key coercion: numbers, bools and None become strings
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _encode_scalar(key)
    return _encode_str(key) + ": "


def _int_record_keys(records):
    """The sorted keys of ``records``, a nonempty list, when its items are
    dicts with one key set of at least two str keys and only int values
    (a bool is none); else None."""
    first = records[0]
    if type(first) is not dict or len(first) < 2:
        return None
    keys = first.keys()
    if (any(type(k) is not str for k in keys)
            or any(type(rec) is not dict or rec.keys() != keys
                   for rec in records)
            or any(type(v) is not int
                   for v in chain.from_iterable(map(dict.values, records)))):
        return None
    return sorted(keys)


def _write_json(write, obj, newline: str) -> None:
    # json.dumps(obj, indent=2, sort_keys=True) piece by piece; ``newline``
    # is a newline and the indentation of the enclosing level
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            head = sep + _json_key(key)
            text = _scalar_text(value)
            if text is None:
                write(head)
                _write_json(write, value, inner)
            else:
                write(head + text)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in obj):
            write("[" + inner + ("," + inner).join(map(int.__repr__, obj))
                  + newline + "]")
            return
        keys = _int_record_keys(obj)
        if keys is not None:
            # one template per record: "%" in a key is escaped as "%%"
            field = "," + inner + "  "
            record = ("{" + field[1:] + field.join(
                [_json_key(k).replace("%", "%%") + "%d" for k in keys])
                + inner + "}")
            values = operator.itemgetter(*keys)
            write("[" + inner + record % values(obj[0]))
            record = "," + inner + record
            for rec in obj[1:]:
                write(record % values(rec))
            write(newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            text = _scalar_text(value)
            if text is None:
                write(sep)
                _write_json(write, value, inner)
            else:
                write(sep + text)
            sep = "," + inner
        write(newline + "]")
    else:
        write(_scalar_text(obj))


def atomic_write_json(path: Path, payload) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.

    The text is streamed to the file as it is encoded, so no copy of the
    whole document is held in memory.  The report and ``--out`` go
    through it; ``matrix.json`` and ``partition.json`` (and so partition
    cache entries) have writers fitted to their shape
    (:func:`_write_matrix`, :func:`_write_partition`) with the same bytes.
    """
    with _atomic_file(path) as handle:
        _write_json(handle.write, payload, "\n")
        handle.write("\n")


def _write_matrix(path: Path, Q: BlockMatrix, sites) -> None:
    """Write ``Q`` (``d >= 1``) as ``atomic_write_json`` writes its triplets.

    The bytes are those of ``json.dumps({"box_radius": ..., "d": ...,
    "entries": Q.to_triplets()}, indent=2, sort_keys=True) + "\\n"``.
    ``sites`` are ``box_sites`` of ``Q``'s box.  A box index recurs across
    rows, so the text of each index list is rendered once.  A value's parts
    are :func:`toruskit.homological._value_parts` strings, made of digits,
    ``-`` and ``/``, which JSON quotes as they are, so each row is one ``%``
    format; the rows are streamed to the file.
    """
    key = "\n      "
    site = "[" + key + "  " + ("," + key + "  ").join(["%d"] * Q.d) + key + "]"
    entries = Q.entries
    index = {i: site % sites[i] for i in {i for pair in entries for i in pair}}
    row = ("%s{" + key + '"im": "%s",' + key + '"j": %s,' + key
           + '"j_prime": %s,' + key + '"re": "%s"\n    }')
    with _atomic_file(path) as handle:
        write = handle.write
        write('{\n  "box_radius": ' + _scalar_text(Q.box_radius)
              + ',\n  "d": ' + _scalar_text(Q.d) + ',\n  "entries": ')
        sep = "[\n    "
        for i, k in sorted(entries):
            re, im = _value_parts(entries[i, k])
            write(row % (sep, im, index[i], index[k], re))
            sep = ",\n    "
        write("\n  ]\n}\n" if entries else "[]\n}\n")


def _write_partition(path: Path, partition: ClusterPartition) -> None:
    """Write ``partition`` as ``atomic_write_json`` writes its dict.

    The bytes are those of ``json.dumps(partition.to_dict(), indent=2,
    sort_keys=True) + "\\n"``, streamed from ``partition.members(c)`` per
    id with no dict built.  Ids, sup norms and coordinates are ints,
    ``boundary`` is a bool, a box has a cluster and a cluster a member, so
    each record and each member's index list is one ``%`` format.
    """
    key = "\n      "
    member = "\n        "
    inner = member + "  "
    index = "[" + inner + ("," + inner).join(["%d"] * partition.d) + member + "]"
    head = ('"M_alpha": %d,' + key + '"boundary": %s,' + key + '"id": %d,'
            + key + '"m_alpha": %d,' + key + '"members": ')
    sites = box_sites(partition.box_radius, partition.d)
    records = zip(partition.M_alpha, partition.boundary, partition.m_alpha)
    with _atomic_file(path) as handle:
        write = handle.write
        write('{\n  "box_radius": ' + _scalar_text(partition.box_radius)
              + ',\n  "clusters": ')
        sep = "[\n    {" + key
        for c, (M, boundary, m) in enumerate(records):
            members = ("[" + member + ("," + member).join(
                [index % sites[i] for i in partition.members(c)]) + key + "]")
            write(sep + head % (M, "true" if boundary else "false", c, m)
                  + members + "\n    }")
            sep = ",\n    {" + key
        write('\n  ],\n  "d": ' + _scalar_text(partition.d)
              + ',\n  "delta": '
              + _scalar_text(exact.format_rational(partition.delta))
              + ',\n  "margin": ' + _scalar_text(partition.margin) + "\n}\n")


# ---------------------------------------------------------------------------
# caching keyed by content hash


def cache_dir() -> Path:
    env = os.environ.get("TORUSKIT_CACHE")
    return Path(env) if env else Path.home() / ".cache" / "toruskit"


# Part of every cache key.  Bump it whenever a partition builder's output
# could change, so no entry computed by older code is ever served.
CACHE_SCHEMA = 2


def _cache_path(tag: str, payload: dict) -> Path:
    canon = json.dumps({"tag": tag, "payload": payload, "v": __version__,
                        "schema": CACHE_SCHEMA},
                       sort_keys=True, separators=(",", ":"))
    return cache_dir() / f"{hashlib.sha256(canon.encode()).hexdigest()}.json"


def cached(tag: str, payload: dict, compute, enabled: bool):
    """The partition ``compute()`` builds, stored under ``(tag, payload)``.

    A hit is read back with :meth:`ClusterPartition.from_dict`; an entry
    that is absent, unreadable or of the wrong shape is a miss.  A miss
    returns the built partition and stores it as ``partition.json`` is
    written (:func:`_write_partition`).
    """
    if not enabled:
        return compute()
    path = _cache_path(tag, payload)
    with suppress(OSError, KeyError, TypeError, ValueError, ToruskitError):
        return ClusterPartition.from_dict(json.loads(path.read_text()))
    result = compute()
    with suppress(OSError):
        _write_partition(path, result)
    return result


# ---------------------------------------------------------------------------
# per-kind experiments (each returns checks, fitted, data, output files and
# may record work counts in ``counters``, which go to the report's meta)


def _partition_for(config: ExperimentConfig, table,
                   counters: dict) -> ClusterPartition:
    # counters["partition_cache"] records off, hit or miss
    def build():
        counters["partition_cache"] = "miss" if config.cache else "off"
        return group_links(table, relation_links(table))

    counters["partition_cache"] = "hit"
    payload = {"lattice": config.lattice, "box_radius": table.box_radius,
               "delta": config.params["delta"]}
    return cached("partition", payload, build, config.cache)


def _run_cluster(config: ExperimentConfig, out_dir: Path, counters: dict):
    basis = config.basis()
    p = config.params
    N = p["box_radius"]
    delta = check_delta(basis.d, p["delta"], not p["allow_delta_above_theorem"])
    # one box table and one link scan serve the partition, the separation
    # check and edges.csv
    table = box_table(basis, N, delta)
    links = relation_links(table)
    partition = group_links(table, links)
    report = verify_cluster_properties(table, partition, links)
    expected = (2 * N + 1) ** basis.d
    counters.update(sites=expected, clusters=len(partition.M_alpha),
                    cross_pairs=report.pairs_checked)
    if p["edges_csv"]:
        counters["links"] = len(links)
    checks = [
        _check("partition_covers_box_once",
               len(partition.cluster) == expected,
               f"{len(partition.cluster)} sites vs {expected}"),
        _check("cross_cluster_separation",
               not report.separation_violations,
               f"{report.pairs_checked} interior cross pairs checked",
               witness=[[list(a), list(b)]
                        for a, b in report.separation_violations[:5]] or None),
        _check("dyadicity_above_threshold",
               not report.dyadic_violations,
               f"threshold {report.fitted_threshold}",
               witness=report.dyadic_violations[:5] or None),
    ]
    outputs = []
    part_path = out_dir / "partition.json"
    _write_partition(part_path, partition)
    outputs.append(part_path.name)
    if p["edges_csv"]:
        sites = table.sites
        lines = ["j1,j2"] + [f"\"{list(sites[i])}\",\"{list(sites[k])}\""
                             for i, k in links]
        edge_path = out_dir / "edges.csv"
        atomic_write_text(edge_path, "\n".join(lines) + "\n")
        outputs.append(edge_path.name)
    fitted = {"threshold": report.fitted_threshold,
              "constant": report.fitted_constant,
              "exponent": report.fitted_exponent}
    data = {"cluster_stats": report.cluster_stats,
            "interior_clusters": report.interior_clusters,
            "boundary_clusters": report.boundary_clusters,
            "pairs_checked": report.pairs_checked}
    return checks, fitted, data, outputs


def _run_chains(config: ExperimentConfig, out_dir: Path, counters: dict):
    basis = config.basis()
    p = config.params
    result = chain_scaling_experiment(basis, p["gammas"], p["box_radius"],
                                      node_budget=p["node_budget"])
    counters.update(sites=(2 * p["box_radius"] + 1) ** basis.d,
                    search_expanded=sum(r.expanded for r in result.rows),
                    search_floods=sum(r.floods for r in result.rows),
                    search_truncated=any(r.truncated for r in result.rows))
    replay_ok = all(r.witness.is_valid(basis) for r in result.rows)
    lengths = [r.length for r in result.rows]
    monotone = all(a <= b for a, b in zip(lengths, lengths[1:]))
    checks = [
        _check("witness_chains_replay", replay_ok,
               "every witness re-validates link by link"),
        _check("max_length_monotone_in_gamma", monotone, str(lengths)),
        _check("loglog_slope_below_dimensional_exponent", result.slope_ok,
               f"slope {result.slope:.4f} vs bound {result.slope_bound}"),
    ]
    data = {"scaling": [{"gamma": r.witness.gamma, "max_length": r.length,
                         "truncated": r.truncated} for r in result.rows],
            "witnesses": [[list(j) for j in r.witness.sites]
                          for r in result.rows]}
    fitted = {"slope": result.slope, "slope_bound": result.slope_bound}
    csv_path = _write_series("chain_scaling", data["scaling"], out_dir)
    return checks, fitted, data, [csv_path.name]


def _run_singular(config: ExperimentConfig, out_dir: Path, counters: dict):
    basis = config.basis()
    params = config.freq()
    p = config.params
    survey = enumerate_singular_chains(
        basis, params, p["symbol"], p["ell_radius"], p["j_radius"], p["gamma"],
        node_budget=p["node_budget"])
    counters.update(sites=survey.site_count, search_expanded=survey.expanded,
                    search_floods=survey.floods,
                    search_truncated=survey.truncated)
    replay_ok = all(c.is_valid(basis, params, p["symbol"]) for c in survey.chains)
    bound = p["exponent_bound"]
    fitted_exp = survey.fitted_exponent
    exp_ok = bound is None or not any(c.breaks_exponent_bound(bound)
                                      for c in survey.chains)
    pair_reports = [chain_pair_bounds(basis, params, c, p["symbol"])
                    for c in survey.chains]
    pair_c = max((r.empirical_constant for r in pair_reports), default=0.0)
    steps_ok = all(r.step_bound_ok in (None, True) for r in pair_reports)
    checks = [
        _check("singular_chains_replay", replay_ok,
               f"{len(survey.chains)} chains over {survey.site_count} sites"),
        _check("chain_length_polynomial_bound", exp_ok,
               f"fitted exponent {fitted_exp:.4f}"
               + (f" vs bound {bound}" if bound is not None else " (reported only)")),
        _check("pair_bilinear_bounds", True,
               f"empirical constant {pair_c:.4f}"),
        _check("theta_free_step_bound", steps_ok,
               "linear-kind consecutive-step budget 2(m+1)"),
    ]
    data = {
        "site_count": survey.site_count,
        "truncated": survey.truncated,
        "chains": [{"length": c.length, "section_count": c.section_count,
                    "min_exponent": c.min_exponent(),
                    "sites": [[list(s.ell), list(s.j), s.a] for s in c.sites]}
                   for c in survey.chains],
        "pair_bounds": [r.to_dict() for r in pair_reports],
    }
    fitted = {"exponent": fitted_exp, "pair_constant": pair_c}
    csv_path = _write_series("singular_chains", data["chains"], out_dir)
    return checks, fitted, data, [csv_path.name]


def _ls_slope_through_origin(xs, ys) -> float:
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return sxy / sxx if sxx else 0.0


def _run_measure(config: ExperimentConfig, out_dir: Path, counters: dict):
    basis = config.basis()
    p = config.params
    wb = config.frequency["omega_bar"]
    gammas = sorted(exact.parse_rational(x, "gamma") for x in p["gamma_grid"])
    curve = []
    for gamma in gammas:
        res = excluded_lambda_measure(basis, wb, gamma, p["tau"], p["g"],
                                      p["p_max"], p["m_max"])
        curve.append({"gamma": float(gamma),
                      "gamma_exact": exact.format_rational(gamma),
                      "excluded_measure": res.lambda_measure,
                      "xi_measure": exact.format_rational(res.xi_measure),
                      "pairs_excluding": res.pairs_excluding})
    measures = [row["excluded_measure"] for row in curve]
    monotone = all(a <= b + 1e-12 for a, b in zip(measures, measures[1:]))
    slopes = [_ls_slope_through_origin([float(g) for g in gammas], measures)]
    for t in range(1, p["doublings"] + 1):
        scaled = []
        for gamma in gammas:
            res = excluded_lambda_measure(basis, wb, gamma, p["tau"], p["g"],
                                          p["p_max"] * 2**t, p["m_max"] * 2**t)
            scaled.append(res.lambda_measure)
        slopes.append(_ls_slope_through_origin([float(g) for g in gammas], scaled))
    stable = all(abs(s - slopes[0]) <= 0.2 * abs(slopes[0]) + 1e-15
                 for s in slopes) if slopes[0] > 0 else all(s == 0 for s in slopes)
    vanishes = measures[0] <= 1.5 * slopes[0] * float(gammas[0]) + 1e-15
    checks = [
        _check("excluded_measure_monotone_in_gamma", monotone),
        _check("excluded_measure_vanishes_at_zero", vanishes,
               f"measure({gammas[0]}) = {measures[0]:.3e}"),
        _check("excluded_measure_slope_finite", math.isfinite(slopes[0]),
               f"slope {slopes[0]:.4f}"),
        _check("excluded_measure_slope_stable_under_range_doubling", stable,
               f"slopes {['%.4f' % s for s in slopes]}"),
    ]
    fitted = {"slopes": slopes}
    data = {"curve": curve}
    csv_path = _write_series("measure_curve", curve, out_dir)
    return checks, fitted, data, [csv_path.name]


def _read_input(field: str, path, parse):
    """``parse`` the JSON file at ``path``; bad content raises ParseError."""
    raw = read_json(path, field)
    try:
        return parse(raw)
    except (KeyError, TypeError, ValueError, ToruskitError) as exc:
        raise ParseError(f"{field}: {path}: malformed content "
                         f"({type(exc).__name__}: {exc})") from exc


def _matrix_on_box(raw, partition: ClusterPartition) -> BlockMatrix:
    """Read a matrix file's triplets; a box other than the partition's
    raises ParseError naming ``box_radius`` or ``d``."""
    for field, want in (("box_radius", partition.box_radius),
                        ("d", partition.d)):
        # true == 1 and 1.0 == 1, so the type is checked too
        if type(raw[field]) is not int or raw[field] != want:
            raise ParseError(f"{field}: {raw[field]!r} does not match the "
                             f"partition's {want}")
    return BlockMatrix.from_triplets(raw["box_radius"], raw["d"], raw["entries"])


def _run_homological(config: ExperimentConfig, out_dir: Path, counters: dict):
    basis = config.basis()
    p = config.params
    N = p["box_radius"]
    delta = check_delta(basis.d, p["delta"], not p["allow_delta_above_theorem"])
    # one box table serves a cache miss, the solve and the gap checks
    table = box_table(basis, N, delta)
    if p.get("partition_file"):
        path = p["partition_file"]
        partition = _read_input("params.partition_file", path,
                                ClusterPartition.from_dict)
        for field, want, whose in (("d", basis.d, "the lattice's"),
                                   ("box_radius", N, "the config's"),
                                   ("delta", delta, "the config's")):
            got = getattr(partition, field)
            if got != want:
                raise ParseError(f"params.partition_file: {path}: "
                                 f"{field} {got} is not {whose} {want}")
    else:
        partition = _partition_for(config, table, counters)
    if p.get("matrix_file"):
        Q = _read_input("params.matrix_file", p["matrix_file"],
                        lambda raw: _matrix_on_box(raw, partition))
    else:
        rng = random.Random(config.seed)
        Q = random_cross_cluster_matrix(partition, p["entries"], rng)
    q_d, q_nd = dn_split(Q, partition)
    recombined = q_d + q_nd
    solution = solve_homological(table, q_nd, partition)
    residual = homological_residual(table, q_nd, solution)
    support_bad = verify_remainder_support(table, solution)
    X, R = solution.X.entries, solution.R.entries
    disjoint = not (X.keys() & R.keys())
    covered = X.keys() | R.keys() == q_nd.entries.keys()
    n, sup, clears = table.n, table.sup, gap_clears(table.D, solution.delta)
    gap_ok = all(clears(n[k] - n[i], sup[i] + sup[k]) for i, k in X)
    counters.update(entries=len(Q.entries), cross_entries=len(q_nd.entries),
                    x_entries=len(X), r_entries=len(R),
                    gap_sites=len({i for key in q_nd.entries for i in key}))
    weight = cluster_weight_operator(partition)
    comm = commutator(q_d, weight)
    c_norm, C_norm = norm_equivalence_constants(table, partition)
    checks = [
        _check("split_recombines_exactly", recombined == Q),
        _check("homological_identity_entrywise", residual is None,
               witness=None if residual is None
               else [list(residual[0][0]), list(residual[0][1])]),
        _check("solution_supports_disjoint_and_cover", disjoint and covered),
        _check("solved_entries_clear_gap_threshold", gap_ok,
               "every kept entry has |gap| >= (|j|+|j'|)^delta / 4"),
        _check("remainder_support_far_off_diagonal", not support_bad,
               witness=[[list(a), list(b)] for a, b in support_bad[:5]] or None),
        _check("weight_operator_commutes_with_diagonal_part",
               not comm.entries),
    ]
    profile_x = decay_profile(table, solution.X, p["sigma"], p["decay_orders"])
    profile_r = decay_profile(table, solution.R, p["sigma"], p["decay_orders"])
    fitted = {"norm_equivalence": [c_norm, C_norm]}
    data = {"entry_count": len(Q.entries),
            "cross_entries": len(q_nd.entries),
            "x_entries": len(X),
            "r_entries": len(R),
            "decay_X": profile_x.to_dict(),
            "decay_R": profile_r.to_dict()}
    mat_path = out_dir / "matrix.json"
    _write_matrix(mat_path, Q, table.sites)
    return checks, fitted, data, [mat_path.name]


def _random_rational_matrix(rng, d):
    """Integer rows ``A`` and ``D`` of the d x d matrix ``A / D`` whose
    entries are ``randint(-5, 5) / randint(1, 3)``, drawn row by row,
    numerator first; ``D`` is the lcm of the entries' lowest-terms
    denominators, as :func:`toruskit.exact._clear` takes it."""
    pairs = [[(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
             for _ in range(d)]
    D = math.lcm(*(q // math.gcd(p, q) for row in pairs for p, q in row))
    return [[p * D // q for p, q in row] for row in pairs], D


def _random_basis(rng, d):
    # redraw until the generators are nonsingular
    while True:
        A, D = _random_rational_matrix(rng, d)
        try:
            return new_lattice([[Fr(a, D) for a in row] for row in A])
        except ToruskitError:
            pass


def _run_verify(config: ExperimentConfig, out_dir: Path, counters: dict):
    p = config.params
    rng = random.Random(config.seed)
    dims = list(range(p["d_min"], p["d_max"] + 1))
    failures = {"compound": 0, "cauchy_binet": 0, "gram": 0, "chain_det": 0}

    for t in range(p["trials_compound"]):
        d = dims[t % len(dims)]
        while True:
            # W = A / D, and one elimination gives A^-1 = R / c or singular
            A = _random_rational_matrix(rng, d)[0]
            inverse = exact._int_inverse(A)
            if inverse is not None:
                break
        R, c = inverse
        for g in range(1, d + 1):
            # W^-1 = D R / c, so C_g(W) C_g(W^-1) = I is C_g(A) C_g(R) = c^g I
            cols = list(zip(*exact._int_compound(R, g)))
            cg = c**g
            if any(sum(map(operator.mul, row, col)) != (cg if i == k else 0)
                   for i, row in enumerate(exact._int_compound(A, g))
                   for k, col in enumerate(cols)):
                failures["compound"] += 1

    for t in range(p["trials_cauchy_binet"]):
        d = dims[t % len(dims)]
        g = rng.randint(1, d)
        M = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(g)]
        N = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(d)]
        direct = exact.det(exact.mat_mul(M, N))
        if cauchy_binet_det(M, N) != direct:
            failures["cauchy_binet"] += 1

    for t in range(p["trials_gram"]):
        d = dims[t % len(dims)]
        g = rng.randint(1, d)
        basis = _random_basis(rng, d)
        fs = _independent_int_vectors(rng, d, g)
        try:
            ident = gram_det_identity(basis, fs)
        except ToruskitError:
            failures["gram"] += 1
            continue
        # the columns W f_i = A f_i / c, then their Gram determinant over c^2g
        A, c = basis.image
        images = [[sum(map(operator.mul, row, f)) for row in A] for f in fs]
        direct = exact._int_det([[sum(map(operator.mul, u, v)) for v in images]
                                 for u in images])
        if ident.det.numerator * c ** (2 * g) != direct * ident.det.denominator:
            failures["gram"] += 1

    from .spacetime import FrequencyParams

    for t in range(p["trials_chain_det"]):
        d = dims[t % len(dims)]
        n = rng.randint(1, p["n_max"])
        g = rng.randint(1, d + 1)
        basis = _random_basis(rng, d)
        wb = _random_direction(rng, n)
        params = FrequencyParams(n=n, omega_bar=wb, gamma0=Fr(1, 100),
                                 tau0=Fr(n), lam=Fr(1), theta=Fr(0), mass=Fr(1))
        ls = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(g)]
        ks = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(g)]
        data = ChainBilinearData(basis=basis, params=params,
                                 l_vectors=tuple(ls), k_vectors=tuple(ks))
        try:
            ident = chain_det_identity(data)
        except ToruskitError:
            failures["chain_det"] += 1
            continue
        if not ident.m_bound_ok:
            failures["chain_det"] += 1

    checks = [
        _check("compound_inverse_identity", failures["compound"] == 0,
               f"{p['trials_compound']} matrices, all orders"),
        _check("cauchy_binet_matches_direct_determinant",
               failures["cauchy_binet"] == 0,
               f"{p['trials_cauchy_binet']} random integer pairs"),
        _check("gram_determinant_minor_identity", failures["gram"] == 0,
               f"{p['trials_gram']} random bases and frames"),
        _check("chain_determinant_identity_and_m_bound",
               failures["chain_det"] == 0,
               f"{p['trials_chain_det']} synthetic difference sets"),
    ]
    return checks, {}, {"failures": failures}, []


def _independent_int_vectors(rng, d, g):
    while True:
        fs = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(g)]
        if exact.mat_rank([list(f) for f in fs]) == g:
            return fs


def _random_direction(rng, n):
    # rational direction with |.|_1 <= 1 and no zero entries
    while True:
        raw = [Fr(rng.randint(-9, 9), 1) for _ in range(n)]
        if all(raw):
            total = sum(abs(x) for x in raw) + rng.randint(1, 3)
            return tuple(x / total for x in raw)


_RUNNERS = {
    "cluster": _run_cluster,
    "chains": _run_chains,
    "singular": _run_singular,
    "measure": _run_measure,
    "homological": _run_homological,
    "verify": _run_verify,
}


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Dispatch a validated config, write outputs atomically, return the report."""
    start = time.time()
    target = Path(out_dir if out_dir is not None else config.out_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"out_dir: cannot create {target}: {exc}") from exc
    counters = {}
    checks, fitted, data, outputs = _RUNNERS[config.kind](config, target,
                                                          counters)
    counters["bytes_written"] = sum((target / name).stat().st_size
                                    for name in outputs)
    body = {
        "artifact": {"name": "toruskit", "version": __version__},
        "kind": config.kind,
        "seed": config.seed,
        "config": serialize(config),
        "checks": checks,
        "fitted": fitted,
        "data": data,
        "outputs": outputs,
    }
    meta = {"wall_time_s": time.time() - start,
            "created_unix": time.time(),
            "counters": counters}
    report = RunReport(meta=meta, body=body)
    atomic_write_json(target / f"report-{config.kind}.json", report.to_dict())
    return report


# ---------------------------------------------------------------------------
# plot-data emission


_SERIES = {
    "chain_scaling": ("scaling", "gamma,max_length",
                      lambda row: f"{row['gamma']},{row['max_length']}"),
    "measure_curve": ("curve", "gamma,excluded_measure",
                      lambda row: f"{row['gamma']},{row['excluded_measure']}"),
    "cluster_diameters": ("cluster_stats", "M_alpha,diameter",
                          lambda row: f"{row['M_alpha']},{row['diameter']}"),
    "singular_chains": ("chains", "length,section_count,min_exponent",
                        lambda row: f"{row['length']},{row['section_count']},{row['min_exponent']}"),
}


def _write_series(series: str, rows, out_dir) -> Path:
    # <out_dir>/<series>.csv: the series' header, then one line per data row
    _, header, fmt = _SERIES[series]
    path = Path(out_dir) / f"{series}.csv"
    atomic_write_text(path, "\n".join([header] + [fmt(r) for r in rows]) + "\n")
    return path


def emit_plot_data(report: RunReport, series: str, out_dir) -> Path:
    """Write one CSV per requested series from a run report."""
    if series not in _SERIES:
        raise UnknownSeries(f"no series named {series!r}; "
                            f"known: {', '.join(sorted(_SERIES))}")
    rows = report.body["data"].get(_SERIES[series][0])
    if rows is None:
        raise UnknownSeries(f"series {series!r} absent from this report kind")
    return _write_series(series, rows, out_dir)
