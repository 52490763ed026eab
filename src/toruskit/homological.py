"""Finite-box block operators: diagonal splitting, homological equation, decay.

A block matrix here is a finitely supported map ``(j, j') -> value`` over a
box ``[-N, N]^d``, one mode per index, keyed by the row-major indices
``(i, k)`` of the sites in ``box_sites(N, d)``, whose order is the
lexicographic order of the sites.  Values are exact Gaussian rationals
(:class:`toruskit.exact.QQi`), read once where they enter, so every
statement holds entrywise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import exact
from .errors import BoxMismatch, IntraClusterEntry, ParseError
from .clusters import (BoxTable, ClusterPartition, _box_index, _spatial,
                       box_sites)
from .lattice import mu  # noqa: F401  unused; perfbench/tracing.py patches it here

_ZERO = exact.QQi()


@dataclass(frozen=True)
class BlockMatrix:
    """Block matrix valid by construction.

    ``BlockMatrix(N, d, entries)`` checks once that every key is a pair of
    indices into the box (:func:`_check_keys`) and reads every value as a
    :class:`toruskit.exact.QQi` (:func:`_exact_value`), dropping zeros.  A
    matrix this module derives from valid ones skips both passes
    (:func:`_block`).  ``entries`` is a read-only view, so the checks hold
    for the matrix's lifetime.
    """
    box_radius: int
    d: int
    entries: MappingProxyType  # (i, k) box indices -> nonzero QQi

    def __post_init__(self):
        _check_keys(self)
        entries = {}
        for key, v in self.entries.items():
            v = _exact_value(v, f"entry key {key}")
            if v:
                entries[key] = v
        object.__setattr__(self, "entries", MappingProxyType(entries))

    @staticmethod
    def from_entries(box_radius: int, d: int, items) -> "BlockMatrix":
        """Block matrix of the nonzero ``(j, j') -> value`` items.

        A site that :func:`toruskit.clusters._box_index` refuses raises
        BoxMismatch naming the entry.  Each value is read by
        :func:`_exact_value`, which names the entry when it refuses one.
        """
        entries = {}
        for (j, j2), v in dict(items).items():
            try:
                key = _box_index(box_radius, d, j), _box_index(box_radius, d, j2)
            except ValueError as exc:
                raise BoxMismatch(f"entry {(j, j2)}: {exc}") from None
            v = _exact_value(v, f"entry {(j, j2)}")
            if v:
                entries[key] = v
        return _block(box_radius, d, entries)

    def same_box(self, other) -> bool:
        return self.box_radius == other.box_radius and self.d == other.d

    def get(self, j, j2) -> exact.QQi:
        N, d = self.box_radius, self.d
        return self.entries.get((_box_index(N, d, j), _box_index(N, d, j2)),
                                _ZERO)

    def __add__(self, other) -> "BlockMatrix":
        if not self.same_box(other):
            raise BoxMismatch("adding block matrices from different boxes")
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out[k] + v if k in out else v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return _block(self.box_radius, self.d, out)

    def __eq__(self, other):
        return (isinstance(other, BlockMatrix) and self.same_box(other)
                and self.entries == other.entries)

    def triplet_rows(self):
        """``(j, j', re, im)`` per entry in key order, exact parts as strings
        (:func:`_value_parts`)."""
        sites = box_sites(self.box_radius, self.d)
        for i, k in sorted(self.entries):
            yield (sites[i], sites[k], *_value_parts(self.entries[i, k]))

    def to_triplets(self):
        """JSON-ready triplet list; exact values rendered as num/den strings."""
        return [{"j": list(j), "j_prime": list(j2), "re": re, "im": im}
                for j, j2, re, im in self.triplet_rows()]

    @staticmethod
    def from_triplets(box_radius: int, d: int, rows) -> "BlockMatrix":
        """Read triplet rows; every value becomes an exact :class:`QQi`.

        A ``re``/``im`` part is a rational, as
        :func:`toruskit.exact.parse_rational` reads it, or a finite float
        taken at its exact binary value; a NaN or infinite part raises
        ParseError naming ``entries[i].re`` or ``entries[i].im``.  An index
        that :func:`toruskit.clusters._box_index` refuses raises ParseError
        naming ``entries[i].j`` or ``entries[i].j_prime``.  A later row of
        the same sites replaces an earlier one.
        """
        entries = {}
        for i, rec in enumerate(rows):
            key = (_triplet_index(rec["j"], box_radius, d, f"entries[{i}].j"),
                   _triplet_index(rec["j_prime"], box_radius, d,
                                  f"entries[{i}].j_prime"))
            entries[key] = exact.QQi(
                *(_exact_part(rec[part], f"entries[{i}].{part}")
                  for part in ("re", "im")))
        return _block(box_radius, d,
                      {key: v for key, v in entries.items() if v})


def _block(box_radius: int, d: int, entries: dict) -> BlockMatrix:
    """The BlockMatrix of ``entries`` that hold in-box index-pair keys and
    nonzero QQi values already, built without the constructor's passes."""
    Q = object.__new__(BlockMatrix)
    vars(Q).update(box_radius=box_radius, d=d,
                   entries=MappingProxyType(entries))
    return Q


def _check_keys(Q: BlockMatrix) -> None:
    """Every key is a pair of int indices in ``[0, (2N+1)**d)``, else
    BoxMismatch: an index outside would read another site through Python's
    indexing."""
    size = (2 * Q.box_radius + 1) ** Q.d
    for key in Q.entries:
        if not (type(key) is tuple and len(key) == 2
                and all(type(i) is int and 0 <= i < size for i in key)):
            raise BoxMismatch(f"entry key {key!r}: not a pair of indices in "
                              f"[0, {size}), the sites of the box")


def _value_parts(v: exact.QQi) -> tuple:
    """``(re, im)`` of a QQi value as exact strings: the one value-to-parts
    rule of :meth:`BlockMatrix.to_triplets` and of the runner's streamed
    ``matrix.json``.  The integer parts are written as
    :func:`toruskit.exact.format_rational` writes a Fraction."""
    rn, rd, in_, id_ = v.rn, v.rd, v.in_, v.id_
    return (f"{rn}/{rd}" if rd != 1 else str(rn),
            f"{in_}/{id_}" if id_ != 1 else str(in_))


def _triplet_index(raw, box_radius: int, d: int, field: str) -> int:
    try:
        return _box_index(box_radius, d, raw)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def _exact_part(x, field: str) -> Fraction:
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParseError(f"{field}: {x!r} is not a finite number")
        return Fraction(x)
    return exact.parse_rational(x, field)


def _exact_value(v, field: str) -> exact.QQi:
    """The one reader of a block-matrix value: a QQi as it is, an int or
    Fraction as a real QQi, a float or complex at its binary value, part by
    part (a NaN or infinite part raises ParseError naming ``field``).  A
    bool or any other type raises TypeError."""
    if isinstance(v, exact.QQi):
        return v
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return exact.QQi(v)
    if not isinstance(v, (float, complex)):
        raise TypeError(f"{field}: a block-matrix value is an int, Fraction, "
                        f"QQi, float or complex, not {type(v).__name__}")
    v = complex(v)
    return exact.QQi(_exact_part(v.real, f"{field}.re"),
                     _exact_part(v.imag, f"{field}.im"))


def _table_of_box(table: BoxTable, M) -> None:
    # keys are indices into the table's lists, so the boxes must agree; M
    # is a BlockMatrix or a ClusterPartition
    if (table.box_radius, table.basis.d) != (M.box_radius, M.d):
        raise BoxMismatch("box table of another box radius or d")


def dn_split(Q: BlockMatrix, partition: ClusterPartition):
    """Split into the intra-cluster part and the cross-cluster part.

    The two parts recombine to Q exactly, entry by entry.
    """
    if Q.box_radius != partition.box_radius or Q.d != partition.d:
        raise BoxMismatch("matrix and partition on different boxes")
    cluster = partition.cluster
    diag, cross = {}, {}
    for key, v in Q.entries.items():
        i, k = key
        (diag if cluster[i] == cluster[k] else cross)[key] = v
    return _block(Q.box_radius, Q.d, diag), _block(Q.box_radius, Q.d, cross)


@dataclass(frozen=True)
class HomologicalSolution:
    X: BlockMatrix
    R: BlockMatrix
    delta: Fraction


def gap_clears(D, delta):
    """Predicate ``clears(g, s)``: ``|g / D| >= s**delta / 4`` for a gap numerator.

    With the integer gap ``g = n_j' - n_j`` of
    :class:`toruskit.clusters.BoxTable` numerators and a rational
    ``delta >= 0`` this is the integer compare ``4 |g| >= ceil(D s**delta)``
    (:func:`toruskit.exact.scaled_ceil_pow`).
    """
    ceil = exact.scaled_ceil_pow(D, delta)
    return lambda g, s: 4 * abs(g) >= ceil(s)


def solve_homological(table: BoxTable, W_ND: BlockMatrix,
                      partition: ClusterPartition) -> HomologicalSolution:
    """Solve the commutator equation for a cross-cluster interaction.

    Where the eigenvalue gap clears ``(|j|+|j'|)**delta / 4`` the entry is
    divided by the gap (building X); elsewhere it is moved, negated, into the
    remainder R.  The identity ``gap * X = W + R`` then holds entrywise with
    no error term.  ``table`` must be of the partition's box radius, d and
    delta, or BoxMismatch.  The gap of the key ``(i, k)`` is the integer
    ``n[k] - n[i]`` of ``table`` over its Gram denominator ``D``, the
    threshold test is an integer compare (:func:`gap_clears`) and a kept
    entry is divided on its integer parts, each part ``n/d`` becoming
    ``n*D / (d*g)`` in lowest terms.
    """
    N, d, delta = partition.box_radius, partition.d, partition.delta
    if W_ND.box_radius != N or W_ND.d != d:
        raise BoxMismatch("matrix and partition on different boxes")
    if (table.box_radius, table.basis.d, table.delta) != (N, d, delta):
        raise BoxMismatch("box table of another box radius, d or delta")
    n, sup, D = table.n, table.sup, table.D
    clears = gap_clears(D, delta)
    cluster = partition.cluster
    x_entries, r_entries = {}, {}
    for key, w in W_ND.entries.items():
        i, k = key
        if cluster[i] == cluster[k]:
            raise IntraClusterEntry(
                f"entry {(table.sites[i], table.sites[k])} is intra-cluster")
        g = n[k] - n[i]
        if clears(g, sup[i] + sup[k]):
            x_entries[key] = _divide_by_gap(w, g, D)
        else:
            r_entries[key] = -w
    return HomologicalSolution(X=_block(N, d, x_entries),
                               R=_block(N, d, r_entries), delta=delta)


def _divide_by_gap(w: exact.QQi, g: int, D: int) -> exact.QQi:
    """``w / (g / D)``; a part ``n/d`` becomes ``n*D / (d*g)``, brought to
    lowest terms on ints.  A zero gap raises ZeroDivisionError."""
    if not g:
        raise ZeroDivisionError("division by a zero gap")
    if g < 0:
        g, D = -g, -D
    rn, rd, in_, id_ = w.rn * D, w.rd * g, w.in_ * D, w.id_ * g
    c, e = math.gcd(rn, rd), math.gcd(in_, id_)
    return exact._qqi(rn // c, rd // c, in_ // e, id_ // e)


def homological_residual(table: BoxTable, W_ND: BlockMatrix,
                         solution: HomologicalSolution):
    """``((j, j'), value)`` of gap*X - W - R at the first key where it is
    nonzero, else None.

    Every entry is checked, none assumed, with the gaps of the ``table``
    that :func:`solve_homological` reads (the tests' ``lattice.mu``
    Fraction oracle is the independent check); a table of another box
    radius or d raises BoxMismatch.  Each real and imaginary part of an
    entry is tested as the integer identity
    ``xn*g*wd*rd == D*xd*(wn*rd + rn*wd)``, with the parts written
    ``xn/xd``, ``wn/wd``, ``rn/rd`` and the gap ``g/D``, so an entry that
    holds builds no Fraction.  The Fraction
    expression ``X*gap - W - R`` gives the residual of the first key that
    fails.
    """
    _table_of_box(table, W_ND)
    W, X, R = W_ND.entries, solution.X.entries, solution.R.entries
    n, D = table.n, table.D
    failed = [key for key in W.keys() | X.keys() | R.keys()
              if not _integer_identity_holds(n[key[1]] - n[key[0]], D,
                                             X.get(key, _ZERO),
                                             W.get(key, _ZERO),
                                             R.get(key, _ZERO))]
    if not failed:
        return None
    i, k = key = min(failed)
    gap = Fraction(n[k] - n[i], D)
    return ((table.sites[i], table.sites[k]),
            X.get(key, _ZERO) * gap - W.get(key, _ZERO) - R.get(key, _ZERO))


def _integer_identity_holds(g, D, x, w, r) -> bool:
    """``x * g / D == w + r`` part by part, on the QQi integer parts."""
    return (x.rn * g * w.rd * r.rd == D * x.rd * (w.rn * r.rd + r.rn * w.rd)
            and x.in_ * g * w.id_ * r.id_
            == D * x.id_ * (w.in_ * r.id_ + r.in_ * w.id_))


def cluster_weight_operator(partition: ClusterPartition) -> BlockMatrix:
    """Diagonal operator constant on clusters with value (max |j| in cluster)^2.

    The values are real QQi, one object per distinct maximum.  Commutes
    exactly with every intra-cluster block matrix.
    """
    M_alpha = partition.M_alpha
    square = {M: exact._qqi(M * M, 1, 0, 1) for M in set(M_alpha)}
    weight = [square[M] for M in M_alpha]
    return _block(partition.box_radius, partition.d, {
        (i, i): weight[c] for i, c in enumerate(partition.cluster)
        if M_alpha[c]})


def commutator(A: BlockMatrix, diag: BlockMatrix) -> BlockMatrix:
    """[A, D] for diagonal D: entry (j,j') scaled by D_{j'j'} - D_{jj}."""
    if not A.same_box(diag):
        raise BoxMismatch("commutator operands on different boxes")
    weight = diag.entries
    out = {}
    for key, v in A.entries.items():
        i, k = key
        w = v * (weight.get((k, k), _ZERO) - weight.get((i, i), _ZERO))
        if w:
            out[key] = w
    return _block(A.box_radius, A.d, out)


def norm_equivalence_constants(table: BoxTable, partition: ClusterPartition):
    """Floats (c, C) comparing the cluster-weight norm with the Sobolev norm.

    Computed over the box from the weight ratios, on the sites of the
    ``table``, which must be of the partition's box radius and d (else
    BoxMismatch); a cluster whose maximal mode is the origin alone yields
    c = 0, reported as-is.
    """
    _table_of_box(table, partition)
    weight = [M * M for M in partition.M_alpha]
    ratios = [weight[c] / (1.0 + sum(map(operator.mul, j, j)))
              for c, j in zip(partition.cluster, table.sites)]
    return min(ratios) ** (1.0 / 2.0), max(ratios) ** (1.0 / 2.0)


@dataclass
class DecayProfile:
    sigma: float
    seminorms: dict      # N -> sup over entries of |v| (1+|j-j'|)^N (1+|j|+|j'|)^-sigma

    def to_dict(self):
        # "s_norms" stays, empty: the recorded homological digests pin it
        return {"sigma": self.sigma,
                "seminorms": {str(k): v for k, v in sorted(self.seminorms.items())},
                "s_norms": {}}


def decay_profile(table: BoxTable, Q: BlockMatrix, sigma,
                  n_list) -> DecayProfile:
    """Off-diagonal decay seminorms.

    The sites and their sup norms are the ``table``'s; a table of another
    box radius or d raises BoxMismatch.
    """
    if not n_list:
        raise ValueError("need at least one decay order")
    _table_of_box(table, Q)
    sites, sup = table.sites, table.sup
    sigma = float(sigma)
    scale = {}      # size -> (1 + size)**sigma
    best = {}       # sup-offset -> largest a / (1 + size)**sigma
    for (i, k), v in Q.entries.items():
        size = sup[i] + sup[k]
        weight = scale.get(size)
        if weight is None:
            weight = scale[size] = (1.0 + size) ** sigma
        base = abs(v) / weight
        off = _spatial(sites[i], sites[k])
        if base > best.get(off, 0.0):
            best[off] = base
    # rounding is monotone, so max(b) * c == max(b * c) for c > 0
    seminorms = {}
    for n in n_list:
        n = int(n)
        seminorms[n] = max([0.0] + [b * (1.0 + off) ** n
                                     for off, b in best.items()])
    return DecayProfile(sigma=sigma, seminorms=seminorms)


def verify_remainder_support(table: BoxTable,
                             solution: HomologicalSolution) -> list:
    """Remainder entries must sit far off-diagonal: |j-j'| >= (|j|+|j'|)**delta / 2.

    Returns the violating site pairs ``(j, j')`` in order (empty whenever
    the partition separation holds, since near pairs with small eigenvalue
    gaps would have been linked); the sites and sup norms are the
    ``table``'s, and a table of another box radius or d raises
    BoxMismatch.  With the solution's rational ``delta`` the test is the
    integer compare ``2 |j-j'| >= ceil((|j|+|j'|)**delta)``
    (:func:`toruskit.exact.scaled_ceil_pow` with ``D = 1``).
    """
    _table_of_box(table, solution.R)
    ceil = exact.scaled_ceil_pow(1, solution.delta)
    sites, sup = table.sites, table.sup
    return [(sites[i], sites[k]) for i, k in sorted(solution.R.entries)
            if 2 * _spatial(sites[i], sites[k]) < ceil(sup[i] + sup[k])]


def random_cross_cluster_matrix(partition: ClusterPartition, count: int,
                                rng) -> BlockMatrix:
    """Random exact-valued matrix supported on cross-cluster pairs.

    Used by experiments and tests; ``rng`` is a ``random.Random``.  Each
    draw takes two box indices and two parts ``Fraction(randint(-9, 9),
    randint(1, 9))``, each part a row of a table built once per call and
    then an entry of that row.  The table holds the 171 parts as
    lowest-terms ``(numerator, denominator)`` int pairs, from which each
    entry's :class:`toruskit.exact.QQi` is built with no Fraction.  A draw
    below ``n`` takes ``rng.getrandbits(n.bit_length())`` until it is
    below ``n``: the rule by which ``Random.randint`` and
    ``Random.choice`` draw, so a seed gives the same matrix as the
    per-draw Fractions did.
    """
    bits = rng.getrandbits

    def below(n):
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    cluster = partition.cluster
    n = len(cluster)
    parts = [[(a // math.gcd(a, b), b // math.gcd(a, b)) for b in range(1, 10)]
             for a in range(-9, 10)]
    entries = {}
    attempts = 0
    while len(entries) < count and attempts < 50 * count:
        attempts += 1
        i, k = below(n), below(n)
        if cluster[i] == cluster[k]:
            continue
        rn, rd = parts[below(19)][below(9)]
        in_, id_ = parts[below(19)][below(9)]
        if rn or in_:
            entries[(i, k)] = exact._qqi(rn, rd, in_, id_)
    return _block(partition.box_radius, partition.d, entries)
